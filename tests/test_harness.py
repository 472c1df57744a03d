"""CLI commands, reports, exit codes, reproducibility."""

import ctypes
import functools
import glob
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from qx2src import adversaries, cli, gf2, harness, qsim
from qx2src.errors import DimensionError, ParameterError, ValidationError
from qx2src.extractors import random_flat_source
from qx2src.rng import derive_rng


def run_cli(*argv):
    return cli.main(list(argv))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# --------------------------------------------------------------------------
# extract


def test_extract_zero_files_multibit(tmp_path):
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    out = tmp_path / "out.bin"
    x.write_bytes(bytes(2))
    y.write_bytes(bytes(2))
    report = harness.run_extract(**{
        "x_path": str(x), "y_path": str(y), "out_path": str(out),
        "n": 16, "m": 8, "extractor": "multibit",
        "k1": 16, "k2": 16, "eps": 0.5,
    })
    assert out.read_bytes() == b"\x00"
    assert report.passed


def test_extract_deterministic(tmp_path):
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    x.write_bytes(bytes([0xDE, 0xAD, 0xBE, 0xEF]))
    y.write_bytes(bytes([0x01, 0x23, 0x45, 0x67]))
    outs = []
    for name in ("o1.bin", "o2.bin"):
        out = tmp_path / name
        report = harness.run_extract(**{
            "x_path": str(x), "y_path": str(y), "out_path": str(out),
            "n": 32, "m": 16, "extractor": "multibit",
            "k1": 32, "k2": 32, "eps": 0.5,
        })
        assert report.passed
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_extract_infeasible_warning_exit_2(tmp_path):
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    out = tmp_path / "out.bin"
    x.write_bytes(bytes(4))
    y.write_bytes(bytes(4))
    report = harness.run_extract(**{
        "x_path": str(x), "y_path": str(y), "out_path": str(out),
        "n": 32, "m": 16, "extractor": "multibit",
        "k1": 8, "k2": 8, "eps": 2.0 ** -10,
    })
    assert not report.passed
    assert out.exists()  # output still produced, flagged


def test_extract_short_input_exit_1(tmp_path):
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    x.write_bytes(bytes(1))
    y.write_bytes(bytes(4))
    code = run_cli("extract", "--x", str(x), "--y", str(y),
                   "--n", "32", "--m", "4")
    assert code == 1


def test_extract_hex_roundtrip(tmp_path):
    x = tmp_path / "x.hex"
    y = tmp_path / "y.hex"
    out = tmp_path / "out.hex"
    x.write_text("deadbeef\n")
    y.write_text("01234567\n")
    code = run_cli("extract", "--x", str(x), "--y", str(y),
                   "--output", str(out), "--format", "hex",
                   "--n", "32", "--m", "8", "--k1", "32", "--k2", "32",
                   "--eps", "0.25", "--out", str(tmp_path / "rep.json"))
    assert code == 0
    assert len(bytes.fromhex(out.read_text().strip())) == 1


def test_extract_composed_cli(tmp_path):
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    out = tmp_path / "out.bin"
    x.write_bytes(bytes(range(8)))
    y.write_bytes(bytes(range(8, 16)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 64, "m": 3, "extractor": "composed", "which": "X",
        "seeded": {"kind": "trevisan", "t": 8},
        "k1": 64, "k2": 64, "eps": 2.0 ** -2, "c_poly": 0.01,
    }))
    code = run_cli("extract", "--x", str(x), "--y", str(y),
                   "--output", str(out), "--config", str(cfg),
                   "--out", str(tmp_path / "rep.json"))
    assert code == 0
    assert len(out.read_bytes()) == 1


def test_extract_composed_large_degree_bound_keeps_the_default_bits(tmp_path):
    # digits of a design polynomial above those m - 1 needs are zero, so a
    # huge c gives the default design; c = 40000 once built t^c and hung
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    x.write_bytes(bytes(range(8)))
    y.write_bytes(bytes(range(8, 16)))
    outs = []
    for seeded in ({"kind": "trevisan", "t": 8}, {"kind": "trevisan", "t": 8, "c": 40000}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "m": 8, "extractor": "composed",
                                   "seeded": seeded, "k1": 64, "k2": 64,
                                   "eps": 0.25, "c_poly": 0.01}))
        out = tmp_path / "out.bin"
        start = time.perf_counter()
        assert run_cli("extract", "--x", str(x), "--y", str(y), "--output", str(out),
                       "--config", str(cfg), "--out", str(tmp_path / "rep.json")) == 0
        assert time.perf_counter() - start < 1
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_extract_ip_one_bit(tmp_path):
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    x.write_bytes(b"\xff")
    y.write_bytes(b"\x01")
    report = harness.run_extract(**{
        "x_path": str(x), "y_path": str(y),
        "n": 8, "m": 1, "extractor": "ip", "k1": 8, "k2": 8, "eps": 0.25,
    })
    assert report.passed


# --------------------------------------------------------------------------
# verify / attack smoke runs with small budgets


def test_verify_suite_smoke(tmp_path):
    rep = harness.run_verify("xor", seed=7, trials=12, equality_trials=6)
    assert rep.passed
    rep = harness.run_verify("reduction", seed=7, trials=10)
    assert rep.passed
    rep = harness.run_verify("normbound", seed=7, trials=10)
    assert rep.passed
    rep = harness.run_verify("matrices", seed=7, exhaustive_max_n=5,
                             random_ns=(16,), random_trials=50)
    assert rep.passed
    rep = harness.run_verify("security", seed=7, instances=4)
    assert rep.passed


def test_matrices_suite_counts_rank_deficient_subsets(monkeypatch, tmp_path):
    # a family whose first matrix is repeated: every subset holding both
    # copies loses them, and those holding nothing else are zero
    original = gf2.multiplier_matrices

    def repeated(n, m):
        mats = original(n, m)
        return mats[:1] + mats[:-1]

    monkeypatch.setattr(gf2, "multiplier_matrices", repeated)
    rep = harness.run_matrices_suite(seed=7, exhaustive_max_n=6, random_ns=(8,),
                                     random_trials=200)
    by_name = {r.name: r for r in rep.records}
    for n in range(2, 7):
        mats = repeated(n, n)
        want = sum(gf2.rank(gf2.subset_matrix(mats, mask)) == n
                   for mask in range(1, 1 << n))
        record = by_name[f"exhaustive subset ranks n={n}"]
        assert record.measured == want < (1 << n) - 1
        assert not record.passed
    assert not rep.passed
    out = tmp_path / "rep.json"
    assert run_cli("verify", "matrices", "--exhaustive-max-n", "4", "--out", str(out)) == 3
    assert json.loads(out.read_text())["passed"] is False


def test_security_suite_fails_on_storage_beyond_its_budget(monkeypatch):
    # storage of both whole 3-bit sources decodes the inner product: distance
    # 1/2 against bounds that are not vacuous at n = k = 3, b = 1, namely
    # 1/4 (product) and 2^-1.5 (entangled)
    monkeypatch.setattr(adversaries, "random_storage", lambda *args:
                        adversaries.classical_block_storage(range(3), range(3), 3, 3))
    rep = harness.run_verify("security", seed=4, n=3, k=3, b=1, instances=1)
    assert [r.measured for r in rep.records] == [pytest.approx(0.25, abs=1e-12),
                                                 pytest.approx(0.5 - 2 ** -1.5, abs=1e-12)]
    assert not any(r.passed for r in rep.records)


def test_xor_suite_fails_when_the_merge_loses_the_output(monkeypatch):
    # each merged bit uniform and independent of the storage: every character
    # reads 0, so the inequality's bound is 0, and the merge identity's side
    # reads 0 against the true one-bit 1-norm
    def uniform_bit(s, f):
        avg = s.average_state()
        batch = np.broadcast_shapes(s.probs.shape[:-1], np.shape(f)[:-1])
        return qsim.CqState(np.full(batch + (2,), 0.5),
                            np.broadcast_to(avg[..., None, :, :], batch + (2,) + avg.shape[-2:]))

    monkeypatch.setattr(qsim, "boolean_reduce", uniform_bit)
    rep = harness.run_verify("xor", seed=4, trials=20, equality_trials=20)
    assert [r.passed for r in rep.records] == [False, False]
    assert rep.records[0].measured > 0.3 and rep.records[1].measured > 0.9


def test_reduction_suite_fails_on_a_measurement_that_sees_nothing(monkeypatch):
    # the trivial POVM I/K leaves the classical side |P(f = 0) - 1/2|, below
    # what the quantum side reads on some trial
    monkeypatch.setattr(qsim, "pgm", lambda s: qsim.Povm(
        np.broadcast_to(np.eye(s.dim) / s.probs.shape[-1], s.rhos.shape)))
    rep = harness.run_verify("reduction", seed=4, trials=20)
    assert [r.passed for r in rep.records] == [False]
    assert rep.records[0].measured > 0.1


def test_normbound_suite_fails_when_the_weighting_is_dropped(monkeypatch):
    # R = I in place of sigma's pseudo-inverse square root makes the right
    # side half the Frobenius norm, which the trace norm exceeds
    pinv_sqrt_and_kernel = qsim._pinv_sqrt_and_kernel
    monkeypatch.setattr(qsim, "_pinv_sqrt_and_kernel", lambda rho: (
        np.broadcast_to(np.eye(rho.shape[-1]), rho.shape), pinv_sqrt_and_kernel(rho)[1]))
    rep = harness.run_verify("normbound", seed=4, trials=20)
    assert [r.passed for r in rep.records] == [False]
    assert rep.records[0].measured == pytest.approx(5.957, abs=1e-3)


def test_verify_unknown_suite():
    with pytest.raises(Exception):
        harness.run_verify("nonesuch")


def test_attack_reports_pass():
    assert harness.run_smp_attack(ns=(2,)).passed
    assert harness.run_superdense_attack(max_n=4).passed
    assert harness.run_knowledge_attack(3).passed
    assert harness.run_tightness_attack(4, 4, 4, 4, 4, "non-entangled").passed


def test_smp_attack_passes_at_odd_n():
    # odd n is padded to n + 1 bits: ceil(n/2) EPR pairs plus 2 weight qubits
    rep = harness.run_smp_attack(ns=(3, 5))
    assert rep.passed
    qubits = {r.name: (r.measured, r.bound) for r in rep.records if "qubits" in r.name}
    assert qubits == {"smp qubits per party n=3": (4, 4), "smp qubits per party n=5": (5, 5)}


def test_cli_verify_exit_codes(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli("verify", "matrices", "--seed", "3", "--out", str(out),
                   "--config", str(_write_config(tmp_path, {
                       "exhaustive_max_n": 4, "random_ns": [8],
                       "random_trials": 20})))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["config"]["seed"] == 3
    assert "wall_clock_s" in doc


def _write_config(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_cli_attack_tightness(tmp_path):
    out = tmp_path / "attack.json"
    code = run_cli("attack", "tightness", "--n", "4", "--k1", "4", "--k2", "4",
                   "--b1", "4", "--b2", "4", "--setting", "non-entangled",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["records"][0]["measured"] == pytest.approx(0.5, abs=1e-9)


def test_cli_attack_tightness_beyond_64_bits(tmp_path):
    # n = 70 bits, but with Delta < 0 Y sits at bit k1 = 10, so every source
    # value, parity and basis index fits 20 bits of a uint64
    out = tmp_path / "attack.json"
    code = run_cli("attack", "tightness", "--n", "70", "--k1", "10", "--k2", "10",
                   "--b1", "2", "--b2", "2", "--setting", "non-entangled",
                   "--out", str(out))
    assert code == 0
    record = json.loads(out.read_text())["records"][0]
    assert (record["name"], record["measured"]) == ("exact-branch advantage", 0.5)


@pytest.mark.parametrize("n, k1, k2, b1, b2, setting", [
    # the first two used to be refused as 2^40 and 2^50 pairs x 4^stored
    # qubits, the work of a dense measurement that the counted one never does
    (15, 10, 10, 5, 5, "non-entangled"),
    (10, 10, 10, 10, 0, "superstrong-entangled"),
    (20, 10, 10, 5, 5, "entangled"),
    (20, 10, 10, 5, 5, "superstrong-non-entangled"),
])
def test_cli_attack_tightness_at_the_size_limits(tmp_path, n, k1, k2, b1, b2, setting):
    # k1 + k2 = 20 source pairs with b1 + b2 = 10 stored qubits
    out = tmp_path / "attack.json"
    tracemalloc.start()
    try:
        code = run_cli("attack", "tightness", "--n", str(n), "--k1", str(k1),
                       "--k2", str(k2), "--b1", str(b1), "--b2", str(b2),
                       "--setting", setting, "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    record = json.loads(out.read_text())["records"][0]
    assert (record["name"], record["measured"]) == ("exact-branch advantage", 0.5)
    assert peak < 64 << 20


def test_cli_attack_missing_params():
    assert run_cli("attack", "tightness", "--n", "4") == 1


@pytest.mark.parametrize("command, code", [
    ("extract", 2), ("verify demo", 3), ("attack demo", 3)])
def test_cli_exit_code_of_a_failing_report(monkeypatch, tmp_path, command, code):
    # a report that fails exits 2 from extract and 3 from any verify or attack command
    @harness._command(command.replace(" ", ":"))
    def failing(report, seed: int = 0):
        report.add("always fails", 1.0, 0.0, False)

    monkeypatch.setitem(harness.COMMANDS, command, failing)
    out = tmp_path / "rep.json"
    assert run_cli(*command.split(), "--seed", "5", "--out", str(out)) == code
    doc = json.loads(out.read_text())
    assert (doc["command"], doc["config"], doc["passed"]) == (
        command.replace(" ", ":"), {"seed": 5}, False)


@pytest.mark.parametrize("command", [c for c in harness.COMMANDS if c != "bounds"])
def test_handler_signature_survives_a_wraps_layer(monkeypatch, command):
    # the benchmark's tracer wraps each handler with functools.wraps; the
    # wrapped handler must show the registry, and so the CLI, the same
    # parameters, and none of them the report the body receives
    handler = harness.COMMANDS[command]
    signature, params = inspect.signature(handler), harness.parameters(command)
    assert "report" not in signature.parameters

    @functools.wraps(handler)
    def traced(*args, **kwargs):
        return handler(*args, **kwargs)

    monkeypatch.setitem(harness.COMMANDS, command, traced)
    assert inspect.signature(traced) == signature
    assert harness.parameters(command) == params


def test_positional_and_keyword_calls_give_one_config():
    assert harness.run_knowledge_attack(3).config == harness.run_knowledge_attack(n=3).config \
        == {"n": 3, "seed": harness.DEFAULT_SEED}
    args = (4, 4, 4, 4, 4, "non-entangled")
    assert harness.run_tightness_attack(*args).config == harness.run_tightness_attack(
        **dict(zip(("n", "k1", "k2", "b1", "b2", "setting"), args))).config
    with pytest.raises(TypeError):
        harness.run_knowledge_attack(3, 4, 5)


@pytest.mark.parametrize("handler, kwargs, needle", [
    ("run_xor_suite", {"atol": "0.1", "trials": 2, "equality_trials": 1, "max_m": 1,
                       "max_d": 0}, "atol must be float"),
    ("run_security_suite", {"instances": 1, "n": 2, "k": 1, "b": 0, "atol": None},
     "atol must be float, got None"),
    ("run_extract", {"x_path": 1, "y_path": 2, "n": 8}, "x_path must be str"),
    ("run_smp_attack", {"ns": (True,)}, "ns must be int, got True"),
    ("bounds_table", {"n": 100, "k1": 80.5, "k2": 80}, "k1 must be int"),
    ("run_matrices_suite", {"random_ns": "88"}, "random_ns must be Sequence"),
    # None is the default of an Optional parameter, and is not echoed
    ("bounds_table", {"n": 100, "k1": 80, "k2": 80, "b1": None, "sweep": None}, None),
    ("run_extract", {"x_path": "X", "y_path": "X", "n": 16, "m": None, "seeded": None,
                     "format": None}, None),
])
def test_direct_calls_are_checked_like_configs_before_any_work(
        monkeypatch, tmp_path, handler, kwargs, needle):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(8)))
    kwargs = {k: str(x) if v == "X" else v for k, v in kwargs.items()}
    if needle is None:
        call = getattr(harness, handler)
        results = [call(**kwargs), call(**{k: v for k, v in kwargs.items() if v is not None})]
        if handler != "bounds_table":
            results = [report.to_dict(include_wall_clock=False) for report in results]
        assert results[0] == results[1]
        return

    def no_work(*args):
        raise AssertionError("the handler opened its report")

    monkeypatch.setattr(harness, "Report", no_work)
    with pytest.raises(ParameterError, match=needle):
        getattr(harness, handler)(**kwargs)


def test_each_command_walks_its_config_once(monkeypatch, tmp_path):
    from test_cli import SMALL_CONFIGS
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(8)))
    configs = [(command, {k: str(x) if v == "X" else v for k, v in config.items()})
               for command, config in SMALL_CONFIGS.items()]
    configs.append(("bounds", {"n": 100, "k1": 80, "k2": 80, "sweep": {"b1": [1, 2, 3]}}))
    walks, hints = [], []
    walk, get_type_hints = harness._walk, typing.get_type_hints
    monkeypatch.setattr(harness, "_walk", lambda *a, **k: walks.append(a) or walk(*a, **k))
    monkeypatch.setattr(typing, "get_type_hints",
                        lambda *a, **k: hints.append(a) or get_type_hints(*a, **k))
    for command, config in configs:
        walks.clear()
        hints.clear()
        harness.dispatch(command, config)
        assert (command, len(walks), len(hints)) == (command, 1, 1)


def test_cli_bounds_table(tmp_path):
    out = tmp_path / "bounds.json"
    code = run_cli("bounds", "--n", "100", "--k1", "80", "--k2", "80",
                   "--b1", "20", "--b2", "20", "--eps", str(2.0 ** -11),
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert row["one-bit_weak-min_entangled"]["value"] == 2.0 ** -11
    assert row["one-bit_weak-min_entangled"]["satisfied"] is True


def test_bounds_table_sweep_and_empty():
    table = harness.bounds_table(**{"n": 64, "k1": 60, "k2": 60,
                                  "sweep": {"b2": [0, 1, 2]}})
    assert len(table["rows"]) == 3
    # an empty sweep used to pass with no rows
    with pytest.raises(ParameterError, match="sweep of b2 needs at least one value"):
        harness.bounds_table(**{"n": 64, "k1": 60, "k2": 60, "sweep": {"b2": []}})
    # and a sweep of no parameter, with one row
    with pytest.raises(ParameterError, match="sweep must vary exactly one parameter"):
        harness.bounds_table(n=64, k1=60, k2=60, sweep={})


def test_bounds_single_point_echoes_calculator():
    table = harness.bounds_table(**{"n": 100, "k1": 100, "k2": 100,
                                  "eps": 2.0 ** -10})
    assert table["rows"][0]["strong_m_X_entangled"] == 41


# --------------------------------------------------------------------------
# verification suites in bulk and in stacks


def _random_masks_oracle(seed, n, count):
    """The matrices suite's masks, one rng.bytes draw per attempt."""
    rng = derive_rng(seed, 0x5E7, n)
    for _ in range(count):
        mask = 0
        while mask == 0:
            mask = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
        yield mask


@pytest.mark.parametrize("seed", [1, 4, 2024])
def test_bulk_masks_match_the_per_attempt_draws(seed):
    # n = 1..4 redraw often: at n = 1 half the attempts are zero
    for n in range(1, 65):
        masks = harness._random_masks(seed, n, 300)
        assert masks.dtype == np.uint64
        assert masks.tolist() == list(_random_masks_oracle(seed, n, 300)), n


@pytest.mark.parametrize("trials, max_m, max_d", [(1, 3, 3), (7, 3, 3), (100, 3, 3),
                                                  (45, 4, 4), (13, 1, 0), (50, 6, 2)])
def test_stacked_trials_keep_each_trial_its_shape_and_order(trials, max_m, max_d, monkeypatch):
    def case(m, d, ts):
        return qsim.random_cq_state(m, d, 0, ts), np.array([(t, m, d) for t in ts])

    def check(stack, tags):
        assert {(stack.width, stack.dim)} == {(m, 1 << d) for _, m, d in tags.tolist()}
        step = max(1, qsim.STACK_BYTES // (8 * stack.rhos[0].nbytes))
        assert len(stack.probs) == len(tags) <= step
        return tags

    want = [[t, 1 + t % max_m, t // max_m % (max_d + 1)] for t in range(trials)]
    assert harness._stacked_trials(trials, max_m, max_d, case, check) == want
    # stacks of one to six states: chunk edges inside each shape's trials
    monkeypatch.setattr(qsim, "STACK_BYTES", 8 * 3 * 16 << 2)
    assert harness._stacked_trials(trials, max_m, max_d, case, check) == want


def _peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_cq_suites_memory_at_the_largest_shapes():
    # one trial of each of the 42 shapes, each a stack of one
    assert _peak_mib(lambda: harness.run_xor_suite(
        seed=4, trials=42, equality_trials=42, max_m=6, max_d=6)) < 64
    assert _peak_mib(lambda: harness.run_reduction_suite(
        seed=4, trials=42, max_m=6, max_d=6)) < 64


def test_cq_suites_memory_stays_flat_in_the_trial_count():
    # 700 trials over 21 shapes: the 33 trials of shape (3, 6) hold 17 MB of
    # states, so stacks that took a shape whole would break the limit
    assert _peak_mib(lambda: harness.run_xor_suite(
        seed=4, trials=700, equality_trials=700, max_d=6)) < 16
    assert _peak_mib(lambda: harness.run_reduction_suite(seed=4, trials=700, max_d=6)) < 16
    # about 117 trials a shape: those on 6 qubits hold 15 MiB of operators and
    # sigmas, and as much again of normal draws
    assert _peak_mib(lambda: harness.run_normbound_suite(seed=4, trials=700, max_d=6)) < 16


def test_matrices_suite_memory_stays_flat_in_the_trial_count():
    # at n = 64 the peak is two 384 KiB arrays of one batch (its rows and the
    # rank's copy, or the copy and its scratch) beside the family's 128 KiB of
    # subset tables and the masks.  The 18,000 extra masks add 141 KiB and
    # their draw as much again; rows held for every batch would add 9 MiB,
    # and byte tables kept for the family 1 MiB
    def peak(trials):
        return _peak_mib(lambda: harness.run_matrices_suite(
            seed=4, exhaustive_max_n=1, random_ns=(64,), random_trials=trials))
    peak(1)     # the modulus search and the family's cache stay out of both peaks
    small, large = peak(2000), peak(20000)
    assert large - small < 0.25 and large < 1.5, (small, large)


def test_security_suite_memory_stays_within_the_chunk_budget():
    # two instances at k = 3, b = 3: each one's 64 joint states, 256-square,
    # would be 64 MiB whole.  The peak is one output chunk, one joint state's
    # shared state, unitary, product and result, and the distance's arrays.
    harness.run_security_suite(seed=4, instances=1, k=0, b=0)
    assert _peak_mib(lambda: harness.run_security_suite(seed=4, instances=2, k=3, b=3)) \
        < (5 * qsim.STACK_BYTES + (1 << 20)) / 2 ** 20


def _security_oracle(storage_oracle, seed, instances, n, k, b, flavor) -> list:
    """The security suite's distances one instance and one pair at a time:
    each instance's sources and strategy drawn alone, and its stored states
    summed per output bit in x-major pair order."""
    dists = []
    for i in range(instances):
        xs = random_flat_source(n, k, seed, 1, i)
        ys = random_flat_source(n, k, seed, 2, i)
        stored = storage_oracle(b, b, flavor, (seed ^ 0xF1A) + i)
        p_pair = xs.probability() * ys.probability()
        sums = {}
        for x in xs.support.tolist():
            for y in ys.support.tolist():
                bit = (x & y).bit_count() & 1
                p, total = sums.get(bit, (0.0, complex(-0.0, -0.0)))
                sums[bit] = (p + p_pair, total + stored(x, y))
        # a bit no pair has is held at probability 0
        zero = (0.0, np.zeros((1 << 2 * b,) * 2, dtype=complex))
        ps, totals = zip(*(sums.get(e, zero) for e in (0, 1)))
        state = qsim.CqState(ps, [t * p_pair / p if p else t for p, t in zip(ps, totals)])
        dists.append(qsim.cq_distance_from_uniform(state))
    return dists


@pytest.mark.parametrize("seed, config, stack_bytes", [
    (4, {}, None), (5, {}, None),               # the default sizes
    (4, {"k": 0}, None),                        # one pair and one label per instance
    (4, {"n": 1, "k": 1, "b": 0}, None),
    (4, {"n": 2, "k": 1, "b": 0}, None),        # some instances' bit is constant
    (4, {"b": 2, "instances": 4}, None),
    # stacks of 4 instances of 64 pairs, after the first pair output chunks
    # of 9 and joint-state chunks of 1: chunk edges inside instances and
    # between them, at pair 64
    (4, {"instances": 7}, 8 * 9 * 256),
])
def test_stacked_security_distances_match_the_per_instance_oracle(
        seed, config, stack_bytes, monkeypatch, random_storage_oracle):
    full = {"instances": 100, "n": 4, "k": 3, "b": 1, **config}
    seen = []
    distance = qsim.cq_distance_from_uniform
    monkeypatch.setattr(qsim, "cq_distance_from_uniform",
                        lambda s: seen.append((s, distance(s))) or seen[-1][1])
    if stack_bytes:
        monkeypatch.setattr(qsim, "STACK_BYTES", stack_bytes)
    harness.run_verify("security", seed=seed, **config)
    monkeypatch.undo()
    assert all(s.probs.ndim == 2 for s, _ in seen)
    assert len(seen) == (2 if stack_bytes is None else 4)
    dists = [d for _, values in seen for d in values.tolist()]
    for flavor, got in (("product", dists[:full["instances"]]),
                        ("entangled", dists[full["instances"]:])):
        assert got == _security_oracle(random_storage_oracle, seed, **full, flavor=flavor)
    if full["k"] == 0 or full["n"] == 2:
        # an instance whose bit is constant holds the other at probability 0
        assert any((s.probs == 0).any() for s, _ in seen)


# sha256 of to_json(include_wall_clock=False) at default sizes: a change to
# any reported bit fails here.  The bits hold for the numpy and the OpenBLAS
# core they were frozen under: another core's BLAS and LAPACK kernels round
# some records differently, so a failure names both environments.  Beside
# each sits a portable digest of every record's (name, measured, bound,
# passed), numbers at 9 significant digits and |x| < 1e-9 read as 0
# (perfbench's workloads.records_digest), which such rounding leaves alone.
FROZEN_UNDER = "numpy 2.4.6, OpenBLAS core SkylakeX, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
REPORT_DIGESTS = [
    ("matrices", 4, "8c4332a2fbd6deec2393b22b53db7f39face20541fc92ed1faaa87f012d8e35b",
     "b3038b0553bbefdc"),
    ("matrices", 5, "67a7b6fe03199d5b052cd3720d8d26f5e805d063f2768900d976ae6cb674792e",
     "b3038b0553bbefdc"),
    ("xor", 4, "fd0a299a0f13e22ca1a4c23608bdd2d0baa5e0269b2c65087f6ee86ad9499961",
     "cef7511cfdd85ac0"),
    ("xor", 5, "cfd2d2e63a31a4f4a1c9f4e3fb296395b9cd692443ac36ae5d6a748d60ef4957",
     "cef7511cfdd85ac0"),
    ("reduction", 4, "436c01f2a2955a89aa33366bc09cd641f0f7b0fcd5390c5e11eec34cea260178",
     "1c7bdcce2656d514"),
    ("reduction", 5, "bdfe2362441f221fcf541780fd4652376456b7ac4f9a28c5258163647526d30b",
     "1c7bdcce2656d514"),
    ("normbound", 4, "00d9d7420b2e1f96f8c2eca9b30e36306b425976e187f90388dbf933189cdce0",
     "bd79748f3c7bab88"),
    ("normbound", 5, "e42835bb2645bcaece77cb559fe104b12e8ced59e7d7265aa398bc15e7a4c820",
     "9fddf2adadb46af5"),
    ("security", 4, "af7145ca55af56f0fa1605d439869a8fef1d2af333e8deeb7268150b8c888887",
     "5862e17e7b0677fe"),
    ("security", 5, "15321461f6455620370cee5dcce9371689a332881c5aa5723fe4a6406416018a",
     "2e5c9d621ae6e8e3"),
]
# the same at seed 4 for security configs off the default: one pair and one
# label, larger states, instances whose bit is constant, and 62-bit sources
SECURITY_DIGESTS = [
    ({"k": 0}, "6010e37d6c16ee9edbd5109f58eaa7436f5d83de4dcf8252a9742bce8944b333",
     "cb95a248c076be7f"),
    ({"b": 2, "instances": 4},
     "fe53878096a7bce865c76bf1d4a7f8873d638e925773b935911a18602f6c719a", "f443d7606d74d493"),
    ({"n": 1, "k": 1, "b": 0},
     "a08a0c2ad6318f31667cb706fcc82d81cd6dc9035bbe421a90464aaa7af3cc60", "42fed8ed420667db"),
    ({"n": 62, "k": 6, "b": 0, "instances": 1},
     "a202884da0b7ed0e154fb0bfe13f5cc5e1ef9604ded322e2fd219f46b4232ac4", "26001bcc03cb5ba4"),
]


@functools.lru_cache(maxsize=None)
def _frozen_report(suite, seed, config=()) -> str:
    """run_verify's report as to_json(include_wall_clock=False), run once for
    both of its checks; config is a tuple of (key, value) pairs."""
    return harness.run_verify(suite, seed=seed, **dict(config)).to_json(include_wall_clock=False)


def _digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode()).hexdigest()


def _environment() -> str:
    """This process's numpy version, the core of numpy's bundled OpenBLAS and
    the SIMD targets numpy dispatches to on this CPU, in FROZEN_UNDER's form."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except (IndexError, OSError, AttributeError):
        core = "unknown"
    simd = [f for f in _multiarray_umath.__cpu_dispatch__
            if _multiarray_umath.__cpu_features__.get(f)]
    return f"numpy {np.__version__}, OpenBLAS core {core}, SIMD {' '.join(simd)}"


def test_the_environment_names_numpy_and_the_blas_core():
    numpy_part, core, simd = _environment().split(", ")
    assert numpy_part == f"numpy {np.__version__}" and core.startswith("OpenBLAS core ")
    assert simd.startswith("SIMD") and set(simd.split()[1:]) <= set(
        _multiarray_umath.__cpu_dispatch__)


@pytest.mark.parametrize("suite, seed, digest", [case[:3] for case in REPORT_DIGESTS])
def test_suite_reports_match_their_frozen_digests(suite, seed, digest):
    assert _digest(_frozen_report(suite, seed)) == digest, \
        f"frozen under {FROZEN_UNDER}, run under {_environment()}"


@pytest.mark.parametrize("config, digest", [case[:2] for case in SECURITY_DIGESTS])
def test_security_reports_off_the_default_sizes_match_their_frozen_digests(config, digest):
    assert _digest(_frozen_report("security", 4, tuple(config.items()))) == digest, \
        f"frozen under {FROZEN_UNDER}, run under {_environment()}"


@pytest.mark.parametrize("suite, seed, config, portable", [
    *((suite, seed, (), portable) for suite, seed, _, portable in REPORT_DIGESTS),
    *(("security", 4, tuple(config.items()), portable)
      for config, _, portable in SECURITY_DIGESTS)])
def test_reports_match_their_portable_digests(suite, seed, config, portable, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    records = json.loads(_frozen_report(suite, seed, config))["records"]
    assert importlib.import_module("workloads").records_digest(records) == portable


def test_float_limits_leave_integer_seeds_masked():
    # a seed too large for a float still runs, as its low 64 bits
    big = harness.run_verify("normbound", seed=10 ** 400, trials=3).to_dict(False)
    low = harness.run_verify("normbound", seed=10 ** 400 % 2 ** 64, trials=3).to_dict(False)
    assert big["records"] == low["records"] and big["config"]["seed"] == 10 ** 400


# --------------------------------------------------------------------------
# reproducibility


def test_reports_reproducible_excluding_wall_clock():
    a = harness.run_verify("xor", seed=11, trials=20, equality_trials=5)
    b = harness.run_verify("xor", seed=11, trials=20, equality_trials=5)
    assert a.to_json(include_wall_clock=False) == b.to_json(include_wall_clock=False)
    c = harness.run_tightness_attack(4, 4, 4, 4, 4, "entangled", seed=11)
    d = harness.run_tightness_attack(4, 4, 4, 4, 4, "entangled", seed=11)
    assert c.to_json(include_wall_clock=False) == d.to_json(include_wall_clock=False)


def test_reports_do_not_depend_on_the_blas_thread_count(monkeypatch):
    # b = 2 conjugates 64-square joint states, large enough for a threaded zgemm;
    # the attacks are the seven of the benchmark's cli list, at its seed-1 seed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    seed = ["--seed", str(workloads.derive_seed("cli-attack", 1) % (1 << 32))]
    flags = ("--n", "--k1", "--k2", "--b1", "--b2", "--setting")
    attacks = [["attack", "tightness", *(a for pair in zip(flags, map(str, params))
                                         for a in pair), *seed]
               for params in workloads.TIGHTNESS]
    attacks += [["attack", "smp", *seed], ["attack", "superdense", *seed],
                ["attack", "knowledge", "--n", "8", *seed]]
    script = ("import json, sys; from qx2src import cli, harness; reports = ["
              "harness.run_verify('xor', seed=5, trials=120, equality_trials=30), "
              "harness.run_verify('security', seed=5, instances=4, b=2)] + ["
              "harness.dispatch(*cli.parse(argv)[:2]) for argv in json.loads(sys.argv[1])]; "
              "sys.stdout.write('\\0'.join(r.to_json(include_wall_clock=False) for r in reports))")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(PERFBENCH.parent / "src"))
        reports.append(subprocess.run([sys.executable, "-c", script, json.dumps(attacks)],
                                      env=env, check=True, capture_output=True, text=True,
                                      timeout=300).stdout)
    assert reports[0] == reports[1], \
        f"frozen under {FROZEN_UNDER}, run under {_environment()}"
    docs = [json.loads(doc) for doc in reports[0].split("\0")]
    assert len(docs) == 9 and all(doc["passed"] for doc in docs)


def test_report_pass_flag_consistency():
    rep = harness.Report("demo", {"seed": 1})
    rep.add("ok", 1.0, 1.0, True)
    assert rep.passed
    rep.add("bad", 2.0, 1.0, False)
    assert not rep.passed


# --------------------------------------------------------------------------
# bad input: exit 1 with a one-line message, never a traceback or a vacuous pass


def _assert_one_line_error(capsys, *needles):
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "\n" not in err
    for needle in needles:
        assert needle in err


def test_cli_verify_security_zero_instances_exit_1(capsys):
    assert run_cli("verify", "security", "--instances", "0") == 1
    _assert_one_line_error(capsys, "instances")


def test_cli_verify_xor_negative_trials_exit_1(capsys):
    assert run_cli("verify", "xor", "--trials", "-5") == 1
    _assert_one_line_error(capsys, "trials")


@pytest.mark.parametrize("suite, param", [
    ("matrices", "exhaustive_max_n"), ("matrices", "random_trials"),
    ("xor", "trials"), ("xor", "equality_trials"), ("reduction", "trials"),
    ("normbound", "trials"), ("security", "instances"),
])
def test_suite_counts_below_one_rejected(suite, param):
    for bad in (0, -1):
        with pytest.raises(ParameterError, match=param):
            harness.run_verify(suite, **{param: bad})


def test_report_json_is_strict():
    rep = harness.Report("demo", {"seed": 1})
    rep.add("nan", float("nan"), 0.0, False)
    with pytest.raises(ValueError):
        rep.to_json()


def test_cli_bounds_missing_k_exit_1(capsys):
    assert run_cli("bounds", "--n", "10") == 1
    _assert_one_line_error(capsys, "--k1")


def test_bounds_table_rejects_unknown_sweep():
    with pytest.raises(ParameterError, match="k3"):
        harness.bounds_table(**{"n": 64, "k1": 60, "k2": 60, "sweep": {"k3": [1]}})


def test_cli_verify_unknown_config_key_exit_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"n": 4})
    assert run_cli("verify", "xor", "--config", str(cfg)) == 1
    _assert_one_line_error(capsys, "n")


def test_cli_extract_non_integer_config_exit_1(tmp_path, capsys):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(4))
    cfg = _write_config(tmp_path, {"m": "abc"})
    assert run_cli("extract", "--x", str(x), "--y", str(x), "--n", "32",
                   "--config", str(cfg)) == 1
    _assert_one_line_error(capsys, "abc")


@pytest.mark.parametrize("exc", [DimensionError, ValidationError])
def test_cli_maps_value_errors_to_exit_1(monkeypatch, capsys, exc):
    def broken_suite(seed: int = 0):
        raise exc("broken input")

    monkeypatch.setitem(harness.COMMANDS, "verify demo", broken_suite)
    assert run_cli("verify", "demo") == 1
    _assert_one_line_error(capsys, "broken input")


@pytest.mark.parametrize("payload, needle", [
    ({"mm": 5}, "mm"),
    ({"seeded": {"kind": "trevisan", "tt": 4}}, "tt"),
    ({"seeded": 4}, "seeded"),
])
def test_cli_extract_unknown_config_key_exit_1(tmp_path, capsys, payload, needle):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(4))
    cfg = _write_config(tmp_path, payload)
    assert run_cli("extract", "--x", str(x), "--y", str(x), "--n", "16",
                   "--config", str(cfg)) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("argv, needle", [
    (("attack", "smp", "--n", "4"), "n"),
    (("attack", "knowledge", "--n", "4", "--k1", "3"), "k1"),
    (("attack", "superdense", "--config", "CONFIG"), "max_m"),
])
def test_cli_attack_unknown_config_key_exit_1(tmp_path, capsys, argv, needle):
    cfg = _write_config(tmp_path, {"max_m": 4})
    argv = [str(cfg) if arg == "CONFIG" else arg for arg in argv]
    assert run_cli(*argv) == 1
    _assert_one_line_error(capsys, needle)


def test_extract_report_names_modulus(tmp_path):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(128)))
    base = {"x_path": str(x), "y_path": str(x), "m": 4}
    ip = harness.run_extract(**dict(base, n=16, extractor="ip", m=1))
    assert "modulus" not in ip.to_dict()
    for n, source, tail in ((16, "search", "0x2b"), (1024, "memo", "0x2cd")):
        report = harness.run_extract(**dict(base, n=n))
        doc = report.to_dict()
        assert doc["modulus"] == {"degree": n, "tail": tail, "source": source}
        assert doc["timings"]["modulus_s"] >= 0
        assert "timings" not in report.to_dict(include_wall_clock=False)
        assert report.to_dict(include_wall_clock=False)["modulus"] == doc["modulus"]


def test_matrices_report_times_subset_rows_and_rank():
    report = harness.run_verify("matrices", seed=3, exhaustive_max_n=4,
                                random_ns=(8, 64), random_trials=1500)
    timings = report.to_dict()["timings"]
    assert sorted(timings) == ["rank_s", "subset_rows_s"]
    assert all(t >= 0 for t in timings.values())
    assert sum(timings.values()) <= report.wall_clock_s
    assert "timings" not in report.to_dict(include_wall_clock=False)


# --------------------------------------------------------------------------
# the benchmark's per-layer tracer


def test_benchmark_tracer_runs_over_the_suites(monkeypatch, capsys):
    # the --trace 1 benchmark run at its warm-up sizes: a renamed layer, or a
    # CqState without dim or entries, fails here rather than in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    verify = workloads.VerifyWorkload
    original = qsim.cq_distance_from_uniform
    t = tracer.Tracer()
    t.install()
    t.active = True
    try:
        reports = [harness.run_verify(suite, seed=1, **verify.WARMUP[suite])
                   for suite, _ in verify.SUITES]
        code = cli.main(["attack", "tightness", "--n", "4", "--k1", "4", "--k2", "4",
                         "--b1", "4", "--b2", "4", "--setting", "entangled"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0 and all(r.passed for r in reports)
    assert qsim.cq_distance_from_uniform is original
    calls = dict(zip(tracer.SPAN_NAMES, t.calls))
    for name in tracer.LAYERS["qsim"]:
        if name not in ("random_unitary", "partial_trace"):
            assert calls[f"qsim.{name}"] > 0, name
    assert calls["adversaries.tightness_attack"] == 1
    assert t.max_dim >= 8 and t.max_labels >= 8
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    metrics = tracer.layer_metrics(t.snapshot(), 1.0, 1.0)
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
