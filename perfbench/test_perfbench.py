"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qx2src import cli, gf2  # noqa: E402,F401  (cli: the tracer wraps cli.main)
from qx2src.gf2 import BitVector  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    t = tracer.Tracer()
    a, b, c, d = range(4)
    # a [0, 10] calls b [1, 4] (which calls d [2, 3]) and then c [5, 6]
    t.open()
    t.open()
    t.open()
    t.close(d, 2.0, 3.0)
    t.close(b, 1.0, 4.0)
    t.open()
    t.close(c, 5.0, 6.0)
    t.close(a, 0.0, 10.0)
    assert t.self_s[:4] == [6.0, 2.0, 1.0, 1.0]
    assert t.total_s[:4] == [10.0, 3.0, 1.0, 1.0]
    assert t.calls[:4] == [1, 1, 1, 1]
    assert sum(t.self_s) == t.total_s[a]   # self times partition the root span


def test_layer_metrics_add_up_to_wall():
    snap = tracer.merge([])
    snap["self_s"][0] = 1.5
    snap["self_s"][5] = 0.25
    m = tracer.layer_metrics(snap, wall_s=3.0, untraced_wall_s=2.0, startup_s=0.5)
    assert m["trace.remainder_s"][0] == pytest.approx(0.75)
    assert m["trace.overhead"][0] == pytest.approx(0.5)


def _fake_job(name, output, check):
    return workloads.Job(name, "heavy", lambda: output, check)


def test_wrong_output_and_raising_job_are_failures():
    tally = workloads.Tally()

    def boom():
        raise ValueError("injected")
    jobs = [_fake_job("right", 1, lambda out: None if out == 1 else "wrong"),
            _fake_job("wrong", 2, lambda out: None if out == 1 else "wrong"),
            workloads.Job("raises", "light", boom, lambda out: None)]
    record = workloads.run_pass(jobs, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert set(record["latency"]) == {"right", "wrong", "raises"}


@pytest.mark.parametrize("seed, flip", [
    (1, 1),                 # frozen digest: one wrong bit is caught
    (987654, (1 << 512) - 1),   # spot checks: every sampled bit is wrong
])
def test_injected_wrong_extractor_output_is_caught(seed, flip):
    w = workloads.ExtractWorkload(seed, HERE, workloads.load_expected())
    job = {j.name: j for j in w.jobs(0)}["toeplitz"]
    good = job.run()
    assert job.check(good) is None
    bad = BitVector(good.length, good.value ^ flip)
    tally = workloads.Tally()
    workloads.run_pass([workloads.Job("toeplitz", "heavy", lambda: bad, job.check)],
                       tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_names_are_valid_and_declared():
    declared_workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(declared_workloads) == sorted(workloads.WORKLOADS)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    passes = [{"wall": 1.0, "heavy": 0.5, "light": 0.25}]

    class Fake:
        def peak_rss_mb(self):
            return 1.0
    e2e = run.end_to_end(Fake(), passes, [0.1])
    layers = tracer.layer_metrics(tracer.merge([]), 1.0, 1.0)
    assert set(e2e) == run.declared_metrics(0)
    assert set(layers) == run.declared_metrics(1)
    for name in [*declared_workloads, *e2e, *layers]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(declared_workloads)) == len(declared_workloads)


class TinyExtract(workloads.ExtractWorkload):
    """The extract workload at sizes that trace in well under a second."""
    IP_BITS, N, M, COMPOSED_M, T = 256, 64, 8, 16, 8
    IP_BATCH, MULTIBIT_BATCH = 2, 2
    traced_passes = 2


def _bindings():
    """Every value bound in a qx2src module namespace or module-level dict."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "qx2src" or modname.startswith("qx2src."):
            for key, val in vars(mod).items():
                out[(modname, key)] = val
                if isinstance(val, dict) and key != "__builtins__":
                    for k, v in list(val.items()):
                        out[(modname, key, k)] = v
    return out


def test_traced_run_restores_package_and_repeats_counts():
    expected = dict(workloads.load_expected())
    expected["moduli"] = {str(n): format(gf2.find_irreducible(n).value, "x")
                          for n in (4, 64)}
    w = TinyExtract(5, HERE, expected)
    w.setup()
    before = _bindings()
    tally = workloads.Tally()
    first = run.per_layer(w, tally)
    second = run.per_layer(w, tally)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())
    assert tally.failed == 0
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: second[k][0] for k in counts}
    assert first["extractors.compose_two_source.calls"][0] == 2
    assert first["gf2.inner_product.calls"][0] > 0
    selfs = sum(v for k, (v, _) in first.items() if k.endswith(".self_s"))
    assert selfs + first["cli.startup_s"][0] + first["trace.remainder_s"][0] == \
        pytest.approx(first["trace.wall_s"][0])
