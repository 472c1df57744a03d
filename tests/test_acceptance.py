"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s) and
asserts the criterion.  Runtime-limited criteria measure wall-clock
time with perf_counter.
"""

import json
import math
import time

import numpy as np

from qx2src import adversaries, bounds, cli, extractors, gf2, harness, qsim
from qx2src.gf2 import BitVector
from qx2src.rng import derive_rng


def _report(num, name, ok):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# --------------------------------------------------------------------------


def test_criterion_1_matrix_family_full_rank():
    t0 = time.perf_counter()
    rep = harness.run_matrices_suite(seed=2024, exhaustive_max_n=10,
                                     random_ns=(32, 64), random_trials=10000)
    elapsed = time.perf_counter() - t0
    _report(1, "subset-XOR full rank", rep.passed and elapsed < 60)


def test_criterion_2_xor_lemma():
    t0 = time.perf_counter()
    rep = harness.run_xor_suite(seed=2024, trials=1000, equality_trials=200,
                                max_m=3, max_d=3, atol=1e-8)
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in rep.records}
    ok = (rep.passed
          and by_name["one-bit merge identity max deviation"].measured <= 1e-9
          and elapsed < 300)
    _report(2, "cq xor inequality + merge identity", ok)


def test_criterion_3_one_bit_security_bound():
    t0 = time.perf_counter()
    rep = harness.run_security_suite(seed=2024, instances=100, n=4, k=3, b=1,
                                     atol=1e-8)
    elapsed = time.perf_counter() - t0
    _report(3, "one-bit distances within bias bound", rep.passed and elapsed < 600)


def test_criterion_4_smp_protocol():
    rep = harness.run_smp_attack(ns=(2, 4, 6))
    by_name = {r.name: r for r in rep.records}
    ok = rep.passed
    for n in (2, 4, 6):
        ok = ok and by_name[f"smp qubits per party n={n}"].measured == n // 2 + 2
        ok = ok and abs(by_name[f"smp simulation probability n={n}"].measured - 1) <= 1e-9
    _report(4, "entangled SMP inner product", ok)


def test_criterion_5_superdense_coding():
    rep = harness.run_superdense_attack(max_n=8)
    _report(5, "superdense coding roundtrips", rep.passed)


def test_criterion_6_tightness():
    ok = True
    for setting in ("non-entangled", "entangled"):
        exact = adversaries.tightness_attack(4, 4, 4, 4, 4, setting)
        assert exact.branch == "exact"
        adv_exact = adversaries.measure_attack_advantage(exact)
        ok = ok and abs(adv_exact - 0.5) <= 1e-9

    biased = adversaries.tightness_attack(8, 5, 5, 4, 4, "non-entangled",
                                          branch="biased")
    assert biased.l == 4
    adv_biased = adversaries.measure_attack_advantage(biased)
    ok = ok and adv_biased > 2 ** (-(5 + 5 - 4 - 8 + 5) / 2)

    pair = adversaries.biased_product_sources(4)
    ok = ok and pair.prob_zero == 1.0 and pair.prob_zero > 0.5 + 2 ** -1.5
    _report(6, "tightness attacks", ok)


def test_criterion_7_reduction_lemmas():
    worst = -math.inf
    for t in range(500):
        m = 1 + t % 3
        d = t // 3 % 4
        s = qsim.random_cq_state(m, d, 2024, [0x70000 + t])
        f = qsim.random_boolean_fn(m, 2024, [0x70000 + t])
        res = qsim.pgm_reduction_check(s, f)
        worst = max(worst, res.lhs[0] - math.sqrt(0.5 * res.classical_distance[0]))
    ok = worst <= 1e-8
    normbound = harness.run_normbound_suite(seed=2024, trials=200)
    _report(7, "pgm reduction + weighted-l2 lemma", ok and normbound.passed)


def test_criterion_8_pgm():
    completeness_worst = 0.0
    bracket_ok = True
    helstrom_worst = 0.0
    rng = derive_rng(2024, 0x8E57)
    for t in range(100):
        dim = 2 if t % 2 else 4
        p0 = float(rng.uniform(0.15, 0.85))
        rho0 = qsim.random_density(rng.normal(size=(2, dim, dim)))
        rho1 = qsim.random_density(rng.normal(size=(2, dim, dim)))
        s = qsim.CqState([p0, 1 - p0], [rho0, rho1])
        m = qsim.pgm(s)
        total = sum(m.elements)
        completeness_worst = max(completeness_worst,
                                 float(np.max(np.abs(total - np.eye(dim)))))
        p_pgm = qsim.guess_success(s, m)
        p_opt = qsim.helstrom_advantage(p0, rho0, 1 - p0, rho1)
        bracket_ok = bracket_ok and (p_opt ** 2 - 1e-9 <= p_pgm <= p_opt + 1e-9)
        # independent oracle: measure the positive/negative eigenspaces of
        # the weighted difference
        vals, vecs = np.linalg.eigh(p0 * rho0 - (1 - p0) * rho1)
        plus = (vecs * (vals > 0)) @ vecs.conj().T
        minus = np.eye(dim) - plus
        oracle = float(np.real(p0 * np.trace(plus @ rho0)
                               + (1 - p0) * np.trace(minus @ rho1)))
        helstrom_worst = max(helstrom_worst, abs(oracle - p_opt))
    ok = completeness_worst <= 1e-9 and bracket_ok and helstrom_worst <= 1e-9
    _report(8, "pgm completeness/bracket/helstrom", ok)


def test_criterion_9_guessing_entropy_counterexample():
    ok = True
    for n in (3, 4, 6):
        rep = adversaries.guessing_entropy_counterexample(n)
        ok = ok and rep.referee_correct_fraction == 1.0
        ok = ok and rep.guessing_entropy_single == n - 2
    _report(9, "weight-leak counterexample", ok)


def test_criterion_10_bound_calculators():
    ok = True
    # eps threshold at n=100, k=80, b=20, entangled
    p = bounds.ParamSet(n=100, k1=80, k2=80, b1=20, b2=20, eps=2.0 ** -11)
    rep = bounds.one_bit_condition(p, "weak-min", entangled=True)
    ok = ok and rep.satisfied and rep.value == 2.0 ** -11 and rep.slack == 0

    # strong multi-bit length
    p = bounds.ParamSet(n=100, k1=100, k2=100, b2=0, eps=2.0 ** -10)
    ok = ok and bounds.strong_output_len(p, "X", entangled=True) == 41
    ok = ok and bounds.strong_output_len(p, "X", entangled=False,
                                         knowledge=True) == 7

    # storage transfer eps
    ok = ok and bounds.storage_transfer(40, 40, 3, 2.0 ** -20).eps == 2.0 ** -9

    # bias bound examples, exact dyadic arithmetic
    p8 = bounds.ParamSet(n=8, k1=8, k2=8)
    ok = ok and bounds.ip_bias_bound(p8, 2, entangled=True) == 2.0 ** -3
    ok = ok and bounds.ip_bias_bound(p8, 0, entangled=False) == 2.0 ** -5

    # crossover sweep: classical-reduction route beats the direct route only
    # while b2 is a small fraction of k2 (about 1/19)
    k2 = 512
    crossings = []
    prev = None
    for b2 in range(0, 80):
        pt = bounds.ParamSet(n=1024, k1=1024, k2=k2, b2=b2, eps=2.0 ** -20,
                             c_poly=0.001)
        better = (bounds.composed_output_len(pt, "classical-reduction").value
                  > bounds.composed_output_len(pt, "storage").value)
        if prev is not None and better != prev:
            crossings.append(b2)
        prev = better
    ok = ok and len(crossings) == 1 and 1 / 30 <= crossings[0] / k2 <= 1 / 12
    _report(10, "bound calculator golden values", ok)


def test_criterion_11_performance():
    n = 1 << 20
    rng = derive_rng(2024, 0xF457)
    x = BitVector(n, int.from_bytes(rng.bytes(n // 8), "little"))
    y = BitVector(n, int.from_bytes(rng.bytes(n // 8), "little"))
    gf2.inner_product(x, y)  # warm
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        gf2.inner_product(x, y)
        best = min(best, time.perf_counter() - t0)
    ok = best < 0.010

    n2 = 4096
    x2 = BitVector(n2, int.from_bytes(rng.bytes(n2 // 8), "little"))
    y2 = BitVector(n2, int.from_bytes(rng.bytes(n2 // 8), "little"))
    t0 = time.perf_counter()
    out = extractors.multibit_extract(x2, y2, 512)
    elapsed = time.perf_counter() - t0
    ok = ok and out.length == 512 and elapsed < 5.0
    _report(11, f"performance (ip {best * 1e3:.2f} ms, multibit {elapsed:.2f} s)", ok)


def test_criterion_12_reproducibility(tmp_path):
    def strip_wall_clock(path):
        doc = json.loads(path.read_text())
        doc.pop("wall_clock_s", None)
        return json.dumps(doc, sort_keys=True)

    ok = True
    for i, name in ((0, "a.json"), (1, "b.json")):
        out = tmp_path / name
        code = cli.main(["verify", "xor", "--seed", "99", "--trials", "40",
                         "--out", str(out)])
        ok = ok and code == 0
    ok = ok and (strip_wall_clock(tmp_path / "a.json")
                 == strip_wall_clock(tmp_path / "b.json"))

    for i, name in ((0, "c.json"), (1, "d.json")):
        out = tmp_path / name
        code = cli.main(["attack", "knowledge", "--n", "4", "--seed", "7",
                         "--out", str(out)])
        ok = ok and code == 0
    ok = ok and (strip_wall_clock(tmp_path / "c.json")
                 == strip_wall_clock(tmp_path / "d.json"))
    _report(12, "byte-identical reports per seed", ok)
