"""Seeded experiment orchestration and JSON reporting.

Every run is driven by an explicit 64-bit seed recorded in the report;
per-trial generators are derived from (seed, trial index) with a
counter-based generator, so repeating a run with the same configuration
reproduces every measured number bit for bit.  Reports serialize with
sorted keys; the wall-clock field is the only part expected to differ
between identical runs.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import adversaries, bitio, bounds, extractors, gf2, qsim
from .errors import ParameterError
from .gf2 import BitVector
from .rng import derive_rng

DEFAULT_SEED = 2024


@dataclass
class CheckRecord:
    name: str
    measured: float
    bound: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "bound": self.bound, "passed": bool(self.passed)}


@dataclass
class Report:
    """A command's checks; wall_clock_s and timings differ between identical runs."""

    command: str
    config: Dict
    records: List[CheckRecord] = field(default_factory=list)
    wall_clock_s: float = 0.0
    modulus: Optional[Dict] = None     # the GF(2^n) modulus an extraction used
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, name: str, measured: float, bound: float, passed: bool) -> None:
        self.records.append(CheckRecord(name, float(measured), float(bound), passed))

    def to_dict(self, include_wall_clock: bool = True) -> dict:
        out = {
            "command": self.command,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "passed": self.passed,
        }
        if self.modulus is not None:
            out["modulus"] = self.modulus
        if include_wall_clock:
            out["wall_clock_s"] = self.wall_clock_s
            if self.timings:
                out["timings"] = self.timings
        return out

    def to_json(self, include_wall_clock: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_clock),
                          sort_keys=True, indent=2, allow_nan=False) + "\n"


def reject_unknown_keys(command: str, config, known) -> None:
    """Raise ParameterError naming every key of config that is not in known."""
    unknown = sorted(set(config) - set(known))
    if unknown:
        raise ParameterError(
            f"unknown parameter(s) for {command}: {', '.join(unknown)}")


def _require_counts(**counts) -> None:
    """Reject trial counts below 1, so no check can pass without running."""
    for name, value in counts.items():
        if not isinstance(value, int) or value < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")


# --------------------------------------------------------------------------
# verification suites


def run_matrices_suite(seed: int = DEFAULT_SEED, exhaustive_max_n: int = 10,
                       random_ns: Sequence[int] = (32, 64),
                       random_trials: int = 10000) -> Report:
    """Full-rank property of every subset XOR of the multiplier family."""
    _require_counts(exhaustive_max_n=exhaustive_max_n, random_trials=random_trials)
    t0 = time.perf_counter()
    report = Report("verify:matrices", {
        "seed": seed, "exhaustive_max_n": exhaustive_max_n,
        "random_ns": list(random_ns), "random_trials": random_trials,
    })
    for n in range(1, exhaustive_max_n + 1):
        mats = gf2.multiplier_matrices(n, n)
        good = sum(
            gf2.rank(gf2.subset_matrix(mats, mask)) == n
            for mask in range(1, 1 << n))
        report.add(f"exhaustive subset ranks n={n}", good, (1 << n) - 1,
                   good == (1 << n) - 1)
    for n in random_ns:
        mats = gf2.multiplier_matrices(n, n)
        rng = derive_rng(seed, 0x5E7, n)
        good = 0
        for _ in range(random_trials):
            mask = 0
            while mask == 0:
                mask = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
            if gf2.rank(gf2.subset_matrix(mats, mask)) == n:
                good += 1
        report.add(f"random subset ranks n={n}", good, random_trials,
                   good == random_trials)
    report.wall_clock_s = time.perf_counter() - t0
    return report


def _trial_shape(t: int, max_m: int, max_d: int):
    return 1 + (t % max_m), t // max_m % (max_d + 1)


def run_xor_suite(seed: int = DEFAULT_SEED, trials: int = 1000,
                  equality_trials: int = 200, max_m: int = 3,
                  max_d: int = 3, atol: float = 1e-8) -> Report:
    """The multi-bit-to-characters inequality plus the one-bit merge identity."""
    _require_counts(trials=trials, equality_trials=equality_trials)
    t0 = time.perf_counter()
    report = Report("verify:xor", {
        "seed": seed, "trials": trials, "equality_trials": equality_trials,
        "max_m": max_m, "max_d": max_d, "atol": atol,
    })
    worst = -math.inf
    for t in range(trials):
        m, d = _trial_shape(t, max_m, max_d)
        state = qsim.random_cq_state(m, d, seed, stream=t)
        res = qsim.xor_lemma_check(state)
        worst = max(worst, res.lhs_squared - res.rhs_bound)
    report.add("xor inequality max violation", worst, atol, worst <= atol)
    worst_eq = 0.0
    for t in range(equality_trials):
        m, d = _trial_shape(t, max_m, max_d)
        state = qsim.random_cq_state(m, d, seed, stream=0x10000 + t)
        f = qsim.random_boolean_fn(m, seed, stream=t)
        reduced = qsim.boolean_reduce(state, f)
        lhs = 2 * qsim.cq_distance_from_uniform(reduced, 1)
        rho = {0: None, 1: None}
        for e in state.entries:
            b = 1 if f(e.label) else 0
            rho[b] = e.prob * e.rho if rho[b] is None else rho[b] + e.prob * e.rho
        dim = state.dim
        diff = ((rho[0] if rho[0] is not None else np.zeros((dim, dim)))
                - (rho[1] if rho[1] is not None else np.zeros((dim, dim))))
        worst_eq = max(worst_eq, abs(lhs - qsim.l1_norm(diff)))
    report.add("one-bit merge identity max deviation", worst_eq, 1e-9,
               worst_eq <= 1e-9)
    report.wall_clock_s = time.perf_counter() - t0
    return report


def run_reduction_suite(seed: int = DEFAULT_SEED, trials: int = 500,
                 max_m: int = 3, max_d: int = 3, atol: float = 1e-8) -> Report:
    """Quantum-to-classical reduction through the square-root measurement."""
    _require_counts(trials=trials)
    t0 = time.perf_counter()
    report = Report("verify:reduction", {
        "seed": seed, "trials": trials, "max_m": max_m, "max_d": max_d,
        "atol": atol,
    })
    worst = -math.inf
    for t in range(trials):
        m, d = _trial_shape(t, max_m, max_d)
        state = qsim.random_cq_state(m, d, seed, stream=0x20000 + t)
        f = qsim.random_boolean_fn(m, seed, stream=0x20000 + t)
        res = qsim.pgm_reduction_check(state, f)
        worst = max(worst, res.lhs - res.bound)
    report.add("pgm reduction max violation", worst, atol, worst <= atol)
    report.wall_clock_s = time.perf_counter() - t0
    return report


def run_normbound_suite(seed: int = DEFAULT_SEED, trials: int = 200,
                     max_d: int = 3, atol: float = 1e-8) -> Report:
    """Trace norm against the sigma-weighted 2-norm on random instances."""
    _require_counts(trials=trials)
    t0 = time.perf_counter()
    report = Report("verify:normbound", {
        "seed": seed, "trials": trials, "max_d": max_d, "atol": atol,
    })
    worst = -math.inf
    for t in range(trials):
        d = 1 + t % max_d
        dim = 1 << d
        rng = derive_rng(seed, 0x7E9, t)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s_op = (g + g.conj().T) / 2
        sigma = qsim.random_density(dim, rng)
        lhs, rhs = qsim.trace_norm_weighted_l2_bound(s_op, sigma)
        worst = max(worst, lhs - rhs)
    report.add("weighted l2 bound max violation", worst, atol, worst <= atol)
    report.wall_clock_s = time.perf_counter() - t0
    return report


def run_security_suite(seed: int = DEFAULT_SEED, instances: int = 100,
                       n: int = 4, k: int = 3, b: int = 1,
                       atol: float = 1e-8) -> Report:
    """Exact one-bit distances never exceed the bias bound, per flavor."""
    _require_counts(instances=instances)
    t0 = time.perf_counter()
    report = Report("verify:security", {
        "seed": seed, "instances": instances, "n": n, "k": k, "b": b,
        "atol": atol,
    })
    params = bounds.ParamSet(n=n, k1=k, k2=k, b1=b, b2=b)
    for flavor, entangled in (("product", False), ("entangled", True)):
        bound = bounds.ip_bias_bound(params, b, entangled=entangled)
        worst = -math.inf
        for i in range(instances):
            xs = extractors.random_flat_source(n, k, seed, 1, i)
            ys = extractors.random_flat_source(n, k, seed, 2, i)
            strategy = adversaries.random_storage(
                n, b, b, flavor, seed=(seed ^ 0xF1A) + i)
            state = qsim.extractor_output_state(
                extractors.ip_extract, xs, ys, strategy, mode="weak")
            dist = qsim.cq_distance_from_uniform(state, 1)
            worst = max(worst, dist - bound)
        report.add(f"ip distance within bound ({flavor})", worst, atol,
                   worst <= atol)
    report.wall_clock_s = time.perf_counter() - t0
    return report


VERIFY_SUITES = {
    "matrices": run_matrices_suite,
    "xor": run_xor_suite,
    "reduction": run_reduction_suite,
    "normbound": run_normbound_suite,
    "security": run_security_suite,
}


def run_verify(suite: str, seed: int = DEFAULT_SEED, **overrides) -> Report:
    if suite not in VERIFY_SUITES:
        raise ParameterError(
            f"unknown suite {suite!r}; choose from {sorted(VERIFY_SUITES)}")
    reject_unknown_keys(f"verify {suite}", overrides,
                        inspect.signature(VERIFY_SUITES[suite]).parameters)
    return VERIFY_SUITES[suite](seed=seed, **overrides)


# --------------------------------------------------------------------------
# attacks


def run_smp_attack(ns: Sequence[int] = (2, 4, 6), seed: int = DEFAULT_SEED) -> Report:
    t0 = time.perf_counter()
    report = Report("attack:smp", {"ns": list(ns), "seed": seed})
    for n in ns:
        worst_p = 1.0
        correct = 0
        total = 0
        qubits = None
        for xv in range(1 << n):
            for yv in range(1 << n):
                x = BitVector(n, xv)
                y = BitVector(n, yv)
                res = adversaries.smp_ip_protocol(x, y)
                worst_p = min(worst_p, res.success_probability)
                correct += res.output == extractors.ip_extract(x, y)
                total += 1
                qubits = res.qubits_per_party
        report.add(f"smp correctness n={n}", correct, total, correct == total)
        report.add(f"smp simulation probability n={n}", worst_p, 1.0,
                   abs(worst_p - 1.0) <= 1e-9)
        report.add(f"smp qubits per party n={n}", qubits, n // 2 + 2,
                   qubits == n // 2 + 2)
    report.wall_clock_s = time.perf_counter() - t0
    return report


def run_superdense_attack(max_n: int = 8, seed: int = DEFAULT_SEED) -> Report:
    t0 = time.perf_counter()
    report = Report("attack:superdense", {"max_n": max_n, "seed": seed})
    ok2 = sum(adversaries.superdense_roundtrip(f"{a}{b}") == f"{a}{b}"
              for a in "01" for b in "01")
    report.add("two-bit roundtrips", ok2, 4, ok2 == 4)
    for n in range(2, max_n + 1, 2):
        good = sum(
            adversaries.superdense_roundtrip_vector(BitVector(n, v)).value == v
            for v in range(1 << n))
        report.add(f"{n}-bit roundtrips", good, 1 << n, good == (1 << n))
    report.wall_clock_s = time.perf_counter() - t0
    return report


def run_tightness_attack(n: int, k1: int, k2: int, b1: int, b2: int,
                         setting: str, branch: str = "auto",
                         seed: int = DEFAULT_SEED) -> Report:
    t0 = time.perf_counter()
    report = Report("attack:tightness", {
        "n": n, "k1": k1, "k2": k2, "b1": b1, "b2": b2,
        "setting": setting, "branch": branch, "seed": seed,
    })
    attack = adversaries.tightness_attack(n, k1, k2, b1, b2, setting,
                                          branch=branch, seed=seed)
    measured = adversaries.measure_attack_advantage(attack)
    if attack.branch == "exact":
        report.add("exact-branch advantage", measured, 0.5,
                   abs(measured - 0.5) <= 1e-9)
    else:
        report.add("biased-branch advantage vs predicted", measured,
                   attack.predicted_advantage,
                   measured > attack.predicted_advantage)
        report.add(f"source bias at l={attack.l}", attack.bias_found,
                   0.5 + 2 ** (-(attack.l - 1) / 2),
                   attack.bias_found > 0.5 + 2 ** (-(attack.l - 1) / 2))
    # bounds and attacks bracket each other: the measured advantage cannot
    # exceed the security threshold, and no smaller error is attainable
    params = bounds.ParamSet(n=n, k1=k1, k2=k2, b1=b1, b2=b2)
    entangled = "non" not in attack.setting
    variant = "superstrong-max" if "superstrong" in setting else "weak-min"
    threshold = bounds.one_bit_condition(params, variant, entangled).value
    report.add("advantage within security threshold", measured, threshold,
               measured <= threshold + 1e-9)
    report.wall_clock_s = time.perf_counter() - t0
    return report


def run_knowledge_attack(n: int, seed: int = DEFAULT_SEED) -> Report:
    t0 = time.perf_counter()
    report = Report("attack:knowledge", {"n": n, "seed": seed})
    res = adversaries.guessing_entropy_counterexample(n)
    report.add("referee correctness", res.referee_correct_fraction, 1.0,
               res.referee_correct_fraction == 1.0)
    report.add("per-adversary guessing entropy", res.guessing_entropy_single,
               n - 2, abs(res.guessing_entropy_single - (n - 2)) <= 1e-12)
    report.add("combined-storage guessing entropy floor",
               res.guessing_entropy_combined, n - 4,
               res.guessing_entropy_combined >= n - 4)
    report.wall_clock_s = time.perf_counter() - t0
    return report


ATTACKS = {
    "smp": run_smp_attack,
    "superdense": run_superdense_attack,
    "tightness": run_tightness_attack,
    "knowledge": run_knowledge_attack,
}


# --------------------------------------------------------------------------
# extraction runs


# every config key run_extract reads, plus the seed the CLI passes through
_EXTRACT_KEYS = ("x_path", "y_path", "out_path", "n", "m", "format",
                 "extractor", "which", "seeded", "k1", "k2", "b1", "b2", "eps",
                 "c_poly", "c_o1", "entangled", "seed")


def run_extract(config: dict) -> tuple:
    """Extract bits from two source files; returns (exit_code, report).

    Exit 0 on success, 2 when the declared parameters fail the matching
    feasibility condition (output still produced, flagged in the
    report).  Unknown config keys, missing or short input raise
    ParameterError/OSError, which the CLI maps to exit 1.  Multibit and
    composed reports name the GF(2^n) modulus and where it came from;
    the time spent finding it is under timings.
    """
    t0 = time.perf_counter()
    cfg = dict(config)
    reject_unknown_keys("extract", cfg, _EXTRACT_KEYS)
    seeded = cfg.get("seeded", {})
    if not isinstance(seeded, dict):
        raise ParameterError(f"seeded must be an object, got {seeded!r}")
    reject_unknown_keys("extract seeded", seeded, ("kind", "t", "c"))
    n = int(cfg["n"])
    m = int(cfg.get("m", 1))
    fmt = cfg.get("format", "raw")
    kind = cfg.get("extractor", "multibit")
    x = bitio.read_bits(cfg["x_path"], n, fmt)
    y = bitio.read_bits(cfg["y_path"], n, fmt)
    report = Report("extract", _echo_config(cfg))
    if kind in ("multibit", "composed"):
        start = time.perf_counter()
        modulus = gf2.find_irreducible(n).value
        report.timings["modulus_s"] = time.perf_counter() - start
        report.modulus = {"degree": n, "tail": hex(modulus ^ (1 << n)),
                          "source": gf2.modulus_source(n)}

    if kind == "ip":
        out = BitVector(1, extractors.ip_extract(x, y))
    elif kind == "multibit":
        out = extractors.multibit_extract(x, y, m)
    elif kind == "composed":
        spec = extractors.SeededExtractorSpec(
            kind=seeded.get("kind", "trevisan"), n=n, m=m,
            t=int(seeded.get("t", 0)), c=int(seeded.get("c", 0)))
        out = extractors.compose_two_source(x, y, cfg.get("which", "X"), spec)
    else:
        raise ParameterError(f"unknown extractor {kind!r}")

    if "out_path" in cfg:
        bitio.write_bits(cfg["out_path"], out, fmt)

    params = bounds.ParamSet(
        n=n, k1=int(cfg.get("k1", n)), k2=int(cfg.get("k2", n)),
        b1=int(cfg.get("b1", 0)), b2=int(cfg.get("b2", 0)), m=m,
        eps=float(cfg.get("eps", 2.0 ** -10)),
        c_poly=float(cfg.get("c_poly", 1.0)),
        c_o1=float(cfg.get("c_o1", 0.0)))
    entangled = bool(cfg.get("entangled", False))
    if kind == "ip":
        feas = bounds.one_bit_condition(params, "weak-min", entangled)
        capacity = 1 if feas.satisfied else 0
    elif kind == "multibit":
        capacity = min(
            bounds.strong_output_len(params, "X", entangled),
            bounds.strong_output_len(params, "Y", entangled))
    else:
        feas = bounds.composed_output_len(
            params, "entangled" if entangled else "storage")
        capacity = feas.value if feas.satisfied else 0

    report.add("declared m within computed capacity", m, capacity, m <= capacity)
    report.add("output bits", out.length, m, out.length == m)
    report.wall_clock_s = time.perf_counter() - t0
    exit_code = 0 if report.passed else 2
    return exit_code, report


def _echo_config(cfg: dict) -> dict:
    return {k: (str(v) if isinstance(v, (bytes,)) else v) for k, v in cfg.items()}


# --------------------------------------------------------------------------
# bounds tables


def bounds_table(config: dict) -> dict:
    """Evaluate every calculator on a point or a one-parameter sweep."""
    fields = ("n", "k1", "k2", "b1", "b2", "m", "eps", "c_poly", "c_o1")
    base = {k: config[k] for k in fields if k in config}
    sweep = config.get("sweep", {})
    points = [base]
    if sweep:
        if len(sweep) != 1:
            raise ParameterError("sweep must vary exactly one parameter")
        (name, values), = sweep.items()
        if name not in fields:
            raise ParameterError(f"cannot sweep unknown parameter {name!r}")
        points = [dict(base, **{name: v}) for v in values]
    rows = []
    for point in points:
        if any(k not in point for k in ("n", "k1", "k2")):
            raise ParameterError("bounds needs at least --n, --k1, --k2")
        p = bounds.ParamSet(**point)
        row = {"params": point}
        row["ip_bias_product"] = bounds.ip_bias_bound(p, min(p.b1, p.b2), False)
        row["ip_bias_entangled"] = bounds.ip_bias_bound(p, min(p.b1, p.b2), True)
        for variant in ("weak-min", "superstrong-max"):
            for ent in (False, True):
                rep = bounds.one_bit_condition(p, variant, ent)
                row[rep.name.replace(" ", "_")] = rep.to_dict()
        for setting in bounds.COMPOSED_SETTINGS:
            row[f"composed_{setting}"] = bounds.composed_output_len(p, setting).to_dict()
        row["strong_m_X_product"] = bounds.strong_output_len(p, "X", False)
        row["strong_m_X_entangled"] = bounds.strong_output_len(p, "X", True)
        row["strong_m_knowledge"] = bounds.strong_output_len(p, "X", False, knowledge=True)
        rows.append(row)
    return {"command": "bounds", "config": config, "rows": rows}
