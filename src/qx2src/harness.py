"""Seeded experiment orchestration and JSON reporting.

Every run is driven by an explicit 64-bit seed recorded in the report;
per-trial generators are derived from (seed, trial index) with a
counter-based generator, so repeating a run with the same configuration
reproduces every measured number bit for bit.  Reports serialize with
sorted keys; the wall-clock field is the only part expected to differ
between identical runs.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import inspect
import json
import math
import numbers
import time
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, TypedDict

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
    config: Dict        # the parameters the command ran with
    records: List[CheckRecord] = field(default_factory=list)
    wall_clock_s: float = 0.0
    modulus: Optional[Dict] = None     # the GF(2^n) modulus an extraction used
    timings: Dict[str, float] = field(default_factory=dict)
    opened: float = field(default_factory=time.perf_counter, init=False, repr=False)

    @property
    def passed(self) -> bool:
        """True when there are checks and every one passed."""
        return bool(self.records) and all(r.passed for r in self.records)

    def stop(self) -> None:
        """Record the wall clock since the report was opened."""
        self.wall_clock_s = time.perf_counter() - self.opened

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


def _require_range(low: int, high: Optional[int] = None, **values) -> None:
    """Reject values below low, or above high when given.

    A trial count of 0 would pass without running; the upper limits below
    keep each enumerating command within seconds and memory.
    """
    for name, value in values.items():
        if not isinstance(value, int) or value < low:
            raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
        if high is not None and value > high:
            raise ParameterError(f"{name} must be between {low} and {high}, got {value!r}")


# the security suite's entangled flavor builds 2^(2b+2)-square matrices: 1024 at b = 4
MAX_SECURITY_B = 4
# security sources are drawn from range(2^n), which numpy takes only below 2^63
MAX_SECURITY_N = 62
# each security instance enumerates 2^(2k) source pairs: 3.2 s per instance at k = 6
MAX_SECURITY_K = 6
# exhaustive subset ranks enumerate 2^n - 1 masks: about 11 s at n = 16
MAX_EXHAUSTIVE_N = 16
# the acceptance sizes; each random n builds n matrices of n x n bits
MAX_RANDOM_N = 64
# xor, reduction and normbound draw states on up to max_d qubits with up to
# 2^max_m labels: verify xor takes about 25 s at 6/6, and normbound's Wishart
# sigma grows ill-conditioned with d (at d = 13 below the pseudo-inverse cutoff)
MAX_CQ_M = 6
MAX_CQ_D = 6
# smp enumerates all 2^(2n) input pairs, one Bell measurement per qubit pair each
MAX_SMP_N = 8
# superdense round-trips every n-bit message for each even n up to max_n: 7.5 s at 14
MAX_SUPERDENSE_N = 14
# the knowledge counterexample holds (2^n)^2 arrays per pad: 20 s at n = 10
MAX_KNOWLEDGE_N = 10
# tightness storage is 2^(b1+b2)-dimensional, summed over 2^(k1+k2) source pairs
MAX_TIGHTNESS_B = 10
MAX_TIGHTNESS_K = 20
# the measured work, source pairs times the 4^q entries of a state on the q
# qubits the strategy holds (Bob's whole state in the superdense one): 3-10 s
# at 2^30 on two cores, against 16 GiB for one state at q = 15
MAX_TIGHTNESS_WORK = 1 << 30
# one xor trial costs about 1.2 ms at the default sizes, a random rank trial
# at n = 64 under 1 ms, so 100,000 trials take about two minutes
MAX_TRIALS = 100_000
# one security instance costs about 20 ms at the default sizes: 200 s at 10,000
MAX_SECURITY_INSTANCES = 10_000


# --------------------------------------------------------------------------
# verification suites


def run_matrices_suite(seed: int = DEFAULT_SEED, exhaustive_max_n: int = 10,
                       random_ns: Sequence[int] = (32, 64),
                       random_trials: int = 10000) -> Report:
    """Full-rank property of every subset XOR of the multiplier family."""
    report = Report("verify:matrices", dict(locals()))
    _require_range(1, MAX_EXHAUSTIVE_N, exhaustive_max_n=exhaustive_max_n)
    _require_range(1, MAX_TRIALS, random_trials=random_trials)
    for n in random_ns:
        _require_range(1, MAX_RANDOM_N, random_ns=n)
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
    report.stop()
    return report


def _trial_shape(t: int, max_m: int, max_d: int):
    return 1 + (t % max_m), t // max_m % (max_d + 1)


def run_xor_suite(seed: int = DEFAULT_SEED, trials: int = 1000,
                  equality_trials: int = 200, max_m: int = 3,
                  max_d: int = 3, atol: float = 1e-8) -> Report:
    """The multi-bit-to-characters inequality plus the one-bit merge identity."""
    report = Report("verify:xor", dict(locals()))
    _require_range(1, MAX_TRIALS, trials=trials, equality_trials=equality_trials)
    _require_range(1, MAX_CQ_M, max_m=max_m)
    _require_range(0, MAX_CQ_D, max_d=max_d)
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
        rho = np.zeros((2, state.dim, state.dim), dtype=complex)
        np.add.at(rho, f[state.labels], state.weighted())
        worst_eq = max(worst_eq, abs(lhs - qsim.l1_norm(rho[0] - rho[1])))
    report.add("one-bit merge identity max deviation", worst_eq, 1e-9,
               worst_eq <= 1e-9)
    report.stop()
    return report


def run_reduction_suite(seed: int = DEFAULT_SEED, trials: int = 500,
                 max_m: int = 3, max_d: int = 3, atol: float = 1e-8) -> Report:
    """Quantum-to-classical reduction through the square-root measurement."""
    report = Report("verify:reduction", dict(locals()))
    _require_range(1, MAX_TRIALS, trials=trials)
    _require_range(1, MAX_CQ_M, max_m=max_m)
    _require_range(0, MAX_CQ_D, max_d=max_d)
    worst = -math.inf
    for t in range(trials):
        m, d = _trial_shape(t, max_m, max_d)
        state = qsim.random_cq_state(m, d, seed, stream=0x20000 + t)
        f = qsim.random_boolean_fn(m, seed, stream=0x20000 + t)
        res = qsim.pgm_reduction_check(state, f)
        worst = max(worst, res.lhs - res.bound)
    report.add("pgm reduction max violation", worst, atol, worst <= atol)
    report.stop()
    return report


def run_normbound_suite(seed: int = DEFAULT_SEED, trials: int = 200,
                     max_d: int = 3, atol: float = 1e-8) -> Report:
    """Trace norm against the sigma-weighted 2-norm on random instances."""
    report = Report("verify:normbound", dict(locals()))
    _require_range(1, MAX_TRIALS, trials=trials)
    _require_range(1, MAX_CQ_D, max_d=max_d)
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
    report.stop()
    return report


def run_security_suite(seed: int = DEFAULT_SEED, instances: int = 100,
                       n: int = 4, k: int = 3, b: int = 1,
                       atol: float = 1e-8) -> Report:
    """Exact one-bit distances never exceed the bias bound, per flavor."""
    report = Report("verify:security", dict(locals()))
    _require_range(1, MAX_SECURITY_INSTANCES, instances=instances)
    _require_range(1, MAX_SECURITY_N, n=n)
    _require_range(0, MAX_SECURITY_K, k=k)
    if not 0 <= b <= MAX_SECURITY_B:
        raise ParameterError(
            f"b must be between 0 and {MAX_SECURITY_B} (the entangled flavor "
            f"builds 2^(2b+2)-square matrices), got {b}")
    params = bounds.ParamSet(n=n, k1=k, k2=k, b1=b, b2=b)
    for flavor, entangled in (("product", False), ("entangled", True)):
        bound = bounds.ip_bias_bound(params, b, entangled=entangled)
        worst = -math.inf
        for i in range(instances):
            xs = extractors.random_flat_source(n, k, seed, 1, i)
            ys = extractors.random_flat_source(n, k, seed, 2, i)
            strategy = adversaries.random_storage(b, b, flavor, seed=(seed ^ 0xF1A) + i)
            state = qsim.extractor_output_state(extractors.ip_extract, xs, ys, strategy)
            dist = qsim.cq_distance_from_uniform(state, 1)
            worst = max(worst, dist - bound)
        report.add(f"ip distance within bound ({flavor})", worst, atol,
                   worst <= atol)
    report.stop()
    return report


def run_verify(suite: str, seed: int = DEFAULT_SEED, **overrides) -> Report:
    return dispatch(f"verify {suite}", dict(overrides, seed=seed))


# --------------------------------------------------------------------------
# attacks


def run_smp_attack(ns: Sequence[int] = (2, 4, 6), seed: int = DEFAULT_SEED) -> Report:
    report = Report("attack:smp", dict(locals()))
    for n in ns:
        _require_range(1, MAX_SMP_N, ns=n)
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
        # odd n is padded with one zero bit: ceil(n/2) EPR pairs plus 2 weight qubits
        want = (n + 1) // 2 + 2
        report.add(f"smp qubits per party n={n}", qubits, want, qubits == want)
    report.stop()
    return report


def run_superdense_attack(max_n: int = 8, seed: int = DEFAULT_SEED) -> Report:
    report = Report("attack:superdense", dict(locals()))
    _require_range(2, MAX_SUPERDENSE_N, max_n=max_n)
    ok2 = sum(adversaries.superdense_roundtrip(BitVector(2, v)).value == v
              for v in range(4))
    report.add("two-bit roundtrips", ok2, 4, ok2 == 4)
    for n in range(2, max_n + 1, 2):
        good = sum(
            adversaries.superdense_roundtrip(BitVector(n, v)).value == v
            for v in range(1 << n))
        report.add(f"{n}-bit roundtrips", good, 1 << n, good == (1 << n))
    report.stop()
    return report


def run_tightness_attack(n: int, k1: int, k2: int, b1: int, b2: int,
                         setting: adversaries.Setting,
                         branch: adversaries.Branch = "auto",
                         seed: int = DEFAULT_SEED) -> Report:
    report = Report("attack:tightness", dict(locals()))
    _require_range(0, MAX_TIGHTNESS_B, **{"b1 + b2": b1 + b2})
    _require_range(0, MAX_TIGHTNESS_K, **{"k1 + k2": k1 + k2})
    attack = adversaries.tightness_attack(n, k1, k2, b1, b2, setting,
                                          branch=branch, seed=seed)
    pairs = len(attack.x_source.support) * len(attack.y_source.support)
    qubits = attack.storage.b1 + attack.storage.b2
    _require_range(0, MAX_TIGHTNESS_WORK,
                   **{"source pairs x 4^stored qubits": pairs * 4 ** qubits})
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
    variant = "superstrong-max" if attack.superstrong else "weak-min"
    threshold = bounds.one_bit_condition(params, variant, attack.entangled).value
    report.add("advantage within security threshold", measured, threshold,
               measured <= threshold + 1e-9)
    report.stop()
    return report


def run_knowledge_attack(n: int, seed: int = DEFAULT_SEED) -> Report:
    report = Report("attack:knowledge", dict(locals()))
    _require_range(3, MAX_KNOWLEDGE_N, n=n)
    res = adversaries.guessing_entropy_counterexample(n)
    report.add("referee correctness", res.referee_correct_fraction, 1.0,
               res.referee_correct_fraction == 1.0)
    report.add("per-adversary guessing entropy", res.guessing_entropy_single,
               n - 2, abs(res.guessing_entropy_single - (n - 2)) <= 1e-12)
    report.add("combined-storage guessing entropy floor",
               res.guessing_entropy_combined, n - 4,
               res.guessing_entropy_combined >= n - 4)
    report.stop()
    return report


# --------------------------------------------------------------------------
# extraction runs


class Seeded(TypedDict, total=False):
    """The seeded half of a composed extraction; t and c as in SeededExtractorSpec."""
    kind: Literal["toeplitz", "trevisan"]
    t: int
    c: int


_PARAM_FIELDS = {f.name for f in dataclasses.fields(bounds.ParamSet)}


def run_extract(x_path: str, y_path: str, n: int, m: Optional[int] = None,
                extractor: Optional[Literal["ip", "multibit", "composed"]] = None,
                format: Optional[bitio.Format] = None,
                which: Optional[Literal["X", "Y"]] = None,
                seeded: Optional[Seeded] = None, out_path: Optional[str] = None,
                entangled: Optional[bool] = None, k1: Optional[int] = None,
                k2: Optional[int] = None, b1: Optional[int] = None,
                b2: Optional[int] = None, eps: Optional[float] = None,
                c_poly: Optional[float] = None,
                c_o1: Optional[float] = None) -> tuple:
    """Extract bits from two source files; returns (exit_code, report).

    Parameters left at None are not echoed and take their defaults:
    k1 = k2 = n, the other bound parameters (m among them) as in
    bounds.ParamSet, multibit, raw files, side X, no entanglement and
    Trevisan.  Exit 0 on success, 2 when the declared parameters fail
    their feasibility condition (output still written, flagged in the
    report).  Multibit and composed reports name the GF(2^n) modulus and
    where it came from; the time spent finding it is under timings.
    """
    report = Report("extract", {k: v for k, v in locals().items() if v is not None})
    params = bounds.ParamSet(**{"k1": n, "k2": n, **{
        k: v for k, v in report.config.items() if k in _PARAM_FIELDS}})
    m, entangled = params.m, bool(entangled)
    extractor = extractor or "multibit"
    ignored = [k for k in ("which", "seeded") if k in report.config]
    if ignored and extractor != "composed":
        raise ParameterError(f"{', '.join(ignored)}: used only by the composed "
                             f"extractor, not {extractor}")
    x = bitio.read_bits(x_path, n, format or "raw")
    y = bitio.read_bits(y_path, n, format or "raw")
    if extractor != "ip":
        start = time.perf_counter()
        modulus = gf2.find_irreducible(n).value
        report.timings["modulus_s"] = time.perf_counter() - start
        report.modulus = {"degree": n, "tail": hex(modulus ^ (1 << n)),
                          "source": gf2.modulus_source(n)}

    if extractor == "ip":
        out = BitVector(1, extractors.ip_extract(x, y))
        capacity = int(bounds.one_bit_condition(params, "weak-min", entangled).satisfied)
    elif extractor == "multibit":
        out = extractors.multibit_extract(x, y, m)
        capacity = min(bounds.strong_output_len(params, side, entangled)
                       for side in "XY")
    else:
        spec = extractors.SeededExtractorSpec(
            **{"kind": "trevisan", **(seeded or {})}, n=n, m=m)
        out = extractors.compose_two_source(x, y, which or "X", spec)
        feas = bounds.composed_output_len(
            params, "entangled" if entangled else "storage")
        capacity = feas.value if feas.satisfied else 0
    if out_path is not None:
        bitio.write_bits(out_path, out, format or "raw")
    report.add("declared m within computed capacity", m, capacity, m <= capacity)
    report.add("output bits", out.length, m, out.length == m)
    report.stop()
    return (0 if report.passed else 2), report


# --------------------------------------------------------------------------
# bounds tables


def bounds_table(n: int, k1: int, k2: int, b1: Optional[int] = None,
                 b2: Optional[int] = None, m: Optional[int] = None,
                 eps: Optional[float] = None, c_poly: Optional[float] = None,
                 c_o1: Optional[float] = None,
                 sweep: Optional[Dict[str, Sequence[float]]] = None) -> dict:
    """Evaluate every calculator on a point or a one-parameter sweep.

    Parameters left at None take bounds.ParamSet's defaults and are not
    echoed.  A sweep maps one parameter to the values it takes; each
    point is checked like the command's own config.
    """
    config = {k: v for k, v in locals().items() if v is not None}
    base = {k: v for k, v in config.items() if k != "sweep"}
    points = [base]
    if sweep:
        if len(sweep) != 1:
            raise ParameterError("sweep must vary exactly one parameter")
        (name, values), = sweep.items()
        points = [dict(base, **{name: v}) for v in values]
        for point in points:
            check("bounds", point)
    rows = []
    for point in points:
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


# --------------------------------------------------------------------------
# the command registry: each handler's signature is its parameter schema


COMMANDS = {
    "extract": run_extract,
    "verify matrices": run_matrices_suite,
    "verify xor": run_xor_suite,
    "verify reduction": run_reduction_suite,
    "verify normbound": run_normbound_suite,
    "verify security": run_security_suite,
    "attack smp": run_smp_attack,
    "attack superdense": run_superdense_attack,
    "attack tightness": run_tightness_attack,
    "attack knowledge": run_knowledge_attack,
    "bounds": bounds_table,
}


def parameters(command: str) -> dict:
    """name -> (type, required) for each parameter of the command's handler.

    Optional[X] reads as X: None only marks a parameter as optional.
    """
    if command not in COMMANDS:
        raise ParameterError(
            f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    handler = inspect.unwrap(COMMANDS[command])
    spec = inspect.getfullargspec(handler)
    hints = typing.get_type_hints(handler)
    n_required = len(spec.args) - len(spec.defaults or ())
    return {name: (_non_none(hints[name]), i < n_required)
            for i, name in enumerate(spec.args)}


def _non_none(tp):
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union and type(None) in args:
        (tp,) = [a for a in args if a is not type(None)]
    return tp


def check(command: str, config) -> None:
    """Raise ParameterError naming the first key of config the command cannot take.

    Keys the handler lacks, required ones absent, and values of the wrong
    type are bad: bool is not int, int passes for float, and None never
    passes (a None default only marks a parameter as optional).
    """
    _check(command, config, parameters(command))


def _check(where: str, config, params: dict) -> None:
    if not isinstance(config, dict):
        raise ParameterError(f"{where}: expected a JSON object, got {config!r}")
    unknown = sorted(set(config) - set(params))
    if unknown:
        raise ParameterError(f"unknown parameter(s) for {where}: {', '.join(unknown)}")
    missing = [k for k, (_, required) in params.items() if required and k not in config]
    if missing:
        raise ParameterError(f"{where} needs {', '.join(missing)}")
    for key, value in config.items():
        tp = params[key][0]
        if typing.is_typeddict(tp):
            _check(f"{where} {key}", value, {
                k: (v, k in tp.__required_keys__)
                for k, v in typing.get_type_hints(tp).items()})
        elif not _fits(value, tp):
            name = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
            raise ParameterError(f"{where}: {key} must be {name}, got {value!r}")


def _fits(value, tp) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        return value in args
    if origin is collections.abc.Sequence:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(tp, tp))


def dispatch(command: str, config: dict):
    """Run the command's handler on config, once config fits its signature."""
    check(command, config)
    return COMMANDS[command](**config)
