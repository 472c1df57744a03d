"""Seeded experiment orchestration and JSON reporting.

Every run is driven by an explicit 64-bit seed recorded in the report;
per-trial generators are derived from (seed, trial index) with a
counter-based generator, so repeating a run with the same configuration
reproduces every measured number bit for bit.  Reports serialize with
sorted keys; the wall-clock field is the only part expected to differ
between identical runs.

Each handler imports numpy, the extractors, the verifier and the attacks
only as it needs them, so that a process loads just the layers its
command runs: ``bounds`` no numpy, a memo-modulus ``extract`` neither
numpy nor the verifier.  The registry reads handler signatures from
this module, bounds and bitio alone.

Each handler is a body decorated with ``_command``, which walks a call once
(``_walk``: keys, types, finite floats, declared ranges and no repeats) and
opens, times and returns the report: before any work, and alike for the CLI,
config files, ``dispatch`` and direct calls.  A limit on one parameter is
declared once, as ``Annotated[int, low, high]`` in the handler's signature;
only the six limits that join parameters stay in the bodies.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import inspect
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field
from typing import Annotated, Dict, List, Literal, Optional, Sequence, TypedDict

from . import bitio, bounds, gf2
from .errors import ParameterError
from .gf2 import BitVector
from .rng import derive_rng, derive_rngs

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

    @property
    def passed(self) -> bool:
        """True when there are checks and every one passed."""
        return bool(self.records) and all(r.passed for r in self.records)

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


def _command(name: str):
    """Make body(report, **arguments) a handler whose signature is body's less
    report: it walks a call once (_walk), None given for an optional parameter
    read as its default, runs body on a new Report named name and returns
    body's result (bounds' table) or, if that is None, the report, timed."""
    def decorate(body):
        signature = inspect.signature(body)
        public = signature.replace(parameters=list(signature.parameters.values())[1:])
        defaults = {k: p.default for k, p in public.parameters.items()}
        optional = {k for k, default in defaults.items() if default is None}

        @functools.wraps(body)
        def handler(*args, **kwargs):
            given = dict(**public.bind_partial(*args).arguments, **kwargs)
            hints = typing.get_type_hints(handler, include_extras=True)
            config = _walk(name.replace(":", " "), {
                k: v for k, v in given.items() if v is not None or k not in optional},
                {k: (hints[k], p.default is p.empty) for k, p in public.parameters.items()})
            arguments = dict(defaults, **config)
            report = Report(name, {k: v for k, v in arguments.items() if v is not None})
            start = time.perf_counter()
            table = body(report, **arguments)
            report.wall_clock_s = time.perf_counter() - start
            return report if table is None else table

        handler.__signature__ = public      # functools.wraps copies it to wrappers
        return handler
    return decorate


def _walk(where: str, config, params: dict, bounded: bool = True) -> dict:
    """config, once each key is one of params (name -> (hint, required)), each
    required one is present and each value fits its hint (_fit)."""
    if not isinstance(config, dict):
        raise ParameterError(f"{where}: expected a JSON object, got {config!r}")
    unknown = sorted(set(config) - set(params))
    if unknown:
        raise ParameterError(f"unknown parameter(s) for {where}: {', '.join(unknown)}")
    missing = [k for k, (_, required) in params.items() if required and k not in config]
    if missing:
        raise ParameterError(f"{where} needs {', '.join(missing)}")
    for key, value in config.items():
        _fit(where, key, value, params[key][0], params, bounded)
    return config


def _fit(where: str, key: str, value, hint, params: dict, bounded: bool) -> None:
    """Raise ParameterError unless value has type hint (bool is not int, an int
    passes for a float) and, if bounded, keeps its limits: floats finite (an
    int past the float range is not), the declared range and no repeated value
    (which would repeat its work and its record).  A TypedDict is walked as a
    config, and a dict is bounds' sweep, whose lists hold values of the
    parameters in params that they sweep."""
    hint = _non_none(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if typing.is_typeddict(hint):
        _walk(f"{where} {key}", value, {
            k: (h, k in hint.__required_keys__)
            for k, h in typing.get_type_hints(hint, include_extras=True).items()}, bounded)
    elif origin is Annotated:
        _fit(where, key, value, args[0], params, bounded)
        if bounded:
            _require_range(key, value, *hint.__metadata__)
    elif origin is collections.abc.Sequence and isinstance(value, (list, tuple)):
        for stage in (False, True) if bounded else (False,):     # every type first
            for v in value:
                _fit(where, key, v, args[0], params, stage)
        for i, v in enumerate(value if bounded else ()):
            if v in value[:i]:
                raise ParameterError(f"{key} has a repeated value {v!r}")
    elif origin is dict and isinstance(value, dict):
        for name, values in value.items():
            _fit(where, key, name, args[0], params, False)
            _fit(where, key, values, args[1], params, False)
            if bounded:
                for v in values:
                    _fit(where, key, v, float, params, True)
                if name not in params:
                    raise ParameterError(f"unknown parameter(s) for {where}: {name}")
                _fit(where, f"{key} of {name}", values,
                     Sequence[_non_none(params[name][0])], params, True)
    else:
        if not (value in args if origin is Literal else origin is None and (
                hint is bool if isinstance(value, bool) else
                isinstance(value, (int, float) if hint is float else hint))):
            name = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
            raise ParameterError(f"{where}: {key} must be {name}, got {value!r}")
        if bounded and hint is float and not abs(value) <= sys.float_info.max:
            raise ParameterError(f"{key} must be finite, got {value!r}")


def _require_range(name: str, value, low: int, high: int) -> None:
    """Reject a value that is not an integer from low to high: a trial count of
    0 would pass without running, and the limits below bound time and memory."""
    if not isinstance(value, int) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    if value > high:
        raise ParameterError(f"{name} must be between {low} and {high}, got {value!r}")


# the security suite's entangled flavor builds 2^(2b+2)-square matrices: 1024 at b = 4
MAX_SECURITY_B = 4
# security sources are drawn from range(2^n), which numpy takes only below 2^63
MAX_SECURITY_N = 62
# each security instance enumerates 2^(2k) source pairs: about 0.08 s per
# instance at k = 6, b = 1 on two cores
MAX_SECURITY_K = 6
# exhaustive subset ranks enumerate 2^n - 1 masks: every n up to 16 takes
# about 0.016 s on two cores, doubling with each further n
MAX_EXHAUSTIVE_N = 16
# the acceptance sizes; each random n builds n matrices of n x n bits
MAX_RANDOM_N = 64
# xor, reduction and normbound draw states on up to max_d qubits with up to
# 2^max_m labels: at 6/6 verify xor takes about 13 s and reduction 5.5 s on two
# cores, and normbound's Wishart sigma grows ill-conditioned with d (at d = 13
# below the pseudo-inverse cutoff)
MAX_CQ_M = 6
MAX_CQ_D = 6
# smp enumerates all 2^(2n) input pairs, one Bell measurement per qubit pair each,
# and the 4^n pairs summed over ns are capped at one n = 8 run
MAX_SMP_N = 8
# superdense round-trips every n-bit message for each even n up to max_n: 7.5 s at 14
MAX_SUPERDENSE_N = 14
# the knowledge counterexample loops over 2^n pads on (2^n)^2 arrays: about 5 s
# at n = 10 on two cores
MAX_KNOWLEDGE_N = 10
# tightness strategies index 2^(b1+b2) basis states over 2^(k1+k2) source pairs;
# counted in chunks of 2^14 pairs, 2^20 pairs take about 0.009 s and 0.9 MiB
# (tracemalloc) on two cores
MAX_TIGHTNESS_B = 10
MAX_TIGHTNESS_K = 20
# n does not set the cost: values take min(n, k1 + k2) <= 20 bits, and at n = 2000
# (k1 = k2 = 10, b1 + b2 = 10) a cold command takes 0.25-0.3 s and 32 MB on two
# cores, as long as at n = 12.  Past n = 2031 the threshold 2^((n + s - k1 - k2 - 2) / 2),
# with storage s up to 2 x 10, leaves the float range at k1 = k2 = 1
MAX_TIGHTNESS_N = 2000
# an xor, merge or reduction trial costs 0.08-0.12 ms at the default sizes, so
# 100,000 of them take about 8-12 s on two cores; a random rank trial at n = 64
# costs about 3 us, and the cap holds for random_trials summed over random_ns
MAX_TRIALS = 100_000
# bytes of subset rows formed and ranked per batch: 768 masks at n = 64 (uint64
# rows), 3,072 at n = 32 (uint32).  The rows, the rank's transposed copy and
# its scratch hold the suite to about 1 MB at any trial count and any n, and
# batches form and rank faster than one 10,000-mask stack (0.028-0.033 against
# 0.049-0.053 s at n = 64 on two cores)
RANK_BYTES = 3 << 17
# one security instance costs about 1.4 ms at the default sizes: 15 s at 10,000
MAX_SECURITY_INSTANCES = 10_000
# the security suite's work, instances x 4^k source pairs x the 4^(2b+2)
# entries of the entangled flavor's joint state per pair: at 2^28 a run takes
# about 15-80 s for b >= 1 on two cores (0.19 s a pair at b = 4, 1.2 ms at
# b = 2), and about 100 s at b = 0, k = 6, where per-pair overhead sets the cost
MAX_SECURITY_WORK = 1 << 28


# --------------------------------------------------------------------------
# verification suites


@_command("verify:matrices")
def run_matrices_suite(report: Report, seed: int = DEFAULT_SEED,
                       exhaustive_max_n: Annotated[int, 1, MAX_EXHAUSTIVE_N] = 10,
                       random_ns: Sequence[Annotated[int, 1, MAX_RANDOM_N]] = (32, 64),
                       random_trials: Annotated[int, 1, MAX_TRIALS] = 10000):
    """Full-rank property of every subset XOR of the multiplier family."""
    import numpy as np
    _require_range("len(random_ns) x random_trials", len(random_ns) * random_trials,
                   0, MAX_TRIALS)
    report.timings.update(subset_rows_s=0.0, rank_s=0.0)
    for n in range(1, exhaustive_max_n + 1):
        good = _full_rank_subsets(n, np.arange(1, 1 << n, dtype=np.uint64), report.timings)
        report.add(f"exhaustive subset ranks n={n}", good, (1 << n) - 1,
                   good == (1 << n) - 1)
    for n in random_ns:
        good = _full_rank_subsets(n, _random_masks(seed, n, random_trials), report.timings)
        report.add(f"random subset ranks n={n}", good, random_trials,
                   good == random_trials)


def _random_masks(seed: int, n: int, count: int):
    """count non-empty n-bit subset masks as uint64.  rng.bytes(k) takes
    ceil(k / 4) 32-bit words and keeps the first k bytes, so one bulk draw
    cut into rows of whole words gives the attempts of one rng.bytes draw
    each; a zero attempt is a retry, redrawn from where the stream stopped."""
    import numpy as np
    rng = derive_rng(seed, 0x5E7, n)
    nbytes = (n + 7) // 8
    row = 4 * -(-nbytes // 4)
    masks = np.zeros(0, dtype=np.uint64)
    while len(masks) < count:
        attempts = np.zeros((count - len(masks), 8), dtype=np.uint8)
        attempts[:, :nbytes] = np.frombuffer(rng.bytes(row * len(attempts)),
                                             dtype=np.uint8).reshape(-1, row)[:, :nbytes]
        values = attempts.view("<u8")[:, 0] & np.uint64((1 << n) - 1)
        masks = np.concatenate([masks, values[values != 0]])
    return masks


def _full_rank_subsets(n: int, masks, timings: Dict[str, float]) -> int:
    """How many of the uint64 masks select a full-rank subset XOR of the n x n
    family, adding the time spent forming and ranking them to timings.  The
    family's subset tables are built once and serve every chunk."""
    import numpy as np
    mats = gf2.multiplier_matrices(n, n)
    t0 = time.perf_counter()
    tables = gf2.subset_tables(mats)
    timings["subset_rows_s"] += time.perf_counter() - t0
    good, chunk = 0, RANK_BYTES // (n * tables[0].itemsize)
    for start in range(0, len(masks), chunk):
        t0 = time.perf_counter()
        rows = [gf2.subset_rows(tables, masks[start:start + chunk])]
        t1 = time.perf_counter()
        # popped, the rows are freed as soon as batched_rank has made its copy
        good += int(np.count_nonzero(gf2.batched_rank(rows.pop()) == n))
        timings["subset_rows_s"] += t1 - t0
        timings["rank_s"] += time.perf_counter() - t1
    return good


def _stacked_trials(trials: int, max_m: int, max_d: int, case, check) -> list:
    """check's values for trials 0 .. trials - 1, in trial order.  Trial t has
    shape (1 + t % max_m, t // max_m % (max_d + 1)), which repeats every
    max_m (max_d + 1) trials; case(m, d, ts) draws the trials ts, a range of
    one shape's, as (stack, *stacked tables), and check(stack, *stacked
    tables) gives an array of one value per state.  A stack holds
    qsim.stack_chunks of 2^m states of d qubits."""
    from . import qsim
    period = max_m * (max_d + 1)
    values = [None] * trials
    for j in range(min(period, trials)):
        m, d = 1 + j % max_m, j // max_m
        ts = range(j, trials, period)
        values[j::period] = [v for part in qsim.stack_chunks(len(ts), 16 << m + 2 * d)
                             for v in check(*case(m, d, ts[part])).tolist()]
    return values


@_command("verify:xor")
def run_xor_suite(report: Report, seed: int = DEFAULT_SEED,
                  trials: Annotated[int, 1, MAX_TRIALS] = 1000,
                  equality_trials: Annotated[int, 1, MAX_TRIALS] = 200,
                  max_m: Annotated[int, 1, MAX_CQ_M] = 3,
                  max_d: Annotated[int, 0, MAX_CQ_D] = 3, atol: float = 1e-8):
    """The multi-bit-to-characters inequality plus the one-bit merge identity."""
    import numpy as np
    from . import qsim

    def violation(stack):
        res = qsim.xor_lemma_check(stack)
        return res.lhs_squared - res.rhs_bound

    def deviation(stack, f):
        lhs = 2 * qsim.cq_distance_from_uniform(qsim.boolean_reduce(stack, f))
        rho = np.zeros((len(f), 2, stack.dim, stack.dim), dtype=complex)
        np.add.at(rho, (np.arange(len(f))[:, None], f), stack.weighted())
        return np.abs(lhs - qsim.l1_norm(rho[:, 0] - rho[:, 1]))

    # worst cases in trial order: max keeps the first of equal values
    worst = functools.reduce(max, _stacked_trials(
        trials, max_m, max_d, lambda m, d, ts: (qsim.random_cq_state(m, d, seed, ts),),
        violation), -math.inf)
    report.add("xor inequality max violation", worst, atol, worst <= atol)
    worst_eq = functools.reduce(max, _stacked_trials(
        equality_trials, max_m, max_d,
        lambda m, d, ts: (qsim.random_cq_state(m, d, seed, [0x10000 + t for t in ts]),
                          qsim.random_boolean_fn(m, seed, ts)), deviation), 0.0)
    report.add("one-bit merge identity max deviation", worst_eq, 1e-9,
               worst_eq <= 1e-9)


@_command("verify:reduction")
def run_reduction_suite(report: Report, seed: int = DEFAULT_SEED,
                        trials: Annotated[int, 1, MAX_TRIALS] = 500,
                        max_m: Annotated[int, 1, MAX_CQ_M] = 3,
                        max_d: Annotated[int, 0, MAX_CQ_D] = 3,
                        atol: float = 1e-8):
    """Quantum-to-classical reduction through the square-root measurement."""
    from . import qsim

    def violation(stack, f):
        res = qsim.pgm_reduction_check(stack, f)
        return res.lhs - res.bound

    worst = functools.reduce(max, _stacked_trials(
        trials, max_m, max_d,
        lambda m, d, ts: (qsim.random_cq_state(m, d, seed, [0x20000 + t for t in ts]),
                          qsim.random_boolean_fn(m, seed, [0x20000 + t for t in ts])),
        violation), -math.inf)
    report.add("pgm reduction max violation", worst, atol, worst <= atol)


@_command("verify:normbound")
def run_normbound_suite(report: Report, seed: int = DEFAULT_SEED,
                        trials: Annotated[int, 1, MAX_TRIALS] = 200,
                        max_d: Annotated[int, 1, MAX_CQ_D] = 3,
                        atol: float = 1e-8):
    """Trace norm against the sigma-weighted 2-norm on random instances."""
    import numpy as np
    from . import qsim

    def case(m, d, ts):
        # trial t on 1 + t % max_d qubits: the operator's two normal planes,
        # then sigma's, from its own stream
        draws = np.array([rng.normal(size=(4, 2 << d, 2 << d))
                          for rng in derive_rngs((seed, 0x7E9, t) for t in ts)])
        g = draws[:, 0] + 1j * draws[:, 1]
        return (g + g.conj().swapaxes(-1, -2)) / 2, qsim.random_density(draws[:, 2:])

    def violation(s_op, sigma):
        lhs, rhs = qsim.trace_norm_weighted_l2_bound(s_op, sigma)
        return lhs - rhs

    worst = functools.reduce(max, _stacked_trials(trials, 1, max_d - 1, case, violation),
                             -math.inf)
    report.add("weighted l2 bound max violation", worst, atol, worst <= atol)


@_command("verify:security")
def run_security_suite(report: Report, seed: int = DEFAULT_SEED,
                       instances: Annotated[int, 1, MAX_SECURITY_INSTANCES] = 100,
                       n: Annotated[int, 1, MAX_SECURITY_N] = 4,
                       k: Annotated[int, 0, MAX_SECURITY_K] = 3,
                       b: Annotated[int, 0, MAX_SECURITY_B] = 1,
                       atol: float = 1e-8):
    """Exact one-bit distances never exceed the bias bound, per flavor."""
    _require_range("instances x 4^k pairs x 4^(2b+2)",
                   instances * 4 ** k * 4 ** (2 * b + 2), 0, MAX_SECURITY_WORK)
    _require_range("k", k, 0, n)
    from . import adversaries, extractors, qsim
    params = bounds.ParamSet(n=n, k1=k, k2=k, b1=b, b2=b)
    sources = [(extractors.random_flat_source(n, k, seed, 1, i),
                extractors.random_flat_source(n, k, seed, 2, i)) for i in range(instances)]
    seeds = [(seed ^ 0xF1A) + i for i in range(instances)]
    # an instance holds two 2^(2b)-square states, or an int64 per source pair
    parts = qsim.stack_chunks(instances, max(2 * 16 << 4 * b, 8 << 2 * k))
    for flavor, entangled in (("product", False), ("entangled", True)):
        bound = bounds.ip_bias_bound(params, b, entangled=entangled)
        dists = []
        for part in parts:
            xs, ys = zip(*sources[part])
            strategy = adversaries.random_storage(b, b, flavor, seeds[part])
            state = qsim.extractor_output_state(xs, ys, strategy)
            dists += qsim.cq_distance_from_uniform(state).tolist()
        # the worst case in instance order: max keeps the first of equal values
        worst = functools.reduce(max, [dist - bound for dist in dists], -math.inf)
        report.add(f"ip distance within bound ({flavor})", worst, atol,
                   worst <= atol)


def run_verify(suite: str, seed: int = DEFAULT_SEED, **overrides) -> Report:
    return dispatch(f"verify {suite}", dict(overrides, seed=seed))


# --------------------------------------------------------------------------
# attacks


@_command("attack:smp")
def run_smp_attack(report: Report, ns: Sequence[Annotated[int, 1, MAX_SMP_N]] = (2, 4, 6),
                   seed: int = DEFAULT_SEED):
    import numpy as np
    from . import adversaries, qsim
    _require_range("sum of 4^n over ns", sum(4 ** n for n in ns), 0, 4 ** MAX_SMP_N)
    for n in ns:
        # every input pair, x-major
        xs, ys = np.divmod(np.arange(1 << 2 * n), 1 << n)
        outputs, probs, qubits = adversaries.smp_ip_protocol(xs, ys, n)
        worst_p = min(1.0, probs.min())
        correct = int(np.count_nonzero(outputs == qsim.character(xs, ys)))
        report.add(f"smp correctness n={n}", correct, len(xs), correct == len(xs))
        report.add(f"smp simulation probability n={n}", worst_p, 1.0,
                   abs(worst_p - 1.0) <= 1e-9)
        # odd n is padded with one zero bit: ceil(n/2) EPR pairs plus 2 weight qubits
        want = (n + 1) // 2 + 2
        report.add(f"smp qubits per party n={n}", qubits, want, qubits == want)


@_command("attack:superdense")
def run_superdense_attack(report: Report, max_n: Annotated[int, 2, MAX_SUPERDENSE_N] = 8,
                          seed: int = DEFAULT_SEED):
    import numpy as np
    from . import adversaries
    for name, n in [("two", 2), *((n, n) for n in range(2, max_n + 1, 2))]:
        messages = np.arange(1 << n)
        good = int(np.count_nonzero(adversaries.superdense_roundtrip(messages, n) == messages))
        report.add(f"{name}-bit roundtrips", good, 1 << n, good == (1 << n))


@_command("attack:tightness")
def run_tightness_attack(report: Report, n: Annotated[int, 1, MAX_TIGHTNESS_N],
                         k1: int, k2: int, b1: int, b2: int,
                         setting: bounds.Setting, branch: bounds.Branch = "auto",
                         seed: int = DEFAULT_SEED):
    from . import adversaries
    _require_range("b1 + b2", b1 + b2, 0, MAX_TIGHTNESS_B)
    _require_range("k1 + k2", k1 + k2, 0, MAX_TIGHTNESS_K)
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
    variant = "superstrong-max" if attack.superstrong else "weak-min"
    threshold = bounds.one_bit_condition(params, variant, attack.entangled).value
    report.add("advantage within security threshold", measured, threshold,
               measured <= threshold + 1e-9)


@_command("attack:knowledge")
def run_knowledge_attack(report: Report, n: Annotated[int, 3, MAX_KNOWLEDGE_N],
                         seed: int = DEFAULT_SEED):
    from . import adversaries
    res = adversaries.guessing_entropy_counterexample(n)
    report.add("referee correctness", res.referee_correct_fraction, 1.0,
               res.referee_correct_fraction == 1.0)
    report.add("per-adversary guessing entropy", res.guessing_entropy_single,
               n - 2, abs(res.guessing_entropy_single - (n - 2)) <= 1e-12)
    report.add("combined-storage guessing entropy floor",
               res.guessing_entropy_combined, n - 4,
               res.guessing_entropy_combined >= n - 4)


# --------------------------------------------------------------------------
# extraction runs


class Seeded(TypedDict, total=False):
    """The seeded half of a composed extraction; t and c as in SeededExtractorSpec."""
    kind: Literal["toeplitz", "trevisan"]
    t: int
    c: int


_PARAM_FIELDS = {f.name for f in dataclasses.fields(bounds.ParamSet)}


@_command("extract")
def run_extract(report: Report, x_path: str, y_path: str, n: int, m: Optional[int] = None,
                extractor: Optional[Literal["ip", "multibit", "composed"]] = None,
                format: Optional[bitio.Format] = None,
                which: Optional[Literal["X", "Y"]] = None,
                seeded: Optional[Seeded] = None, out_path: Optional[str] = None,
                entangled: Optional[bool] = None, k1: Optional[int] = None,
                k2: Optional[int] = None, b1: Optional[int] = None,
                b2: Optional[int] = None, eps: Optional[float] = None,
                c_poly: Optional[float] = None,
                c_o1: Optional[float] = None):
    """Extract bits from two source files.

    Parameters left at None are not echoed and take their defaults:
    k1 = k2 = n, the other bound parameters (m among them) as in
    bounds.ParamSet, multibit, raw files, side X, no entanglement and
    Trevisan.  The report fails, and the CLI exits 2, when the declared
    parameters fail their feasibility condition; the output is still
    written.  Multibit and composed reports name the GF(2^n) modulus and
    where it came from; the time spent finding it is under timings.
    """
    from . import extractors
    params = bounds.ParamSet(**{"k1": n, "k2": n, **{
        k: v for k, v in report.config.items() if k in _PARAM_FIELDS}})
    m, entangled = params.m, bool(entangled)
    extractor = extractor or "multibit"
    ignored = [k for k in ("which", "seeded") if k in report.config]
    if ignored and extractor != "composed":
        raise ParameterError(f"{', '.join(ignored)}: used only by the composed "
                             f"extractor, not {extractor}")
    if extractor == "ip" and m != 1:
        raise ParameterError(f"m must be 1 for the ip extractor, got {m}")
    seeded = {"kind": "trevisan", **(seeded or {})}
    if extractor == "composed" and seeded["kind"] == "trevisan" and "t" not in seeded:
        raise ParameterError("composed extraction with trevisan needs the config key "
                             "seeded.t, an even power of two >= 4")
    x = bitio.read_bits(x_path, n, format or "raw")
    y = bitio.read_bits(y_path, n, format or "raw")
    if extractor != "ip":
        if gf2.modulus_source(n) == "search":
            import numpy  # noqa: F401  the search's import, kept out of modulus_s
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
        spec = extractors.SeededExtractorSpec(**seeded, n=n, m=m)
        out = extractors.compose_two_source(x, y, which or "X", spec)
        feas = bounds.composed_output_len(
            params, "entangled" if entangled else "storage")
        capacity = feas.value if feas.satisfied else 0
    if out_path is not None:
        bitio.write_bits(out_path, out, format or "raw")
    report.add("declared m within computed capacity", m, capacity, m <= capacity)
    report.add("output bits", out.length, m, out.length == m)


# --------------------------------------------------------------------------
# bounds tables


@_command("bounds")
def bounds_table(report: Report, n: int, k1: int, k2: int, b1: Optional[int] = None,
                 b2: Optional[int] = None, m: Optional[int] = None,
                 eps: Optional[float] = None, c_poly: Optional[float] = None,
                 c_o1: Optional[float] = None,
                 sweep: Optional[Dict[str, Sequence[float]]] = None) -> dict:
    """Evaluate every calculator on a point or a one-parameter sweep.

    Parameters left at None take bounds.ParamSet's defaults and are not
    echoed.  A sweep maps one parameter to the values it takes; each
    point is checked like the command's own config.
    """
    base = {k: v for k, v in report.config.items() if k != "sweep"}
    points = [base]
    if sweep is not None:
        if len(sweep) != 1:
            raise ParameterError("sweep must vary exactly one parameter")
        (name, values), = sweep.items()
        if not values:
            raise ParameterError(f"sweep of {name} needs at least one value")
        points = [dict(base, **{name: v}) for v in values]
    rows = []
    for point in points:
        p = bounds.ParamSet(**point)
        row = {"params": point}
        # the calculators are float formulas: an int past the float range
        # (n with 400 digits) overflows in whichever one meets it first
        try:
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
        except OverflowError:
            raise ParameterError(f"bounds out of float range at {p}") from None
        rows.append(row)
    return {"command": "bounds", "config": report.config, "rows": rows}


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

    Optional[X] reads as X: None only marks a parameter as optional.  So
    does Annotated[X, low, high], whose range _walk checks.
    """
    if command not in COMMANDS:
        raise ParameterError(
            f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    hints = typing.get_type_hints(COMMANDS[command])
    return {name: (_non_none(hints[name]), p.default is p.empty)
            for name, p in inspect.signature(COMMANDS[command]).parameters.items()}


def _non_none(tp):
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union and type(None) in args:
        (tp,) = [a for a in args if a is not type(None)]
    return tp


def check(command: str, config) -> None:
    """Raise ParameterError naming the first key of config the command cannot take.

    Keys the handler lacks, required ones absent, and values of the wrong
    type are bad: bool is not int, int passes for float, and None never
    passes here, though a handler reads None as an optional parameter's
    default.  Ranges, finiteness and repeats are left to the handler's walk.
    """
    _walk(command, config, parameters(command), bounded=False)


def dispatch(command: str, config: dict):
    """Run the command's handler on config, which the handler walks."""
    return COMMANDS[command](**config)
