"""The benchmark's workloads: seeded inputs, timed jobs and output checks.

Each workload is a closed loop with one caller: a single main process
runs one job at a time.  A *pass* is the workload's fixed job list; a
run repeats passes and reports medians over them.

- ``extract`` calls the extractors in process, on fresh sources every
  round: the GF(2) kernels and extractors, and no ``qsim``.
- ``verify`` runs the five verification suites in process at their
  acceptance sizes: batched rank and thousands of tiny cq-states, and
  no extractor or polynomial kernel.
- ``cli`` runs each command as a fresh ``python -m qx2src.cli`` process,
  so every job pays interpreter start-up and any live modulus search
  again, and ``qsim`` sees a few large cq-states.

Every output is checked outside the timed region.  For the seeds in
``expected.json`` the check compares digests frozen from the reference
commit; for any other seed it runs spot checks that recompute sampled
output bits without the timed code path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Optional

import speed
from qx2src import bounds, extractors, gf2, harness
from qx2src.gf2 import BitVector

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

SPOT_SAMPLES = 16     # output bits recomputed per job when no digest is frozen
CHILD_TIMEOUT_S = 150


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def derive_seed(label: str, seed: int) -> int:
    """Stable 63-bit seed for one workload input, independent of Python's hash."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def bits_digest(bits: BitVector) -> str:
    return digest([bits.length, format(bits.value, "x")])


def stable(x):
    """A report number at 9 significant digits, with |x| < 1e-9 read as 0.

    Floating-point results move in the last digits with the BLAS build,
    its thread count and summation order; maximum deviations that are
    pure rounding noise (around 1e-16) move entirely.  Both are below
    every tolerance the suites check.
    """
    if not math.isfinite(x):
        return str(x)
    return 0.0 if abs(x) < 1e-9 else float(f"{x:.9g}")


def records_digest(records) -> str:
    """Digest of (name, measured, bound, passed) only, so new report fields do not matter."""
    return digest([[r["name"], stable(r["measured"]), stable(r["bound"]), r["passed"]]
                   for r in records])


def parity(v: int) -> int:
    return v.bit_count() & 1


@dataclass
class Job:
    name: str
    group: str                    # "heavy", "light" or "other"
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]   # None when the output is right
    calls: int = 1                # calls per run; latency is duration / calls


class Tally:
    """Jobs attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, name: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{name}: {error}")


def run_job(job: Job, tally: Tally, tracer=None) -> float:
    """Time one job, then check its output with tracing paused."""
    start = perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a failing job is counted, the run goes on
        tally.record(job.name, f"raised {exc!r}")
        return perf_counter() - start
    duration = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    try:
        error = job.check(out)
    except Exception as exc:
        error = f"check raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.active = True
    tally.record(job.name, error)
    return duration


def run_pass(jobs, tally: Tally, tracer=None) -> dict:
    """One pass: per-job latency, and the pass's wall and group sums.

    Times are speed-adjusted (see speed.py) with the reference points
    taken right before and after each job; ``raw_`` keys hold seconds as
    measured.
    """
    latency, raw_latency = {}, {}
    before = speed.reference_point()
    references = [median(before)]
    for job in jobs:
        duration = run_job(job, tally, tracer) / job.calls
        after = speed.reference_point()
        raw_latency[job.name] = duration
        latency[job.name] = duration * speed.scale(before, after)
        before = after
        references.append(median(after))
    record = {"reference": median(references), "latency": latency}
    for prefix, lat in (("", latency), ("raw_", raw_latency)):
        record[prefix + "wall"] = sum(lat[j.name] * j.calls for j in jobs)
        for group in ("heavy", "light"):
            record[prefix + group] = sum(lat[j.name] for j in jobs if j.group == group)
    return record


class Workload:
    """Base: seeded inputs, a job list per pass, and digest-or-spot checks."""

    name = ""
    in_process = True
    traced_passes = 1

    def __init__(self, seed: int, workdir: Path, expected: dict,
                 recording: Optional[dict] = None):
        self.seed = seed
        self.workdir = workdir
        self.moduli = {int(n): int(v, 16) for n, v in expected["moduli"].items()}
        self.frozen = expected.get(self.name, {}).get(str(seed), {})
        self.recording = recording     # freeze mode: digests are stored here

    def setup(self) -> None:
        """The warm-up job; set-up time is the package import plus this call."""
        raise NotImplementedError

    def jobs(self, index: int) -> list:
        raise NotImplementedError

    def detail(self, passes) -> dict:
        """Named per-job medians, printed beside the result."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _verify(self, key: str, actual: str, spot: Callable[[], Optional[str]]):
        if self.recording is not None:
            self.recording[key] = actual
            return spot()
        if key in self.frozen:
            return None if self.frozen[key] == actual else \
                f"digest {actual} != frozen {self.frozen[key]}"
        return spot()

    # spot checks shared by the extract and cli workloads

    def multibit_bits_ok(self, x: BitVector, y: BitVector, out: BitVector,
                         rnd: random.Random) -> Optional[str]:
        """Bit i is <alpha^i x mod f, y>, recomputed with poly_mul and poly_mod."""
        modulus = self.moduli[x.length]
        for i in rnd.sample(range(out.length), min(SPOT_SAMPLES, out.length)):
            u = gf2.poly_mod(gf2.poly_mul(1 << i, x.value), modulus)
            if parity(u & y.value) != out.bit(i):
                return f"multibit bit {i} wrong"
        return None

    def composed_bits_ok(self, x: BitVector, y: BitVector, out: BitVector,
                         spec, rnd: random.Random) -> Optional[str]:
        """Trevisan bits: seed bits from the multibit formula, then the RS/Hadamard code bit."""
        if out.length != spec.m:
            return f"composed output has {out.length} bits, want {spec.m}"
        w = spec.t // 2
        field = self.moduli[w]
        modulus = self.moduli[x.length]
        symbols = [(x.value >> (j * w)) & ((1 << w) - 1)
                   for j in range((x.length + w - 1) // w)]
        design = extractors.weak_design(spec.m, spec.t, spec.degree_bound)
        for i in rnd.sample(range(spec.m), min(SPOT_SAMPLES, spec.m)):
            sub = 0
            for j, pos in enumerate(design[i]):
                u = gf2.poly_mod(gf2.poly_mul(1 << pos, x.value), modulus)
                sub |= parity(u & y.value) << j
            point, mask = sub >> w, sub & ((1 << w) - 1)
            acc = 0
            for sym in reversed(symbols):
                acc = gf2.poly_mod(gf2.poly_mul(acc, point), field) ^ sym
            if parity(acc & mask) != out.bit(i):
                return f"composed bit {i} wrong"
        return None


# --------------------------------------------------------------------------
# extract: warm in-process extractor calls


class ExtractWorkload(Workload):
    name = "extract"
    traced_passes = 3
    IP_BITS = 1 << 20
    N, M = 4096, 512
    COMPOSED_M, T = 1024, 32
    IP_BATCH = 64          # sub-millisecond calls are timed in batches
    MULTIBIT_BATCH = 16

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = extractors.SeededExtractorSpec(
            "trevisan", self.N, self.COMPOSED_M, t=self.T)

    def setup(self) -> None:
        for job in self.jobs(-1):
            job.run()

    def jobs(self, index: int) -> list:
        rnd = random.Random(derive_seed(f"extract:{index}", self.seed))
        xi = BitVector(self.IP_BITS, rnd.getrandbits(self.IP_BITS))
        yi = BitVector(self.IP_BITS, rnd.getrandbits(self.IP_BITS))
        x = BitVector(self.N, rnd.getrandbits(self.N))
        y = BitVector(self.N, rnd.getrandbits(self.N))
        tseed = BitVector(self.N + self.M - 1, rnd.getrandbits(self.N + self.M - 1))
        frozen_key = f"{index}."

        def check_ip(outs):
            want = parity(xi.value & yi.value)
            if any(o != want for o in outs):
                return "inner product parity wrong"
            return self._verify(frozen_key + "ip", digest(outs[0]), lambda: None)

        def check_multibit(outs):
            if any(o != outs[0] for o in outs):
                return "repeated calls disagree"
            return self._verify(frozen_key + "multibit", bits_digest(outs[0]),
                                lambda: self.multibit_bits_ok(x, y, outs[0], rnd))

        def check_toeplitz(out):
            def spot():
                for i in rnd.sample(range(self.M), min(SPOT_SAMPLES, self.M)):
                    row = extractors.toeplitz_row(tseed, self.M, i, self.N)
                    if parity(row.value & x.value) != out.bit(i):
                        return f"toeplitz bit {i} wrong"
                return None
            if out.length != self.M:
                return f"toeplitz output has {out.length} bits"
            return self._verify(frozen_key + "toeplitz", bits_digest(out), spot)

        def check_composed(out):
            return self._verify(
                frozen_key + "composed", bits_digest(out),
                lambda: self.composed_bits_ok(x, y, out, self.spec, rnd))

        return [
            Job("ip", "light",
                lambda: [gf2.inner_product(xi, yi) for _ in range(self.IP_BATCH)],
                check_ip, calls=self.IP_BATCH),
            Job("multibit", "light",
                lambda: [extractors.multibit_extract(x, y, self.M)
                         for _ in range(self.MULTIBIT_BATCH)],
                check_multibit, calls=self.MULTIBIT_BATCH),
            Job("toeplitz", "heavy",
                lambda: extractors.toeplitz_extract(x, tseed, self.M), check_toeplitz),
            Job("composed", "heavy",
                lambda: extractors.compose_two_source(x, y, "X", self.spec),
                check_composed),
        ]

    def detail(self, passes) -> dict:
        return {f"{job}_ms": (median([p["latency"][job] for p in passes]) * 1e3, "ms")
                for job in ("ip", "multibit", "toeplitz", "composed")}


# --------------------------------------------------------------------------
# verify: the verification suites in process


class VerifyWorkload(Workload):
    name = "verify"
    SUITES = (("matrices", "heavy"), ("xor", "light"), ("reduction", "light"),
              ("normbound", "light"), ("security", "light"))
    # same code paths at a fraction of the size; fills the multiplier cache
    WARMUP = {"matrices": {"exhaustive_max_n": 4, "random_trials": 20},
              "xor": {"trials": 20, "equality_trials": 5},
              "reduction": {"trials": 10}, "normbound": {"trials": 6},
              "security": {"instances": 2}}

    def setup(self) -> None:
        for suite, _ in self.SUITES:
            harness.run_verify(suite, seed=1, **self.WARMUP[suite])

    def jobs(self, index: int) -> list:
        suite_seed = derive_seed("verify", self.seed)

        def job(suite, group):
            def check(report):
                records = [r.to_dict() for r in report.records]

                def spot():
                    if not records:
                        return "report has no records"
                    if not all(math.isfinite(r["measured"]) for r in records):
                        return "non-finite measurement"
                    return None if report.passed else "suite failed"
                return self._verify(suite, records_digest(records), spot)
            # acceptance sizes are the suites' defaults
            return Job(suite, group,
                       lambda: harness.run_verify(suite, seed=suite_seed), check)
        return [job(suite, group) for suite, group in self.SUITES]

    def detail(self, passes) -> dict:
        return {"matrices_s": (median([p["heavy"] for p in passes]), "s"),
                "cq_suites_s": (median([p["light"] for p in passes]), "s")}


# --------------------------------------------------------------------------
# cli: each command as a fresh process


CLI_N = 4096
TIGHTNESS = ((4, 4, 4, 4, 4, "entangled"), (8, 5, 5, 4, 4, "entangled"),
             (10, 7, 7, 2, 2, "superstrong-entangled"),
             (12, 8, 8, 2, 2, "non-entangled"))


class CliWorkload(Workload):
    name = "cli"
    in_process = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.traced = False
        self.child_traces = []     # (child wall, launcher snapshot) per traced job
        self.x_path = self.workdir / "x.bin"
        self.y_path = self.workdir / "y.bin"
        self.composed_cfg = self.workdir / "composed.json"
        self.bounds_cfg = self.workdir / "bounds.json"
        self.spec = extractors.SeededExtractorSpec("trevisan", CLI_N, 1024, t=32)

    def setup(self) -> None:
        """Write the seeded inputs and configs, then run one warm-up process."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        rnd = random.Random(derive_seed("cli-inputs", self.seed))
        self.x = BitVector(CLI_N, rnd.getrandbits(CLI_N))
        self.y = BitVector(CLI_N, rnd.getrandbits(CLI_N))
        self.x_path.write_bytes(self.x.to_bytes())
        self.y_path.write_bytes(self.y.to_bytes())
        self.composed_cfg.write_text(json.dumps({"seeded": {"kind": "trevisan", "t": 32}}))
        self.sweep = sorted(rnd.sample(range(0, 41), 8))
        self.bounds_cfg.write_text(json.dumps({
            "n": 100, "k1": 80, "k2": 80, "b1": 20, "b2": 20,
            "eps": 2.0 ** -11, "sweep": {"b1": self.sweep}}))
        rc, _, _ = self._spawn("warmup", self._extract_args(CLI_N, 512, "warmup"))
        if rc != 0:
            raise RuntimeError(f"warm-up process exited {rc}")

    def _extract_args(self, n, m, name, *extra):
        return ["extract", "--x", str(self.x_path), "--y", str(self.y_path),
                "--n", str(n), "--m", str(m),
                "--output", str(self.workdir / f"{name}.bin"), *extra]

    def _spawn(self, name: str, args: list):
        """Run one command to completion; returns (exit code, stdout, wall)."""
        out_path = self.workdir / f"{name}.stdout"
        trace_path = self.workdir / f"{name}.trace.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "launch.py"), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-m", "qx2src.cli", *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = perf_counter()
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            try:
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        wall = perf_counter() - start
        if self.traced:
            self.child_traces.append((wall, json.loads(trace_path.read_text())))
        return rc, out_path.read_text(), wall

    def jobs(self, index: int) -> list:
        attack_seed = str(derive_seed("cli-attack", self.seed) % (1 << 32))
        jobs = []

        def add(name, group, args, want_rc, spot):
            def run():
                rc, stdout, _ = self._spawn(name, args)
                return rc, stdout

            def check(out):
                rc, stdout = out
                if rc != want_rc:
                    return f"exit code {rc}, want {want_rc}"
                doc = json.loads(stdout)
                if name.startswith("bounds"):
                    actual = digest(doc["rows"])
                else:
                    actual = records_digest(doc["records"])
                bits_path = self.workdir / f"{name}.bin"
                if bits_path.exists():
                    actual += ":" + digest(bits_path.read_bytes().hex())
                return self._verify(name, actual, lambda: spot(doc))
            jobs.append(Job(name, group, run, check))

        for n, m in ((768, 64), (1536, 64), (2000, 64), (CLI_N, 512)):
            name = f"extract-{n}"
            add(name, "heavy", self._extract_args(n, m, name), 0,
                lambda doc, name=name, n=n, m=m: self._extract_ok(doc, name, n, m))
        add("extract-composed", "heavy",
            self._extract_args(CLI_N, 1024, "extract-composed", "--extractor",
                               "composed", "--config", str(self.composed_cfg)),
            2, self._composed_ok)   # 2: no storage parameters given, flagged infeasible
        for params in TIGHTNESS:
            n, k1, k2, b1, b2, setting = params
            add("tightness-" + "-".join(map(str, params)), "light",
                ["attack", "tightness", "--n", str(n), "--k1", str(k1),
                 "--k2", str(k2), "--b1", str(b1), "--b2", str(b2),
                 "--setting", setting, "--seed", attack_seed], 0, _report_ok)
        add("smp", "light", ["attack", "smp", "--seed", attack_seed], 0, _report_ok)
        add("superdense", "light", ["attack", "superdense", "--seed", attack_seed],
            0, _report_ok)
        add("knowledge-8", "light",
            ["attack", "knowledge", "--n", "8", "--seed", attack_seed], 0, _report_ok)
        add("bounds-sweep", "other", ["bounds", "--config", str(self.bounds_cfg)],
            0, self._bounds_ok)
        return jobs

    def _read_out(self, name: str, n_bits: int) -> BitVector:
        data = (self.workdir / f"{name}.bin").read_bytes()
        return BitVector.from_bytes(data, n_bits)

    def _extract_ok(self, doc, name, n, m):
        if not doc["passed"]:
            return "extract report not passed"
        x = BitVector(n, self.x.value & ((1 << n) - 1))
        y = BitVector(n, self.y.value & ((1 << n) - 1))
        rnd = random.Random(derive_seed(name, self.seed))
        return self.multibit_bits_ok(x, y, self._read_out(name, m), rnd)

    def _composed_ok(self, doc):
        by_name = {r["name"]: r for r in doc["records"]}
        if not by_name["output bits"]["passed"]:
            return "composed output length wrong"
        rnd = random.Random(derive_seed("extract-composed", self.seed))
        return self.composed_bits_ok(
            self.x, self.y, self._read_out("extract-composed", self.spec.m),
            self.spec, rnd)

    def _bounds_ok(self, doc):
        rows = doc["rows"]
        if [r["params"]["b1"] for r in rows] != self.sweep:
            return "bounds sweep rows do not match the config"
        p = bounds.ParamSet(n=100, k1=80, k2=80, b1=self.sweep[0], b2=20,
                            eps=2.0 ** -11)
        want = bounds.ip_bias_bound(p, min(p.b1, p.b2), False)
        return None if rows[0]["ip_bias_product"] == want else "bias bound row wrong"

    def detail(self, passes) -> dict:
        return {"extract_cmd_s": (median([p["heavy"] for p in passes]), "s"),
                "attack_cmd_s": (median([p["light"] for p in passes]), "s")}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _report_ok(doc) -> Optional[str]:
    if not doc["records"]:
        return "report has no records"
    return None if doc["passed"] else "attack report not passed"


WORKLOADS = {w.name: w for w in (ExtractWorkload, VerifyWorkload, CliWorkload)}
