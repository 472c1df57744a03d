"""Benchmark for qx2src, run from the root of a source checkout.

    python3 perfbench/run.py --workload {extract,verify,cli} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it measures passes of the workload's job list for
about S seconds and prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed number of passes untraced and then traced, and prints the
per-layer metrics (see README.md).  The last line of stdout is the
result object; the line before it holds the environment stamp and the
workload's named medians.  The package is imported from ``src/`` of the
checkout; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3      # set-ups timed per run (this process, then fresh ones); median
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("extract", "verify", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time imports plus the warm-up job, print it, exit")
    return p.parse_args(argv)


def make_workload(workloads, args, workdir: Path):
    cls = workloads.WORKLOADS[args.workload]
    return cls(args.seed, workdir, workloads.load_expected())


# ``workloads`` imports the package, so it is imported only inside the timed
# set-up below; functions that need it later import it locally.
def timed_setup(args, workdir: Path):
    """Imports plus one warm-up job, timed; only meaningful in a fresh interpreter."""
    start = perf_counter()
    import workloads
    workload = make_workload(workloads, args, workdir)
    workload.setup()
    return perf_counter() - start, workload


def setup_sample(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, tally) -> list:
    """Whole passes until another one would overrun the time budget."""
    from workloads import run_pass
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload.jobs(len(passes)), tally))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(workload, passes, setup_samples) -> dict:
    """Speed-adjusted medians (see speed.py); setup_samples are adjusted too."""
    return {
        "setup_s": (median(setup_samples), "s"),
        "wall_s": (median(p["wall"] for p in passes), "s"),
        "heavy_s": (median(p["heavy"] for p in passes), "s"),
        "light_s": (median(p["light"] for p in passes), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def per_layer(workload, tally) -> dict:
    """Fixed passes untraced, then the same passes traced; counts repeat exactly."""
    from tracer import Tracer, layer_metrics, merge
    from workloads import run_pass

    def fixed_passes(tracer=None) -> float:
        return sum(run_pass(workload.jobs(i), tally, tracer)["raw_wall"]
                   for i in range(workload.traced_passes))

    untraced = fixed_passes()
    if workload.in_process:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            wall = fixed_passes(tracer)
        finally:
            tracer.active = False
            snap = tracer.snapshot()
            tracer.uninstall()
        startup = 0.0
    else:
        workload.traced = True
        try:
            wall = fixed_passes()
        finally:
            workload.traced = False
        snap = merge(s for _, s in workload.child_traces)
        startup = sum(child_wall - s["main_total_s"]
                      for child_wall, s in workload.child_traces)
    return layer_metrics(snap, wall, untraced, startup)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or the environment's setting."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            return os.environ[var]
    return "unknown"


def environment(args) -> dict:
    import numpy
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu_model(), "blas_threads": blas_threads(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace)}


def declared_metrics(trace: int) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qx2src" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qx2src'}; run from a "
              "qx2src checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        elapsed, _ = timed_setup(args, WORK / f"probe-{os.getpid()}")
        print(json.dumps({"setup_s": elapsed}))
        return 0

    WORK.mkdir(exist_ok=True)
    try:
        # this process's own set-up is the first sample, fresh interpreters the rest
        before = speed.reference_point()
        elapsed, workload = timed_setup(args, WORK / "run")
        import workloads
        if not Path(workloads.gf2.__file__).resolve().is_relative_to(SRC):
            print(f"error: qx2src was imported from outside {SRC}", file=sys.stderr)
            return 2
        raw_setup, setup_samples = [], []
        for i in range(1 if args.trace else SETUP_SAMPLES):
            if i:
                elapsed = setup_sample(args)
            after = speed.reference_point()
            raw_setup.append(elapsed)
            setup_samples.append(elapsed * speed.scale(before, after))
            before = after
        tally = workloads.Tally()
        if args.trace:
            metrics = per_layer(workload, tally)
            detail = {}
        else:
            passes = measure(workload, args.seconds, tally)
            metrics = end_to_end(workload, passes, setup_samples)
            detail = dict(
                workload.detail(passes), passes=(len(passes), "count"),
                reference_ms=(median(p["reference"] for p in passes) * 1e3, "ms"),
                raw_setup_s=(median(raw_setup), "s"),
                raw_wall_s=(median(p["raw_wall"] for p in passes), "s"),
                raw_heavy_s=(median(p["raw_heavy"] for p in passes), "s"),
                raw_light_s=(median(p["raw_light"] for p in passes), "s"))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if set(metrics) != declared_metrics(args.trace):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ declared_metrics(args.trace))}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(args), "detail": detail,
                      "failures": tally.messages}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
