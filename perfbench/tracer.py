"""Per-layer tracer that wraps the package's public functions from outside.

Every function named in ``LAYERS`` is replaced, in each ``qx2src`` module
namespace (and each module-level dict) that binds it, by a wrapper that
records one span per call.  Spans are folded into per-function totals in
memory as they close (calls, self time, total time), so a run that makes
millions of calls still uses constant memory and does no I/O until the
benchmark writes its result.

Self time of a span is its duration minus the time covered by the spans
it caused.  Calls are synchronous, so child spans never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# module -> public functions the benchmark times; names are "<module>.<function>"
LAYERS = {
    "gf2": ("rank", "subset_matrix", "multiplier_matrices", "inner_product",
            "multiply_by_alpha", "poly_mul", "poly_mod", "is_irreducible",
            "find_irreducible"),
    "extractors": ("ip_extract", "multibit_extract", "toeplitz_extract",
                   "trevisan_extract", "weak_design", "compose_two_source",
                   "random_flat_source"),
    "qsim": ("extractor_output_state", "cq_distance_from_uniform", "l1_norm",
             "boolean_reduce", "xor_lemma_check", "pgm", "pgm_reduction_check",
             "random_cq_state", "random_unitary", "partial_trace"),
    "adversaries": ("random_storage", "tightness_attack",
                    "biased_product_sources", "measure_attack_advantage",
                    "smp_ip_protocol", "guessing_entropy_counterexample"),
    "rng": ("derive_rng",),
    "bitio": ("read_bits", "write_bits"),
    "bounds": ("one_bit_condition", "strong_output_len", "composed_output_len"),
    "harness": ("run_matrices_suite", "run_xor_suite", "run_reduction_suite",
                "run_normbound_suite", "run_security_suite", "run_verify",
                "run_smp_attack", "run_superdense_attack",
                "run_tightness_attack", "run_knowledge_attack", "run_extract",
                "bounds_table"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Span accounting plus the patching that routes calls through it."""

    def __init__(self):
        self.active = False
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.total_s = [0.0] * len(SPAN_NAMES)
        self._open = []        # child time covered so far, one slot per open span
        self._patches = []     # (namespace, key, original) in patch order
        self.live_searches = 0
        self.max_dim = 0
        self.max_labels = 0
        self.misses_at_start = 0

    # -- span arithmetic -------------------------------------------------

    def open(self) -> None:
        self._open.append(0.0)

    def close(self, idx: int, start: float, end: float) -> None:
        covered = self._open.pop()
        dur = end - start
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += dur - covered
        if self._open:
            self._open[-1] += dur

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, idx: int, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            finish = observe(args) if observe else None
            tracer.open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx, start, perf_counter())
                if finish:
                    finish()

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _observe_cq(self, args):
        state = args[0]
        self.max_dim = max(self.max_dim, state.dim)
        self.max_labels = max(self.max_labels, len(state.entries))

    def _observe_find(self, args):
        gf2 = sys.modules["qx2src.gf2"]
        original = gf2.find_irreducible.__perfbench_original__
        before = original.cache_info().misses
        n = args[0]

        def finish():
            missed = original.cache_info().misses > before
            if missed and n > 1 and n not in gf2._KNOWN_TAILS:
                self.live_searches += 1
        return finish

    def install(self) -> None:
        """Patch every binding of every LAYERS function in loaded qx2src modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {"gf2.find_irreducible": self._observe_find,
                     "qsim.cq_distance_from_uniform": self._observe_cq}
        wrappers = {}
        for idx, name in enumerate(SPAN_NAMES):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"qx2src.{mod}"), fn)
            wrappers[id(original)] = self._wrap(idx, original, observers.get(name))
        gf2 = sys.modules["qx2src.gf2"]
        self.misses_at_start = gf2.find_irreducible.cache_info().misses
        for modname in sorted(m for m in sys.modules
                              if m == "qx2src" or m.startswith("qx2src.")):
            namespace = vars(sys.modules[modname])
            for key, val in list(namespace.items()):
                if id(val) in wrappers:
                    self._patch(namespace, key, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers:
                            self._patch(val, k, wrappers[id(v)])

    def _patch(self, namespace: dict, key, wrapper) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals, mergeable across processes with ``merge``."""
        gf2 = sys.modules["qx2src.gf2"]
        original = getattr(gf2.find_irreducible, "__perfbench_original__",
                           gf2.find_irreducible)
        return {
            "calls": list(self.calls), "self_s": list(self.self_s),
            "total_s": list(self.total_s),
            "misses": original.cache_info().misses - self.misses_at_start,
            "live_searches": self.live_searches,
            "max_dim": self.max_dim, "max_labels": self.max_labels,
        }


def merge(snaps) -> dict:
    """Sum (or max, for the qsim sizes) a sequence of ``snapshot`` dicts."""
    out = {"calls": [0] * len(SPAN_NAMES), "self_s": [0.0] * len(SPAN_NAMES),
           "total_s": [0.0] * len(SPAN_NAMES), "misses": 0,
           "live_searches": 0, "max_dim": 0, "max_labels": 0}
    for snap in snaps:
        for key in ("calls", "self_s", "total_s"):
            out[key] = [a + b for a, b in zip(out[key], snap[key])]
        for key in ("misses", "live_searches"):
            out[key] += snap[key]
        for key in ("max_dim", "max_labels"):
            out[key] = max(out[key], snap[key])
    return out


def layer_metrics(snap: dict, wall_s: float, untraced_wall_s: float,
                  startup_s: float = 0.0) -> dict:
    """Per-layer metric values; self times + startup + remainder == wall_s."""
    metrics = {}
    for idx, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls"] = (snap["calls"][idx], "count")
        metrics[f"{name}.self_s"] = (snap["self_s"][idx], "s")
    is_irr = snap["calls"][SPAN_NAMES.index("gf2.is_irreducible")]
    searches = snap["live_searches"]
    metrics["gf2.find_irreducible.misses"] = (snap["misses"], "count")
    metrics["gf2.is_irreducible.per_search"] = (
        is_irr / searches if searches else 0, "count")
    metrics["qsim.max_dim"] = (snap["max_dim"], "count")
    metrics["qsim.max_labels"] = (snap["max_labels"], "count")
    metrics["cli.startup_s"] = (startup_s, "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["trace.remainder_s"] = (wall_s - sum(snap["self_s"]) - startup_s, "s")
    metrics["trace.overhead"] = (wall_s / untraced_wall_s - 1.0, "ratio")
    return metrics
