"""Command-line interface.

    qx2src extract --x FILE --y FILE [--out FILE] [--config FILE] ...
    qx2src verify {xor,reduction,normbound,security,matrices} [--seed N] [--out FILE]
    qx2src attack {smp,superdense,tightness,knowledge} [--seed N] ...
    qx2src bounds [--config FILE] [--n N --k1 K ...]

Exit codes: 0 all checks pass, 1 usage or input error, 2 feasibility
warning (extraction output still produced), 3 verification failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from . import harness
from .errors import SearchExhaustedError


def _load_config(path):
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, help="base RNG seed (64-bit)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qx2src")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("extract", help="run an extractor over two bit files")
    _add_common(p_ext)
    p_ext.add_argument("--x", dest="x_path", help="first source file")
    p_ext.add_argument("--y", dest="y_path", help="second source file")
    p_ext.add_argument("--output", dest="out_path", help="extracted bits file")
    p_ext.add_argument("--n", type=int)
    p_ext.add_argument("--m", type=int)
    p_ext.add_argument("--format", choices=("raw", "hex"))
    p_ext.add_argument("--extractor", choices=("ip", "multibit", "composed"))
    p_ext.add_argument("--which", choices=("X", "Y"))
    p_ext.add_argument("--k1", type=int)
    p_ext.add_argument("--k2", type=int)
    p_ext.add_argument("--b1", type=int)
    p_ext.add_argument("--b2", type=int)
    p_ext.add_argument("--eps", type=float)
    p_ext.add_argument("--entangled", action="store_true", default=None)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(harness.VERIFY_SUITES))
    _add_common(p_ver)
    p_ver.add_argument("--trials", type=int)
    p_ver.add_argument("--instances", type=int)

    p_att = sub.add_parser("attack", help="build and evaluate an attack")
    p_att.add_argument("kind", choices=sorted(harness.ATTACKS))
    _add_common(p_att)
    p_att.add_argument("--n", type=int)
    p_att.add_argument("--k1", type=int)
    p_att.add_argument("--k2", type=int)
    p_att.add_argument("--b1", type=int)
    p_att.add_argument("--b2", type=int)
    p_att.add_argument("--setting", choices=harness.adversaries.SETTINGS)
    p_att.add_argument("--branch", choices=("auto", "exact", "biased"))

    p_bnd = sub.add_parser("bounds", help="evaluate bound calculators")
    _add_common(p_bnd)
    for name in ("n", "k1", "k2", "b1", "b2", "m"):
        p_bnd.add_argument(f"--{name}", type=int)
    p_bnd.add_argument("--eps", type=float)
    p_bnd.add_argument("--c-poly", dest="c_poly", type=float)
    p_bnd.add_argument("--c-o1", dest="c_o1", type=float)
    return parser


def _merge(config: dict, args, keys) -> dict:
    merged = dict(config)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "extract":
            cfg = _merge(config, args,
                         ("x_path", "y_path", "out_path", "n", "m", "format",
                          "extractor", "which", "k1", "k2", "b1", "b2", "eps",
                          "entangled", "seed"))
            if "x_path" not in cfg or "y_path" not in cfg or "n" not in cfg:
                print("error: extract needs --x, --y and --n", file=sys.stderr)
                return 1
            code, report = harness.run_extract(cfg)
            _emit(report.to_json(), args.out)
            return code

        if args.command == "verify":
            cfg = _merge(config, args, ("seed", "trials", "instances"))
            seed = cfg.pop("seed", harness.DEFAULT_SEED)
            report = harness.run_verify(args.suite, seed=seed, **cfg)
            _emit(report.to_json(), args.out)
            return 0 if report.passed else 3

        if args.command == "attack":
            cfg = _merge(config, args,
                         ("seed", "n", "k1", "k2", "b1", "b2", "setting", "branch"))
            kind = args.kind
            harness.reject_unknown_keys(
                f"attack {kind}", cfg,
                inspect.signature(harness.ATTACKS[kind]).parameters)
            seed = cfg.pop("seed", harness.DEFAULT_SEED)
            if kind == "smp":
                report = harness.run_smp_attack(
                    ns=tuple(cfg.get("ns", (2, 4, 6))), seed=seed)
            elif kind == "superdense":
                report = harness.run_superdense_attack(
                    max_n=cfg.get("max_n", 8), seed=seed)
            elif kind == "tightness":
                needed = ("n", "k1", "k2", "b1", "b2", "setting")
                if any(k not in cfg for k in needed):
                    print(f"error: tightness needs {needed}", file=sys.stderr)
                    return 1
                report = harness.run_tightness_attack(
                    cfg["n"], cfg["k1"], cfg["k2"], cfg["b1"], cfg["b2"],
                    cfg["setting"], branch=cfg.get("branch", "auto"), seed=seed)
            else:
                if "n" not in cfg:
                    print("error: knowledge attack needs --n", file=sys.stderr)
                    return 1
                report = harness.run_knowledge_attack(cfg["n"], seed=seed)
            _emit(report.to_json(), args.out)
            return 0 if report.passed else 3

        # bounds
        cfg = _merge(config, args,
                     ("n", "k1", "k2", "b1", "b2", "m", "eps", "c_poly", "c_o1"))
        table = harness.bounds_table(cfg)
        _emit(json.dumps(table, sort_keys=True, indent=2) + "\n", args.out)
        return 0

    except (ValueError, SearchExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
