"""Command-line interface.

Exit codes: 0 all checks pass, 1 usage or input error (one ``error:``
line on stderr), 2 feasibility warning (extraction output still
produced), 3 verification failure.

One subcommand per entry of ``harness.COMMANDS``, whose flags are its
handler's parameters (``_`` spelled ``-``; x_path, y_path and out_path
spelled --x, --y and --output; ``config:`` ones set in the config only).
Each also takes --config FILE, a JSON object of the same parameters that
flags override, and --out FILE for the report.  tests/test_cli.py checks
these usage lines against the registry:

    qx2src extract --x STR --y STR --n INT [--m INT]
        [--extractor {ip,multibit,composed}] [--format {raw,hex}] [--which {X,Y}]
        [config:seeded] [--output STR] [--entangled] [--k1 INT] [--k2 INT] [--b1 INT]
        [--b2 INT] [--eps FLOAT] [--c-poly FLOAT] [--c-o1 FLOAT]
    qx2src verify matrices [--seed INT] [--exhaustive-max-n INT] [--random-ns INT ...]
        [--random-trials INT]
    qx2src verify xor [--seed INT] [--trials INT] [--equality-trials INT] [--max-m INT]
        [--max-d INT] [--atol FLOAT]
    qx2src verify reduction [--seed INT] [--trials INT] [--max-m INT] [--max-d INT]
        [--atol FLOAT]
    qx2src verify normbound [--seed INT] [--trials INT] [--max-d INT] [--atol FLOAT]
    qx2src verify security [--seed INT] [--instances INT] [--n INT] [--k INT] [--b INT]
        [--atol FLOAT]
    qx2src attack smp [--ns INT ...] [--seed INT]
    qx2src attack superdense [--max-n INT] [--seed INT]
    qx2src attack tightness --n INT --k1 INT --k2 INT --b1 INT --b2 INT --setting
        {entangled,non-entangled,superstrong-entangled,superstrong-non-entangled}
        [--branch {auto,exact,biased}] [--seed INT]
    qx2src attack knowledge --n INT [--seed INT]
    qx2src bounds --n INT --k1 INT --k2 INT [--b1 INT] [--b2 INT] [--m INT]
        [--eps FLOAT] [--c-poly FLOAT] [--c-o1 FLOAT] [config:sweep]
"""

from __future__ import annotations

import argparse
import collections.abc
import json
import sys
import typing
from pathlib import Path

from . import harness
from .errors import ParameterError, SearchExhaustedError

# parameters whose flag is not the parameter name
ALIASES = {"x_path": "--x", "y_path": "--y", "out_path": "--output"}


def flag(name: str) -> str:
    return ALIASES.get(name, "--" + name.replace("_", "-"))


def _flag_kwargs(tp):
    """argparse keywords for a parameter of type tp; None for config-only ones."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is bool:
        return {"action": "store_true"}
    if origin is typing.Literal:
        return {"choices": args, "metavar": "{" + ",".join(args) + "}"}
    if origin is collections.abc.Sequence:
        return {"type": args[0], "nargs": "+", "metavar": args[0].__name__.upper()}
    return {"type": tp, "metavar": tp.__name__.upper()} if tp in (int, float, str) else None


class _Parser(argparse.ArgumentParser):
    """Exact flags only (--n must not pass for --ns); usage errors raise.

    A command's parser adds its flags when it first parses, so that a
    command line builds, and imports the annotations of, its own command
    only.  Help and usage errors come from that parse, flags included.
    """

    def __init__(self, command=None, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self.command = command

    def error(self, message):
        raise ParameterError(message)

    def parse_known_args(self, args=None, namespace=None):
        if self.command is not None:
            command, self.command = self.command, None
            self.set_defaults(handler=command)
            self.add_argument("--config", metavar="FILE",
                              help="JSON object of parameters; flags override it")
            self.add_argument("--out", metavar="FILE",
                              help="write the report here instead of stdout")
            for param, (tp, _) in harness.parameters(command).items():
                kwargs = _flag_kwargs(tp)
                if kwargs is not None:
                    self.add_argument(flag(param), dest=param,
                                      default=argparse.SUPPRESS, **kwargs)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qx2src")
    verbs = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command in harness.COMMANDS:
        verb, _, name = command.partition(" ")
        if not name:
            verbs.add_parser(verb, command=command)
            continue
        if verb not in groups:
            groups[verb] = verbs.add_parser(verb).add_subparsers(
                dest="subcommand", required=True)
        groups[verb].add_parser(name, command=command)
    return parser


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, once no key repeats."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParameterError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _read_config(path: str):
    """The JSON value in the UTF-8 file at path; a bad file's error names it."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"),
                          object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:    # RecursionError: nested too deep
        raise ParameterError(f"config {path}: {exc}") from None


def parse(argv=None) -> tuple:
    """(command, config, report path) of a command line; flags override --config."""
    args = vars(build_parser().parse_args(argv))
    command = args["handler"]
    config = _read_config(args["config"]) if args.get("config") else {}
    if not isinstance(config, dict):
        raise ParameterError(f"config must hold a JSON object, got {config!r}")
    params = harness.parameters(command)
    config.update((k, v) for k, v in args.items() if k in params)
    missing = [flag(k) for k, (_, required) in params.items()
               if required and k not in config]
    if missing:
        raise ParameterError(f"{command} needs {', '.join(missing)}")
    return command, config, args.get("out")


def main(argv=None) -> int:
    try:
        command, config, out_path = parse(argv)
        result = harness.dispatch(command, config)
        if command == "bounds":
            code, text = 0, harness.json_text(result)
        else:
            code = 0 if result.passed else 2 if command == "extract" else 3
            text = result.to_json()
        if out_path:
            Path(out_path).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, SearchExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
