"""The command registry: parameter checks, usage errors and the CLI docs."""

import collections.abc
import inspect
import json
import math
import re
import shlex
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qx2src import cli, harness
from qx2src.errors import ParameterError

README = Path(__file__).resolve().parents[1] / "README.md"


def _assert_one_line_error(capsys, needle):
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert needle in err


# --------------------------------------------------------------------------
# every bad input exits 1 with one line naming the key


BAD_CONFIGS = [
    (("attack", "smp"), {"ns": 4}, "ns must"),
    (("bounds",), {"n": "abc", "k1": 80, "k2": 80}, "n must"),
    (("bounds",), {"n": 100, "k1": 80, "k2": 80, "sweep": {"b1": 5}}, "sweep must"),
    (("bounds",), {"n": 100, "k1": 80, "k2": 80, "sweep": {"b1": [1.5]}}, "b1 must"),
    (("bounds",), {"n": 4.5, "k1": 3, "k2": 3}, "n must"),
    (("extract", "--x", "X", "--y", "X", "--n", "64", "--extractor", "composed"),
     {"seeded": {"t": [3]}}, "t must"),
    (("extract", "--x", "X", "--y", "X", "--n", "16"), {"m": [3]}, "m must"),
    (("extract", "--x", "X", "--y", "X", "--n", "16"), {"entangled": 1}, "entangled must"),
    (("verify", "xor"), [1, 2], "config must"),
    (("verify", "xor"), {"trials": True}, "trials must"),
    (("attack", "superdense"), {"max_n": "abc"}, "max_n must"),
    (("attack", "knowledge"), {"n": "abc"}, "n must"),
    (("attack", "tightness"), {"n": 4, "k1": 4, "k2": 4, "b1": 4, "b2": 4,
                               "setting": "sideways"}, "setting must"),
    (("extract", "--x", "X", "--y", "X", "--n", "16", "--extractor", "multibit"),
     {"seeded": {"t": 8}}, "seeded: used only by the composed"),
    (("extract", "--x", "X", "--y", "X", "--n", "16"), {"which": "Y"}, "which: used only"),
    (("extract", "--x", "X", "--y", "X", "--n", "16", "--extractor", "ip"),
     {"which": "X", "seeded": {"kind": "toeplitz"}}, "which, seeded: used only"),
    (("extract", "--x", "X", "--y", "X", "--n", "8", "--extractor", "composed"),
     {"seeded": {"kind": "trevisan", "t": 2}}, "trevisan needs even t = 2w >= 4"),
    (("bounds", "--n", "10", "--k1", "5", "--k2", "5"), {"sweep": {"b1": []}},
     "sweep of b1 needs at least one value"),
    (("bounds", "--n", "100", "--k1", "80", "--k2", "80"),
     {"sweep": {"eps": [0.25, math.nan]}}, "sweep must be finite"),
    (("extract", "--x", "X", "--y", "X", "--n", "16"), {"c_o1": -math.inf},
     "c_o1 must be finite, got -inf"),
    (("verify", "xor"), {"atol": math.inf}, "atol must be finite, got inf"),
    # an integer too large for a float, where a float is declared
    (("verify", "xor"), {"atol": 10 ** 400, "trials": 2, "equality_trials": 1},
     "atol must be finite, got 1000"),
    (("bounds", "--n", "100", "--k1", "80", "--k2", "80"), {"c_poly": 10 ** 400},
     "c_poly must be finite, got 1000"),
    (("bounds", "--n", "100", "--k1", "80", "--k2", "80"),
     {"sweep": {"c_poly": [1.0, 10 ** 400]}}, "sweep must be finite"),
    # files that are not one JSON object of distinct keys, written as bytes
    (("verify", "xor"), b'{"trials": 2, "trials": 3}', "config.json: duplicate key 'trials'"),
    (("extract", "--x", "X", "--y", "X", "--n", "64", "--extractor", "composed"),
     b'{"seeded": {"kind": "toeplitz", "t": 8, "t": 4}}', "config.json: duplicate key 't'"),
    (("verify", "xor"), b'\xff{}', "config.json: 'utf-8' codec can't decode byte 0xff"),
    (("verify", "xor"), b'{"trials": ', "config.json: Expecting value: line 1 column 12"),
    # a negative weak-design degree bound, once reported as a capacity error
    (("extract", "--x", "X", "--y", "X", "--n", "64", "--extractor", "composed"),
     {"seeded": {"kind": "trevisan", "t": 8, "c": -1}}, "c must be >= 0, got -1"),
    # the ip extractor outputs one bit
    (("extract", "--x", "X", "--y", "X", "--n", "16", "--extractor", "ip"), {"m": 4},
     "m must be 1 for the ip extractor, got 4"),
    # a sweep that repeats a point would print the same row twice
    (("bounds",), {"n": 100, "k1": 80, "k2": 80, "b1": 20, "b2": 20, "sweep": {"b1": [5, 5]}},
     "sweep of b1 has a repeated value 5"),
]


@pytest.mark.parametrize("argv, payload, needle", BAD_CONFIGS)
def test_bad_config_exits_1_naming_the_key(tmp_path, capsys, argv, payload, needle):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(16)))
    cfg = tmp_path / "config.json"
    cfg.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    argv = [str(x) if arg == "X" else arg for arg in argv]
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("argv, needle", [
    (("verify", "nosuch"), "nosuch"),
    (("verify", "xor", "--bogus", "1"), "--bogus"),
    (("verify", "matrices", "--trials", "5"), "--trials"),
    (("attack", "tightness", "--n", "abc"), "--n"),
    (("attack", "smp", "--n", "4"), "--n"),
    (("extract", "--format", "bin"), "--format"),
    (("verify",), "subcommand"),
    ((), "command"),
    (("bounds", "--n", "100", "--k1", "80", "--k2", "80", "--c-poly", "1e308"),
     "JSON"),
    (("bounds", "--n", "100", "--k1", "80", "--k2", "80", "--eps", "1e-320"),
     "JSON"),
    (("bounds", "--n", "100", "--k1", "80", "--k2", "80", "--b1", "1000000000",
      "--b2", "0"), "float range"),
    (("verify", "xor", "--max-m", "0"), "max_m"),
    (("verify", "reduction", "--max-d", "-1"), "max_d"),
    (("verify", "normbound", "--max-d", "0"), "max_d"),
    (("attack", "tightness", "--n", "4"), "--setting"),
    (("extract", "--n", "8"), "--x, --y"),
    (("verify", "security", "--b", "9", "--instances", "1"), "b must be between 0 and 4"),
    (("verify", "security", "--b", "-1"), "b must be an integer >= 0, got -1"),
    (("attack", "superdense", "--max-n", "1"), "max_n must be an integer >= 2"),
    # size limits: each of these used to hang or end in a traceback
    (("verify", "security", "--n", "63", "--k", "1"), "n must be between 1 and 62"),
    (("verify", "security", "--n", "70"), "n must be between 1 and 62"),
    (("verify", "security", "--n", "16", "--k", "9"), "k must be between 0 and 6"),
    (("attack", "smp", "--ns", "4", "10"), "ns must be between 1 and 8, got 10"),
    (("attack", "superdense", "--max-n", "40"), "max_n must be between 2 and 14"),
    (("attack", "knowledge", "--n", "20"), "n must be between 3 and 10"),
    (("attack", "tightness", "--n", "8", "--k1", "5", "--k2", "5", "--b1", "12",
      "--b2", "12", "--setting", "non-entangled"), "b1 + b2 must be between 0 and 10"),
    (("attack", "tightness", "--n", "30", "--k1", "30", "--k2", "1", "--b1", "1",
      "--b2", "1", "--setting", "entangled"), "k1 + k2 must be between 0 and 20"),
    (("verify", "matrices", "--exhaustive-max-n", "22"),
     "exhaustive_max_n must be between 1 and 16, got 22"),
    (("verify", "matrices", "--random-ns", "32", "3000"),
     "random_ns must be between 1 and 64, got 3000"),
    (("verify", "xor", "--max-m", "7"), "max_m must be between 1 and 6"),
    (("verify", "xor", "--max-d", "13"), "max_d must be between 0 and 6"),
    (("verify", "reduction", "--max-m", "7"), "max_m must be between 1 and 6"),
    (("verify", "reduction", "--max-d", "7"), "max_d must be between 0 and 6"),
    (("verify", "normbound", "--max-d", "13"), "max_d must be between 1 and 6"),
    # non-finite floats: each used to run the command before its report failed
    (("verify", "xor", "--atol", "nan"), "atol must be finite, got nan"),
    (("verify", "normbound", "--atol", "1e400"), "atol must be finite, got inf"),
    # trial and instance counts
    (("verify", "xor", "--trials", "100000000", "--equality-trials", "1"),
     "trials must be between 1 and 100000, got 100000000"),
    (("verify", "xor", "--equality-trials", "100001"),
     "equality_trials must be between 1 and 100000, got 100001"),
    (("verify", "matrices", "--exhaustive-max-n", "1", "--random-ns", "64",
      "--random-trials", "100000000"),
     "random_trials must be between 1 and 100000, got 100000000"),
    (("verify", "security", "--instances", "100000000"),
     "instances must be between 1 and 10000, got 100000000"),
    # total work over list-valued sizes: each element passes on its own
    (("verify", "matrices", "--random-ns", *map(str, range(15, 65))),
     "len(random_ns) x random_trials must be between 0 and 100000, got 500000"),
    (("attack", "smp", "--ns", "7", "8"),
     "sum of 4^n over ns must be between 0 and 65536, got 81920"),
    # each flag in range, but about 0.26 s per pair at b = 4: days of work
    (("verify", "security", "--b", "4", "--k", "6", "--instances", "10000"),
     "instances x 4^k pairs x 4^(2b+2) must be between 0 and 268435456, "
     "got 42949672960000"),
    # negative budgets: each used to fail deeper, in a shift, the protocol or the block
    (("attack", "tightness", "--n", "8", "--k1", "5", "--k2", "5", "--b1", "-1",
      "--b2", "5", "--setting", "non-entangled"), "need storage budgets b1, b2 >= 0"),
    (("attack", "tightness", "--n", "8", "--k1", "5", "--k2", "5", "--b1", "-3",
      "--b2", "5", "--setting", "entangled"), "need storage budgets b1, b2 >= 0"),
    (("attack", "tightness", "--n", "8", "--k1", "5", "--k2", "5", "--b1", "5",
      "--b2", "-3", "--setting", "superstrong-non-entangled"),
     "need storage budgets b1, b2 >= 0, got b1=5, b2=-3"),
    # non-finite floats are rejected before any input is read
    (("verify", "security", "--atol=-inf"), "atol must be finite, got -inf"),
    (("extract", "--x", "nosuch", "--y", "nosuch", "--n", "16", "--c-poly", "inf"),
     "c_poly must be finite, got inf"),
    # trevisan's t has no default and no flag
    (("extract", "--x", "nosuch", "--y", "nosuch", "--n", "64", "--extractor", "composed"),
     "needs the config key seeded.t"),
    # each flag in range, but a source of 2^6 values among 2^4
    (("verify", "security", "--k", "6"), "k must be between 0 and 4, got 6"),
    # a config file that cannot be read is named
    (("verify", "xor", "--config", "nosuch-config.json"), "nosuch-config.json"),
    # the ip extractor outputs one bit
    (("extract", "--x", "nosuch", "--y", "nosuch", "--n", "16", "--extractor", "ip",
      "--m", "4"), "m must be 1 for the ip extractor, got 4"),
    # a repeated size would run its work twice and repeat its records
    (("verify", "matrices", "--random-ns", "8", "8"), "random_ns has a repeated value 8"),
    (("attack", "smp", "--ns", "2", "4", "2"), "ns has a repeated value 2"),
    # bias bounds past the float range, once an OverflowError traceback
    (("bounds", "--n", "100000000000000000000", "--k1", "5", "--k2", "5"),
     "eps threshold out of float range"),
    (("bounds", "--n", "1", "--k1", "0", "--k2", "0", "--b1", "100000000000000000000",
      "--b2", "100000000000000000000"), "eps threshold out of float range"),
    # an n past the float range, once an OverflowError traceback from a division
    (("bounds", "--n", "9" * 400, "--k1", "5", "--k2", "5"), "bounds out of float range"),
    # an n that would shift every source value past 400 digits
    (("attack", "tightness", "--n", "9" * 400, "--k1", "5", "--k2", "5", "--b1", "1",
      "--b2", "1", "--setting", "entangled"), "n must be between 1 and 2000"),
])
def test_usage_errors_exit_1_with_one_line(capsys, argv, needle):
    assert cli.main(list(argv)) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("payload", [b"[" * 100_000, b'{"n": ' + b"[" * 100_000],
                         ids=["alone", "as-n"])
def test_deeply_nested_config_exits_1(tmp_path, capsys, payload):
    # the JSON decoder runs out of recursion depth before it sees the file is cut
    cfg = tmp_path / "deep.json"
    cfg.write_bytes(payload)
    assert cli.main(["bounds", "--config", str(cfg)]) == 1
    _assert_one_line_error(capsys, "deep.json: maximum recursion depth exceeded")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "tightness", "-h"])
    assert exc.value.code == 0
    assert "--setting" in capsys.readouterr().out


def test_report_without_records_fails(tmp_path):
    assert not harness.Report("demo", {}).passed
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"ns": []}))
    out = tmp_path / "rep.json"
    assert cli.main(["attack", "smp", "--config", str(cfg), "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["records"] == [] and doc["passed"] is False


def test_flags_override_config_and_echo_only_given_keys(tmp_path):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(16)))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"m": 2, "eps": 0.25}))
    out = tmp_path / "rep.json"
    assert cli.main(["extract", "--x", str(x), "--y", str(x), "--n", "16",
                     "--m", "3", "--config", str(cfg), "--out", str(out)]) in (0, 2)
    doc = json.loads(out.read_text())
    assert doc["config"] == {"x_path": str(x), "y_path": str(x), "n": 16,
                             "m": 3, "eps": 0.25}
    assert doc["records"][1] == {"name": "output bits", "measured": 3.0,
                                 "bound": 3.0, "passed": True}


# each report echoes the parameters it ran with, and nothing else

SMALL_CONFIGS = {
    "extract": {"x_path": "X", "y_path": "X", "n": 64, "m": 2},
    "verify matrices": {"exhaustive_max_n": 2, "random_ns": [8], "random_trials": 3},
    "verify xor": {"trials": 2, "equality_trials": 2, "max_m": 1, "max_d": 1},
    "verify reduction": {"trials": 2, "max_m": 1, "max_d": 1},
    "verify normbound": {"trials": 2, "max_d": 1},
    "verify security": {"instances": 1, "n": 2, "k": 1, "b": 0},
    "attack smp": {"ns": [2]},
    "attack superdense": {"max_n": 2},
    # k1 = k2 = 1, so that n = 1, its declared low, runs too
    "attack tightness": {"n": 4, "k1": 1, "k2": 1, "b1": 1, "b2": 1,
                         "setting": "non-entangled"},
    "attack knowledge": {"n": 3},
    "bounds": {"n": 100, "k1": 80, "k2": 80, "b1": 5},
}


def test_small_configs_cover_the_registry():
    assert sorted(SMALL_CONFIGS) == sorted(harness.COMMANDS)


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_report_config_keys_are_the_given_or_defaulted_parameters(tmp_path, command):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(8)))
    given = {k: str(x) if v == "X" else v for k, v in SMALL_CONFIGS[command].items()}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(given))
    out = tmp_path / "report.json"
    assert cli.main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 0
    defaulted = {name for name, p in inspect.signature(harness.COMMANDS[command])
                 .parameters.items() if p.default not in (p.empty, None)}
    assert set(json.loads(out.read_text())["config"]) == set(given) | defaulted


# --------------------------------------------------------------------------
# a CLI fuzz: for every command and parameter of the registry, a value just
# outside its declared range, a wrong type, a non-finite float and a missing
# required key each fail alone, before any output; small in-range configs run


def _declared_ranges(command):
    """name -> (low, high, is a sequence) for each parameter with a declared range."""
    hints = typing.get_type_hints(harness.COMMANDS[command], include_extras=True)
    ranges = {}
    for name in harness.parameters(command):
        hint = hints[name]
        is_seq = typing.get_origin(hint) is collections.abc.Sequence
        if is_seq:
            (hint,) = typing.get_args(hint)
        if typing.get_origin(hint) is typing.Annotated:
            ranges[name] = (*hint.__metadata__, is_seq)
    return ranges


def _non_finite(tp, x):
    """x, a non-finite float, where a value of type tp would hold a number."""
    if typing.get_origin(tp) is collections.abc.Sequence:
        return [_non_finite(typing.get_args(tp)[0], x)]
    if typing.get_origin(tp) is dict:
        return {"b1": _non_finite(typing.get_args(tp)[1], x)}
    return x


def _fuzz_cases():
    """(id, command, config, needles): needles None where the config must run."""
    cases = []
    for command, small in SMALL_CONFIGS.items():
        base = dict(small, **({"out_path": "OUT"} if command == "extract" else {}))
        cases.append((f"{command}-small", command, base, None))
        params = harness.parameters(command)
        for i, (name, (tp, required)) in enumerate(params.items()):
            named = (name, cli.flag(name))
            x = (math.nan, math.inf, -math.inf)[i % 3]
            cases.append((f"{command}-{name}-non-finite", command,
                          dict(base, **{name: _non_finite(tp, x)}), named))
            cases.append((f"{command}-{name}-wrong-type", command,
                          dict(base, **{name: 5 if tp is str else "abc"}), named))
            if required:
                cases.append((f"{command}-{name}-missing", command,
                              {k: v for k, v in base.items() if k != name}, named))
            if typing.get_origin(tp) is collections.abc.Sequence:
                default = inspect.signature(harness.COMMANDS[command]).parameters[name].default
                values = list(base.get(name, default))
                cases.append((f"{command}-{name}-repeated", command,
                              dict(base, **{name: values + values[:1]}),
                              (f"{name} has a repeated value {values[0]!r}",)))
        for name, (low, high, is_seq) in _declared_ranges(command).items():
            for label, value in (("low", low), ("below", low - 1), ("above", high + 1)):
                cases.append((f"{command}-{name}-{label}", command,
                              dict(base, **{name: [value] if is_seq else value}),
                              None if label == "low" else (name,)))
    return cases


_FUZZ = _fuzz_cases()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command, config, needles", [case[1:] for case in _FUZZ],
                         ids=[case[0] for case in _FUZZ])
def test_cli_fuzz(tmp_path, capsys, command, config, needles):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(8)))
    output = tmp_path / "out.bin"
    paths = {"X": str(x), "OUT": str(output)}
    config = {k: paths.get(v, v) if isinstance(v, str) else v for k, v in config.items()}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([*command.split(), "--config", str(cfg)])
    if needles is None:
        assert code in (0, 2, 3)
        _strict_json(capsys.readouterr().out)
        return
    assert code == 1
    assert not output.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert any(needle in err for needle in needles), err


def test_cli_fuzz_sees_every_declared_range():
    # the 20 single-parameter limits, so that the fuzz cannot pass by seeing none
    assert sum(len(_declared_ranges(c)) for c in harness.COMMANDS) == 20
    # and the two sequence parameters, random_ns and ns, each with a repeat
    assert sum(case[0].endswith("-repeated") for case in _FUZZ) == 2


# --------------------------------------------------------------------------
# the validator accepts or raises ParameterError, nothing else

_KEYS = sorted({name for command in harness.COMMANDS
                for name in harness.parameters(command)} | {"kind", "t", "c"})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["raw", "X", "trevisan", "entangled", "auto"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def _values(tp):
    """Values of type tp as the validator reads the annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        return st.sampled_from(args)
    if origin is collections.abc.Sequence:
        return st.lists(_values(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(_values(args[0]), _values(args[1]), max_size=2)
    if typing.is_typeddict(tp):
        return st.fixed_dictionaries({}, optional={
            k: _values(v) for k, v in typing.get_type_hints(tp).items()})
    return {int: st.integers(), float: st.floats() | st.integers(),
            str: st.text(max_size=4), bool: st.booleans()}[tp]


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(list(harness.COMMANDS)), data=st.data())
def test_check_accepts_or_raises_parameter_error(command, data):
    params = harness.parameters(command)
    typed = data.draw(st.fixed_dictionaries(
        {k: _values(tp) for k, (tp, required) in params.items() if required},
        optional={k: _values(tp) for k, (tp, required) in params.items()
                  if not required}))
    harness.check(command, typed)
    keys = st.sampled_from(list(params)) | st.text(max_size=6)
    config = {**typed, **data.draw(st.dictionaries(keys, _JSON, max_size=4))}
    try:
        harness.check(command, config)
    except ParameterError:
        return
    assert set(config) <= set(params)


def test_optional_parameters_read_as_their_type():
    # Optional[X] is X to the checker and the parser on every Python version
    params = harness.parameters("extract")
    assert params["m"] == (int, False)
    assert params["format"][0] == typing.Literal["raw", "hex"]
    assert harness.parameters("bounds")["sweep"][0] == typing.Dict[
        str, typing.Sequence[float]]
    _, config, _ = cli.parse(["extract", "--x", "a", "--y", "b", "--n", "8",
                              "--m", "3", "--output", "o", "--extractor", "ip",
                              "--format", "hex", "--which", "Y", "--eps", "0.5"])
    assert config == {"x_path": "a", "y_path": "b", "n": 8, "m": 3, "out_path": "o",
                      "extractor": "ip", "format": "hex", "which": "Y", "eps": 0.5}
    with pytest.raises(ParameterError, match="m must"):
        harness.check("extract", {"x_path": "a", "y_path": "b", "n": 8, "m": None})
    with pytest.raises(ParameterError, match="extract needs x_path, y_path"):
        harness.check("extract", {"n": 8})


def test_check_types():
    harness.check("verify xor", {"trials": 3, "atol": 1})      # int passes for float
    harness.check("verify matrices", {"random_ns": (8, 16)})
    for bad in ({"trials": True}, {"trials": 3.0}, {"trials": None},
                {"atol": "0.1"}, {"atol": False}):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            harness.check("verify xor", bad)


# --------------------------------------------------------------------------
# the docs list what the registry holds


def _normalized(text):
    return " ".join(text.split())


def _synopsis(command):
    """The command's usage line, built from its handler's parameters."""
    words = [f"qx2src {command}"]
    for name, (tp, required) in harness.parameters(command).items():
        kwargs = cli._flag_kwargs(tp)
        word = f"config:{name}" if kwargs is None else " ".join(filter(None, [
            cli.flag(name), kwargs.get("metavar"), "..." if "nargs" in kwargs else ""]))
        words.append(word if required else f"[{word}]")
    return " ".join(words)


def test_usage_lines_in_docs_match_registry():
    readme = _normalized(README.read_text())
    for command in harness.COMMANDS:
        line = _synopsis(command)
        assert line in _normalized(cli.__doc__), line
        assert line in readme, line


def test_readme_examples_fit_the_registry():
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "qx2src"
        command, config, _ = cli.parse(argv[1:])
        harness.check(command, config)
