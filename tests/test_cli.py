"""The command registry: parameter checks, usage errors and the CLI docs."""

import collections.abc
import json
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
]


@pytest.mark.parametrize("argv, payload, needle", BAD_CONFIGS)
def test_bad_config_exits_1_naming_the_key(tmp_path, capsys, argv, payload, needle):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(16)))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
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
    (("verify", "security", "--b", "-1"), "b must be between 0 and 4"),
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
    # work limits: 2^20 source pairs of 1024-dim states, and a 2^15-dim superdense state
    (("attack", "tightness", "--n", "15", "--k1", "10", "--k2", "10", "--b1", "5",
      "--b2", "5", "--setting", "non-entangled"),
     "source pairs x 4^stored qubits must be between 0 and 1073741824, got 1099511627776"),
    (("attack", "tightness", "--n", "10", "--k1", "10", "--k2", "10", "--b1", "10",
      "--b2", "0", "--setting", "superstrong-entangled"),
     "source pairs x 4^stored qubits must be between 0 and 1073741824, got 1125899906842624"),
    (("verify", "xor", "--trials", "100000000", "--equality-trials", "1"),
     "trials must be between 1 and 100000, got 100000000"),
    (("verify", "xor", "--equality-trials", "100001"),
     "equality_trials must be between 1 and 100000, got 100001"),
    (("verify", "matrices", "--exhaustive-max-n", "1", "--random-ns", "64",
      "--random-trials", "100000000"),
     "random_trials must be between 1 and 100000, got 100000000"),
    (("verify", "security", "--instances", "100000000"),
     "instances must be between 1 and 10000, got 100000000"),
])
def test_usage_errors_exit_1_with_one_line(capsys, argv, needle):
    assert cli.main(list(argv)) == 1
    _assert_one_line_error(capsys, needle)


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
