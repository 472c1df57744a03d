"""Each command, run in a fresh process, loads only the layers it runs.

The handlers import numpy, the extractors, the verifier and the attacks
when called.  These tests check sys.modules after cli.main in a new
interpreter, and that perfbench's tracer, installed before the command
runs, still counts calls into the deferred layers and unpatches them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# runs one command line, then prints its exit code and the loaded modules
PROBE = ("import json, sys; from qx2src import cli; code = cli.main(sys.argv[1:]); "
         "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))")


def _fresh(script, *args):
    """stdout of a new interpreter running script with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, absent", [
    (["bounds", "--n", "100", "--k1", "80", "--k2", "80"], {"numpy"}),
    # n = 4096 takes its modulus from the memo table: int arithmetic only
    (["extract", "--x", "X", "--y", "Y", "--n", "4096", "--m", "512"],
     {"numpy", "qx2src.qsim", "qx2src.adversaries"}),
    # n = 768 runs the live search, which needs numpy but not the verifier
    (["extract", "--x", "X", "--y", "Y", "--n", "768", "--m", "64"],
     {"qx2src.qsim", "qx2src.adversaries"}),
    # the benchmark's largest attack builds its sources in increasing order:
    # np.unique, which imports numpy.ma, would add about 1 MB to its peak
    (["attack", "tightness", "--n", "12", "--k1", "8", "--k2", "8", "--b1", "2", "--b2", "2",
      "--setting", "non-entangled"], {"numpy.ma"}),
], ids=["bounds", "extract memo", "extract search", "attack tightness"])
def test_command_loads_only_its_layers(tmp_path, argv, absent):
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(bytes(range(256)) * 2)
    y.write_bytes(bytes(range(255, -1, -1)) * 2)
    argv = [{"X": str(x), "Y": str(y)}.get(arg, arg) for arg in argv]
    out = tmp_path / "report.json"
    probe = _fresh(PROBE, *argv, "--out", str(out))
    assert probe["code"] == 0
    assert absent.isdisjoint(probe["modules"])
    if argv[0] == "extract":
        n = argv[argv.index("--n") + 1]
        source = "memo" if n == "4096" else "search"
        assert json.loads(out.read_text())["modulus"]["source"] == source


SMALL_RUNS = [
    ["verify", "matrices", "--exhaustive-max-n", "3", "--random-ns", "8",
     "--random-trials", "5"],
    ["verify", "xor", "--trials", "4", "--equality-trials", "2"],
    ["verify", "reduction", "--trials", "4"],
    ["verify", "normbound", "--trials", "3"],
    ["verify", "security", "--instances", "1", "--k", "1"],
    ["attack", "smp", "--ns", "2"],
    ["attack", "superdense", "--max-n", "4"],
    ["attack", "tightness", "--n", "4", "--k1", "4", "--k2", "4", "--b1", "4",
     "--b2", "4", "--setting", "entangled"],
    ["attack", "knowledge", "--n", "3"],
]


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: " ".join(argv[:2]))
def test_verify_and_attack_commands_pass_in_a_fresh_process(tmp_path, argv):
    out = tmp_path / "report.json"
    assert _fresh(PROBE, *argv, "--out", str(out))["code"] == 0
    assert json.loads(out.read_text())["passed"] is True


# installs the tracer before the package's handlers run, runs two commands
# whose layers load inside them, and lists any wrapper left after uninstall
TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import SPAN_NAMES, Tracer
tracer = Tracer()
tracer.install()
tracer.active = True
from qx2src import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
tracer.active = False
calls = dict(zip(SPAN_NAMES, tracer.snapshot()["calls"]))
tracer.uninstall()
left = []
for name, module in sorted(sys.modules.items()):
    if name == "qx2src" or name.startswith("qx2src."):
        for key, value in vars(module).items():
            values = value.items() if isinstance(value, dict) else [(key, value)]
            left += [f"{name}.{key}" for _, v in values if hasattr(v, "__perfbench_original__")]
print(json.dumps({"codes": codes, "calls": calls, "left": left}))
"""


def test_tracer_sees_the_deferred_layers(tmp_path):
    runs = [["attack", "smp", "--ns", "2", "--out", str(tmp_path / "smp.json")],
            ["verify", "matrices", "--exhaustive-max-n", "3", "--random-ns", "8",
             "--random-trials", "5", "--out", str(tmp_path / "matrices.json")]]
    result = _fresh(TRACED, str(PERFBENCH), json.dumps(runs))
    assert result["codes"] == [0, 0]
    assert result["calls"]["adversaries.smp_ip_protocol"] > 0
    assert result["calls"]["harness.run_matrices_suite"] > 0
    assert result["left"] == []
