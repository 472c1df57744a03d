"""Regenerate expected.json: frozen moduli and output digests for the shipped seeds.

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are trusted.  The benchmark then
compares every later commit's outputs against these digests for the
seeds below, and falls back to spot checks for any other seed.  Freezing
also runs those spot checks, so they are validated against the same
outputs.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE.parent / ".perfbench_work"
SEEDS = (1, 2, 3)
PASSES = {"extract": 8, "verify": 1, "cli": 1}
# moduli the spot checks need: Trevisan's GF(2^16) and every multibit n
MODULUS_DEGREES = (16, 768, 1536, 2000, 4096)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from qx2src import gf2
    expected = {"moduli": {str(n): format(gf2.find_irreducible(n).value, "x")
                           for n in MODULUS_DEGREES}}
    import workloads
    try:
        for name, passes in PASSES.items():
            expected[name] = {}
            for seed in SEEDS:
                recording = {}
                workload = workloads.WORKLOADS[name](
                    seed, WORK / "freeze", expected, recording=recording)
                workload.setup()
                tally = workloads.Tally()
                for i in range(passes):
                    workloads.run_pass(workload.jobs(i), tally)
                if tally.failed:
                    print(f"{name} seed {seed}: {tally.messages}", file=sys.stderr)
                    return 1
                expected[name][str(seed)] = recording
                print(f"{name} seed {seed}: {len(recording)} digests", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
