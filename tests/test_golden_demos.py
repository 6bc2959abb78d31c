"""Demo outputs, pinned in `golden_demos.json`.

For each `demos/*.py` script, `ecc demo prop2` and `ecc demo prop3
--steps 16` the file holds the exit code and the sha256 of stdout, each
run in a fresh interpreter on this checkout's `src` with no `ECC_FUEL`.
A change to how the program decides or prints must leave all of them as
they are. The file was recorded before the cumulativity walk bound names
in place. Regenerate it, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden_demos.py > tests/golden_demos.json
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden_demos.json")


def _commands() -> list[list[str]]:
    scripts = [[f"demos/{path.name}"] for path in sorted((ROOT / "demos").glob("*.py"))]
    return scripts + [["-m", "ecckernel", "demo", "prop2"], ["-m", "ecckernel", "demo", "prop3", "--steps", "16"]]


def records() -> list[dict]:
    env = {k: v for k, v in os.environ.items() if k != "ECC_FUEL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    found = []
    for args in _commands():
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=60)
        found.append({
            "command": " ".join(args),
            "exit": done.returncode,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
        })
    return found


def test_demo_outputs_match_the_golden_file():
    assert records() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    json.dump(records(), sys.stdout, indent=1)
    print()
