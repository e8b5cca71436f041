"""Golden outputs: the command line's stdout, stderr and exit code on the
shipped files, compared byte for byte with the files in tests/golden/.

Each expected file holds the exit code, then the stdout, then the stderr of
one run, as ``golden_text`` lays them out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

MONOIDAL = "catt/monoidal.catt"
UNITAL = "bench/cli/unital.catt"
ASSOCIATIVE = "bench/cli/associative.catt"
LISTS = "catt/lists.catt"

# name of the expected file -> command-line arguments
RUNS = {
    "monoidal": [MONOIDAL],
    "monoidal_su": ["--su", MONOIDAL],
    "monoidal_sua": ["--sua", MONOIDAL],
    "monoidal_groupoidal": ["--ops", "groupoidal", MONOIDAL],
    "monoidal_keep_implicits_su": ["--keep-implicits", "--su", MONOIDAL],
    "monoidal_su_oracle": ["--su", "--oracle", MONOIDAL],
    "monoidal_sua_oracle": ["--sua", "--oracle", MONOIDAL],
    "unital_su": ["--su", UNITAL],
    "associative_sua": ["--sua", ASSOCIATIVE],
    "associative_sua_oracle": ["--sua", "--oracle", ASSOCIATIVE],
    "associative_keep_implicits_sua": ["--keep-implicits", "--sua", ASSOCIATIVE],
    "lists": [LISTS],
    "lists_keep_implicits": ["--keep-implicits", LISTS],
    "lists_su_oracle": ["--su", "--oracle", LISTS],
    "lists_sua_oracle": ["--sua", "--oracle", LISTS],
}


def golden_text(args: list[str]) -> str:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "cattkernel.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    return (
        f"exit: {proc.returncode}\n"
        f"--- stdout\n{proc.stdout}"
        f"--- stderr\n{proc.stderr}"
    )


@pytest.mark.parametrize("name", RUNS)
def test_golden_output(name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert golden_text(RUNS[name]) == want
