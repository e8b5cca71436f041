"""Print what the command line answers on every file of the program set.

Runs ``python -m cattkernel.cli`` on each file in ``tools/unrun.py``'s
FILES under each of its FLAG_SETS, one subprocess per run, from the root
of the checkout with its ``src`` first on the path, and writes the exit
code, stdout and stderr of every run to stdout, in a fixed order.  Two
checkouts, or two hash seeds, that answer alike write the same bytes:

    python3 tools/cli_outputs.py > before.txt
    ... change the code ...
    python3 tools/cli_outputs.py > after.txt
    cmp before.txt after.txt

``tests/golden/cli_outputs.txt`` holds its output, and CI compares a run
with it by ``cmp``: a change that alters any answer regenerates that file
on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from unrun import FILES, FLAG_SETS, ROOT  # noqa: E402


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = sys.stdout.buffer
    for flags in FLAG_SETS:
        for f in FILES:
            args = [*flags, str(f.relative_to(ROOT))]
            run = subprocess.run(
                [sys.executable, "-m", "cattkernel.cli", *args],
                cwd=ROOT, env=env, capture_output=True,
            )
            out.write(f"== {' '.join(args)}\nexit {run.returncode}\n".encode())
            out.write(b"-- stdout\n" + run.stdout + b"-- stderr\n" + run.stderr)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
