"""List the functions in src/ that the program never runs.

Runs a fixed program set in process under ``sys.settrace`` and records
every function of the package that is entered and every line of it that
runs:

- the command line on ``catt/*.catt`` and ``bench/cli/*.catt`` under each
  flag set in FLAG_SETS;
- the interactive prompt on REPL_INPUT;
- one ``corpus`` and one ``nary`` round of the benchmark workloads
  (``bench/workloads.py``), with a fixed seed.

Every ``def`` in ``src/cattkernel`` that none of these enters is printed.
A function may stay unrun only if ALLOWED names it with a reason.  Exit
status: 0 if the unrun functions are exactly the allowed ones, 1 if a
function is unrun without a reason or an allowed function ran or no longer
exists.

Then the lines of function bodies (lambdas and comprehensions included)
that the program set never runs are listed, per module.  That list only
reports: it does not change the exit status.

    python3 tools/unrun.py
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "cattkernel"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from cattkernel import cli as X  # noqa: E402

import workloads as W  # noqa: E402

FLAG_SETS = (
    (),
    ("--su",),
    ("--sua",),
    ("--ops", "groupoidal"),
    ("--ops", "groupoidal", "--sua"),
    ("--keep-implicits",),
    ("--keep-implicits", "--su"),
    ("--keep-implicits", "--sua"),
    ("--oracle",),
    ("--su", "--oracle"),
    ("--sua", "--oracle"),
    ("--dr", "on"),
    ("--ecr", "on"),
    ("--dr", "on", "--ecr", "on", "--insertion", "id"),
    ("--insertion", "full"),
)
FILES = sorted((ROOT / "catt").glob("*.catt")) + sorted(
    (ROOT / "bench" / "cli").glob("*.catt")
)
REPL_INPUT = """\
def comp1 [f,g] = comp
normalise comp1(f, id(y)) in x{f}y
assert comp1(f, g) = comp[f, g] in [f, g]
normalise comp1(f) in [f]
normalise comp[f, in [f]
normalise S(comp1)<x{a{m}b{n}d}y> in x{a{m}b{n}d}y
normalise coh [x{f{a}g{b}h}y : comp[[a, b]] -> comp[[a, b]]](id(f), b) in x{f{b}h}y
"""
SEED = 1

# "module:qualified name" -> why the program set may leave it unrun
ALLOWED = {
    "flat:Star.__repr__": "for test-failure messages",
    "flat:Arrow.__repr__": "for test-failure messages",
    "flat:Var.__repr__": "for test-failure messages",
    "flat:Coh.__repr__": "for test-failure messages",
    "flat:FlatCtx.__repr__": "for test-failure messages",
    "flat:FlatSub.__repr__": "for test-failure messages",
    "trees:Tree.__repr__": "for test-failure messages",
    "trees:Record.__repr__": "for test-failure messages",
    "trees:Record.__init_subclass__": "runs at import, before the trace starts",
    "trees:Record.__setattr__": "refuses assignment; the record test runs it",
    "trees:Record.__delattr__": "refuses deletion; the record test runs it",
    "trees:Record.__hash__": "records stay hashable; the program hashes only trees and "
    "configurations, which are interned and hash by identity, and the record test "
    "hashes every class",
    "surface:RawTree._block": "the program reads no branch of a raw labelling (the "
    "checker and the printer walk its blocks by offset); the tests and the rebuilding "
    "of a record from its fields do",
    "nbe:flatten_nf": "bench/spans.py wraps it by name",
    "surface:parse_type": "bench/spans.py wraps it by name",
    "surface:render_error": "waits for errors with a location on the command line",
}


def functions() -> dict:
    """(file name, first line of the code object) -> "module:qualname" for
    every def in the package.  A decorated function's code starts at its
    first decorator."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = f"{path.stem}:{name}"
                    walk(child, f"{name}.<locals>.")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


def body_lines() -> dict:
    """file name -> the lines of the module that hold code of a function
    body, read from the compiled code objects: module and class bodies do
    not count, and neither does the line of a def, whose code only starts
    the call (a lambda or a comprehension has no def line)."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        lines: set[int] = set()
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_NEWLOCALS:
                lines.update(
                    line for _, _, line in code.co_lines()
                    if line is not None
                    and (line != code.co_firstlineno or code.co_name.startswith("<"))
                )
        out[str(path)] = lines
    return out


def line_runs(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: 3-5, 9."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_program_set() -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for flags in FLAG_SETS:
            for f in FILES:
                X.main([*flags, str(f.relative_to(ROOT))])
        stdin = sys.stdin
        sys.stdin = io.StringIO(REPL_INPUT)
        try:
            X.main(["--su"])
        finally:
            sys.stdin = stdin
        rng = random.Random(SEED)
        for inp in W.corpus_round(rng):
            W.corpus_verdict(inp)
        for case in W.nary_round(rng):
            W.nary_verdict(case)


def main() -> int:
    defs = functions()
    entered = set()
    ran = set()
    pkg = str(PKG)

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    # traces the lines of the package's frames alone
    def call(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(pkg):
                entered.add((code.co_filename, code.co_firstlineno))
                return line
        return None

    sys.settrace(call)
    try:
        run_program_set()
    finally:
        sys.settrace(None)

    unrun = {name for key, name in defs.items() if key not in entered}
    status = 0
    print(f"{len(unrun)} of {len(defs)} functions in src/ never run:")
    for name in sorted(unrun):
        reason = ALLOWED.get(name)
        print(f"  {name}: {reason or 'NO REASON GIVEN'}")
        if reason is None:
            status = 1
    for name in sorted(set(ALLOWED) - unrun):
        print(f"allowed but not unrun (runs, or is gone): {name}")
        status = 1
    print("lines of function bodies never run, per module:")
    for path, lines in body_lines().items():
        unran = sorted(n for n in lines if (path, n) not in ran)
        print(f"  {Path(path).name} ({len(unran)}): {line_runs(unran) or '-'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
