"""The three workloads: their inputs, their verdicts and the checks.

A verdict takes one input all the way through to an answer and checks
that answer.  Inputs come from the seed alone; the program sees only the
generated text.  Checks compare the two routes to a normal form (NbE and
the small-step oracle) or facts stated by the theory; none compares with
a recorded output.

Every module call goes through its module attribute (``R.parse``,
``N.quote_tm``, ...) so that the traced run can wrap the entry points.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path

from cattkernel import cli as X
from cattkernel import core as C
from cattkernel import nbe as N
from cattkernel import oracle as O
from cattkernel import surface as R
from cattkernel.typecheck import Checker, Signature

ROOT = Path(__file__).resolve().parent.parent

PRESETS = {"weak": N.WEAK, "su": N.SU, "sua": N.SUA}
RULES = {"su": O.RuleSet.SU_PRIME, "sua": O.RuleSet.SUA_PRIME}


class CheckFailed(Exception):
    """An answer failed one of its checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# corpus: random well-typed composites over pasting trees of height <= 4


@dataclass(frozen=True)
class Shape:
    """A pasting tree with a name for every cell: ``names`` are the cells
    between the branches, one more than there are branches."""

    names: tuple
    branches: tuple

    @property
    def height(self) -> int:
        return max((b.height + 1 for b in self.branches), default=0)

    def text(self) -> str:
        out = [self.names[0]]
        for b, nm in zip(self.branches, self.names[1:]):
            out.append("{" + b.text() + "}" + nm)
        return "".join(out)

    def maximal(self) -> list:
        if not self.branches:
            return [self.names[0]]
        return [m for b in self.branches for m in b.maximal()]


def _skeletons(edges: int):
    """Every tree with exactly ``edges`` edges, as nested lists."""
    if edges == 0:
        yield []
        return
    for first in range(1, edges + 1):
        for sub in _skeletons(first - 1):
            for rest in _skeletons(edges - first):
                yield [sub] + rest


def _name(skel: list, counter: list) -> Shape:
    names = []
    branches = []
    for b in skel:
        names.append(f"c{counter[0]}")
        counter[0] += 1
        branches.append(_name(b, counter))
    names.append(f"c{counter[0]}")
    counter[0] += 1
    return Shape(tuple(names), tuple(branches))


# Every pasting tree with 1 to 4 edges (22 trees, heights 1 to 4).  Each
# round takes every tree once, so every run has the same mix of shapes and
# the seed varies only the terms; a random mix of shapes moved the mean
# verdict time by tens of percent from seed to seed.
CORPUS_SHAPES = tuple(_name(s, [0]) for e in range(1, 5) for s in _skeletons(e))


def _items(rng, names, branches, depth) -> list:
    """Labels for consecutive branches of one node, as the entries between
    braces: a branch labelled cell by cell, a bracketed group of branches,
    or an inserted identity on a boundary cell."""
    out = []
    i = 0
    n = len(branches)
    while i < n:
        if depth > 0 and rng.random() < 0.15:
            out.append(f"id({names[i]})")
        j = i
        if depth > 0 and n > 1 and rng.random() < 0.35:
            j = rng.randrange(i, n)
        if j > i:
            group = _composite(rng, names[i : j + 2], branches[i : j + 1], depth - 1)
            lift = max(b.height for b in branches[i : j + 1])
            out.append("{" * lift + group + "}" * lift)
        else:
            out.append(_label(rng, branches[i], depth))
        i = j + 1
    if depth > 0 and rng.random() < 0.1:
        out.append(f"id({names[n]})")
    return out


def _label(rng, b: Shape, depth: int) -> str:
    if not b.branches:
        if depth > 0 and rng.random() < 0.15:
            return "comp<{" + b.names[0] + "}>"
        return b.names[0]
    return "".join("{" + x + "}" for x in _items(rng, b.names, b.branches, depth - 1))


def _composite(rng, names, branches, depth) -> str:
    return "comp<" + "".join("{" + x + "}" for x in _items(rng, names, branches, depth)) + ">"


def random_term(rng: random.Random, shape: Shape) -> str:
    """A composite of the whole shape: random bracketing, units and unary
    composites, sometimes under a coherence.  The coherence is an
    endo-coherence, or for a 1-dimensional shape possibly a coherence
    between two bracketings, whose types then agree."""
    expr = _composite(rng, shape.names, shape.branches, 3)
    if shape.height <= 3 and rng.random() < 0.25:
        tgt = expr
        if shape.height == 1 and rng.random() < 0.5:
            tgt = _composite(rng, shape.names, shape.branches, 3)
        args = ", ".join(shape.maximal())
        return f"coh [ {shape.text()} : {expr} -> {tgt} ] ({args})"
    return expr


def corpus_round(rng: random.Random) -> list:
    """(context text, term text) for every shape once, in random order."""
    shapes = list(CORPUS_SHAPES)
    rng.shuffle(shapes)
    return [(sh.text(), random_term(rng, sh)) for sh in shapes]


@dataclass
class Route:
    """One preset's answer for a corpus input."""

    preset: str
    flat_term: object  # the input, flattened
    nf: object  # NbE normal form
    renf: object  # the quoted normal form, normalised again
    flat_nf: object  # the NbE normal form, flattened
    oracle_nf: object  # the oracle's normal form (None under WEAK)
    shown: str  # the printed normal form


def corpus_verdict(inp) -> list:
    ctx_text, term_text = inp
    (cmd,) = R.parse(f"normalise {term_text} in {ctx_text}")
    routes = []
    for preset, cfg in PRESETS.items():
        ck = Checker(Signature(config=cfg))
        ctx = ck.elab_ctx(cmd.ctx)
        term, _ = ck.check(ctx, cmd.term)
        nf = ck.nf(ctx, term)
        quoted = N.quote_tm(nf)
        shown = R.pretty(C.to_raw(quoted, C.Names(ctx.names)))
        amb = ctx.tree
        flat_term = C.flatten_tm(term, amb)
        flat_nf = C.flatten_tm(quoted, amb)
        oracle_nf = None
        if preset in RULES:
            oracle_nf, _ = O.normalise(flat_term, RULES[preset])
        routes.append(
            Route(preset, flat_term, nf, ck.nf(ctx, quoted), flat_nf, oracle_nf, shown)
        )
    check_corpus(routes)
    return routes


def check_corpus(routes: list) -> None:
    for r in routes:
        require(bool(r.shown), f"{r.preset}: empty printed normal form")
        require(r.renf == r.nf, f"{r.preset}: normalising the normal form changed it")
        if r.preset == "weak":
            require(r.flat_nf == r.flat_term, "weak: flatten(nf(t)) != flatten(t)")
            continue
        require(r.flat_nf == r.oracle_nf, f"{r.preset}: NbE and oracle disagree")
        require(
            not O.step(r.flat_nf, RULES[r.preset]),
            f"{r.preset}: the oracle reduces the NbE normal form",
        )


# ---------------------------------------------------------------------------
# nary: left- and right-nested n-ary composites


NARY_SIZES = (3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
ORACLE_MAX_N = 6  # the oracle is cheap up to here


def nary_ctx(n: int) -> str:
    return "[" + ", ".join(f"f{i}" for i in range(n)) + "]"


def nary_term(n: int, side: str) -> str:
    names = [f"f{i}" for i in range(n)]
    if side == "flat":
        return "comp[" + ", ".join(names) + "]"
    if side == "left":
        t = names[0]
        for nm in names[1:]:
            t = f"comp[{t}, {nm}]"
        return t
    t = names[-1]
    for nm in reversed(names[:-1]):
        t = f"comp[{nm}, {t}]"
    return t


def nary_round(rng: random.Random) -> list:
    """Every (n, side, preset), smaller n repeated, in random order."""
    cases = []
    for n in NARY_SIZES:
        repeats = 3 if n <= 8 else 2 if n <= 24 else 1
        for side in ("left", "right"):
            for preset in ("su", "sua"):
                cases.extend([(n, side, preset)] * repeats)
    rng.shuffle(cases)
    return cases


@dataclass
class NaryAnswer:
    n: int
    side: str
    preset: str
    nf: object
    size: int
    shown: str
    flat_nf: object = None  # set where the oracle is run
    oracle_nf: object = None
    flat_unbiased_nf: object = None  # SUA: the unbiased composite's nf


def nary_verdict(case) -> NaryAnswer:
    n, side, preset = case
    ck = Checker(Signature(config=PRESETS[preset]))
    ctx = ck.elab_ctx(R.parse_ctx(nary_ctx(n)))
    term, _ = ck.check(ctx, R.parse_term(nary_term(n, side)))
    nf = ck.nf(ctx, term)
    quoted = N.quote_tm(nf)
    ans = NaryAnswer(
        n, side, preset, nf, N.size_tm(nf),
        R.pretty(C.to_raw(quoted, C.Names(ctx.names))),
    )
    if preset == "sua":
        flat, _ = ck.check(ctx, R.parse_term(nary_term(n, "flat")))
        ans.flat_unbiased_nf = ck.nf(ctx, flat)
    if n <= ORACLE_MAX_N:
        ans.flat_nf = C.flatten_tm(quoted, ctx.tree)
        ans.oracle_nf, _ = O.normalise(C.flatten_tm(term, ctx.tree), RULES[preset])
    check_nary(ans)
    return ans


def check_nary(a: NaryAnswer) -> None:
    require(bool(a.shown), "empty printed normal form")
    if a.preset == "sua":
        require(a.size == 1, f"sua n={a.n}: size {a.size}, not 1")
        require(a.nf == a.flat_unbiased_nf, f"sua n={a.n}: {a.side} != unbiased")
    else:
        require(a.size == a.n - 1, f"su n={a.n}: size {a.size}, not n-1")
        # left-nested leaves the composite in the first argument of the
        # outer binary composite, right-nested in the last, so they differ
        outer = a.nf.label.branches
        require(len(outer) == 2, f"su n={a.n}: outer composite not binary")
        first, last = outer[0].elements[0], outer[1].elements[0]
        want = (N.NApp, N.NVar) if a.side == "left" else (N.NVar, N.NApp)
        require(
            isinstance(first, want[0]) and isinstance(last, want[1]),
            f"su n={a.n}: {a.side} bracketing lost",
        )
    if a.oracle_nf is not None:
        require(a.flat_nf == a.oracle_nf, f"{a.preset} n={a.n}: NbE and oracle disagree")


# ---------------------------------------------------------------------------
# cli: one subprocess run of the command-line interpreter per verdict


@dataclass(frozen=True)
class CliCase:
    path: str  # relative to the root of the checkout
    flags: tuple
    # (command kind, check) for each normalise/size command, in file order
    expect: tuple = ()
    # indices of normalise results that the oracle cross-checks
    oracle: tuple = ()

    @property
    def preset(self) -> str:
        return self.flags[-1].lstrip("-") if self.flags else "weak"


IDENTITY = "identity"

CLI_CASES = (
    CliCase("catt/monoidal.catt", ()),
    CliCase("catt/monoidal.catt", ("--su",)),
    CliCase("catt/monoidal.catt", ("--sua",)),
    CliCase(
        "bench/cli/unital.catt", ("--su",),
        (("normalise", IDENTITY), ("size", "19")),
    ),
    CliCase(
        "bench/cli/associative.catt", ("--sua",),
        (
            ("normalise", IDENTITY),
            ("normalise", IDENTITY),
            ("normalise", "comp<{f}{g}{h}>"),
            ("normalise", "comp<{f}{g}{h}>"),
        ),
        oracle=(2, 3),
    ),
)


def cli_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    return env


_COMMAND = re.compile(r"^\s*(def|assert|normalise|size|import)\b(.*)$", re.M)


def file_commands(path: Path) -> list:
    """(keyword, rest of the line) of every command in a file and, in place
    of each import, the commands of the imported file."""
    out = []
    for kw, rest in _COMMAND.findall(path.read_text()):
        if kw == "import":
            out.extend(file_commands((path.parent / rest.strip()).resolve()))
        else:
            out.append((kw, rest.strip()))
    return out


def cli_expectations(case: CliCase) -> dict:
    cmds = file_commands(ROOT / case.path)
    return {
        "defined": sum(1 for kw, _ in cmds if kw == "def"),
        "asserts": sum(1 for kw, _ in cmds if kw == "assert"),
        "results": [(kw, rest) for kw, rest in cmds if kw in ("normalise", "size")],
    }


def oracle_agrees(printed: str, command: str, preset: str) -> bool:
    """Whether the printed normal form of ``normalise TERM in CTX``, read
    back without reductions, is the oracle's normal form of TERM."""
    term_text, ctx_text = command.rsplit(" in ", 1)
    weak = Checker(Signature(config=N.WEAK))
    ctx = weak.elab_ctx(R.parse_ctx(ctx_text))
    shown, _ = weak.check(ctx, R.parse_term(printed))
    term, _ = Checker(Signature(config=PRESETS[preset])).check(ctx, R.parse_term(term_text))
    onf, _ = O.normalise(C.flatten_tm(term, ctx.tree), RULES[preset])
    return C.flatten_tm(shown, ctx.tree) == onf


def cli_verdict(case: CliCase, python: str, env: dict, want: dict) -> None:
    proc = subprocess.run(
        [python, "-m", "cattkernel.cli", *case.flags, case.path],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    check_cli(case, want, proc.returncode, proc.stdout, proc.stderr)


def check_cli(case: CliCase, want: dict, code: int, out: str, err: str) -> None:
    name = f"{case.path} {' '.join(case.flags)}"
    require(code == 0, f"{name}: exit code {code}")
    require(err == "", f"{name}: stderr not empty")
    lines = out.splitlines()
    require(
        sum(1 for ln in lines if ln.startswith("defined ")) == want["defined"],
        f"{name}: defined lines != def commands",
    )
    require(
        lines.count("assertion holds") == want["asserts"],
        f"{name}: assertion lines != assert commands",
    )
    results = [
        ln.split(": ", 1)[1]
        for ln in lines
        if ln.startswith("normal form: ") or ln.startswith("size: ")
    ]
    require(len(results) == len(want["results"]), f"{name}: missing results")
    for (kind, expected), got in zip(case.expect, results):
        if expected == IDENTITY:
            require(got.startswith("id<"), f"{name}: not an identity: {got}")
        elif expected is not None:
            require(got == expected, f"{name}: {kind} gave {got}, not {expected}")
    for i in case.oracle:
        require(
            oracle_agrees(results[i], want["results"][i][1], case.preset),
            f"{name}: result {i} is not the oracle's normal form",
        )


def cli_run_in_process(case: CliCase, want: dict) -> str:
    """The same run through ``cli.run_text`` in this process."""
    opts = X.parse_args([*case.flags])
    state = X.SessionState(sig=Signature(config=opts.config, ops=opts.ops))
    path = ROOT / case.path
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        X.run_text(state, path.read_text(), source=str(path))
    check_cli(case, want, 0, buf.getvalue(), "")
    return buf.getvalue()
