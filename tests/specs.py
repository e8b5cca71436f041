"""Specifications the tests compare the program against.

These are definitions from the paper that the program itself never needs:
variable sets and supports over flat contexts, the pasting-context
judgement and its boundary sets, Dyck words with their realisation, peaks
and pruning, the oracle's complexity measure, random normalisation and
the reduction sequence of its full search, paths of a tree, labellings as
nested trees of entries, the realisation of trees by suspension and wedge
and of labellings by unrestriction, labellings of trees built by hand,
and the tokens and round trips of the surface syntax.  The program
decides the same things another way (on trees, where a peak is a leaf, on
normal forms, by taking the first reduct, by reading a table of a tree's
cells or paths, by one table of the tokens of one character); each test
that uses a definition here checks that the two ways agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from cattkernel import flat as F
from cattkernel import oracle as O
from cattkernel import pasting as P
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel.flat import (
    STAR, Arrow, Coh, FlatCtx, FlatSub, FlatTerm, FlatType, Star, Var
)
from cattkernel.trees import LTree, Path, Tree


# ---------------------------------------------------------------------------
# variable sets over flat contexts


@dataclass(frozen=True)
class VarSet:
    """Boolean-per-variable set over a fixed context; indexed by position
    from the start of the context."""

    members: tuple[bool, ...]

    def union(self, other: "VarSet") -> "VarSet":
        return VarSet(tuple(a or b for a, b in zip(self.members, other.members)))

    def positions(self) -> list[int]:
        return [i for i, m in enumerate(self.members) if m]

    @staticmethod
    def empty(n: int) -> "VarSet":
        return VarSet((False,) * n)

    @staticmethod
    def full(n: int) -> "VarSet":
        return VarSet((True,) * n)

    @staticmethod
    def of(n: int, positions: Iterable[int]) -> "VarSet":
        mem = [False] * n
        for p in positions:
            mem[p] = True
        return VarSet(tuple(mem))


def free_vars(x, ctx_len: int) -> VarSet:
    mem = [False] * ctx_len
    _fv(x, ctx_len, mem)
    return VarSet(tuple(mem))


def _fv(x, n: int, mem: list[bool]) -> None:
    if isinstance(x, Var):
        mem[n - 1 - x.idx] = True
    elif isinstance(x, Coh):
        _fv(x.sub, n, mem)
    elif isinstance(x, Arrow):
        _fv(x.src, n, mem)
        _fv(x.base, n, mem)
        _fv(x.tgt, n, mem)
    elif isinstance(x, Star):
        pass
    elif isinstance(x, FlatSub):
        _fv(x.ty, n, mem)
        for t in x.terms:
            _fv(t, n, mem)
    else:
        raise TypeError(f"cannot take free variables of {type(x).__name__}")


def downward_close(g: FlatCtx, v: VarSet) -> VarSet:
    n = len(g)
    mem = list(v.members)
    for i in reversed(range(n)):
        if mem[i]:
            # entry i's type lives over the prefix of length i; its variable
            # with index j sits at position i - 1 - j of the full context
            sub = free_vars(g.entries[i], i)
            for p in sub.positions():
                mem[p] = True
    return VarSet(tuple(mem))


def support(g: FlatCtx, x) -> VarSet:
    return downward_close(g, free_vars(x, len(g)))


def apply_set(v: VarSet, sigma: FlatSub, codomain_len: int) -> VarSet:
    """Image of a variable set under a (regular) substitution."""
    out = VarSet.empty(codomain_len)
    for i in v.positions():
        out = out.union(free_vars(sigma.terms[i], codomain_len))
    return out


# ---------------------------------------------------------------------------
# flat syntax


def weaken_n(x, k: int):
    for _ in range(k):
        x = F.weaken(x)
    return x


def canonical_type(g: FlatCtx, t: FlatTerm) -> FlatType:
    if isinstance(t, Var):
        pos = len(g) - 1 - t.idx
        if not 0 <= pos < len(g):
            raise F.MalformedSyntax(f"variable v{t.idx} out of scope")
        return weaken_n(g.entries[pos], t.idx + 1)
    return F.substitute(t.ty, t.sub)


def restrict(sigma: FlatSub) -> FlatSub:
    if len(sigma.terms) < 2:
        raise F.MalformedSyntax("restrict requires at least two terms")
    return FlatSub(Arrow(sigma.terms[0], sigma.ty, sigma.terms[1]), sigma.terms[2:])


def sphere_ctx(n: int) -> FlatCtx:
    return F.disc_family(n)[1]


def sphere_ty(n: int) -> FlatType:
    """U^n, the type over S^n that the disc D^n adds a cell of."""
    return F.disc_family(n)[2]


def dim_ctx(g: FlatCtx) -> int:
    return max((F.dim_ty(e) for e in g.entries), default=0)


# ---------------------------------------------------------------------------
# pasting contexts


def check_ps_detail(g: FlatCtx) -> tuple[bool, int | None]:
    """Decide the ps-context judgement; on failure return the offending
    entry position."""
    tree, pos = P._scan(g)
    return tree is not None, pos


def check_ps(g: FlatCtx) -> bool:
    return check_ps_detail(g)[0]


def boundary_set(g: FlatCtx, n: int, eps: str) -> VarSet:
    """The n-boundary variable set of a ps-context; eps is '-' or '+'."""
    ok, _ = check_ps_detail(g)
    if not ok:
        raise F.MalformedSyntax("boundary_set requires a ps-context")
    if eps not in ("-", "+"):
        raise ValueError("eps must be '-' or '+'")
    mem = [False] * len(g)
    mem[0] = True
    i = 1
    while i < len(g):
        d = F.dim_ty(g.entries[i])
        if d < n:
            mem[i] = True
            mem[i + 1] = True
        elif d == n and eps == "+":
            f_ty = g.entries[i + 1]
            src_pos = (i + 1) - 1 - f_ty.src.idx
            mem[src_pos] = False
            mem[i] = True
        i += 2
    return VarSet(tuple(mem))


# ---------------------------------------------------------------------------
# Dyck words: pasting contexts as the up and down moves of their cells, as
# Finster, Reutter, Rice and Vicary state pruning.  A peak is an up move
# followed by a down move; the program's peak is the leaf of a tree that
# the two moves add and remove.

UP = "U"
DOWN = "D"


@dataclass(frozen=True)
class DyckWord:
    """Up/down move sequence; every prefix has at least as many ups as
    downs."""

    moves: tuple[str, ...]

    def __post_init__(self):
        depth = 0
        for m in self.moves:
            depth += 1 if m == UP else -1
            if depth < 0:
                raise F.MalformedSyntax("negative prefix in Dyck word")


def disc_word(n: int) -> DyckWord:
    return DyckWord((UP,) * n + (DOWN,) * n)


def tree_to_dyck(t: Tree) -> DyckWord:
    def moves(s: Tree) -> list[str]:
        out: list[str] = []
        for b in s.branches:
            out.append(UP)
            out.extend(moves(b))
            out.append(DOWN)
        return out

    return DyckWord(tuple(moves(t)))


def dyck_realise(d: DyckWord) -> tuple[FlatCtx, FlatType, FlatTerm]:
    """The context, type and term associated to a Dyck word: an up move
    adds a cell of the current type and an arrow from the current term to
    it, a down move steps to the target of the current type."""
    entries: list[FlatType] = [STAR]
    ty: FlatType = STAR
    tm: FlatTerm = Var(0)
    for m in d.moves:
        if m == UP:
            entries.append(ty)
            f_ty = Arrow(F.weaken(tm), F.weaken(ty), Var(0))
            entries.append(f_ty)
            tm = Var(0)
            ty = F.weaken(f_ty)
        else:
            tm = ty.tgt
            ty = ty.base
    return FlatCtx(tuple(entries)), ty, tm


def peaks(d: DyckWord) -> list[int]:
    """The peaks of d, by the index of their up move."""
    m = d.moves
    return [i for i in range(len(m) - 1) if m[i] == UP and m[i + 1] == DOWN]


def peak_pos(d: DyckWord, p: int) -> int:
    """The position, in the realised context, of the cell of the peak p."""
    if p not in peaks(d):
        raise F.MalformedSyntax("not a peak")
    return 2 * d.moves[: p + 1].count(UP)


def prune(d: DyckWord, p: int) -> tuple[DyckWord, FlatSub]:
    """Remove the peak p; return the pruned word and the projection from
    the original context to the pruned one."""
    pos = peak_pos(d, p)
    prefix, suffix = d.moves[:p], d.moves[p + 2 :]
    _, ty, tm = dyck_realise(DyckWord(prefix))
    # the cells of the prefix and of the suffix keep their variables, and
    # the peak's two go to the prefix's term and its identity, each
    # weakened past the cells that the suffix adds
    k = 2 * suffix.count(UP)
    ty, tm = weaken_n(ty, k), weaken_n(tm, k)
    cells = F.variables(pos - 1 + k)
    terms = cells[: pos - 1] + (tm, F.canonical_identity(ty, tm)) + cells[pos - 1 :]
    return DyckWord(prefix + suffix), FlatSub(STAR, terms)


def prune_terms(sigma: FlatSub, d: DyckWord, p: int) -> FlatSub:
    """sigma without the two terms of the cells that pruning p removes."""
    pos = peak_pos(d, p)
    return FlatSub(sigma.ty, sigma.terms[: pos - 1] + sigma.terms[pos + 1 :])


# ---------------------------------------------------------------------------
# the oracle's complexity measure and random normalisation


Complexity = tuple  # coefficient at index i counts coherences of dimension i


def _add(a: Complexity, b: Complexity) -> Complexity:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def complexity(t: FlatTerm) -> Complexity:
    if isinstance(t, Var):
        return ()
    d = F.dim_ty(t.ty)
    weight = 1 if F.is_identity(t) else 2
    head = (0,) * d + (weight,)
    out = head
    for u in t.sub.terms:
        out = _add(out, complexity(u))
    return out


def less_than(a: Complexity, b: Complexity) -> bool:
    """Reverse-lexicographic comparison: higher dimensions dominate."""
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


def normalise_random(t: FlatTerm, rules: O.RuleSet, seed: int) -> FlatTerm:
    """Reduce to normal form taking a uniformly random reduct at each step;
    confluence makes the result that of ``O.normalise``."""
    rng = random.Random(seed)
    for _ in range(O.STEP_CAP):
        candidates = O.step(t, rules)
        if not candidates:
            return t
        t = rng.choice(candidates).term
    raise O.NonTermination(f"no normal form within {O.STEP_CAP} steps")


def first_steps_reference(t: FlatTerm, rules: O.RuleSet) -> list:
    """The steps of ``O.first_steps`` as the full search finds them: each
    step is the first of every reduct of the term, with no subterm skipped
    for having been found normal before."""
    out = []
    for _ in range(O.STEP_CAP):
        candidates = O.step(t, rules)
        if not candidates:
            return out
        out.append(candidates[0])
        t = candidates[0].term
    raise O.NonTermination(f"no normal form within {O.STEP_CAP} steps")


def _descendants(t: FlatTerm, rules: O.RuleSet, depth: int) -> set:
    seen = {t}
    frontier = [t]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for st in O.step(u, rules):
                if st.term not in seen:
                    seen.add(st.term)
                    nxt.append(st.term)
        frontier = nxt
    return seen


def local_confluence_sample(
    t: FlatTerm, rules: O.RuleSet, depth: int = 3
) -> list[tuple[FlatTerm, FlatTerm]]:
    """Unjoined pairs of one-step reducts, searching joins within depth
    further steps; empty means no counterexample candidate found."""
    reducts = [st.term for st in O.step(t, rules)]
    bad = []
    for i in range(len(reducts)):
        for j in range(i + 1, len(reducts)):
            a, b = reducts[i], reducts[j]
            if a == b:
                continue
            if _descendants(a, rules, depth).isdisjoint(
                _descendants(b, rules, depth)
            ):
                bad.append((a, b))
    return bad


# ---------------------------------------------------------------------------
# trees and labellings


def is_path(t: Tree, p: Path) -> bool:
    if not p:
        return False
    try:
        prefix = T.subtree(t, p[:-1])
    except F.MalformedSyntax:
        return False
    return 0 <= p[-1] <= len(prefix.branches)


def is_maximal_path(t: Tree, p: Path) -> bool:
    return is_path(t, p) and T.subtree(t, p[:-1]).branches == () and p[-1] == 0


def all_paths(t: Tree) -> list[Path]:
    """The paths of t in the order of the realised context: its first
    0-cell (0,), then for each branch k the 0-cell (k + 1,) that ends it
    and the branch's paths below k."""
    out: list[Path] = [(0,)]
    for k, b in enumerate(t.branches):
        out.append((k + 1,))
        out.extend((k,) + q for q in all_paths(b))
    return out


def maximal_paths(t: Tree) -> list[Path]:
    if not t.branches:
        return [(0,)]
    return [(k,) + q for k, b in enumerate(t.branches) for q in maximal_paths(b)]


def cell_ends(p: Path):
    """The endpoints of the cell p: None at a 0-cell, and at a cell
    q + (j,) the path q and the sibling that follows it."""
    if len(p) == 1:
        return None
    q = p[:-1]
    return q, q[:-1] + (q[-1] + 1,)


def boundary_path(t: Tree, n: int, eps: str, p: Path) -> Path:
    """Include a path of the n-boundary tree back into t: at n = 0 the
    first or last 0-cell, and above it each 0-cell to itself and each
    branch's paths into that branch."""
    if n == 0:
        return (0,) if eps == "-" else (len(t.branches),)
    if len(p) == 1:
        return p
    k = p[0]
    return (k,) + boundary_path(t.branches[k], n - 1, eps, p[1:])


def at(lt: LTree, p: Path):
    """The entry of a labelling at the path p."""
    return lt.entries[T.path_index(lt.shape)[p]]


class NestedLabel:
    """A labelling as a tree of entries: the entries of the 0-cells and one
    labelling per branch.  Every operation recurses over the branches; the
    flat ``LTree`` must agree with it."""

    __slots__ = ("elements", "branches")

    def __init__(self, elements: tuple, branches: tuple = ()):
        assert len(elements) == len(branches) + 1
        self.elements = elements
        self.branches = branches

    @classmethod
    def from_fn(cls, t: Tree, f) -> "NestedLabel":
        return cls(
            tuple(f((k,)) for k in range(len(t.branches) + 1)),
            tuple(
                cls.from_fn(b, lambda q, k=k: f((k,) + q))
                for k, b in enumerate(t.branches)
            ),
        )

    @classmethod
    def of(cls, lt: LTree) -> "NestedLabel":
        """The nested view of a labelling, read off its fields."""
        return cls(lt.elements, tuple(cls.of(b) for b in lt.branches))

    def to_ltree(self, cls=LTree) -> LTree:
        """The flat labelling, of class cls, with these entries."""
        return cls(self.shape(), tuple(self.values()))

    def __eq__(self, other) -> bool:
        return (self.elements, self.branches) == (other.elements, other.branches)

    def shape(self) -> Tree:
        return Tree(tuple(b.shape() for b in self.branches))

    def lookup(self, p: Path):
        if len(p) == 1:
            return self.elements[p[0]]
        return self.branches[p[0]].lookup(p[1:])

    def values(self) -> list:
        """The entries in ``all_paths`` order: each 0-cell after the first
        comes just before the branch it ends."""
        out = [self.elements[0]]
        for e, b in zip(self.elements[1:], self.branches):
            out.append(e)
            out.extend(b.values())
        return out

    def map(self, f) -> "NestedLabel":
        return NestedLabel(
            tuple(f(e) for e in self.elements), tuple(b.map(f) for b in self.branches)
        )

    def insert(self, p: T.Branch, m: "NestedLabel") -> "NestedLabel":
        """Splice m in at the branch p: m's 0-cells replace the two 0-cells
        around the branch, and m's branches replace it, or the insertion
        goes on into it along the rest of p."""
        k = p[0]
        elements = self.elements[:k] + m.elements + self.elements[k + 2 :]
        if len(p) == 1:
            branches = self.branches[:k] + m.branches + self.branches[k + 1 :]
        else:
            inner = self.branches[k].insert(p[1:], m.branches[0])
            branches = self.branches[:k] + (inner,) + self.branches[k + 1 :]
        return NestedLabel(elements, branches)


def snd_var(g: FlatCtx) -> FlatTerm:
    """The variable of the last 0-cell of g."""
    last = max(i for i, e in enumerate(g.entries) if e == STAR)
    return Var(len(g) - 1 - last)


def wedge(g: FlatCtx, d: FlatCtx) -> tuple[FlatCtx, FlatSub, FlatSub]:
    """Glue the last 0-cell of g to the first variable of d; also return the
    two inclusion substitutions."""
    if len(g) == 0 or len(d) == 0:
        raise F.MalformedSyntax("wedge of an empty context")
    entries = list(g.entries)
    inr_terms: list[FlatTerm] = [snd_var(g)]
    for i in range(1, len(d)):
        a = F.substitute(d.entries[i], FlatSub(STAR, tuple(inr_terms)))
        entries.append(a)
        inr_terms = [F.weaken(t) for t in inr_terms] + [Var(0)]
    inl = weaken_n(F.identity_sub(g), len(d) - 1)
    return FlatCtx(tuple(entries)), inl, FlatSub(STAR, tuple(inr_terms))


def tree_to_ctx(t: Tree) -> FlatCtx:
    """The realisation of t: the suspensions of the realisations of its
    children, glued along their endpoint 0-cells."""
    if not t.branches:
        return FlatCtx((STAR,))
    ctx = F.suspend_ctx(tree_to_ctx(t.branches[0]))
    for b in t.branches[1:]:
        ctx, _, _ = wedge(ctx, F.suspend_ctx(tree_to_ctx(b)))
    return ctx


def label_to_sub(lt: LTree, ty: FlatType = STAR) -> FlatSub:
    """The realisation of a labelling: each branch realises with the arrow
    between its two 0-cells as type part, and is unrestricted into the
    whole."""
    if not lt.branches:
        return FlatSub(ty, (lt.elements[0],))
    terms: list[FlatTerm] = []
    for i, br in enumerate(lt.branches):
        inner = label_to_sub(br, Arrow(lt.elements[i], ty, lt.elements[i + 1]))
        part = F.unrestrict(inner).terms
        terms.extend(part if i == 0 else part[1:])
    return FlatSub(ty, tuple(terms))


def from_wedge(sigma: FlatSub, tau: FlatSub) -> FlatSub:
    """The glued substitution out of a wedge; the shared 0-cell takes its
    image from sigma."""
    if not tau.terms:
        raise F.MalformedSyntax("wedge of an empty substitution")
    return FlatSub(sigma.ty, sigma.terms + tau.terms[1:])


def id_label(t: Tree) -> LTree:
    return LTree.from_fn(t, lambda p: F.path_var(t, p))


def label_sub(lt: LTree, sigma: FlatSub) -> LTree:
    """Post-compose a labelling of terms with a substitution; its type part
    becomes sigma's."""
    return lt.map(lambda e: F.substitute(e, sigma))


def label_eq_max(a: LTree, b: LTree) -> bool:
    """Equality on maximal paths only."""
    t = a.shape
    if t != b.shape:
        return False
    return all(at(a, p) == at(b, p) for p in T.maximal_paths(t))


def boundary_label(t: Tree, n: int, eps: str) -> LTree:
    """The inclusion labelling from the n-boundary of t, with path entries."""
    return LTree.from_fn(T.tree_boundary(t, n), lambda p: boundary_path(t, n, eps, p))


def tree_boundary_set(t: Tree, n: int, eps: str) -> VarSet:
    paths = boundary_label(t, n, eps).entries
    return VarSet.of(T.ctx_size(t), (F.path_pos(t, p) for p in paths))


def interior_label(s: Tree, p: Path, t: Tree) -> LTree:
    """The labelling of t over the realisation of the tree that inserting t
    at the branch p of s makes."""
    r = T.insert_tree(s, p, t)
    k = p[0]
    if len(p) == 1:

        def inc(q: Path) -> Path:
            return (q[0] + k,) + q[1:]

        return LTree.from_fn(t, lambda q: F.path_var(r, inc(q)))
    inner = interior_label(s.branches[k], p[1:], t.branches[0])
    size = T.ctx_size(T.insert_tree(s.branches[k], p[1:], t.branches[0]))
    branch = inner.map(lambda e: F._include_component(r, k, size, e))
    ends = (F.path_var(r, (k,)), F.path_var(r, (k + 1,)))
    return LTree(T.suspend_tree(branch.shape), ends + branch.entries)


# ---------------------------------------------------------------------------
# surface syntax


def tokenize(text: str, source=None) -> list[tuple]:
    """The tokens of text as (kind, value, start, end), one test per
    kind of token in a fixed order; ``surface.tokenize`` reads the tokens
    of one character from one table first."""
    toks: list[tuple] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(("arrow", "->", i, i + 2))
            i += 2
            continue
        if c == "→":
            toks.append(("arrow", "→", i, i + 1))
            i += 1
            continue
        if c == "Σ":
            toks.append(("susp", "Σ", i, i + 1))
            i += 1
            continue
        if c in R._PUNCT:
            toks.append((R._PUNCT[c], c, i, i + 1))
            i += 1
            continue
        if c.isalnum() or c in "./":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_./"):
                j += 1
            word = text[i:j]
            if word == "S":
                toks.append(("susp", word, i, j))
            elif word in R.KEYWORDS:
                toks.append((word, word, i, j))
            else:
                toks.append(("name", word, i, j))
            i = j
            continue
        raise R.ParseError(f"unexpected character {c!r}", R.Span(source, i, i + 1))
    toks.append(("eof", "", n, n))
    return toks


def pretty_command(c: R.Command) -> str:
    if isinstance(c, R.DefCmd):
        out = f"def {c.name}"
        if c.ctx is not None:
            out += f" {R.pretty(c.ctx)}"
        if c.ty is not None:
            out += f" : {R.pretty(c.ty)}"
        return out + f" = {R.pretty(c.term)}"
    if isinstance(c, R.NormaliseCmd):
        return f"normalise {R.pretty(c.term)} in {R.pretty(c.ctx)}"
    if isinstance(c, R.AssertCmd):
        return f"assert {R.pretty(c.lhs)} = {R.pretty(c.rhs)} in {R.pretty(c.ctx)}"
    if isinstance(c, R.SizeCmd):
        return f"size {R.pretty(c.term)} in {R.pretty(c.ctx)}"
    if isinstance(c, R.ImportCmd):
        return f"import {c.path}"
    raise TypeError(f"cannot pretty-print {c!r}")


def strip_spans(x):
    """Rebuild a raw syntax value with every span replaced by the
    synthesized span, for span-insensitive comparison."""
    if isinstance(x, T.Record):
        kwargs = {}
        for f in x._fields:
            v = getattr(x, f)
            if f == "span":
                v = R.SYNTH
            elif f == "spans":  # a raw labelling's, one per entry
                v = (R.SYNTH,) * len(v)
            kwargs[f] = strip_spans(v)
        return type(x)(**kwargs)
    if isinstance(x, tuple):
        return tuple(strip_spans(v) for v in x)
    return x
