"""Trees as pasting diagrams: paths, branches, wedge sums, realisation as
contexts, labellings, tree boundaries, standard coherences, and insertion.

A tree is a list of trees.  Its realisation as a context glues the
suspensions of the realisations of its children along their endpoint
0-cells, so trees present exactly the pasting contexts.  Labellings are
trees of terms and realise to substitutions out of the realised context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from . import flat as F
from .flat import STAR, Arrow, Coh, FlatCtx, FlatSub, FlatTerm, FlatType, Var, VarSet

Path = tuple[int, ...]
Branch = tuple[int, ...]


@dataclass(frozen=True)
class Tree:
    branches: tuple[Tree, ...] = ()

    def __post_init__(self):
        # Computed once from the children's stored values.  They are plain
        # attributes, not fields, so equality and repr still see the
        # branches alone, and the hash is the hash of the branches.
        bs = self.branches
        height = max((b._height + 1 for b in bs), default=0)
        trunk = 1 + bs[0]._trunk_height if len(bs) == 1 else 0
        size = 1 + sum(b._ctx_size + 1 for b in bs)
        object.__setattr__(self, "_height", height)
        object.__setattr__(self, "_trunk_height", trunk)
        object.__setattr__(self, "_ctx_size", size)
        object.__setattr__(self, "_hash", hash(bs))

    def __hash__(self) -> int:
        return self._hash

    @property
    def height(self) -> int:
        return self._height

    @property
    def trunk_height(self) -> int:
        return self._trunk_height

    @property
    def is_linear(self) -> bool:
        return self._height == self._trunk_height

    def __repr__(self) -> str:
        return "T[" + ",".join(repr(b)[1:] for b in self.branches) + "]"


LEAF = Tree(())


def suspend_tree(t: Tree) -> Tree:
    return Tree((t,))


def linear_tree(n: int) -> Tree:
    t = LEAF
    for _ in range(n):
        t = suspend_tree(t)
    return t


def subtree(t: Tree, p: tuple[int, ...]) -> Tree:
    for k in p:
        if not 0 <= k < len(t.branches):
            raise F.MalformedSyntax("path leaves the tree")
        t = t.branches[k]
    return t


# ---------------------------------------------------------------------------
# paths


def is_path(t: Tree, p: Path) -> bool:
    if not p:
        return False
    try:
        prefix = subtree(t, p[:-1])
    except F.MalformedSyntax:
        return False
    return 0 <= p[-1] <= len(prefix.branches)


def is_maximal_path(t: Tree, p: Path) -> bool:
    return is_path(t, p) and subtree(t, p[:-1]).branches == () and p[-1] == 0


def all_paths(t: Tree) -> list[Path]:
    out: list[Path] = [(k,) for k in range(len(t.branches) + 1)]
    for k, b in enumerate(t.branches):
        out.extend((k,) + q for q in all_paths(b))
    return out


def maximal_paths(t: Tree) -> list[Path]:
    if not t.branches:
        return [(0,)]
    return [(k,) + q for k, b in enumerate(t.branches) for q in maximal_paths(b)]


def max_path(n: int) -> Path:
    """The unique maximal path of the linear tree of height n."""
    return (0,) * (n + 1)


# ---------------------------------------------------------------------------
# branches


def is_branch(s: Tree, p: Branch) -> bool:
    if not p:
        return False
    try:
        return subtree(s, p).is_linear
    except F.MalformedSyntax:
        return False


def branch_height(p: Branch) -> int:
    return len(p) - 1


def branch_path(s: Tree, p: Branch) -> Path:
    """The maximal path obtained by following the branch down its linear
    subtree."""
    return p + max_path(subtree(s, p).height)


def leaf_height(s: Tree, p: Branch) -> int:
    return len(branch_path(s, p)) - 1


def all_branches(s: Tree) -> list[Branch]:
    def walk(t: Tree, prefix: Branch) -> list[Branch]:
        out = []
        for k, b in enumerate(t.branches):
            q = prefix + (k,)
            if b.is_linear:
                out.append(q)
            out.extend(walk(b, q))
        return out

    return walk(s, ())


# ---------------------------------------------------------------------------
# realisation


def ctx_size(t: Tree) -> int:
    return t._ctx_size


def _offsets(t: Tree) -> list[int]:
    """Position offsets of the suspended components in the realised context;
    component k occupies positions [offset(k) .. offset(k+1)] with its first
    0-cell shared with the previous component."""
    out = [1]
    for b in t.branches:
        out.append(out[-1] + ctx_size(b) + 1)
    return out


def zero_cell_pos(t: Tree, k: int) -> int:
    return 0 if k == 0 else _offsets(t)[k - 1]


def path_pos(t: Tree, p: Path) -> int:
    """The position of path p in the realised context, found in one walk
    down p."""
    if not p:
        raise F.MalformedSyntax("not a path of the tree")
    pos = 0
    for k in p[:-1]:
        if not 0 <= k < len(t.branches):
            raise F.MalformedSyntax("not a path of the tree")
        # component k's child starts after the component's two 0-cells
        pos += zero_cell_pos(t, k + 1) + 1
        t = t.branches[k]
    if not 0 <= p[-1] <= len(t.branches):
        raise F.MalformedSyntax("not a path of the tree")
    return pos + zero_cell_pos(t, p[-1])


def path_var(t: Tree, p: Path) -> FlatTerm:
    return Var(ctx_size(t) - 1 - path_pos(t, p))


def snd_var(g: FlatCtx) -> FlatTerm:
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
    inl = F.identity_sub(g)
    for _ in range(len(d) - 1):
        inl = F.weaken(inl)
    return FlatCtx(tuple(entries)), inl, FlatSub(STAR, tuple(inr_terms))


def from_wedge(sigma: FlatSub, tau: FlatSub) -> FlatSub:
    """The glued substitution out of a wedge; the shared 0-cell takes its
    image from sigma."""
    if not tau.terms:
        raise F.MalformedSyntax("wedge of an empty substitution")
    return FlatSub(sigma.ty, sigma.terms + tau.terms[1:])


# Bounded like standard_type below: the validation route keeps meeting new
# trees, made by insertion, and each realisation is as large as its tree.
@lru_cache(maxsize=128)
def tree_to_ctx(t: Tree) -> FlatCtx:
    if not t.branches:
        return FlatCtx((STAR,))
    ctx = F.suspend_ctx(tree_to_ctx(t.branches[0]))
    for b in t.branches[1:]:
        ctx, _, _ = wedge(ctx, F.suspend_ctx(tree_to_ctx(b)))
    return ctx


def ctx_to_tree(g: FlatCtx) -> Tree | None:
    """Invert realisation; None if g is not a pasting context."""
    from . import pasting

    d = pasting.ctx_to_dyck(g)
    if d is None:
        return None
    return dyck_to_tree(d)


def dyck_to_tree(d: "Any") -> Tree:
    from .pasting import UP

    stack: list[list[Tree]] = [[]]
    for m in d.moves:
        if m == UP:
            stack.append([])
        else:
            top = stack.pop()
            stack[-1].append(Tree(tuple(top)))
    while len(stack) > 1:
        top = stack.pop()
        stack[-1].append(Tree(tuple(top)))
    return Tree(tuple(stack[0]))


def tree_to_dyck(t: Tree) -> "Any":
    from .pasting import DOWN, UP, DyckWord

    def moves(s: Tree) -> list[str]:
        out: list[str] = []
        for b in s.branches:
            out.append(UP)
            out.extend(moves(b))
            out.append(DOWN)
        return out

    return DyckWord(tuple(moves(t)))


# ---------------------------------------------------------------------------
# labellings


@dataclass(frozen=True)
class LTree:
    """A tree of entries: one entry per 0-cell slot, one sub-LTree per
    branch."""

    elements: tuple
    branches: tuple["LTree", ...] = ()

    def __post_init__(self):
        if len(self.elements) != len(self.branches) + 1:
            raise F.MalformedSyntax("labelling shape mismatch")

    def shape(self) -> Tree:
        # Built at the first call and kept, as Tree keeps its hash.  It is a
        # plain attribute, not a field, so equality and repr still see the
        # entries alone.
        s = self.__dict__.get("_shape")
        if s is None:
            s = Tree(tuple(b.shape() for b in self.branches))
            object.__setattr__(self, "_shape", s)
        return s

    def lookup(self, p: Path):
        if len(p) == 1:
            return self.elements[p[0]]
        return self.branches[p[0]].lookup(p[1:])

    def values(self):
        """The entries, in ``all_paths`` order."""
        yield from self.elements
        for b in self.branches:
            yield from b.values()

    def map(self, f: Callable) -> "LTree":
        return LTree(
            tuple(f(e) for e in self.elements),
            tuple(b.map(f) for b in self.branches),
        )

    @staticmethod
    def from_fn(t: Tree, f: Callable[[Path], Any]) -> "LTree":
        return LTree(
            tuple(f((k,)) for k in range(len(t.branches) + 1)),
            tuple(
                LTree.from_fn(b, lambda q, k=k: f((k,) + q))
                for k, b in enumerate(t.branches)
            ),
        )


@dataclass(frozen=True)
class Labelling:
    """A tree of terms together with the type over which it lives."""

    lt: LTree
    ty: FlatType = STAR

    def shape(self) -> Tree:
        return self.lt.shape()

    def __call__(self, p: Path):
        return self.lt.lookup(p)


def label_to_sub(lab: Labelling) -> FlatSub:
    def go(lt: LTree, ty: FlatType) -> FlatSub:
        if not lt.branches:
            return FlatSub(ty, (lt.elements[0],))
        terms: list[FlatTerm] = []
        for i, br in enumerate(lt.branches):
            inner = go(br, Arrow(lt.elements[i], ty, lt.elements[i + 1]))
            part = F.unrestrict(inner).terms
            terms.extend(part if i == 0 else part[1:])
        return FlatSub(ty, tuple(terms))

    return go(lab.lt, lab.ty)


def label_from_sub(t: Tree, sigma: FlatSub) -> Labelling:
    """Reassemble the labelling over t whose flattening is sigma."""
    if len(sigma.terms) != ctx_size(t):
        raise F.MalformedSyntax("substitution length does not match the tree")
    return Labelling(
        LTree.from_fn(t, lambda p: sigma.terms[path_pos(t, p)]), sigma.ty
    )


def id_label(t: Tree) -> Labelling:
    return Labelling(LTree.from_fn(t, lambda p: path_var(t, p)), STAR)


def label_sub(lab: Labelling, sigma: FlatSub) -> Labelling:
    """Post-compose a term-labelling with a substitution."""
    return Labelling(
        lab.lt.map(lambda e: F.substitute(e, sigma)), F.substitute(lab.ty, sigma)
    )


def label_eq_max(a: Labelling, b: Labelling) -> bool:
    """Equality on maximal paths only."""
    t = a.shape()
    if t != b.shape():
        return False
    return all(a(p) == b(p) for p in maximal_paths(t))


def label_from_disc(a: FlatType, t: FlatTerm) -> Labelling:
    """The labelling from the disc tree classifying a term and its type."""

    def ext(lab: LTree, s: FlatTerm, u: FlatTerm) -> LTree:
        if not lab.branches:
            return LTree((lab.elements[0], s), (LTree((u,), ()),))
        return LTree(lab.elements, (ext(lab.branches[0], s, u),))

    if isinstance(a, F.Star):
        return Labelling(LTree((t,), ()), STAR)
    inner = label_from_disc(a.base, a.src)
    return Labelling(ext(inner.lt, a.tgt, t), STAR)


# ---------------------------------------------------------------------------
# boundaries


def tree_boundary(t: Tree, n: int) -> Tree:
    if n == 0:
        return LEAF
    return Tree(tuple(tree_boundary(b, n - 1) for b in t.branches))


def boundary_path(t: Tree, n: int, eps: str, p: Path) -> Path:
    """Include a path of the n-boundary tree back into t."""
    if n == 0:
        return (0,) if eps == "-" else (len(t.branches),)
    if len(p) == 1:
        return p
    k = p[0]
    return (k,) + boundary_path(t.branches[k], n - 1, eps, p[1:])


def boundary_label(t: Tree, n: int, eps: str) -> Labelling:
    """The inclusion labelling from the n-boundary of t, with path entries."""
    return Labelling(
        LTree.from_fn(tree_boundary(t, n), lambda p: boundary_path(t, n, eps, p)),
        STAR,
    )


def boundary_inclusion(t: Tree, n: int, eps: str) -> Labelling:
    """The same inclusion with variable entries over the realised context."""
    return Labelling(
        LTree.from_fn(
            tree_boundary(t, n), lambda p: path_var(t, boundary_path(t, n, eps, p))
        ),
        STAR,
    )


def boundary_paths(t: Tree, n: int, eps: str) -> set[Path]:
    """The paths of t in its n-boundary of side eps."""
    return {boundary_path(t, n, eps, p) for p in all_paths(tree_boundary(t, n))}


def tree_boundary_set(t: Tree, n: int, eps: str) -> VarSet:
    return VarSet.of(ctx_size(t), (path_pos(t, p) for p in boundary_paths(t, n, eps)))


# ---------------------------------------------------------------------------
# standard constructions


# Bounded: the oracle asks for the same few (tree, n) at every step, and an
# unbounded cache would keep every tree a long run meets.
@lru_cache(maxsize=64)
def standard_type(t: Tree, n: int) -> FlatType:
    if n == 0:
        return STAR
    b = tree_boundary(t, n - 1)
    src = F.substitute(
        standard_term(b, n - 1), label_to_sub(boundary_inclusion(t, n - 1, "-"))
    )
    tgt = F.substitute(
        standard_term(b, n - 1), label_to_sub(boundary_inclusion(t, n - 1, "+"))
    )
    return Arrow(src, standard_type(t, n - 1), tgt)


def standard_coh(t: Tree, n: int) -> Coh:
    if n < t.height or (n == 0 and t != LEAF):
        raise F.MalformedSyntax("standard coherence needs n >= h(T), n > 0")
    g = tree_to_ctx(t)
    return Coh(g, standard_type(t, n), F.identity_sub(g))


def standard_term(t: Tree, n: int) -> FlatTerm:
    if t == LEAF and n == 0:
        return Var(0)
    if n > 0 and len(t.branches) == 1:
        inner = t.branches[0]
        return F.suspend_tm(standard_term(inner, n - 1), ctx_size(inner))
    return standard_coh(t, n)


def standard_comp(t: Tree) -> Coh:
    return standard_coh(t, t.height)


# ---------------------------------------------------------------------------
# insertion


def is_insertion_point(s: Tree, p: Branch, t: Tree) -> bool:
    return (
        is_branch(s, p)
        and branch_height(p) <= t.trunk_height
        and leaf_height(s, p) >= t.height
    )


def _require_point(s: Tree, p: Branch, t: Tree) -> None:
    if not is_insertion_point(s, p, t):
        raise F.MalformedSyntax("not an insertion point")


def insert_tree(s: Tree, p: Branch, t: Tree) -> Tree:
    _require_point(s, p, t)
    k = p[0]
    if len(p) == 1:
        return Tree(s.branches[:k] + t.branches + s.branches[k + 1 :])
    inner = insert_tree(s.branches[k], p[1:], t.branches[0])
    return Tree(s.branches[:k] + (inner,) + s.branches[k + 1 :])


def _inclusion_sub(r: Tree, k: int, m: int) -> FlatSub:
    """Substitution including the realisation of components k..k+m-1 of r
    into the realisation of r."""
    span = Tree(r.branches[k : k + m])
    size = ctx_size(span)
    n = ctx_size(r)
    offs = _offsets(r)
    base = offs[k] - 1

    def glob(pos: int) -> int:
        return zero_cell_pos(r, k) if pos == 0 else pos + base

    return FlatSub(STAR, tuple(Var(n - 1 - glob(pos)) for pos in range(size)))


def _include_component(r: Tree, k: int, inner_size: int, e: FlatTerm) -> FlatTerm:
    """Suspend a term over the realisation of component k's child and include
    it into the realisation of r."""
    return F.substitute(F.suspend_tm(e, inner_size), _inclusion_sub(r, k, 1))


def interior_label(s: Tree, p: Branch, t: Tree) -> Labelling:
    _require_point(s, p, t)
    r = insert_tree(s, p, t)
    k = p[0]
    if len(p) == 1:

        def inc(q: Path) -> Path:
            return (q[0] + k,) + q[1:]

        return Labelling(LTree.from_fn(t, lambda q: path_var(r, inc(q))), STAR)
    inner = interior_label(s.branches[k], p[1:], t.branches[0])
    size = ctx_size(insert_tree(s.branches[k], p[1:], t.branches[0]))
    branch = inner.lt.map(lambda e: _include_component(r, k, size, e))
    return Labelling(LTree((path_var(r, (k,)), path_var(r, (k + 1,))), (branch,)), STAR)


def exterior_label(s: Tree, p: Branch, t: Tree) -> Labelling:
    _require_point(s, p, t)
    r = insert_tree(s, p, t)
    k = p[0]
    nt = len(t.branches)

    def identity_branch(j: int, rj: int) -> LTree:
        return LTree.from_fn(s.branches[j], lambda q: path_var(r, (rj,) + q))

    if len(p) == 1:
        m = s.branches[k].height + 1
        inc = _inclusion_sub(r, k, nt)
        disc = label_from_disc(
            F.substitute(standard_type(t, m), inc),
            F.substitute(standard_coh(t, m), inc),
        )
        mid = disc.lt.branches[0]
        elements = tuple(
            path_var(r, (j,) if j <= k else (j + nt - 1,))
            for j in range(len(s.branches) + 1)
        )
        branches = (
            tuple(identity_branch(j, j) for j in range(k))
            + (mid,)
            + tuple(
                identity_branch(j, j + nt - 1) for j in range(k + 1, len(s.branches))
            )
        )
        return Labelling(LTree(elements, branches), STAR)
    inner = exterior_label(s.branches[k], p[1:], t.branches[0])
    size = ctx_size(insert_tree(s.branches[k], p[1:], t.branches[0]))
    mid = inner.lt.map(lambda e: _include_component(r, k, size, e))
    elements = tuple(path_var(r, (j,)) for j in range(len(s.branches) + 1))
    branches = tuple(
        mid if j == k else identity_branch(j, j) for j in range(len(s.branches))
    )
    return Labelling(LTree(elements, branches), STAR)


def insert_ltree(lt: LTree, p: Branch, m: LTree) -> LTree:
    """Splice the labelling of the inserted tree into the host labelling;
    the image of the branch itself is never read."""
    _require_point(lt.shape(), p, m.shape())

    def go(l: LTree, q: Branch, mm: LTree) -> LTree:
        k = q[0]
        elements = l.elements[:k] + mm.elements + l.elements[k + 2 :]
        if len(q) == 1:
            branches = l.branches[:k] + mm.branches + l.branches[k + 1 :]
        else:
            branches = (
                l.branches[:k]
                + (go(l.branches[k], q[1:], mm.branches[0]),)
                + l.branches[k + 1 :]
            )
        return LTree(elements, branches)

    return go(lt, p, m)


def insert_label(lab: Labelling, p: Branch, m: Labelling) -> Labelling:
    """Insert on labellings; the type part is the host's."""
    return Labelling(insert_ltree(lab.lt, p, m.lt), lab.ty)
