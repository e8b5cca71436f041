"""Base de-Bruijn-indexed syntax: contexts, terms, types, extended
substitutions, and the realisation of trees and labellings in it.

Variables are indexed from the *end* of the context: Var(0) is the most
recently declared variable.  This makes suspension the identity on variable
indices (the two new 0-cells go at the front) and weakening a uniform
increment.  Positions counted from the start of the context are used for
substitution term lists; ``Var(k)`` in a context of length ``n`` sits at
position ``n - 1 - k``.

A tree realises as the context that glues the suspensions of the
realisations of its children along their endpoint 0-cells, so trees
present exactly the pasting contexts.  A labelling (an ``LTree`` of terms)
realises as a substitution out of the realised context.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from . import trees as T
from .trees import LEAF, LTree, MalformedSyntax, Path, Record, Tree, ctx_size


# ---------------------------------------------------------------------------
# data


class Star(Record):
    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


class Arrow(Record):
    __slots__ = ("src", "base", "tgt")
    src: "FlatTerm"
    base: "FlatType"
    tgt: "FlatTerm"

    def __init__(self, src: "FlatTerm", base: "FlatType", tgt: "FlatTerm"):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tgt", tgt)

    def __repr__(self) -> str:
        return f"({self.src!r} ->[{self.base!r}] {self.tgt!r})"


FlatType = Union[Star, Arrow]
STAR = Star()


class Var(Record):
    __slots__ = ("idx",)
    idx: int

    def __init__(self, idx: int):
        object.__setattr__(self, "idx", idx)

    def __repr__(self) -> str:
        return f"v{self.idx}"


class Coh(Record):
    __slots__ = ("ctx", "ty", "sub")
    ctx: "FlatCtx"
    ty: FlatType
    sub: "FlatSub"

    def __init__(self, ctx: "FlatCtx", ty: FlatType, sub: "FlatSub"):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "sub", sub)

    def __repr__(self) -> str:
        return f"Coh({self.ty!r})[{self.sub!r}]"


FlatTerm = Union[Var, Coh]


class FlatCtx(Record):
    """A context.  Three slots outside the fields keep facts of it, each
    worked out at its first use: ``_dyck`` and ``_tree``, what ``pasting``
    recognises in it (at the first ``ctx_to_dyck`` and ``ctx_to_tree``),
    and ``_disc``, n if it is the disc context D^n and ``False`` if it is
    no disc (at the first ``disc_dim``).  Equality and repr see the entries
    alone."""

    __slots__ = ("entries", "_dyck", "_tree", "_disc")
    _fields = ("entries",)
    entries: tuple[FlatType, ...]

    def __init__(self, entries: tuple[FlatType, ...]):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_dyck", None)
        object.__setattr__(self, "_tree", None)
        object.__setattr__(self, "_disc", None)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return "Ctx(" + ", ".join(repr(e) for e in self.entries) + ")"


class FlatSub(Record):
    """Extended substitution: a type part (the image of *) plus one term per
    domain variable, ordered by position from the start of the domain."""

    __slots__ = ("ty", "terms")
    ty: FlatType
    terms: tuple[FlatTerm, ...]

    def __init__(self, ty: FlatType, terms: tuple[FlatTerm, ...]):
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "terms", terms)

    def __repr__(self) -> str:
        parts = [repr(self.ty)] + [repr(t) for t in self.terms]
        return "<" + ", ".join(parts) + ">"


EMPTY_CTX = FlatCtx(())


# ---------------------------------------------------------------------------
# dimensions


def dim_ty(a: FlatType) -> int:
    d = 0
    while isinstance(a, Arrow):
        a = a.base
        d += 1
    return d


# ---------------------------------------------------------------------------
# substitution


def substitute(x, sigma: FlatSub):
    """Apply a substitution to a term or type."""
    if isinstance(x, (Star, Arrow)):
        return _sub_ty(x, sigma)
    return _sub_tm(x, sigma)


def _sub_ty(a: FlatType, sigma: FlatSub) -> FlatType:
    if isinstance(a, Star):
        return sigma.ty
    return Arrow(_sub_tm(a.src, sigma), _sub_ty(a.base, sigma), _sub_tm(a.tgt, sigma))


def _sub_tm(t: FlatTerm, sigma: FlatSub) -> FlatTerm:
    if isinstance(t, Var):
        n = len(sigma.terms)
        if not 0 <= t.idx < n:
            raise MalformedSyntax(f"variable v{t.idx} out of range for substitution of arity {n}")
        return sigma.terms[n - 1 - t.idx]
    if isinstance(sigma.ty, Star):
        return Coh(t.ctx, t.ty, compose(t.sub, sigma))
    # extended substitution: suspend the head and unrestrict the argument
    susp = Coh(
        suspend_ctx(t.ctx),
        suspend_ty(t.ty, len(t.ctx)),
        suspend_sub(t.sub, len(sigma.terms)),
    )
    return _sub_tm(susp, unrestrict(sigma))


def compose(tau: FlatSub, sigma: FlatSub) -> FlatSub:
    return FlatSub(_sub_ty(tau.ty, sigma), tuple(_sub_tm(t, sigma) for t in tau.terms))


# ---------------------------------------------------------------------------
# suspension

# The ambient length argument n is the length of the context the suspended
# thing lives over; the two new 0-cells get indices n+1 (N) and n (S).


def suspend_ctx(g: FlatCtx) -> FlatCtx:
    return FlatCtx((STAR, STAR) + tuple(suspend_ty(e, i) for i, e in enumerate(g.entries)))


def suspend_ty(a: FlatType, n: int) -> FlatType:
    if isinstance(a, Star):
        return Arrow(Var(n + 1), STAR, Var(n))
    return Arrow(suspend_tm(a.src, n), suspend_ty(a.base, n), suspend_tm(a.tgt, n))


def suspend_tm(t: FlatTerm, n: int) -> FlatTerm:
    if isinstance(t, Var):
        return t
    return Coh(
        suspend_ctx(t.ctx),
        suspend_ty(t.ty, len(t.ctx)),
        suspend_sub(t.sub, n),
    )


def suspend_sub(sigma: FlatSub, n: int) -> FlatSub:
    lifted = FlatSub(suspend_ty(sigma.ty, n), tuple(suspend_tm(t, n) for t in sigma.terms))
    return unrestrict(lifted)


# ---------------------------------------------------------------------------
# restriction


def unrestrict(sigma: FlatSub) -> FlatSub:
    if not isinstance(sigma.ty, Arrow):
        raise MalformedSyntax("unrestrict requires an arrow type part")
    a = sigma.ty
    return FlatSub(a.base, (a.src, a.tgt) + sigma.terms)


# ---------------------------------------------------------------------------
# weakening and identities


def weaken(x):
    if isinstance(x, (Star, Arrow)):
        return _wk_ty(x)
    if isinstance(x, (Var, Coh)):
        return _wk_tm(x)
    return FlatSub(_wk_ty(x.ty), tuple(_wk_tm(t) for t in x.terms))


def _wk_ty(a: FlatType) -> FlatType:
    if isinstance(a, Star):
        return a
    return Arrow(_wk_tm(a.src), _wk_ty(a.base), _wk_tm(a.tgt))


def _wk_tm(t: FlatTerm) -> FlatTerm:
    if isinstance(t, Var):
        return Var(t.idx + 1)
    return Coh(t.ctx, t.ty, weaken(t.sub))


def identity_sub(g: FlatCtx) -> FlatSub:
    n = len(g)
    return FlatSub(STAR, tuple(Var(n - 1 - p) for p in range(n)))


# ---------------------------------------------------------------------------
# discs and spheres


@lru_cache(maxsize=None)
def _discs(n: int) -> tuple[FlatCtx, FlatCtx, FlatType, FlatType, FlatType]:
    """disc_family(n), then the type wk(U^n) of the unary n-composite over
    D^n and the type of the identity over D^n, each built once."""
    if n == 0:
        disc, sphere, u = FlatCtx((STAR,)), EMPTY_CTX, STAR
    else:
        d_prev, _, u_prev, _, _ = _discs(n - 1)
        sphere = FlatCtx(d_prev.entries + (_wk_ty(u_prev),))
        u = Arrow(Var(1), _wk_ty(_wk_ty(u_prev)), Var(0))
        disc = FlatCtx(sphere.entries + (u,))
    unary = _wk_ty(u)
    return disc, sphere, u, unary, Arrow(Var(0), unary, Var(0))


def disc_family(n: int) -> tuple[FlatCtx, FlatCtx, FlatType]:
    """Return (disc context D^n, sphere context S^n, sphere type U^n).

    U^n lives over S^n; the disc adds one entry of type U^n.
    """
    return _discs(n)[:3]


def disc_ctx(n: int) -> FlatCtx:
    return disc_family(n)[0]


def sphere_ty(n: int) -> FlatType:
    return disc_family(n)[2]


def disc_dim(g: FlatCtx) -> int | bool:
    """n if g is the disc context D^n, False if it is no disc; kept in g,
    so each context is compared with a disc once."""
    d = g._disc
    if d is None:
        n = (len(g) - 1) // 2
        d = n if len(g) % 2 == 1 and g == disc_ctx(n) else False
        object.__setattr__(g, "_disc", d)
    return d


def sub_from_sphere(a: FlatType) -> FlatSub:
    """The substitution {A} out of S^dim(A) classifying the type A."""
    if isinstance(a, Star):
        return FlatSub(STAR, ())
    return FlatSub(STAR, sub_from_sphere(a.base).terms + (a.src, a.tgt))


def sub_from_disc(a: FlatType, t: FlatTerm) -> FlatSub:
    """The substitution {A, t} out of D^dim(A)."""
    return FlatSub(STAR, sub_from_sphere(a).terms + (t,))


def unary_comp_ty(n: int) -> FlatType:
    """The type of the unary n-composite over D^n: wk(U^n)."""
    return _discs(n)[3]


def canonical_identity(a: FlatType, t: FlatTerm) -> FlatTerm:
    """id(A, t): the canonical identity coherence on t."""
    disc, _, _, _, ident_ty = _discs(dim_ty(a))
    return Coh(disc, ident_ty, sub_from_disc(a, t))


def is_identity(t: FlatTerm) -> bool:
    """Recognise the canonical-identity coherence shape syntactically."""
    if not isinstance(t, Coh):
        return False
    n = disc_dim(t.ctx)
    return n is not False and t.ty == _discs(n)[4]


def is_unary_comp(t: FlatTerm) -> bool:
    """Recognise the unary composite coherence shape syntactically."""
    if not isinstance(t, Coh):
        return False
    n = disc_dim(t.ctx)
    return n is not False and t.ty == unary_comp_ty(n)


# ---------------------------------------------------------------------------
# realisation of trees


# Bounded like tree_to_ctx below; trees are interned, so a hit is an
# identity test.
@lru_cache(maxsize=256)
def _offsets(t: Tree) -> tuple[int, ...]:
    """Position offsets of the suspended components in the realised context;
    component k occupies positions [offset(k) .. offset(k+1)] with its first
    0-cell shared with the previous component."""
    out = [1]
    for b in t.branches:
        out.append(out[-1] + ctx_size(b) + 1)
    return tuple(out)


def zero_cell_pos(t: Tree, k: int) -> int:
    return 0 if k == 0 else _offsets(t)[k - 1]


def path_pos(t: Tree, p: Path) -> int:
    """The position of path p in the realised context, found in one walk
    down p."""
    if not p:
        raise MalformedSyntax("not a path of the tree")
    pos = 0
    for k in p[:-1]:
        if not 0 <= k < len(t.branches):
            raise MalformedSyntax("not a path of the tree")
        # component k's child starts after the component's two 0-cells
        pos += zero_cell_pos(t, k + 1) + 1
        t = t.branches[k]
    if not 0 <= p[-1] <= len(t.branches):
        raise MalformedSyntax("not a path of the tree")
    return pos + zero_cell_pos(t, p[-1])


# Bounded and keyed like _offsets.
@lru_cache(maxsize=64)
def _path_vars(t: Tree) -> dict[Path, Var]:
    """The variable of every path of t in the realised context."""
    n = ctx_size(t)
    return {p: Var(n - 1 - path_pos(t, p)) for p in T.all_paths(t)}


def path_var(t: Tree, p: Path) -> FlatTerm:
    """The variable of path p, read from t's table; a path that is not in
    it goes to path_pos, which rejects it."""
    v = _path_vars(t).get(p)
    return v if v is not None else Var(ctx_size(t) - 1 - path_pos(t, p))


def snd_var(g: FlatCtx) -> FlatTerm:
    last = max(i for i, e in enumerate(g.entries) if e == STAR)
    return Var(len(g) - 1 - last)


def wedge(g: FlatCtx, d: FlatCtx) -> tuple[FlatCtx, FlatSub, FlatSub]:
    """Glue the last 0-cell of g to the first variable of d; also return the
    two inclusion substitutions."""
    if len(g) == 0 or len(d) == 0:
        raise MalformedSyntax("wedge of an empty context")
    entries = list(g.entries)
    inr_terms: list[FlatTerm] = [snd_var(g)]
    for i in range(1, len(d)):
        a = substitute(d.entries[i], FlatSub(STAR, tuple(inr_terms)))
        entries.append(a)
        inr_terms = [weaken(t) for t in inr_terms] + [Var(0)]
    inl = identity_sub(g)
    for _ in range(len(d) - 1):
        inl = weaken(inl)
    return FlatCtx(tuple(entries)), inl, FlatSub(STAR, tuple(inr_terms))


# Bounded like standard_type below: the validation route keeps meeting new
# trees, made by insertion, and each realisation is as large as its tree.
@lru_cache(maxsize=128)
def tree_to_ctx(t: Tree) -> FlatCtx:
    if not t.branches:
        return FlatCtx((STAR,))
    ctx = suspend_ctx(tree_to_ctx(t.branches[0]))
    for b in t.branches[1:]:
        ctx, _, _ = wedge(ctx, suspend_ctx(tree_to_ctx(b)))
    return ctx


# ---------------------------------------------------------------------------
# realisation of labellings


def label_to_sub(lt: LTree, ty: FlatType = STAR) -> FlatSub:
    """The substitution a labelling of terms realises as, with type part
    ty."""
    if not lt.branches:
        return FlatSub(ty, (lt.elements[0],))
    terms: list[FlatTerm] = []
    for i, br in enumerate(lt.branches):
        inner = label_to_sub(br, Arrow(lt.elements[i], ty, lt.elements[i + 1]))
        part = unrestrict(inner).terms
        terms.extend(part if i == 0 else part[1:])
    return FlatSub(ty, tuple(terms))


def label_from_sub(t: Tree, sigma: FlatSub) -> LTree:
    """Reassemble the labelling over t whose flattening is sigma, up to
    its type part."""
    if len(sigma.terms) != ctx_size(t):
        raise MalformedSyntax("substitution length does not match the tree")
    return LTree.from_fn(t, lambda p: sigma.terms[path_pos(t, p)])


def label_from_disc(a: FlatType, t: FlatTerm) -> LTree:
    """The labelling from the disc tree classifying a term and its type."""

    def ext(lab: LTree, s: FlatTerm, u: FlatTerm) -> LTree:
        if not lab.branches:
            return LTree((lab.elements[0], s), (LTree((u,), ()),))
        return LTree(lab.elements, (ext(lab.branches[0], s, u),))

    if isinstance(a, Star):
        return LTree((t,), ())
    return ext(label_from_disc(a.base, a.src), a.tgt, t)


def boundary_inclusion(t: Tree, n: int, eps: str) -> LTree:
    """The inclusion of the n-boundary of t, with variable entries over the
    realised context."""
    return LTree.from_fn(
        T.tree_boundary(t, n), lambda p: path_var(t, T.boundary_path(t, n, eps, p))
    )


# ---------------------------------------------------------------------------
# standard constructions


# Bounded: the oracle asks for the same few (tree, n) at every step, and an
# unbounded cache would keep every tree a long run meets.
@lru_cache(maxsize=64)
def standard_type(t: Tree, n: int) -> FlatType:
    if n == 0:
        return STAR
    b = T.tree_boundary(t, n - 1)
    src = substitute(
        standard_term(b, n - 1), label_to_sub(boundary_inclusion(t, n - 1, "-"))
    )
    tgt = substitute(
        standard_term(b, n - 1), label_to_sub(boundary_inclusion(t, n - 1, "+"))
    )
    return Arrow(src, standard_type(t, n - 1), tgt)


# Bounded like standard_type: every flattened comp or id over one tree
# shares one Coh, and so one FlatCtx with the facts it keeps.
@lru_cache(maxsize=64)
def standard_coh(t: Tree, n: int) -> Coh:
    if n < t.height or (n == 0 and t != LEAF):
        raise MalformedSyntax("standard coherence needs n >= h(T), n > 0")
    g = tree_to_ctx(t)
    return Coh(g, standard_type(t, n), identity_sub(g))


def standard_term(t: Tree, n: int) -> FlatTerm:
    if t == LEAF and n == 0:
        return Var(0)
    if n > 0 and len(t.branches) == 1:
        inner = t.branches[0]
        return suspend_tm(standard_term(inner, n - 1), ctx_size(inner))
    return standard_coh(t, n)


# ---------------------------------------------------------------------------
# the exterior labelling of an insertion


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
    return substitute(suspend_tm(e, inner_size), _inclusion_sub(r, k, 1))


def exterior_label(s: Tree, p: T.Branch, t: Tree) -> LTree:
    """The labelling of s over the realisation of the tree that inserting t
    at the branch p makes."""
    r = T.insert_tree(s, p, t)
    k = p[0]
    nt = len(t.branches)

    def identity_branch(j: int, rj: int) -> LTree:
        return LTree.from_fn(s.branches[j], lambda q: path_var(r, (rj,) + q))

    if len(p) == 1:
        m = s.branches[k].height + 1
        inc = _inclusion_sub(r, k, nt)
        disc = label_from_disc(
            substitute(standard_type(t, m), inc),
            substitute(standard_coh(t, m), inc),
        )
        mid = disc.branches[0]
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
        return LTree(elements, branches)
    inner = exterior_label(s.branches[k], p[1:], t.branches[0])
    size = ctx_size(T.insert_tree(s.branches[k], p[1:], t.branches[0]))
    mid = inner.map(lambda e: _include_component(r, k, size, e))
    elements = tuple(path_var(r, (j,)) for j in range(len(s.branches) + 1))
    branches = tuple(
        mid if j == k else identity_branch(j, j) for j in range(len(s.branches))
    )
    return LTree(elements, branches)


# ---------------------------------------------------------------------------
# display (debugging / oracle traces)


def show_tm(t: FlatTerm) -> str:
    if isinstance(t, Var):
        return f"v{t.idx}"
    inner = ", ".join(show_tm(u) for u in t.sub.terms)
    return f"coh[{show_ty(t.ty)}]({inner})"


def show_ty(a: FlatType) -> str:
    if isinstance(a, Star):
        return "*"
    return f"{show_tm(a.src)} -> {show_tm(a.tgt)}"
