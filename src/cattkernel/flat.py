"""Base de-Bruijn-indexed syntax: contexts, terms, types, extended
substitutions, and the realisation of trees and labellings in it.

Variables are indexed from the *end* of the context: Var(0) is the most
recently declared variable.  This makes suspension the identity on variable
indices (the two new 0-cells go at the front) and weakening a uniform
increment.  Positions counted from the start of the context are used for
substitution term lists; ``Var(k)`` in a context of length ``n`` sits at
position ``n - 1 - k``.  Variables are interned, one ``Var`` per index.
``Arrow``, ``Coh`` and ``FlatSub`` write their equality out, each field
decided by identity before it is compared: a head's context first (the
heads over one tree share it), then the likelier field to differ (an
arrow's endpoints, a substitution's terms).  No class here has
subclasses, so a walk decides a node's case by its class.

A tree realises as the pasting context whose cells are its paths, in the
order of its ``PathTable``: ``(0,)``, ``(1,)``, the cells of branch 0,
``(2,)``, the cells of branch 1, and so on, each branch's cells in this
same order below its index.  A cell ``q + (j,)`` above dimension 0 is an
arrow over the type of ``q``, from ``q`` to the sibling that follows ``q``
(its last index plus one), as the table's endpoint column gives it; both
come before it, so every cell's type is written directly over the cells
before it.  This is the context that glues the suspensions of the
children's realisations along their endpoint 0-cells, and trees present
exactly the pasting contexts.  A labelling (an ``LTree`` of terms) keeps
its entries in this order, so it realises as the substitution whose terms
are its entries tuple: nothing is copied.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from . import trees as T
from .trees import LEAF, LTree, MalformedSyntax, Record, Tree, ctx_size


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
        s_src, s_base, s_tgt = self._setters
        s_src(self, src)
        s_base(self, base)
        s_tgt(self, tgt)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (
            (self.src is other.src or self.src == other.src)
            and (self.tgt is other.tgt or self.tgt == other.tgt)
            and (self.base is other.base or self.base == other.base)
        )

    __hash__ = Record.__hash__

    def __repr__(self) -> str:
        return f"({self.src!r} ->[{self.base!r}] {self.tgt!r})"


FlatType = Union[Star, Arrow]
STAR = Star()


class Var(Record):
    """Interned: ``Var(k)`` for an int k >= 0 is ``_VARS[k]``; any other
    index makes a new ``Var``, never one of the list."""

    __slots__ = ("idx",)
    idx: int

    def __new__(cls, idx: int):
        if idx.__class__ is int and 0 <= idx < len(_VARS):
            return _VARS[idx]
        v = object.__new__(cls)
        cls._setters[0](v, idx)
        if idx.__class__ is int and idx >= 0:
            # a new index: the ones below it, then it, join the list
            for k in range(len(_VARS), idx):
                Var(k)
            _VARS.append(v)
        return v

    # __new__ finds or makes the variable
    __init__ = object.__init__

    def __repr__(self) -> str:
        return f"v{self.idx}"


# Var(k) at index k, for every k up to the largest met.
_VARS: list[Var] = []


class Coh(Record):
    __slots__ = ("ctx", "ty", "sub")
    ctx: "FlatCtx"
    ty: FlatType
    sub: "FlatSub"

    def __init__(self, ctx: "FlatCtx", ty: FlatType, sub: "FlatSub"):
        s_ctx, s_ty, s_sub = self._setters
        s_ctx(self, ctx)
        s_ty(self, ty)
        s_sub(self, sub)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (
            (self.ctx is other.ctx or self.ctx == other.ctx)
            and (self.sub is other.sub or self.sub == other.sub)
            and (self.ty is other.ty or self.ty == other.ty)
        )

    __hash__ = Record.__hash__

    def __repr__(self) -> str:
        return f"Coh({self.ty!r})[{self.sub!r}]"


FlatTerm = Union[Var, Coh]


class FlatCtx(Record):
    """A context.  Four slots outside the fields keep facts of it, each
    worked out at its first use: ``_tree``, the tree it presents and
    ``False`` if it is no pasting context (at the first
    ``pasting.ctx_to_tree``, or as ``tree_to_ctx`` builds it), ``_disc``,
    n if it is the disc context D^n and ``False`` if it is no disc (at the
    first ``disc_dim``), ``_susp``, its suspension (at the first
    ``suspend_ctx``), which keeps facts of its own, and ``_id``, its
    identity substitution (at the first ``identity_sub``).  Equality and
    repr see the entries alone."""

    __slots__ = ("entries", "_tree", "_disc", "_susp", "_id")
    _fields = ("entries",)
    entries: tuple[FlatType, ...]

    def __init__(self, entries: tuple[FlatType, ...]):
        s_entries, s_tree, s_disc, s_susp, s_id = self._setters
        s_entries(self, entries)
        s_tree(self, None)
        s_disc(self, None)
        s_susp(self, None)
        s_id(self, None)

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
        s_ty, s_terms = self._setters
        s_ty(self, ty)
        s_terms(self, terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (
            (self.terms is other.terms or self.terms == other.terms)
            and (self.ty is other.ty or self.ty == other.ty)
        )

    __hash__ = Record.__hash__

    def __repr__(self) -> str:
        parts = [repr(self.ty)] + [repr(t) for t in self.terms]
        return "<" + ", ".join(parts) + ">"


EMPTY_CTX = FlatCtx(())


# ---------------------------------------------------------------------------
# dimensions


def dim_ty(a: FlatType) -> int:
    d = 0
    while a.__class__ is Arrow:
        a = a.base
        d += 1
    return d


# ---------------------------------------------------------------------------
# substitution


def substitute(x, sigma: FlatSub):
    """Apply a substitution to a term or type."""
    cls = x.__class__
    if cls is Star or cls is Arrow:
        return _sub_ty(x, sigma)
    return _sub_tm(x, sigma)


def _sub_ty(a: FlatType, sigma: FlatSub) -> FlatType:
    if a.__class__ is Star:
        return sigma.ty
    return Arrow(_sub_tm(a.src, sigma), _sub_ty(a.base, sigma), _sub_tm(a.tgt, sigma))


def _sub_tm(t: FlatTerm, sigma: FlatSub) -> FlatTerm:
    if t.__class__ is Var:
        n = len(sigma.terms)
        if not 0 <= t.idx < n:
            raise MalformedSyntax(f"variable v{t.idx} out of range for substitution of arity {n}")
        return sigma.terms[n - 1 - t.idx]
    if sigma.ty.__class__ is Star:
        # the identity of its context, as flattening makes every head:
        # composing it with sigma gives sigma back
        if t.sub is t.ctx._id and len(sigma.terms) == len(t.sub.terms):
            return Coh(t.ctx, t.ty, sigma)
        return Coh(t.ctx, t.ty, compose(t.sub, sigma))
    # extended substitution: suspend the head and unrestrict the argument;
    # the kept identity suspends to the suspended context's kept identity
    g = suspend_ctx(t.ctx)
    if t.sub is t.ctx._id and len(sigma.terms) == len(t.ctx):
        sub = identity_sub(g)
    else:
        sub = suspend_sub(t.sub, len(sigma.terms))
    return _sub_tm(Coh(g, suspend_ty(t.ty, len(t.ctx)), sub), unrestrict(sigma))


def compose(tau: FlatSub, sigma: FlatSub) -> FlatSub:
    return FlatSub(_sub_ty(tau.ty, sigma), tuple(_sub_tm(t, sigma) for t in tau.terms))


# ---------------------------------------------------------------------------
# suspension

# The ambient length argument n is the length of the context the suspended
# thing lives over; the two new 0-cells get indices n+1 (N) and n (S).


def suspend_ctx(g: FlatCtx) -> FlatCtx:
    """The suspension of g, built once and kept in g."""
    s = g._susp
    if s is None:
        s = FlatCtx(
            (STAR, STAR) + tuple(suspend_ty(e, i) for i, e in enumerate(g.entries))
        )
        object.__setattr__(g, "_susp", s)
    return s


def suspend_ty(a: FlatType, n: int) -> FlatType:
    if a.__class__ is Star:
        return Arrow(Var(n + 1), STAR, Var(n))
    return Arrow(suspend_tm(a.src, n), suspend_ty(a.base, n), suspend_tm(a.tgt, n))


def suspend_tm(t: FlatTerm, n: int) -> FlatTerm:
    if t.__class__ is Var:
        # a variable at n or above would alias a new 0-cell
        if not 0 <= t.idx < n:
            raise MalformedSyntax(f"variable v{t.idx} out of range for a context of length {n}")
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
    if sigma.ty.__class__ is not Arrow:
        raise MalformedSyntax("unrestrict requires an arrow type part")
    a = sigma.ty
    return FlatSub(a.base, (a.src, a.tgt) + sigma.terms)


# ---------------------------------------------------------------------------
# weakening and identities


def weaken(x):
    cls = x.__class__
    if cls is Star or cls is Arrow:
        return _wk_ty(x)
    if cls is Var or cls is Coh:
        return _wk_tm(x)
    return FlatSub(_wk_ty(x.ty), tuple(_wk_tm(t) for t in x.terms))


def _wk_ty(a: FlatType) -> FlatType:
    if a.__class__ is Star:
        return a
    return Arrow(_wk_tm(a.src), _wk_ty(a.base), _wk_tm(a.tgt))


def _wk_tm(t: FlatTerm) -> FlatTerm:
    if t.__class__ is Var:
        return Var(t.idx + 1)
    return Coh(t.ctx, t.ty, weaken(t.sub))


def variables(n: int) -> tuple[Var, ...]:
    """The variables of a context of length n, by position: Var(n - 1) to
    Var(0), each the shared one."""
    if n > len(_VARS):
        Var(n - 1)
    return tuple(reversed(_VARS[:n]))


def identity_sub(g: FlatCtx) -> FlatSub:
    """The identity substitution of g, built once and kept in g."""
    s = g._id
    if s is None:
        s = FlatSub(STAR, variables(len(g)))
        object.__setattr__(g, "_id", s)
    return s


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


def disc_dim(g: FlatCtx) -> int | bool:
    """n if g is the disc context D^n, False if it is no disc; kept in g,
    so each context is compared with a disc once."""
    d = g._disc
    if d is None:
        # D^n ends in an n-cell: tested first, so no other disc is built
        n, d = (len(g) - 1) // 2, False
        if len(g) % 2 == 1 and dim_ty(g.entries[-1]) == n and g == disc_ctx(n):
            d = n
        object.__setattr__(g, "_disc", d)
    return d


def sub_from_sphere(a: FlatType) -> FlatSub:
    """The substitution {A} out of S^dim(A) classifying the type A."""
    if a.__class__ is Star:
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
    if t.__class__ is not Coh:
        return False
    n = disc_dim(t.ctx)
    return n is not False and (t.ty is (ty := _discs(n)[4]) or t.ty == ty)


def is_unary_comp(t: FlatTerm) -> bool:
    """Recognise the unary composite coherence shape syntactically."""
    if t.__class__ is not Coh:
        return False
    n = disc_dim(t.ctx)
    return n is not False and (t.ty is (ty := unary_comp_ty(n)) or t.ty == ty)


# ---------------------------------------------------------------------------
# realisation of trees and labellings


def _cell_type(ends: tuple, j: int, i: int) -> FlatType:
    """The type of the cell at position j over the i cells before it,
    following the endpoints that ends gives each cell."""
    e = ends[j]
    if e is None:
        return STAR
    src, tgt = e
    return Arrow(Var(i - 1 - src), _cell_type(ends, src, i), Var(i - 1 - tgt))


# Bounded like standard_type below: the validation route keeps meeting new
# trees, made by insertion, and each realisation is as large as its tree.
@lru_cache(maxsize=128)
def tree_to_ctx(t: Tree) -> FlatCtx:
    """The pasting context t presents, each cell's type written over the
    cells before it; the context keeps t as the tree it presents."""
    ends = T.path_table(t).ends
    g = FlatCtx(tuple(_cell_type(ends, i, i) for i in range(t._ctx_size)))
    object.__setattr__(g, "_tree", t)
    return g


def label_to_sub(lt: LTree, ty: FlatType = STAR) -> FlatSub:
    """The substitution a labelling of terms realises as, with type part
    ty: its terms are the labelling's entries."""
    return FlatSub(ty, lt.entries)


def boundary_inclusion(t: Tree, n: int, eps: str) -> LTree:
    """The inclusion of the n-boundary of t, with variable entries over the
    realised context."""
    vs = variables(t._ctx_size)
    incl = T.boundary_index(t, n, eps)
    return LTree(T.tree_boundary(t, n), tuple(vs[i] for i in incl))


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


def exterior_label(plan: T.Insertion) -> LTree:
    """The labelling of s over the realisation of the tree r that the
    plan's insertion of t into s at the branch p makes, at the positions of
    the plan: s's cells before its 0-cell k+1 (k = p[0]) are r's first
    variables, that 0-cell is ``join``, and the cells after branch k are
    shifted."""
    s, t = plan.host, plan.inserted
    vs = variables(plan.tree._ctx_size)
    zk, lo, inner = plan.zk, plan.lo, plan.inner
    if inner is None:
        m = s.branches[plan.branch[0]].height + 1
        # t's first 0-cell is at zk, and its other cells from lo - 1 on
        inc = FlatSub(STAR, (vs[zk],) + vs[lo - 1 : lo + t._ctx_size - 2])
        disc = sub_from_disc(
            substitute(standard_type(t, m), inc),
            substitute(standard_coh(t, m), inc),
        )
        mid = disc.terms[2:]
    else:
        # the inner exterior labelling, suspended and included as branch k
        size = inner.tree._ctx_size
        inc = FlatSub(STAR, (vs[zk],) + vs[lo - 1 : lo + size])
        mid = tuple(
            substitute(suspend_tm(e, size), inc) for e in exterior_label(inner).entries
        )
    return LTree(s, vs[: lo - 1] + (vs[plan.join],) + mid + vs[plan.hi + plan.shift :])


# ---------------------------------------------------------------------------
# display (debugging / oracle traces)


def show_tm(t: FlatTerm) -> str:
    if t.__class__ is Var:
        return f"v{t.idx}"
    inner = ", ".join(show_tm(u) for u in t.sub.terms)
    return f"coh[{show_ty(t.ty)}]({inner})"


def show_ty(a: FlatType) -> str:
    if a.__class__ is Star:
        return "*"
    return f"{show_tm(a.src)} -> {show_tm(a.tgt)}"
