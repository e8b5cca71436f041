"""Hypothesis strategies for random well-scoped flat syntax.

Well-scopedness (indices in range, arities matching) is all the syntactic
laws need; well-typedness is not required here and is exercised separately
by the typed-term generator in gen_typed.py.
"""

from __future__ import annotations

from hypothesis import strategies as st

from cattkernel import flat as F
from cattkernel.trees import LEAF, Record, Tree


def types(n: int, depth: int = 2, dim: int = 2) -> st.SearchStrategy:
    if depth == 0 or dim == 0 or n == 0:
        return st.just(F.STAR)
    return st.deferred(
        lambda: st.one_of(
            st.just(F.STAR),
            st.builds(
                F.Arrow,
                terms(n, depth - 1),
                types(n, depth - 1, dim - 1),
                terms(n, depth - 1),
            ),
        )
    )


def terms(n: int, depth: int = 2) -> st.SearchStrategy:
    assert n >= 1
    var = st.integers(min_value=0, max_value=n - 1).map(F.Var)
    if depth == 0:
        return var
    return st.deferred(lambda: st.one_of(var, cohs(n, depth - 1)))


def ctxs(max_len: int = 4, depth: int = 1) -> st.SearchStrategy:
    @st.composite
    def build(draw):
        length = draw(st.integers(min_value=1, max_value=max_len))
        entries = []
        for i in range(length):
            if i == 0:
                entries.append(F.STAR)
            else:
                entries.append(draw(types(i, depth)))
        return F.FlatCtx(tuple(entries))

    return build()


def cohs(n: int, depth: int = 1) -> st.SearchStrategy:
    @st.composite
    def build(draw):
        ctx = draw(ctxs(3, min(depth, 1)))
        ty = draw(types(len(ctx), depth))
        sub = draw(subs(len(ctx), n, depth, extended=False))
        return F.Coh(ctx, ty, sub)

    return build()


def subs(m: int, n: int, depth: int = 1, extended: bool = True) -> st.SearchStrategy:
    """Substitutions with m domain variables and terms over a context of
    length n; optionally with an extended (arrow) type part."""

    @st.composite
    def build(draw):
        if extended and n >= 1 and draw(st.booleans()):
            ty = draw(types(n, depth, dim=1))
        else:
            ty = F.STAR
        ts = tuple(draw(terms(n, depth)) for _ in range(m))
        return F.FlatSub(ty, ts)

    return build()


@st.composite
def ctx_and_term(draw, max_len: int = 4, depth: int = 2):
    ctx = draw(ctxs(max_len))
    return ctx, draw(terms(len(ctx), depth))


@st.composite
def sub_chain(draw, depth: int = 1):
    """A term over Gamma, a sub Gamma -> Delta, and a sub Delta -> Xi."""
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    t = draw(terms(k, depth))
    sigma = draw(subs(k, m, depth))
    tau = draw(subs(m, n, depth, extended=False))
    return t, sigma, tau


def trees(max_leaves: int = 12) -> st.SearchStrategy:
    """Pasting trees, wide and deep: a tree is a list of trees."""
    return st.recursive(
        st.just(LEAF),
        lambda inner: st.lists(inner, max_size=4).map(lambda bs: Tree(tuple(bs))),
        max_leaves=max_leaves,
    )


def flat_values(n: int = 3) -> st.SearchStrategy:
    """Terms and types over a context of length n, and substitutions of
    two terms into it."""
    return st.one_of(terms(n), types(n), subs(2, n))


def fields_key(x):
    """x as nested tuples: a record as its class and the keys of its
    fields, so that comparing keys compares field tuples all the way
    down, with no ``__eq__`` of a record called."""
    if isinstance(x, Record):
        return (type(x).__name__,) + tuple(fields_key(getattr(x, f)) for f in x._fields)
    if isinstance(x, tuple):
        return tuple(fields_key(v) for v in x)
    return x


def change_var(x, k: int):
    """x rebuilt with the k-th variable (in pre-order, context entries
    included) moved up by one index, and the number of variables left to
    pass: k minus the variables of x when x has no k-th."""
    if x.__class__ is F.Var:
        return (F.Var(x.idx + 1), -1) if k == 0 else (x, k - 1)
    if isinstance(x, Record):
        fields = []
        for f in x._fields:
            v, k = change_var(getattr(x, f), k)
            fields.append(v)
        return type(x)(*fields), k
    if isinstance(x, tuple):
        out = []
        for v in x:
            v, k = change_var(v, k)
            out.append(v)
        return tuple(out), k
    return x, k


@st.composite
def with_one_leaf_changed(draw, values: st.SearchStrategy):
    """A value and a copy of it with one variable moved up by one index,
    or the copy unchanged when the value has no variable."""
    x = draw(values)
    k = draw(st.integers(min_value=0, max_value=20))
    y, left = change_var(x, k)
    if left >= 0:  # fewer than k + 1 variables: change the first, if any
        y, _ = change_var(x, 0)
    return x, y
