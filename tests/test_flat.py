"""Substitution calculus, suspension, discs, and supports."""

import pytest
from hypothesis import given, settings

from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import surface as R
from cattkernel.flat import (
    STAR,
    Arrow,
    Coh,
    FlatCtx,
    FlatSub,
    Var,
)
from cattkernel import trees as T
from cattkernel.trees import LEAF, MalformedSyntax, Tree
from cattkernel.typecheck import Checker, Signature

import flat_cases as FC
import specs as SP
import strategies as S


# ---------------------------------------------------------------------------
# substitution application


def test_var_lookup():
    assert F.substitute(Var(0), FlatSub(STAR, (Var(3),))) == Var(3)


def test_star_maps_to_type_part():
    sigma = FlatSub(Arrow(Var(1), STAR, Var(0)), ())
    assert F.substitute(STAR, sigma) == Arrow(Var(1), STAR, Var(0))


def test_extended_sub_suspends_head():
    # applying an extended substitution to a coherence suspends its head
    comp = _one_comp()
    sigma = FlatSub(Arrow(Var(2), STAR, Var(1)), (Var(0),) * 5)
    out = F.substitute(comp, sigma)
    assert isinstance(out, Coh)
    assert out.ctx == F.suspend_ctx(comp.ctx)
    assert out.ty == F.suspend_ty(comp.ty, len(comp.ctx))


def _chain_ctx(k: int) -> FlatCtx:
    """The ps-context of k composable 1-cells."""
    entries = [STAR]
    for i in range(1, k + 1):
        entries.append(STAR)
        entries.append(Arrow(Var(1 if i == 1 else 2), STAR, Var(0)))
    return FlatCtx(tuple(entries))


def _one_comp() -> Coh:
    # binary 1-composition over the 2-chain, with the identity substitution
    ctx = _chain_ctx(2)
    ty = Arrow(Var(4), STAR, Var(1))
    return Coh(ctx, ty, F.identity_sub(ctx))


# ---------------------------------------------------------------------------
# composition


@given(S.subs(3, 2))
def test_compose_right_unit(tau):
    ident = F.identity_sub(FlatCtx((STAR, STAR)))
    assert F.compose(tau, ident) == tau


@given(S.subs(2, 3, extended=False))
def test_compose_left_unit(sigma):
    ident = F.identity_sub(FlatCtx((STAR, STAR)))
    assert F.compose(ident, sigma) == sigma


@given(S.subs(2, 3))
def test_empty_sub_composes_to_type_part(sigma):
    assert F.compose(FlatSub(STAR, ()), sigma) == FlatSub(sigma.ty, ())


@settings(max_examples=200)
@given(S.sub_chain())
def test_substitution_associativity(chain):
    t, sigma, tau = chain
    lhs = F.substitute(F.substitute(t, sigma), tau)
    rhs = F.substitute(t, F.compose(sigma, tau))
    assert lhs == rhs


@given(S.sub_chain())
def test_type_part_of_composite(chain):
    _, sigma, tau = chain
    assert F.compose(sigma, tau).ty == F.substitute(sigma.ty, tau)


# ---------------------------------------------------------------------------
# suspension


def test_suspend_star():
    assert F.suspend_ty(STAR, 0) == Arrow(Var(1), STAR, Var(0))


def test_suspend_disc():
    for n in range(4):
        assert F.suspend_ctx(F.disc_ctx(n)) == F.disc_ctx(n + 1)
        assert F.suspend_ctx(SP.sphere_ctx(n)) == SP.sphere_ctx(n + 1)
        assert F.suspend_ty(SP.sphere_ty(n), 2 * n) == SP.sphere_ty(n + 1)


def test_suspend_one_comp_ctx_is_vertical_comp_ctx():
    # suspending the 1-composition context gives the vertical 2-composition one
    susp = F.suspend_ctx(_chain_ctx(2))
    expect = FlatCtx(
        (
            STAR,
            STAR,
            Arrow(Var(1), STAR, Var(0)),
            Arrow(Var(2), STAR, Var(1)),
            Arrow(Var(1), Arrow(Var(3), STAR, Var(2)), Var(0)),
            Arrow(Var(4), STAR, Var(3)),
            Arrow(Var(2), Arrow(Var(5), STAR, Var(4)), Var(0)),
        )
    )
    assert susp == expect


@settings(max_examples=100)
@given(S.ctx_and_term())
def test_suspension_functorial(ct):
    ctx, t = ct
    n = len(ctx)
    sigma = F.identity_sub(ctx)
    lhs = F.suspend_tm(F.substitute(t, sigma), n)
    rhs = F.substitute(F.suspend_tm(t, n), F.suspend_sub(sigma, n))
    assert lhs == rhs


@settings(max_examples=100)
@given(S.terms(3), S.subs(3, 2, extended=False))
def test_suspension_functorial_random_subs(t, sigma):
    lhs = F.suspend_tm(F.substitute(t, sigma), 2)
    rhs = F.substitute(F.suspend_tm(t, 3), F.suspend_sub(sigma, 2))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# restriction


def test_unrestrict_literal():
    sigma = FlatSub(Arrow(Var(1), STAR, Var(0)), (Var(2),))
    assert F.unrestrict(sigma) == FlatSub(STAR, (Var(1), Var(0), Var(2)))


@given(S.subs(2, 3))
def test_restrict_unrestrict_round_trip(sigma):
    if isinstance(sigma.ty, Arrow):
        assert SP.restrict(F.unrestrict(sigma)) == sigma
    else:
        assert F.unrestrict(SP.restrict(FlatSub(sigma.ty, (Var(0), Var(1)) + sigma.terms))) == FlatSub(
            sigma.ty, (Var(0), Var(1)) + sigma.terms
        )


def test_unrestrict_star_fails():
    try:
        F.unrestrict(FlatSub(STAR, (Var(0),)))
        assert False
    except F.MalformedSyntax:
        pass


# ---------------------------------------------------------------------------
# weakening and identity substitutions


def test_weaken_star():
    assert F.weaken(STAR) == STAR


@settings(max_examples=100)
@given(S.terms(3), S.subs(3, 2, extended=False), S.terms(2))
def test_weakening_then_extend(s, sigma, t):
    extended = FlatSub(sigma.ty, sigma.terms + (t,))
    assert F.substitute(F.weaken(s), extended) == F.substitute(s, sigma)


def test_identity_sub_empty():
    assert F.identity_sub(F.EMPTY_CTX) == FlatSub(STAR, ())


@given(S.ctx_and_term())
def test_identity_sub_is_unit(ct):
    ctx, t = ct
    assert F.substitute(t, F.identity_sub(ctx)) == t


@given(S.subs(3, 2, extended=False))
def test_identity_left_unit(sigma):
    ident = F.identity_sub(FlatCtx((STAR, STAR, STAR)))
    assert F.compose(ident, sigma) == sigma


def test_identity_sub_is_kept_in_its_context():
    ctx = _chain_ctx(2)
    assert F.identity_sub(ctx) is F.identity_sub(ctx)
    assert F.identity_sub(FlatCtx(ctx.entries)) == F.identity_sub(ctx)


@settings(max_examples=60)
@given(S.subs(5, 3, extended=False), S.terms(3))
def test_substituting_into_an_identity_head_skips_composition(sigma, extra):
    # a head over its context's kept identity takes sigma as it is, where
    # composing the identity with sigma gives the same coherence
    comp = _one_comp()
    composed = Coh(comp.ctx, comp.ty, F.compose(comp.sub, sigma))
    compose = F.compose
    try:
        F.compose = None  # the shortcut composes nothing
        out = F.substitute(comp, sigma)
    finally:
        F.compose = compose
    assert out == composed and out.sub is sigma
    # an equal identity that is not the kept one takes the old path
    fresh = Coh(comp.ctx, comp.ty, FlatSub(STAR, comp.sub.terms))
    assert F.substitute(fresh, sigma) == composed
    # a longer sigma composes as before, and a shorter one still fails
    longer = FlatSub(STAR, (extra,) + sigma.terms)
    assert F.substitute(comp, longer) == Coh(
        comp.ctx, comp.ty, F.compose(comp.sub, longer)
    ) == composed
    shorter = FlatSub(STAR, sigma.terms[1:])
    for bad in (comp, fresh):
        with pytest.raises(F.MalformedSyntax):
            F.substitute(bad, shorter)


def count_compose(monkeypatch) -> dict:
    calls = {"compose": 0}
    compose = F.compose

    def counted(tau, sigma):
        calls["compose"] += 1
        return compose(tau, sigma)

    monkeypatch.setattr(F, "compose", counted)
    return calls


@pytest.mark.parametrize(
    "ctx_text, term_text",
    [("x{f{a}g{b}h}y", "comp[a, b]"), ("x{f{a{p}b{q}c}g}y", "comp[p, q]")],
    ids=["once", "twice"],
)
def test_flattening_a_suspended_composite_composes_nothing(
    monkeypatch, ctx_text, term_text
):
    # the head's kept identity suspends to the kept identity of the
    # suspended context, so each level takes the unrestricted substitution
    # as it is; suspending it to a fresh equal substitution composed it
    # with the substitution term by term at the next level
    ck = Checker(Signature(config=N.WEAK))
    ctx = ck.elab_ctx(R.parse_ctx(ctx_text))
    term, _ = ck.check(ctx, R.parse_term(term_text))
    calls = count_compose(monkeypatch)
    out = C.flatten_tm(term, ctx.tree)
    assert calls["compose"] == 0
    monkeypatch.undo()
    # the same coherence as substituting into a head over an equal identity
    # that is not the kept one, which composes
    head = C.flatten_tm(term.term, term.args.data.shape)
    sigma = C.flatten_args(term.args, ctx.tree)
    fresh = Coh(head.ctx, head.ty, FlatSub(STAR, head.sub.terms))
    calls = count_compose(monkeypatch)
    assert F.substitute(fresh, sigma) == out
    assert calls["compose"] > 0
    # a longer sigma composes as before, and an empty one or one a few
    # terms short fails, over either identity
    longer = FlatSub(sigma.ty, (Var(0),) + sigma.terms)
    assert F.substitute(head, longer) == F.substitute(fresh, longer)
    for k in (len(sigma.terms), 2, 1):
        shorter = FlatSub(sigma.ty, sigma.terms[k:])
        for h in (head, fresh):
            with pytest.raises(F.MalformedSyntax):
                F.substitute(h, shorter)


def test_an_extended_substitution_a_few_terms_short_fails():
    # an extended sigma needs a term for each of the head's variables:
    # the suspended head's variables at or above sigma's length would
    # alias the two new 0-cells, so one of 3 or 4 terms over the 5
    # variables of the binary composite went through with no error
    comp = F.standard_coh(Tree((LEAF, LEAF)), 1)
    fresh = Coh(comp.ctx, comp.ty, FlatSub(STAR, comp.sub.terms))
    ty = Arrow(Var(6), STAR, Var(5))
    terms = F.variables(5)
    for h in (comp, fresh):
        for k in range(5):
            with pytest.raises(F.MalformedSyntax, match="out of range"):
                F.substitute(h, FlatSub(ty, terms[:k]))
        F.substitute(h, FlatSub(ty, terms))


@settings(max_examples=100)
@given(S.terms(4), S.subs(4, 3, extended=False))
def test_weaken_commutes_with_substitution(s, sigma):
    assert F.substitute(s, F.weaken(sigma)) == F.weaken(F.substitute(s, sigma))


# ---------------------------------------------------------------------------
# discs and spheres


def test_disc_base_case():
    d, s, u = F.disc_family(0)
    assert d == FlatCtx((STAR,)) and s == F.EMPTY_CTX and u == STAR


def test_disc_dims():
    for n in range(7):
        assert SP.dim_ctx(F.disc_ctx(n)) == n
        assert F.dim_ty(SP.sphere_ty(n)) == n


def test_a_wide_context_is_no_disc_and_builds_none():
    g = F.tree_to_ctx(Tree((LEAF,) * 64))
    before = F._discs.cache_info().currsize
    assert len(g) % 2 == 1 and F.disc_dim(g) is False
    assert F._discs.cache_info().currsize == before


def test_sphere_type_one():
    assert SP.sphere_ty(1) == Arrow(Var(1), STAR, Var(0))


@settings(max_examples=60)
@given(S.ctxs(3), S.types(3, dim=3))
def test_sphere_sub_classifies_type(_, a):
    n = F.dim_ty(a)
    assert F.substitute(SP.sphere_ty(n), F.sub_from_sphere(a)) == a


@settings(max_examples=60)
@given(S.types(2, dim=2), S.terms(2), S.subs(2, 3, extended=False))
def test_disc_sub_naturality(a, t, sigma):
    lhs = F.sub_from_disc(F.substitute(a, sigma), F.substitute(t, sigma))
    rhs = F.compose(F.sub_from_disc(a, t), sigma)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# canonical types


def test_canonical_type_variable():
    d1 = F.disc_ctx(1)
    assert SP.canonical_type(d1, Var(0)) == Arrow(Var(2), STAR, Var(1))


@given(S.types(2, dim=2), S.terms(2))
def test_canonical_type_of_identity(a, t):
    ident = F.canonical_identity(a, t)
    ctx = FlatCtx((STAR, STAR))
    assert SP.canonical_type(ctx, ident) == Arrow(t, a, t)


def test_canonical_type_coherence():
    comp = _one_comp()
    assert SP.canonical_type(comp.ctx, comp) == F.substitute(comp.ty, comp.sub)


def test_identity_recognition():
    ident = F.canonical_identity(STAR, Var(0))
    assert F.is_identity(ident)
    assert not F.is_identity(_one_comp())
    assert not F.is_identity(Var(0))


# ---------------------------------------------------------------------------
# equality and shared variables


def _agrees_with_field_tuples(x, y):
    """x == y is what comparing their field tuples gives, one level down
    and all the way down, and equal values hash equal."""
    want = S.fields_key(x) == S.fields_key(y)
    assert (x == y) is want and (y == x) is want and (x != y) is not want
    if type(x) is type(y):
        assert (x._values(x) == y._values(y)) is want
    if want:
        assert hash(x) == hash(y)


@settings(max_examples=100)
@given(S.with_one_leaf_changed(S.flat_values()))
def test_equality_is_field_tuple_equality(pair):
    # Arrow, Coh and FlatSub write their equality out: it answers as the
    # tuples of their fields would, on a value and its rebuilt copy and on
    # a value and its copy with one variable changed
    x, y = pair
    _agrees_with_field_tuples(x, x)
    # with no k-th variable to change, change_var rebuilds x as it is
    _agrees_with_field_tuples(x, S.change_var(x, -1)[0])
    _agrees_with_field_tuples(x, y)


def _nodes(x):
    """Every record and tuple in x, x first."""
    yield x
    if isinstance(x, T.Record):
        for f in x._fields:
            yield from _nodes(getattr(x, f))
    elif isinstance(x, tuple):
        for v in x:
            yield from _nodes(v)


def test_equality_on_hand_built_terms():
    # every pair of nodes of the hand-built terms: equal exactly when their
    # field tuples are, of one class, and unequal across classes
    ctx, left, right, ternary = FC.assoc_pair()
    g, term, a = FC.pruning_chain()
    every = _nodes((ctx, left, right, ternary, g, term, a))
    nodes = list({id(x): x for x in every if isinstance(x, T.Record)}.values())
    assert {type(x) for x in nodes} >= {Arrow, Coh, FlatSub, FlatCtx, Var, F.Star}
    for x in nodes:
        for y in nodes:
            _agrees_with_field_tuples(x, y)
            if type(x) is not type(y):
                assert x != y and x.__eq__(y) is NotImplemented


def test_variables_are_shared():
    assert F.Var(3) is F.Var(3)
    assert F.variables(5) == tuple(F.Var(k) for k in (4, 3, 2, 1, 0))
    assert all(v is F.Var(v.idx) for v in F.variables(5))
    # an index past every variable built so far grows the list
    k = len(F._VARS) + 7
    assert F.Var(k) is F.Var(k) is F._VARS[k] and F.Var(k).idx == k


def test_indices_outside_the_shared_variables():
    # a negative index makes a new variable, as any record is made: it
    # never reads the end of the shared list
    F.variables(3)
    x = F.Var(-1)
    assert x.idx == -1 and x is not F.Var(-1) and x == F.Var(-1)
    assert hash(x) == hash(F.Var(-1)) and repr(x) == "v-1"
    assert all(x is not v and x != v for v in F._VARS)
    with pytest.raises(MalformedSyntax):
        F.substitute(x, FlatSub(STAR, (Var(0),)))


# ---------------------------------------------------------------------------
# supports


def test_dc_empty():
    g = F.disc_ctx(2)
    assert SP.downward_close(g, SP.VarSet.empty(len(g))) == SP.VarSet.empty(len(g))


def test_support_of_disc_boundary():
    for n in range(3):
        d_next = F.disc_ctx(n + 1)
        # d_n^- is the entry at position 2n, i.e. index 2 from the end
        supp = SP.support(d_next, Var(2))
        assert supp == SP.VarSet.of(len(d_next), range(2 * n + 1))


def test_fv_of_sphere_type():
    for n in range(1, 4):
        fv = SP.free_vars(SP.sphere_ty(n), 2 * n)
        assert fv == SP.VarSet.full(2 * n)


def test_apply_set_empty():
    sigma = FlatSub(STAR, (Var(0), Var(1)))
    assert SP.apply_set(SP.VarSet.empty(2), sigma, 2) == SP.VarSet.empty(2)


@given(S.subs(3, 2, extended=False))
def test_apply_full_set_is_fv(sigma):
    assert SP.apply_set(SP.VarSet.full(3), sigma, 2) == SP.free_vars(
        FlatSub(STAR, sigma.terms), 2
    )


@settings(max_examples=100)
@given(S.sub_chain())
def test_apply_set_composes(chain):
    _, sigma, tau = chain
    if not isinstance(sigma.ty, F.Star):
        return
    m, n = len(sigma.terms), 3
    v = SP.VarSet.of(m, range(0, m, 2))
    lhs = SP.apply_set(v, F.compose(sigma, tau), n)
    rhs = SP.apply_set(SP.apply_set(v, sigma, len(tau.terms) or 1), tau, n)
    assert lhs == rhs


def test_dc_idempotent_and_monotone():
    g = F.disc_ctx(3)
    n = len(g)
    for v in [SP.VarSet.of(n, [6]), SP.VarSet.of(n, [4, 5]), SP.VarSet.full(n)]:
        dc = SP.downward_close(g, v)
        assert SP.downward_close(g, dc) == dc
        assert all(b or not a for a, b in zip(v.members, dc.members))
    a, b = SP.VarSet.of(n, [6]), SP.VarSet.of(n, [5])
    assert SP.downward_close(g, a.union(b)) == SP.downward_close(g, a).union(
        SP.downward_close(g, b)
    )


@settings(max_examples=60)
@given(S.ctx_and_term())
def test_support_of_suspension(ct):
    ctx, t = ct
    n = len(ctx)
    supp = SP.support(ctx, t)
    susp_supp = SP.support(F.suspend_ctx(ctx), F.suspend_tm(t, n))
    assert susp_supp == SP.VarSet((True, True) + supp.members)
