"""Pasting contexts: recognition and peaks on the trees that present them,
and the oracle's pruning, checked against the Dyck-word reference of
``specs``, and boundary sets."""

import itertools

import pytest
from hypothesis import given, settings

from cattkernel import flat as F
from cattkernel import pasting as P
from cattkernel import trees as T
from cattkernel.flat import STAR, Arrow, Coh, FlatCtx, FlatSub, Var
from cattkernel.trees import LEAF, Tree

import specs as SP
import strategies as S
from flat_cases import check_prunes_commute, head_prunes
from specs import DOWN, UP, DyckWord


def chain_ctx(k: int) -> FlatCtx:
    entries = [STAR]
    for i in range(1, k + 1):
        entries.append(STAR)
        entries.append(Arrow(Var(1 if i == 1 else 2), STAR, Var(0)))
    return FlatCtx(tuple(entries))


def all_dyck_words(max_len: int, trailing_zero: bool = False):
    for length in range(0, max_len + 1):
        for moves in itertools.product((UP, DOWN), repeat=length):
            depth = 0
            ok = True
            for m in moves:
                depth += 1 if m == UP else -1
                if depth < 0:
                    ok = False
                    break
            if ok and (not trailing_zero or depth == 0):
                yield DyckWord(moves)


def all_trees(max_edges: int) -> list[Tree]:
    """Every tree with at most max_edges edges: a tree with n edges is a
    first branch with k edges and the rest of the tree, with n - 1 - k."""
    by_edges = [[LEAF]]
    for n in range(1, max_edges + 1):
        by_edges.append(
            [
                Tree((b,) + rest.branches)
                for k in range(n)
                for b in by_edges[k]
                for rest in by_edges[n - 1 - k]
            ]
        )
    return [t for ts in by_edges for t in ts]


def peaks(t: Tree) -> tuple[int, ...]:
    """The positions of the peaks of t: its maximal paths, unless t is the
    leaf, whose one cell is a point."""
    return T.path_table(t).maximal if t.branches else ()


# ---------------------------------------------------------------------------
# ps-context recognition


def test_chain_is_ps():
    assert SP.check_ps(chain_ctx(2))


def test_point_is_ps():
    assert SP.check_ps(FlatCtx((STAR,)))


def test_reordered_context_is_not_ps():
    # all 0-cells first, then the 1-cells: not a ps-context
    g = FlatCtx(
        (
            STAR,
            STAR,
            STAR,
            Arrow(Var(2), STAR, Var(1)),
            Arrow(Var(2), STAR, Var(1)),
        )
    )
    ok, pos = SP.check_ps_detail(g)
    assert not ok and pos is not None


def test_discs_are_ps():
    for n in range(5):
        assert SP.check_ps(F.disc_ctx(n))
        assert not SP.check_ps(SP.sphere_ctx(n + 1))


# ---------------------------------------------------------------------------
# realisation


def test_realise_empty_word():
    ctx, ty, tm = SP.dyck_realise(DyckWord(()))
    assert ctx == FlatCtx((STAR,)) and ty == STAR and tm == Var(0)
    assert SP.tree_to_dyck(LEAF) == DyckWord(()) and F.tree_to_ctx(LEAF) == ctx
    with pytest.raises(F.MalformedSyntax):
        DyckWord((DOWN, UP))


EXAMPLE_WORD = DyckWord((UP, UP, DOWN, UP, DOWN, DOWN, UP, DOWN))
EXAMPLE_TREE = Tree((Tree((LEAF, LEAF)), LEAF))


def test_realise_example_word():
    ctx, ty, tm = SP.dyck_realise(EXAMPLE_WORD)
    assert len(ctx) == 9
    assert SP.check_ps(ctx)
    assert ty == STAR
    # dims of entries: x y f a? ... the word UUDUDDUD gives dims 0,0,1,1,2,1,2,0,1
    assert [F.dim_ty(e) for e in ctx.entries] == [0, 0, 1, 1, 2, 1, 2, 0, 1]
    assert SP.tree_to_dyck(EXAMPLE_TREE) == EXAMPLE_WORD
    assert F.tree_to_ctx(EXAMPLE_TREE) == ctx


def test_realise_disc_word():
    for n in range(5):
        ctx, ty, tm = SP.dyck_realise(SP.disc_word(n))
        assert ctx == F.disc_ctx(n)
        assert SP.tree_to_dyck(T.linear_tree(n)) == SP.disc_word(n)


def test_ctx_to_dyck_round_trip():
    # recognition reads back the tree whose word realises the context
    for d in all_dyck_words(8, trailing_zero=True):
        ctx, _, _ = SP.dyck_realise(d)
        assert SP.check_ps(ctx)
        t = P.ctx_to_tree(ctx)
        assert SP.tree_to_dyck(t) == d and F.tree_to_ctx(t) == ctx


def test_ctx_to_dyck_rejects_non_ps():
    g = FlatCtx(SP.sphere_ctx(1).entries)
    assert P.ctx_to_tree(g) is None and g._tree is False
    assert P.ctx_to_tree(g) is None


# ---------------------------------------------------------------------------
# peaks


def locally_maximal_positions(ctx: FlatCtx) -> set[int]:
    n = len(ctx)
    used = set()
    for i, e in enumerate(ctx.entries):
        for p in SP.free_vars(e, i).positions():
            used.add(p)
    return {i for i in range(n) if i not in used}


def test_example_word_has_three_peaks():
    pks = SP.peaks(EXAMPLE_WORD)
    assert len(pks) == 3
    ctx, _, _ = SP.dyck_realise(EXAMPLE_WORD)
    positions = [SP.peak_pos(EXAMPLE_WORD, p) for p in pks]
    assert set(positions) == locally_maximal_positions(ctx)
    assert list(peaks(EXAMPLE_TREE)) == positions


def test_empty_word_has_no_peaks():
    assert SP.peaks(DyckWord(())) == []
    # the leaf's one maximal path is a point, not a peak
    assert peaks(LEAF) == ()


def test_disc_word_peak():
    for n in range(1, 5):
        pks = SP.peaks(SP.disc_word(n))
        assert len(pks) == 1
        # the peak is the last cell, Var(0)
        assert SP.peak_pos(SP.disc_word(n), pks[0]) == 2 * n
        assert peaks(T.linear_tree(n)) == (2 * n,)


def test_peaks_are_locally_maximal_everywhere():
    for t in all_trees(4):
        if t is LEAF:
            continue  # (x : *) has x locally maximal with no peak
        ctx = F.tree_to_ctx(t)
        assert set(peaks(t)) == locally_maximal_positions(ctx)
        d = SP.tree_to_dyck(t)
        assert [SP.peak_pos(d, p) for p in SP.peaks(d)] == list(peaks(t))


# ---------------------------------------------------------------------------
# pruning: the oracle's prune step against the Dyck-word reference

CHAIN2 = Tree((LEAF, LEAF))


def test_prune_example():
    # the second 1-cell of x -> y -> z, at position 4
    d2, pi = SP.prune(DyckWord((UP, DOWN, UP, DOWN)), 2)
    assert d2 == DyckWord((UP, DOWN))
    # <a, b, c, b, id(*, b)> with (a, b, c) = (v2, v1, v0) in the codomain
    assert pi == FlatSub(
        STAR, (Var(2), Var(1), Var(0), Var(1), F.canonical_identity(STAR, Var(1)))
    )
    # a binary composite whose second argument is an identity prunes to
    # the unary composite over the disc, along the reference's projection
    a = F.standard_type(CHAIN2, 1)
    sigma = FlatSub(STAR, (Var(0), Var(0), Var(1), Var(0), F.canonical_identity(STAR, Var(0))))
    st = head_prunes(Coh(F.tree_to_ctx(CHAIN2), a, sigma))[4]
    assert st.where == ("head", (1, 0))
    assert st.term == Coh(
        F.tree_to_ctx(Tree((LEAF,))), F.substitute(a, pi), FlatSub(STAR, (Var(0), Var(0), Var(1)))
    )


def test_prune_disc_word():
    for n in range(1, 5):
        d2, pi = SP.prune(SP.disc_word(n), n - 1)
        assert SP.dyck_realise(d2)[0] == F.disc_ctx(n - 1)
        t = T.linear_tree(n)
        st = head_prunes(Coh(F.tree_to_ctx(t), F.standard_type(t, n), pi))[2 * n]
        assert st.term.ctx == F.disc_ctx(n - 1)


@settings(max_examples=40)
@given(S.types(2, dim=1), S.terms(2))
def test_prune_disc_sub(a, t):
    n = F.dim_ty(a) + 1
    sigma = F.sub_from_disc(Arrow(t, a, t), F.canonical_identity(a, t))
    head = Coh(F.disc_ctx(n), F.unary_comp_ty(n), sigma)
    assert head_prunes(head)[2 * n].term.sub == F.sub_from_disc(a, t)
    assert SP.prune_terms(sigma, SP.disc_word(n), n - 1) == F.sub_from_disc(a, t)


def test_pruning_projection_compatible_with_realisation():
    # Ty_D[pi] == Ty_{D//p} and Tm_D[pi] == Tm_{D//p}, for the reference
    for d in all_dyck_words(10):
        _, ty, tm = SP.dyck_realise(d)
        for p in SP.peaks(d):
            d2, pi = SP.prune(d, p)
            _, ty2, tm2 = SP.dyck_realise(d2)
            assert F.substitute(ty, pi) == ty2
            assert F.substitute(tm, pi) == tm2
    # on trees: the projection is a substitution into the pruned context,
    # each cell's term typed by the cell's type pulled back along it
    for t in all_trees(5):
        g = F.tree_to_ctx(t)
        d = SP.tree_to_dyck(t)
        for p in SP.peaks(d):
            d2, pi = SP.prune(d, p)
            g2 = SP.dyck_realise(d2)[0]
            for k, term in enumerate(pi.terms):
                want = F.substitute(SP.canonical_type(g, Var(len(g) - 1 - k)), pi)
                assert SP.canonical_type(g2, term) == want


def test_only_a_peak_is_taken():
    # with an identity at every position, the oracle prunes at the peaks
    # alone; EXAMPLE_TREE ends in a leaf, so a search that indexed the
    # positions from the end would also take position -1.  The identity at
    # k is on the cell before it, so at a peak it is on the peak's target
    g = F.tree_to_ctx(EXAMPLE_TREE)
    positions = set(peaks(EXAMPLE_TREE))
    assert positions == {4, 6, 8}
    cells = F.variables(len(g))
    idents = tuple(
        F.canonical_identity(SP.canonical_type(g, v), v) for v in cells[:1] + cells[:-1]
    )
    t = Coh(g, F.standard_type(EXAMPLE_TREE, 2), FlatSub(STAR, idents))
    assert set(head_prunes(t)) == positions
    for p in range(-len(EXAMPLE_WORD.moves) - 2, len(EXAMPLE_WORD.moves) + 2):
        if p not in (1, 3, 6):
            with pytest.raises(F.MalformedSyntax, match="not a peak"):
                SP.prune(EXAMPLE_WORD, p)
    # a context that is no pasting context has no peak
    g3 = FlatCtx((STAR, STAR, STAR))
    assert head_prunes(Coh(g3, Arrow(Var(2), STAR, Var(1)), FlatSub(STAR, idents[:3]))) == {}


@settings(max_examples=60)
@given(S.subs(5, 3, extended=False), S.subs(3, 2, extended=False))
def test_prune_sub_commutes_with_composition(sigma, tau):
    # pruning then substituting reaches what substituting then pruning
    # reaches: a substitution keeps an identity an identity
    g = F.tree_to_ctx(CHAIN2)
    a = F.standard_type(CHAIN2, 1)
    for i in peaks(CHAIN2):
        ident = F.canonical_identity(STAR, sigma.terms[i - 1])
        terms = sigma.terms[:i] + (ident,) + sigma.terms[i + 1 :]
        t = Coh(g, a, FlatSub(STAR, terms))
        lhs = F.substitute(head_prunes(t)[i].term, tau)
        rhs = head_prunes(F.substitute(t, tau))[i].term
        assert lhs == rhs


def test_pruning_commutes():
    for t in all_trees(5):
        check_prunes_commute(t)


def test_peak_table_and_pruned_contexts_agree_with_pruning():
    # every tree with at most 6 edges and every peak, against the Dyck-word
    # reference: its peaks in order, and the oracle's prune step over the
    # head whose substitution is the reference's projection pi.  pi puts an
    # identity at the peak, so the step reaches the head over the pruned
    # word's realisation, its type pulled back along pi, and the terms that
    # pruning keeps are the pruned context's variables
    for t in all_trees(6):
        if not t.branches:
            continue
        g = F.tree_to_ctx(t)
        a = F.standard_type(t, t.height)
        d = SP.tree_to_dyck(t)
        assert [SP.peak_pos(d, p) for p in SP.peaks(d)] == list(peaks(t))
        for p, i in zip(SP.peaks(d), peaks(t)):
            d2, pi = SP.prune(d, p)
            g2 = SP.dyck_realise(d2)[0]
            st = head_prunes(Coh(g, a, pi))[i]
            assert st.term == Coh(g2, F.substitute(a, pi), F.identity_sub(g2))
            assert st.term.sub == SP.prune_terms(pi, d, p)
            # the context is the shared realisation of its tree, which it
            # keeps
            r = P.ctx_to_tree(st.term.ctx)
            assert st.term.ctx is F.tree_to_ctx(r) and SP.tree_to_dyck(r) == d2


def test_projection_support_is_full():
    for t in all_trees(4):
        d = SP.tree_to_dyck(t)
        for p in SP.peaks(d):
            d2, pi = SP.prune(d, p)
            n2 = len(SP.dyck_realise(d2)[0])
            assert SP.free_vars(pi, n2) == SP.VarSet.full(n2)


# ---------------------------------------------------------------------------
# boundary sets


def example_237_ctx() -> FlatCtx:
    # (x, y, f : x -> y, z, g : y -> z, h : y -> z, alpha : g -> h)
    return FlatCtx(
        (
            STAR,
            STAR,
            Arrow(Var(1), STAR, Var(0)),
            STAR,
            Arrow(Var(2), STAR, Var(0)),
            Arrow(Var(3), STAR, Var(1)),
            Arrow(Var(1), Arrow(Var(4), STAR, Var(2)), Var(0)),
        )
    )


def test_example_boundaries():
    g = example_237_ctx()
    assert SP.check_ps(g)
    assert SP.boundary_set(g, 1, "-") == SP.VarSet.of(7, [0, 1, 2, 3, 4])
    assert SP.boundary_set(g, 1, "+") == SP.VarSet.of(7, [0, 1, 2, 3, 5])
    assert SP.boundary_set(g, 0, "-") == SP.VarSet.of(7, [0])
    assert SP.boundary_set(g, 0, "+") == SP.VarSet.of(7, [3])


def test_boundary_full_at_high_dim():
    g = example_237_ctx()
    for n in range(2, 5):
        for eps in ("-", "+"):
            assert SP.boundary_set(g, n, eps) == SP.VarSet.full(7)


def test_boundary_suspension():
    for t in all_trees(3):
        g = F.tree_to_ctx(t)
        sg = F.suspend_ctx(g)
        for n in range(0, 3):
            for eps in ("-", "+"):
                b = SP.boundary_set(g, n, eps)
                assert SP.boundary_set(sg, n + 1, eps) == SP.VarSet(
                    (True, True) + b.members
                )


def test_boundary_requires_ps():
    with pytest.raises(F.MalformedSyntax):
        SP.boundary_set(SP.sphere_ctx(1), 0, "-")
