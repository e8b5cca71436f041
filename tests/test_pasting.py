"""Ps-contexts, Dyck words, pruning, boundary sets."""

import itertools

import pytest
from hypothesis import given, settings

from cattkernel import flat as F
from cattkernel import pasting as P
from cattkernel.flat import STAR, Arrow, FlatCtx, FlatSub, Var
from cattkernel.pasting import DOWN, UP, DyckWord, Peak

import specs as SP
import strategies as S


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
    ctx, ty, tm = P.dyck_realise(DyckWord(()))
    assert ctx == FlatCtx((STAR,)) and ty == STAR and tm == Var(0)


EXAMPLE_WORD = DyckWord((UP, UP, DOWN, UP, DOWN, DOWN, UP, DOWN))


def test_realise_example_word():
    ctx, ty, tm = P.dyck_realise(EXAMPLE_WORD)
    assert len(ctx) == 9
    assert SP.check_ps(ctx)
    assert ty == STAR
    # dims of entries: x y f a? ... the word UUDUDDUD gives dims 0,0,1,1,2,1,2,0,1
    assert [F.dim_ty(e) for e in ctx.entries] == [0, 0, 1, 1, 2, 1, 2, 0, 1]


def test_realise_disc_word():
    for n in range(5):
        ctx, ty, tm = P.dyck_realise(SP.disc_word(n))
        assert ctx == F.disc_ctx(n)


def test_ctx_to_dyck_round_trip():
    for d in all_dyck_words(8, trailing_zero=True):
        ctx, _, _ = P.dyck_realise(d)
        assert SP.check_ps(ctx)
        assert P.ctx_to_dyck(ctx) == d


def test_ctx_to_dyck_rejects_non_ps():
    assert P.ctx_to_dyck(SP.sphere_ctx(1)) is None


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
    pks = P.peaks(EXAMPLE_WORD)
    assert len(pks) == 3
    ctx, _, _ = P.dyck_realise(EXAMPLE_WORD)
    positions = {len(ctx) - 1 - P.peak_var(EXAMPLE_WORD, p).idx for p in pks}
    assert positions == locally_maximal_positions(ctx)


def test_empty_word_has_no_peaks():
    assert P.peaks(DyckWord(())) == []


def test_disc_word_peak():
    for n in range(1, 5):
        pks = P.peaks(SP.disc_word(n))
        assert len(pks) == 1
        assert P.peak_var(SP.disc_word(n), pks[0]) == Var(0)


def test_peaks_are_locally_maximal_everywhere():
    for d in all_dyck_words(8, trailing_zero=True):
        if not d.moves:
            continue  # (x : *) has x locally maximal with no peak
        ctx, _, _ = P.dyck_realise(d)
        positions = {len(ctx) - 1 - P.peak_var(d, p).idx for p in P.peaks(d)}
        assert positions == locally_maximal_positions(ctx)


# ---------------------------------------------------------------------------
# pruning


def test_prune_example():
    d = DyckWord((UP, DOWN, UP, DOWN))
    p = P.peaks(d)[1]
    d2, pi = P.prune(d, p)
    assert d2 == DyckWord((UP, DOWN))
    # <a, b, c, b, id(*, b)> with (a, b, c) = (v2, v1, v0) in the codomain
    assert pi == FlatSub(
        STAR, (Var(2), Var(1), Var(0), Var(1), F.canonical_identity(STAR, Var(1)))
    )
    sigma = FlatSub(STAR, (Var(0), Var(0), Var(1), Var(0), F.canonical_identity(STAR, Var(0))))
    assert P.prune_sub(sigma, d, p) == FlatSub(STAR, (Var(0), Var(0), Var(1)))


def test_prune_disc_word():
    for n in range(1, 5):
        d2, _ = P.prune(SP.disc_word(n), P.peaks(SP.disc_word(n))[0])
        ctx, _, _ = P.dyck_realise(d2)
        assert ctx == F.disc_ctx(n - 1)


@settings(max_examples=40)
@given(S.types(2, dim=1), S.terms(2), S.terms(2))
def test_prune_disc_sub(a, t, u):
    n = F.dim_ty(a) + 1
    d = SP.disc_word(n)
    p = P.peaks(d)[0]
    sigma = F.sub_from_disc(Arrow(t, a, t), u)
    assert P.prune_sub(sigma, d, p) == F.sub_from_disc(a, t)


def test_pruning_projection_compatible_with_realisation():
    # Ty_D[pi] == Ty_{D//p} and Tm_D[pi] == Tm_{D//p}
    for d in all_dyck_words(10):
        _, ty, tm = P.dyck_realise(d)
        for p in P.peaks(d):
            d2, pi = P.prune(d, p)
            _, ty2, tm2 = P.dyck_realise(d2)
            assert F.substitute(ty, pi) == ty2
            assert F.substitute(tm, pi) == tm2


def test_only_a_peak_is_taken():
    # EXAMPLE_WORD ends in an up and a down move, so Peak(-2) would pass a
    # check that indexed the moves from the end
    d = EXAMPLE_WORD
    peak_positions = {p.pos for p in P.peaks(d)}
    assert peak_positions == {1, 3, 6}
    n = len(d.moves)
    for pos in range(-n - 2, n + 2):
        if pos in peak_positions:
            P.peak_var(d, Peak(pos))
            P.prune(d, Peak(pos))
            continue
        for op in (P.peak_var, P.prune):
            with pytest.raises(F.MalformedSyntax, match="not a peak"):
                op(d, Peak(pos))


@settings(max_examples=60)
@given(S.subs(5, 3, extended=False), S.subs(3, 2, extended=False))
def test_prune_sub_commutes_with_composition(sigma, tau):
    d = DyckWord((UP, DOWN, UP, DOWN))
    for p in P.peaks(d):
        lhs = F.compose(P.prune_sub(sigma, d, p), tau)
        rhs = P.prune_sub(F.compose(sigma, tau), d, p)
        assert lhs == rhs


def shifted_peak(q: Peak, p: Peak) -> Peak:
    return Peak(q.pos - 2) if q.pos > p.pos else q


def test_pruning_commutes():
    for d in all_dyck_words(10):
        pks = P.peaks(d)
        n = 1 + 2 * sum(1 for m in d.moves if m == UP)
        sigma = FlatSub(STAR, tuple(Var(i % 2) for i in range(n)))
        for p, q in itertools.combinations(pks, 2):
            d_p, pi_p = P.prune(d, p)
            d_q, pi_q = P.prune(d, q)
            q_p = shifted_peak(q, p)
            p_q = shifted_peak(p, q)
            d_pq, pi_qp = P.prune(d_p, q_p)
            d_qp, pi_pq = P.prune(d_q, p_q)
            assert d_pq == d_qp
            assert F.compose(pi_p, pi_qp) == F.compose(pi_q, pi_pq)
            assert P.prune_sub(P.prune_sub(sigma, d, p), d_p, q_p) == P.prune_sub(
                P.prune_sub(sigma, d, q), d_q, p_q
            )


def test_peak_table_and_pruned_contexts_agree_with_pruning():
    # every tree with at most 5 edges, by its Dyck word
    for d in all_dyck_words(10, trailing_zero=True):
        ctx = P.dyck_realise(d)[0]
        table = P.peak_table(d)
        assert P.peak_table(d) is table
        assert [p for p, _ in table] == P.peaks(d)
        for p, pos in table:
            assert pos == len(ctx) - 1 - P.peak_var(d, p).idx
            g, proj = P.pruned(d, p)
            assert P.pruned(d, p) == (g, proj) and P.pruned(d, p)[0] is g
            d2, pi = P.prune(d, p)
            assert g == P.dyck_realise(d2)[0] and proj == pi
            # the context is the shared realisation of its tree, and it
            # keeps the word and the tree it presents
            assert g is F.tree_to_ctx(P.dyck_to_tree(d2))
            assert P.ctx_to_dyck(g) == d2 and P.ctx_to_tree(g) == P.dyck_to_tree(d2)


def test_projection_support_is_full():
    for d in all_dyck_words(8):
        for p in P.peaks(d):
            d2, pi = P.prune(d, p)
            ctx2, _, _ = P.dyck_realise(d2)
            assert SP.free_vars(pi, len(ctx2)) == SP.VarSet.full(len(ctx2))


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
    for d in all_dyck_words(6, trailing_zero=True):
        g, _, _ = P.dyck_realise(d)
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
