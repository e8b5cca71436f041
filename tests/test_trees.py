"""Trees, wedges, labellings, tree boundaries, standard coherences, and
insertion."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings

from cattkernel import flat as F
from cattkernel import pasting as P
from cattkernel import trees as T
from cattkernel.flat import STAR, Arrow, FlatCtx, FlatSub, Var, VarSet
from cattkernel.nbe import NVar
from cattkernel.trees import LEAF, LTree, Labelling, Tree
from cattkernel.typecheck import Checker, Signature

import strategies as S
from flat_cases import make_ctx


def nodes(t: Tree) -> int:
    return 1 + sum(nodes(b) for b in t.branches)


def all_trees(max_nodes: int):
    """All trees with at most max_nodes nodes; a tree with n nodes is a
    first child with k nodes plus a remainder tree with n - k nodes."""

    def gen(n: int):
        if n == 1:
            yield LEAF
            return
        for k in range(1, n):
            for child in gen(k):
                for rest in gen(n - k):
                    yield Tree((child,) + rest.branches)

    seen = set()
    for n in range(1, max_nodes + 1):
        for t in gen(n):
            if t not in seen:
                seen.add(t)
                yield t


def insertion_points(max_nodes: int):
    ts = list(all_trees(max_nodes))
    for s in ts:
        for p in T.all_branches(s):
            for t in ts:
                if T.is_insertion_point(s, p, t):
                    yield s, p, t


def chain_ctx(k: int) -> FlatCtx:
    entries = [STAR]
    for i in range(1, k + 1):
        entries.append(STAR)
        entries.append(Arrow(Var(1 if i == 1 else 2), STAR, Var(0)))
    return FlatCtx(tuple(entries))


CHAIN2_TREE = Tree((LEAF, LEAF))
EXAMPLE_TREE = Tree((Tree((LEAF, LEAF)), LEAF))


# ---------------------------------------------------------------------------
# realisation


def test_leaf_realises_to_point():
    assert T.tree_to_ctx(LEAF) == FlatCtx((STAR,))


def test_linear_trees_realise_to_discs():
    for n in range(5):
        assert T.tree_to_ctx(T.linear_tree(n)) == F.disc_ctx(n)


def test_chain_tree():
    assert T.tree_to_ctx(CHAIN2_TREE) == chain_ctx(2)


def test_example_tree_realisation():
    g = T.tree_to_ctx(EXAMPLE_TREE)
    assert len(g) == 9
    assert P.check_ps(g)
    assert F.dim_ctx(g) == EXAMPLE_TREE.height == 2


def test_realisation_is_ps_and_dim_matches():
    for t in all_trees(6):
        g = T.tree_to_ctx(t)
        assert P.check_ps(g)
        assert F.dim_ctx(g) == t.height
        assert len(g) == T.ctx_size(t)


def test_suspension_commutes_with_realisation():
    for t in all_trees(6):
        assert T.tree_to_ctx(T.suspend_tree(t)) == F.suspend_ctx(T.tree_to_ctx(t))


def test_concat_realises_to_wedge():
    for s in all_trees(4):
        for t in all_trees(4):
            lhs = T.tree_to_ctx(Tree(s.branches + t.branches))
            rhs, _, _ = T.wedge(T.tree_to_ctx(s), T.tree_to_ctx(t))
            assert lhs == rhs


def test_tree_dyck_ctx_round_trips():
    for t in all_trees(7):
        d = T.tree_to_dyck(t)
        assert T.dyck_to_tree(d) == t
        assert P.dyck_realise(d)[0] == T.tree_to_ctx(t)
        assert T.ctx_to_tree(T.tree_to_ctx(t)) == t


def test_ctx_to_tree_rejects_non_ps():
    assert T.ctx_to_tree(F.sphere_ctx(1)) is None


def test_stored_metadata_matches_recursive_definitions():
    def height(t):
        return max((height(b) + 1 for b in t.branches), default=0)

    def trunk_height(t):
        return 1 + trunk_height(t.branches[0]) if len(t.branches) == 1 else 0

    def ctx_size(t):
        return 1 + sum(ctx_size(b) + 1 for b in t.branches)

    def rebuild(t):
        return Tree(tuple(rebuild(b) for b in t.branches))

    assert [f.name for f in dataclasses.fields(Tree)] == ["branches"]
    for t in all_trees(6):
        assert t.height == height(t)
        assert t.trunk_height == trunk_height(t)
        assert T.ctx_size(t) == ctx_size(t)
        assert t.is_linear == (height(t) == trunk_height(t))
        u = rebuild(t)
        assert u is not t
        assert u == t and hash(u) == hash(t) and repr(u) == repr(t)


# ---------------------------------------------------------------------------
# paths


def test_leaf_path():
    assert T.path_var(LEAF, (0,)) == Var(0)


def test_maximal_path_of_disc():
    for n in range(5):
        assert T.path_var(T.linear_tree(n), T.max_path(n)) == Var(0)


def test_chain_zero_cells():
    # x, y, z at positions 0, 1, 3 of the realised context
    assert T.path_var(CHAIN2_TREE, (0,)) == Var(4)
    assert T.path_var(CHAIN2_TREE, (1,)) == Var(3)
    assert T.path_var(CHAIN2_TREE, (2,)) == Var(1)


def test_path_dim():
    for t in all_trees(6):
        g = T.tree_to_ctx(t)
        for p in T.all_paths(t):
            v = T.path_var(t, p)
            assert F.dim_ty(g.entries[len(g) - 1 - v.idx]) == len(p) - 1


def test_paths_enumerate_all_variables():
    for t in all_trees(6):
        g = T.tree_to_ctx(t)
        positions = {T.path_pos(t, p) for p in T.all_paths(t)}
        assert positions == set(range(len(g)))


def test_maximal_paths_are_locally_maximal():
    for t in all_trees(6):
        g = T.tree_to_ctx(t)
        used = set()
        for i, e in enumerate(g.entries):
            used.update(F.free_vars(e, i).positions())
        loc_max = {i for i in range(len(g)) if i not in used}
        assert {T.path_pos(t, p) for p in T.maximal_paths(t)} == loc_max


def test_invalid_path_rejected():
    with pytest.raises(F.MalformedSyntax):
        T.path_var(LEAF, (1, 0))


# ---------------------------------------------------------------------------
# wedges


def test_wedge_unit():
    g = chain_ctx(2)
    w, inl, inr = T.wedge(g, FlatCtx((STAR,)))
    assert w == g
    assert inl == F.identity_sub(g)
    assert inr == FlatSub(STAR, (Var(1),))


def test_disc_wedge_is_chain():
    w, _, _ = T.wedge(F.disc_ctx(1), F.disc_ctx(1))
    assert w == chain_ctx(2)


def test_inl_wedge_inr_is_identity():
    for s in all_trees(4):
        for t in all_trees(4):
            w, inl, inr = T.wedge(T.tree_to_ctx(s), T.tree_to_ctx(t))
            assert T.from_wedge(inl, inr) == F.identity_sub(w)


def test_wedge_associativity():
    for a, b, c in itertools.product(list(all_trees(3)), repeat=3):
        ga, gb, gc = (T.tree_to_ctx(x) for x in (a, b, c))
        left, _, _ = T.wedge(T.wedge(ga, gb)[0], gc)
        right, _, _ = T.wedge(ga, T.wedge(gb, gc)[0])
        assert left == right


@settings(max_examples=40)
@given(S.subs(5, 3, extended=False), S.subs(3, 3, extended=False), S.subs(3, 2, extended=False))
def test_wedge_sub_distributes(sigma, tau, mu):
    lhs = F.compose(T.from_wedge(sigma, tau), mu)
    rhs = T.from_wedge(F.compose(sigma, mu), F.compose(tau, mu))
    assert lhs == rhs


def test_wedge_empty_rejected():
    with pytest.raises(F.MalformedSyntax):
        T.wedge(F.EMPTY_CTX, F.disc_ctx(0))


# ---------------------------------------------------------------------------
# labellings


def test_label_to_sub_example():
    # x{ff{a}f{id f}f}x{f}x  realises to <x,x,f*f,f,a,f,id(f),x,f>
    x, y, f = Var(2), Var(1), Var(0)
    comp = F.substitute(T.standard_comp(CHAIN2_TREE), FlatSub(STAR, (x, y, f, x, f)))
    alpha = Var(0)
    idf = F.canonical_identity(Arrow(x, STAR, y), f)
    lt = LTree(
        (x, x, x),
        (
            LTree((comp, f, f), (LTree((alpha,),), LTree((idf,),))),
            LTree((f,), ()),
        ),
    )
    sub = T.label_to_sub(Labelling(lt, STAR))
    assert sub == FlatSub(STAR, (x, x, comp, f, alpha, f, idf, x, f))


def test_label_to_sub_singleton():
    assert T.label_to_sub(Labelling(LTree((Var(3),), ()), STAR)) == FlatSub(
        STAR, (Var(3),)
    )


def test_id_label_realises_to_identity():
    for t in all_trees(6):
        assert T.label_to_sub(T.id_label(t)) == F.identity_sub(T.tree_to_ctx(t))


@settings(max_examples=60)
@given(S.types(3, dim=3), S.terms(3))
def test_label_from_disc_matches_sub_from_disc(a, t):
    lab = T.label_from_disc(a, t)
    assert lab.shape() == T.linear_tree(F.dim_ty(a))
    assert T.label_to_sub(lab) == F.sub_from_disc(a, t)


@settings(max_examples=40)
@given(S.types(3, dim=3), S.terms(3))
def test_unary_composite_via_disc_label(a, t):
    n = F.dim_ty(a)
    if n == 0:
        return
    comp = F.substitute(
        T.standard_coh(T.linear_tree(n), n),
        T.label_to_sub(T.label_from_disc(a, t)),
    )
    ctx = FlatCtx((STAR, STAR, STAR))
    assert F.canonical_type(ctx, comp) == a


# ---------------------------------------------------------------------------
# boundaries


def test_boundary_zero_is_leaf():
    for t in all_trees(5):
        assert T.tree_boundary(t, 0) == LEAF


def test_boundary_above_height_is_identity():
    for t in all_trees(6):
        for n in range(t.height, t.height + 2):
            assert T.tree_boundary(t, n) == t
            for eps in ("-", "+"):
                lab = T.boundary_label(t, n, eps)
                assert lab.lt == LTree.from_fn(t, lambda p: p)


def test_boundary_globularity():
    for t in all_trees(6):
        for m in range(0, t.height + 1):
            for n in range(0, m + 1):
                assert T.tree_boundary(T.tree_boundary(t, m), n) == T.tree_boundary(
                    t, n
                )
                for eps in ("-", "+"):
                    for om in ("-", "+"):
                        if n == m and eps != om:
                            continue
                        inner = T.boundary_label(T.tree_boundary(t, m), n, eps)
                        composed = inner.lt.map(
                            lambda p: T.boundary_path(t, m, om, p)
                        )
                        assert composed == T.boundary_label(t, n, eps).lt


def test_tree_boundary_set_matches_pasting():
    for t in all_trees(6):
        g = T.tree_to_ctx(t)
        for n in range(0, t.height + 2):
            for eps in ("-", "+"):
                assert T.tree_boundary_set(t, n, eps) == P.boundary_set(g, n, eps)


def test_tree_supports_and_boundaries_match_pasting():
    ck = Checker(Signature())
    for t in all_trees(6):
        g = T.tree_to_ctx(t)

        def positions(paths):
            return VarSet.of(len(g), (T.path_pos(t, p) for p in paths))

        for p in T.all_paths(t):
            supp = ck.support(make_ctx(t), NVar(p))
            assert positions(supp) == F.support(g, T.path_var(t, p))
        for n in range(0, t.height + 2):
            for eps in ("-", "+"):
                bdry = T.boundary_paths(t, n, eps)
                assert positions(bdry) == P.boundary_set(g, n, eps)


def test_boundary_inclusion_support():
    for t in all_trees(6):
        g = T.tree_to_ctx(t)
        for n in range(0, t.height + 1):
            for eps in ("-", "+"):
                sub = T.label_to_sub(T.boundary_inclusion(t, n, eps))
                supp = VarSet.empty(len(g))
                for tm in sub.terms:
                    supp = supp.union(F.support(g, tm))
                assert supp == T.tree_boundary_set(t, n, eps)


def test_included_standard_term_support():
    for t in all_trees(5):
        g = T.tree_to_ctx(t)
        for n in range(0, t.height + 1):
            for eps in ("-", "+"):
                b = T.tree_boundary(t, n)
                tm = F.substitute(
                    T.standard_term(b, n),
                    T.label_to_sub(T.boundary_inclusion(t, n, eps)),
                )
                assert F.support(g, tm) == T.tree_boundary_set(t, n, eps)


# ---------------------------------------------------------------------------
# standard constructions


def test_standard_type_zero():
    assert T.standard_type(EXAMPLE_TREE, 0) == STAR


def test_standard_comp_of_chain_is_composition():
    c = T.standard_comp(CHAIN2_TREE)
    assert c.ctx == chain_ctx(2)
    assert c.ty == Arrow(Var(4), STAR, Var(1))
    assert c.sub == F.identity_sub(chain_ctx(2))


def test_standard_term_of_disc_is_top_variable():
    for n in range(4):
        assert T.standard_term(T.linear_tree(n), n) == Var(0)


def test_standard_constructions_suspend():
    for t in all_trees(5):
        g = T.tree_to_ctx(t)
        for n in range(t.height, t.height + 2):
            if n == 0 and t != LEAF:
                continue
            lhs = F.suspend_tm(T.standard_coh(t, n), len(g))
            rhs = T.standard_coh(T.suspend_tree(t), n + 1)
            assert lhs == rhs
            assert F.suspend_ty(T.standard_type(t, n), len(g)) == T.standard_type(
                T.suspend_tree(t), n + 1
            )


def test_standard_type_globularity():
    for t in all_trees(6):
        for m in range(0, t.height + 1):
            for n in range(0, m + 1):
                for eps in ("-", "+"):
                    lhs = T.standard_type(t, n)
                    rhs = F.substitute(
                        T.standard_type(T.tree_boundary(t, m), n),
                        T.label_to_sub(T.boundary_inclusion(t, m, eps)),
                    )
                    assert lhs == rhs


def test_standard_coh_precondition():
    with pytest.raises(F.MalformedSyntax):
        T.standard_coh(CHAIN2_TREE, 0)


# ---------------------------------------------------------------------------
# insertion


def test_insert_tree_example():
    # f * (g * h)  ->  f * g * h
    out = T.insert_tree(CHAIN2_TREE, (1,), CHAIN2_TREE)
    assert out == Tree((LEAF, LEAF, LEAF))


def test_insertion_point_conditions():
    # branch height above the trunk height of the inserted tree
    s = Tree((Tree((LEAF,)),))
    assert not T.is_insertion_point(s, (0, 0), CHAIN2_TREE)
    with pytest.raises(F.MalformedSyntax):
        T.insert_tree(s, (0, 0), CHAIN2_TREE)


def test_disc_host_insertion():
    for n in range(1, 4):
        d = T.linear_tree(n)
        for p in T.all_branches(d):
            for t in all_trees(5):
                if not T.is_insertion_point(d, p, t):
                    continue
                assert T.insert_tree(d, p, t) == t
                assert T.interior_label(d, p, t).lt == T.id_label(t).lt


def test_disc_insertion_is_trivial_on_trees():
    for s, p, t in insertion_points(5):
        lh = T.leaf_height(s, p)
        d = T.linear_tree(lh)
        if T.is_insertion_point(s, p, d):
            assert T.insert_tree(s, p, d) == s


def test_disc_insertion_label_max_equal():
    for s in all_trees(5):
        g = T.tree_to_ctx(s)
        for p in T.all_branches(s):
            lh = T.leaf_height(s, p)
            d = T.linear_tree(lh)
            if not T.is_insertion_point(s, p, d):
                continue
            pv = T.path_var(s, T.branch_path(s, p))
            a = F.canonical_type(g, pv)
            lab = T.id_label(s)
            m = T.label_from_disc(a, pv)
            out = T.insert_label(lab, p, m)
            assert T.label_eq_max(out, lab)


def test_exterior_sends_branch_to_standard_coherence():
    for s, p, t in insertion_points(6):
        kappa = T.exterior_label(s, p, t)
        iota = T.interior_label(s, p, t)
        lh = T.leaf_height(s, p)
        expect = F.substitute(T.standard_coh(t, lh), T.label_to_sub(iota))
        assert kappa(T.branch_path(s, p)) == expect


def test_exterior_is_full():
    for s, p, t in insertion_points(5):
        r = T.insert_tree(s, p, t)
        n = T.ctx_size(r)
        assert F.free_vars(T.label_to_sub(T.exterior_label(s, p, t)), n) == VarSet.full(n)


def test_exterior_insert_interior_is_identity():
    for s, p, t in insertion_points(5):
        r = T.insert_tree(s, p, t)
        out = T.insert_label(T.exterior_label(s, p, t), p, T.interior_label(s, p, t))
        assert out.lt == T.id_label(r).lt


def test_interior_after_inserted_labelling():
    # iota • (L << M) == M when M is the interior labelling route
    for s, p, t in insertion_points(5):
        kappa = T.exterior_label(s, p, t)
        iota = T.interior_label(s, p, t)
        glued = T.insert_label(kappa, p, iota)
        composed = T.label_sub(iota, T.label_to_sub(glued))
        assert composed.lt == iota.lt


def test_branch_ambiguity():
    for s in all_trees(6):
        branches = T.all_branches(s)
        for p, q in itertools.combinations(branches, 2):
            if T.branch_path(s, p) != T.branch_path(s, q):
                continue
            for t in all_trees(5):
                if not (
                    T.is_insertion_point(s, p, t) and T.is_insertion_point(s, q, t)
                ):
                    continue
                assert T.insert_tree(s, p, t) == T.insert_tree(s, q, t)
                assert T.label_eq_max(
                    T.exterior_label(s, p, t), T.exterior_label(s, q, t)
                )


def test_pushout_factorisation_unique_at_desk_scale():
    # uniqueness of the factorisation through the inserted tree: every
    # variable of the inserted context appears in the image of the exterior
    # or interior labelling, so a factoring substitution is forced pointwise
    for s, p, t in insertion_points(5):
        r = T.insert_tree(s, p, t)
        n = T.ctx_size(r)
        fv = F.free_vars(T.label_to_sub(T.exterior_label(s, p, t)), n).union(
            F.free_vars(T.label_to_sub(T.interior_label(s, p, t)), n)
        )
        assert fv == VarSet.full(n)
