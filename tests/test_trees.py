"""Trees, their realisation, wedges, labellings, tree boundaries, standard
coherences, and insertion."""

import gc
import inspect
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattkernel import cli  # noqa: F401  (defines the remaining record classes)
from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import oracle  # noqa: F401
from cattkernel import pasting as P
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel.flat import STAR, Arrow, FlatCtx, FlatSub, Var
from cattkernel.nbe import NVar
from cattkernel.trees import LEAF, LTree, Tree
from cattkernel.typecheck import Checker, Signature

import gen_typed
import specs as SP
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
    assert F.tree_to_ctx(LEAF) == FlatCtx((STAR,))


def test_linear_trees_realise_to_discs():
    for n in range(5):
        assert F.tree_to_ctx(T.linear_tree(n)) == F.disc_ctx(n)


def test_chain_tree():
    assert F.tree_to_ctx(CHAIN2_TREE) == chain_ctx(2)


def test_example_tree_realisation():
    g = F.tree_to_ctx(EXAMPLE_TREE)
    assert len(g) == 9
    assert SP.check_ps(g)
    assert SP.dim_ctx(g) == EXAMPLE_TREE.height == 2


def test_realisation_is_ps_and_dim_matches():
    for t in all_trees(6):
        g = F.tree_to_ctx(t)
        assert SP.check_ps(g)
        assert SP.dim_ctx(g) == t.height
        assert len(g) == T.ctx_size(t)


def test_suspension_commutes_with_realisation():
    for t in all_trees(6):
        assert F.tree_to_ctx(T.suspend_tree(t)) == F.suspend_ctx(F.tree_to_ctx(t))


def test_concat_realises_to_wedge():
    for s in all_trees(4):
        for t in all_trees(4):
            lhs = F.tree_to_ctx(Tree(s.branches + t.branches))
            rhs, _, _ = SP.wedge(F.tree_to_ctx(s), F.tree_to_ctx(t))
            assert lhs == rhs


def test_realisation_matches_suspension_and_wedge():
    # every tree with at most 7 edges
    for t in all_trees(8):
        assert F.tree_to_ctx(t) == SP.tree_to_ctx(t)


def test_tree_dyck_ctx_round_trips():
    for t in all_trees(7):
        assert SP.dyck_realise(SP.tree_to_dyck(t))[0] == F.tree_to_ctx(t)
        assert P.ctx_to_tree(F.tree_to_ctx(t)) == t
        # a context built again from its entries is scanned for its tree
        assert P.ctx_to_tree(FlatCtx(F.tree_to_ctx(t).entries)) is t


def test_ctx_to_tree_rejects_non_ps():
    assert P.ctx_to_tree(SP.sphere_ctx(1)) is None


def test_stored_metadata_matches_recursive_definitions():
    def height(t):
        return max((height(b) + 1 for b in t.branches), default=0)

    def trunk_height(t):
        return 1 + trunk_height(t.branches[0]) if len(t.branches) == 1 else 0

    def ctx_size(t):
        return 1 + sum(ctx_size(b) + 1 for b in t.branches)

    def rebuild(t):
        return Tree(tuple(rebuild(b) for b in t.branches))

    # the stored metadata is outside the fields: equality, the hash and the
    # repr see the branches alone; trees are interned, so rebuilding one
    # gives the same object
    assert Tree._fields == ("branches",)
    metadata = {"_height", "_trunk_height", "_ctx_size", "_table", "__weakref__"}
    assert set(Tree.__slots__) - set(Tree._fields) == metadata
    for t in all_trees(6):
        assert t.height == height(t)
        assert t.trunk_height == trunk_height(t)
        assert T.ctx_size(t) == ctx_size(t)
        assert t.is_linear == (height(t) == trunk_height(t))
        u = rebuild(t)
        assert u is t
        assert u == t and hash(u) == hash(t) and repr(u) == repr(t)


# ---------------------------------------------------------------------------
# paths


def test_leaf_path():
    assert F.path_var(LEAF, (0,)) == Var(0)


def test_maximal_path_of_disc():
    for n in range(5):
        assert F.path_var(T.linear_tree(n), T.max_path(n)) == Var(0)


def test_chain_zero_cells():
    # x, y, z at positions 0, 1, 3 of the realised context
    assert F.path_var(CHAIN2_TREE, (0,)) == Var(4)
    assert F.path_var(CHAIN2_TREE, (1,)) == Var(3)
    assert F.path_var(CHAIN2_TREE, (2,)) == Var(1)


def test_path_dim():
    for t in all_trees(6):
        g = F.tree_to_ctx(t)
        for p in SP.all_paths(t):
            v = F.path_var(t, p)
            assert F.dim_ty(g.entries[len(g) - 1 - v.idx]) == len(p) - 1


def test_paths_enumerate_all_variables():
    for t in all_trees(6):
        g = F.tree_to_ctx(t)
        positions = {F.path_pos(t, p) for p in SP.all_paths(t)}
        assert positions == set(range(len(g)))


def test_maximal_paths_are_locally_maximal():
    for t in all_trees(6):
        g = F.tree_to_ctx(t)
        used = set()
        for i, e in enumerate(g.entries):
            used.update(SP.free_vars(e, i).positions())
        loc_max = {i for i in range(len(g)) if i not in used}
        assert {F.path_pos(t, p) for p in T.maximal_paths(t)} == loc_max


def recursive_path_pos(t: Tree, p) -> int:
    def zero_cell(k: int) -> int:
        # (k,) follows the k 0-cells before it and the cells of branches
        # 0 .. k-2; the cells of branch k-1 follow (k,)
        return k + sum(T.ctx_size(b) for b in t.branches[: max(k - 1, 0)])

    if len(p) == 1:
        return zero_cell(p[0])
    k = p[0]
    return zero_cell(k + 1) + 1 + recursive_path_pos(t.branches[k], p[1:])


def test_path_pos_matches_recursive_definition():
    for t in all_trees(8):
        for p in SP.all_paths(t):
            assert F.path_pos(t, p) == recursive_path_pos(t, p)


def non_paths(t: Tree):
    yield ()
    yield (len(t.branches) + 1,)
    yield (-1,)
    for p in T.maximal_paths(t):
        yield p + (0,)  # past a leaf
        yield p[:-1] + (1,)
    for k in range(len(t.branches)):
        yield (k, len(t.branches[k].branches) + 1)
        yield (-1 - k, 0)


def test_invalid_path_rejected():
    with pytest.raises(F.MalformedSyntax):
        F.path_var(LEAF, (1, 0))
    for t in all_trees(6):
        for p in non_paths(t):
            assert not SP.is_path(t, p) and not SP.is_maximal_path(t, p)
            with pytest.raises(F.MalformedSyntax, match="not a path of the tree"):
                F.path_pos(t, p)
        for k in range(len(t.branches)):
            assert not T.is_branch(t, (-1 - k,))


def test_equal_trees_share_one_cache_entry():
    a = EXAMPLE_TREE
    b = P.ctx_to_tree(FlatCtx(F.tree_to_ctx(a).entries))
    assert a == b and a is b and hash(a) == hash(b)
    F.standard_type.cache_clear()
    F.standard_type(a, 2)
    before = F.standard_type.cache_info()
    F.standard_type(b, 2)
    after = F.standard_type.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    assert {a: 1}[b] == 1


def nested(t: Tree) -> tuple:
    """The tree as nested tuples, which are not interned."""
    return tuple(nested(b) for b in t.branches)


def canonical(n: tuple) -> Tree:
    return Tree(tuple(canonical(c) for c in n))


def renested(lt: LTree) -> LTree:
    """A copy of a labelling built again from its nested view."""
    return SP.NestedLabel.of(lt).to_ltree()


def test_every_construction_returns_the_one_canonical_tree():
    def check(t: Tree) -> None:
        assert canonical(nested(t)) is t

    for t in all_trees(6):
        check(t)
        assert P.ctx_to_tree(FlatCtx(F.tree_to_ctx(t).entries)) is t
        assert T.suspend_tree(t) is canonical((nested(t),))
        for n in range(t.height + 1):
            check(T.tree_boundary(t, n))
        assert T.tree_boundary(t, t.height) is t
        lt = LTree.from_fn(t, lambda p: p)
        assert lt.shape is t and renested(lt).shape is t
    for s, p, t in insertion_points(6):
        check(T.insert_tree(s, p, t))


def test_intern_table_holds_trees_weakly():
    # a shape that no other test builds
    t = Tree((T.linear_tree(9), LEAF, T.linear_tree(9), LEAF, T.linear_tree(9)))
    key, ref = t.branches, weakref.ref(t)
    assert T._TREES[key] is t
    del t
    gc.collect()
    assert ref() is None and key not in T._TREES


def test_labelling_keeps_the_tree_it_was_built_on(monkeypatch):
    requests = 0
    new = Tree.__new__

    def counted(cls, *args):
        nonlocal requests
        requests += 1
        return new(cls, *args)

    for t in all_trees(6):
        lt = LTree.from_fn(t, lambda p: len(p))
        monkeypatch.setattr(Tree, "__new__", counted)
        # neither the labelling nor its image asks for a tree again
        assert lt.shape is t and lt.map(str).shape is lt.shape
        assert requests == 0
        monkeypatch.undo()
        # a copy built again from the nested view, and its image, are over
        # the same tree
        raw = renested(lt)
        assert raw.map(str).shape is raw.shape is t


def test_a_flat_context_is_recognised_once(monkeypatch):
    scans = 0
    scan = P._scan

    def counted(x):
        nonlocal scans
        scans += 1
        return scan(x)

    monkeypatch.setattr(P, "_scan", counted)
    for t in all_trees(6):
        assert P.ctx_to_tree(F.tree_to_ctx(t)) is t
        g = FlatCtx(F.tree_to_ctx(t).entries)
        scans = 0
        assert P.ctx_to_tree(g) is t
        assert scans == 1
        # the second time reads what the first kept
        assert P.ctx_to_tree(g) is t and g._tree is t
        assert scans == 1
    # a context that is not a pasting context is also scanned once
    g = FlatCtx((STAR, STAR))
    scans = 0
    assert P.ctx_to_tree(g) is None and P.ctx_to_tree(g) is None
    assert g._tree is False and scans == 1


def test_a_realised_context_keeps_its_tree(monkeypatch):
    scans = 0
    scan = P._scan

    def counted(x):
        nonlocal scans
        scans += 1
        return scan(x)

    monkeypatch.setattr(P, "_scan", counted)
    F.tree_to_ctx.cache_clear()
    for t in all_trees(6):
        assert P.ctx_to_tree(F.tree_to_ctx(t)) is t
    assert scans == 0


def test_a_suspension_is_built_once(monkeypatch):
    scans = 0
    scan = P._scan

    def counted(x):
        nonlocal scans
        scans += 1
        return scan(x)

    monkeypatch.setattr(P, "_scan", counted)
    for t in all_trees(6):
        g = FlatCtx(F.tree_to_ctx(t).entries)
        s = F.suspend_ctx(g)
        assert F.suspend_ctx(g) is s and s == SP.tree_to_ctx(T.suspend_tree(t))
        scans = 0
        assert P.ctx_to_tree(F.suspend_ctx(g)) is T.suspend_tree(t)
        assert scans == 1
        # the second suspension is the first, with the tree it keeps
        assert P.ctx_to_tree(F.suspend_ctx(g)) is T.suspend_tree(t)
        assert scans == 1


# ---------------------------------------------------------------------------
# wedges


def test_wedge_unit():
    g = chain_ctx(2)
    w, inl, inr = SP.wedge(g, FlatCtx((STAR,)))
    assert w == g
    assert inl == F.identity_sub(g)
    assert inr == FlatSub(STAR, (Var(1),))


def test_disc_wedge_is_chain():
    w, _, _ = SP.wedge(F.disc_ctx(1), F.disc_ctx(1))
    assert w == chain_ctx(2)


def test_inl_wedge_inr_is_identity():
    for s in all_trees(4):
        for t in all_trees(4):
            w, inl, inr = SP.wedge(F.tree_to_ctx(s), F.tree_to_ctx(t))
            assert SP.from_wedge(inl, inr) == F.identity_sub(w)


def test_wedge_associativity():
    for a, b, c in itertools.product(list(all_trees(3)), repeat=3):
        ga, gb, gc = (F.tree_to_ctx(x) for x in (a, b, c))
        left, _, _ = SP.wedge(SP.wedge(ga, gb)[0], gc)
        right, _, _ = SP.wedge(ga, SP.wedge(gb, gc)[0])
        assert left == right


@settings(max_examples=40)
@given(S.subs(5, 3, extended=False), S.subs(3, 3, extended=False), S.subs(3, 2, extended=False))
def test_wedge_sub_distributes(sigma, tau, mu):
    lhs = F.compose(SP.from_wedge(sigma, tau), mu)
    rhs = SP.from_wedge(F.compose(sigma, mu), F.compose(tau, mu))
    assert lhs == rhs


def test_wedge_empty_rejected():
    with pytest.raises(F.MalformedSyntax):
        SP.wedge(F.EMPTY_CTX, F.disc_ctx(0))


# ---------------------------------------------------------------------------
# labellings


def test_path_table_matches_recursive_definitions():
    for t in all_trees(7):
        tb = T.path_table(t)
        assert T.path_table(t) is tb
        assert list(tb.paths) == SP.all_paths(t)
        assert [tb.paths[i] for i in tb.maximal] == SP.maximal_paths(t)
        assert T.maximal_paths(t) == SP.maximal_paths(t)
        index = T.path_index(t)
        assert T.path_index(t) is index and tb.index is index
        assert all(tb.paths[index[p]] == p for p in tb.paths)
        # each cell's endpoints, by index, are those of its definition
        ends = [e and (tb.paths[e[0]], tb.paths[e[1]]) for e in tb.ends]
        assert ends == [SP.cell_ends(p) for p in tb.paths]
        # each branch's block of paths starts at its offset
        for k, (b, o) in enumerate(zip(t.branches, tb.offsets)):
            block = tb.paths[o : o + T.ctx_size(b)]
            assert block == tuple((k,) + q for q in SP.all_paths(b))


def test_flat_labellings_agree_with_the_nested_reference():
    def f(p):
        return "e" + "".join(map(str, p))

    for t in all_trees(6):
        lt = LTree.from_fn(t, f)
        ref = SP.NestedLabel.from_fn(t, f)
        assert lt.shape is t and ref.shape() is t
        assert list(lt.entries) == ref.values() == [f(p) for p in SP.all_paths(t)]
        assert all(SP.at(lt, p) == ref.lookup(p) for p in SP.all_paths(t))
        assert SP.NestedLabel.of(lt) == ref
        assert lt.elements == ref.elements
        assert SP.NestedLabel.of(lt.map(len)) == ref.map(len)
        assert lt.map(len).shape is t
        # built again from its nested view, it is equal, with the same hash
        again = ref.to_ltree()
        assert again == lt and hash(again) == hash(lt) and again.shape is t
        # a labelling differs from one that differs in any entry
        es = lt.entries
        for i in range(len(es)):
            other = LTree(t, es[:i] + ("x",) + es[i + 1 :])
            assert other != lt and SP.at(other, SP.all_paths(t)[i]) == "x"
    # the same entries over another tree are another labelling
    chain, disc = Tree((LEAF, LEAF)), T.linear_tree(2)
    assert T.ctx_size(chain) == T.ctx_size(disc)
    es = tuple(range(T.ctx_size(chain)))
    assert LTree(chain, es) != LTree(disc, es)


def test_insert_ltree_agrees_with_the_nested_reference():
    for s, p, t in insertion_points(6):
        host = SP.NestedLabel.from_fn(s, lambda q: ("s",) + q)
        m = SP.NestedLabel.from_fn(t, lambda q: ("t",) + q)
        got = T.insert_ltree(host.to_ltree(), p, m.to_ltree())
        assert got.shape is T.insert_tree(s, p, t)
        assert SP.NestedLabel.of(got) == host.insert(p, m)


def test_labelling_operations_do_not_recurse(monkeypatch):
    calls = {"map": 0, "from_fn": 0, "LTree": 0, "branches": 0}
    map_, from_fn, init = LTree.map, LTree.from_fn, LTree.__init__
    branches = LTree.branches

    def counted_map(self, f):
        calls["map"] += 1
        return map_(self, f)

    def counted_from_fn(cls, t, f):
        calls["from_fn"] += 1
        return from_fn.__func__(cls, t, f)

    def counted_init(self, t, entries):
        calls["LTree"] += 1
        init(self, t, entries)

    def counted_branches(self):
        calls["branches"] += 1
        return branches.fget(self)

    monkeypatch.setattr(LTree, "map", counted_map)
    monkeypatch.setattr(LTree, "from_fn", classmethod(counted_from_fn))
    monkeypatch.setattr(LTree, "__init__", counted_init)
    monkeypatch.setattr(LTree, "branches", property(counted_branches))
    for t in all_trees(6):
        calls.update(dict.fromkeys(calls, 0))
        lt = LTree.from_fn(t, len)
        assert calls == {"map": 0, "from_fn": 1, "LTree": 1, "branches": 0}
        image = lt.map(str)
        assert calls == {"map": 1, "from_fn": 1, "LTree": 2, "branches": 0}
        # reading, comparing and hashing read no branch either
        for p in SP.all_paths(t):
            SP.at(lt, p)
        assert image == lt.map(str) and hash(image) == hash(lt.map(str))
        assert lt.entries and lt.elements
        assert calls["branches"] == 0


def test_label_to_sub_example():
    # x{ff{a}f{id f}f}x{f}x  realises to <x,x,f*f,f,a,f,id(f),x,f>
    x, y, f = Var(2), Var(1), Var(0)
    comp = F.substitute(
        F.standard_coh(CHAIN2_TREE, CHAIN2_TREE.height), FlatSub(STAR, (x, y, f, x, f))
    )
    alpha = Var(0)
    idf = F.canonical_identity(Arrow(x, STAR, y), f)
    L = SP.NestedLabel
    lt = L(
        (x, x, x),
        (L((comp, f, f), (L((alpha,)), L((idf,)))), L((f,))),
    ).to_ltree()
    sub = F.label_to_sub(lt)
    assert sub == FlatSub(STAR, (x, x, comp, f, alpha, f, idf, x, f))


def test_label_to_sub_singleton():
    assert F.label_to_sub(LTree(LEAF, (Var(3),))) == FlatSub(
        STAR, (Var(3),)
    )


def test_label_to_sub_matches_recursive_definition():
    # every tree with at most 7 edges, with random entries and type parts
    rng = random.Random(0)
    x, y, f = Var(2), Var(1), Var(0)
    ids = (F.canonical_identity(STAR, x), F.canonical_identity(Arrow(x, STAR, y), f))
    pool = (x, y, f) + ids
    for t in all_trees(8):
        for _ in range(3):
            lt = LTree.from_fn(t, lambda p: rng.choice(pool))
            ty = rng.choice((STAR, Arrow(x, STAR, y)))
            sub = F.label_to_sub(lt, ty)
            assert sub == SP.label_to_sub(lt, ty)
            assert F.label_from_sub(t, sub) == lt


@given(S.trees())
def test_paths_are_listed_in_the_order_of_the_realised_context(t):
    paths = T.path_table(t).paths
    assert [F.path_pos(t, p) for p in paths] == list(range(T.ctx_size(t)))
    assert [F.path_var(t, p) for p in paths] == list(
        F.identity_sub(F.tree_to_ctx(t)).terms
    )


@given(S.trees(), st.sampled_from([STAR, Arrow(Var(1), STAR, Var(0))]))
def test_realising_a_labelling_copies_nothing(t, ty):
    lt = LTree.from_fn(t, lambda p: Var(len(p)))
    sub = F.label_to_sub(lt, ty)
    assert sub.terms is lt.entries and sub.ty is ty
    assert F.label_from_sub(t, sub).entries is sub.terms


def test_id_label_realises_to_identity():
    for t in all_trees(6):
        assert F.label_to_sub(SP.id_label(t)) == F.identity_sub(F.tree_to_ctx(t))


@settings(max_examples=60)
@given(S.types(3, dim=3), S.terms(3))
def test_label_from_disc_matches_sub_from_disc(a, t):
    lab = F.label_from_disc(a, t)
    assert lab.shape == T.linear_tree(F.dim_ty(a))
    assert F.label_to_sub(lab) == F.sub_from_disc(a, t)


@settings(max_examples=40)
@given(S.types(3, dim=3), S.terms(3))
def test_unary_composite_via_disc_label(a, t):
    n = F.dim_ty(a)
    if n == 0:
        return
    comp = F.substitute(
        F.standard_coh(T.linear_tree(n), n),
        F.label_to_sub(F.label_from_disc(a, t)),
    )
    ctx = FlatCtx((STAR, STAR, STAR))
    assert SP.canonical_type(ctx, comp) == a


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
                lab = SP.boundary_label(t, n, eps)
                assert lab == LTree.from_fn(t, lambda p: p)


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
                        inner = SP.boundary_label(T.tree_boundary(t, m), n, eps)
                        composed = inner.map(
                            lambda p: SP.boundary_path(t, m, om, p)
                        )
                        assert composed == SP.boundary_label(t, n, eps)


def test_tree_boundary_set_matches_pasting():
    for t in all_trees(6):
        g = F.tree_to_ctx(t)
        for n in range(0, t.height + 2):
            for eps in ("-", "+"):
                assert SP.tree_boundary_set(t, n, eps) == SP.boundary_set(g, n, eps)


def test_tree_supports_and_boundaries_match_pasting():
    ck = Checker(Signature())
    for t in all_trees(6):
        g = F.tree_to_ctx(t)

        for p in SP.all_paths(t):
            supp = ck.support(make_ctx(t), NVar(F.path_pos(t, p)))
            assert SP.VarSet.of(len(g), supp) == SP.support(g, F.path_var(t, p))
        for n in range(0, t.height + 2):
            for eps in ("-", "+"):
                bdry = T.boundary_index(t, n, eps)
                paths = SP.boundary_label(t, n, eps).entries
                assert bdry == tuple(F.path_pos(t, p) for p in paths)
                assert SP.VarSet.of(len(g), bdry) == SP.boundary_set(g, n, eps)


def test_boundary_inclusion_support():
    for t in all_trees(6):
        g = F.tree_to_ctx(t)
        for n in range(0, t.height + 1):
            for eps in ("-", "+"):
                sub = F.label_to_sub(F.boundary_inclusion(t, n, eps))
                supp = SP.VarSet.empty(len(g))
                for tm in sub.terms:
                    supp = supp.union(SP.support(g, tm))
                assert supp == SP.tree_boundary_set(t, n, eps)


def test_included_standard_term_support():
    for t in all_trees(5):
        g = F.tree_to_ctx(t)
        for n in range(0, t.height + 1):
            for eps in ("-", "+"):
                b = T.tree_boundary(t, n)
                tm = F.substitute(
                    F.standard_term(b, n),
                    F.label_to_sub(F.boundary_inclusion(t, n, eps)),
                )
                assert SP.support(g, tm) == SP.tree_boundary_set(t, n, eps)


# ---------------------------------------------------------------------------
# standard constructions


def test_standard_type_zero():
    assert F.standard_type(EXAMPLE_TREE, 0) == STAR


def test_standard_comp_of_chain_is_composition():
    c = F.standard_coh(CHAIN2_TREE, CHAIN2_TREE.height)
    assert c.ctx == chain_ctx(2)
    assert c.ty == Arrow(Var(4), STAR, Var(1))
    assert c.sub == F.identity_sub(chain_ctx(2))


def test_standard_term_of_disc_is_top_variable():
    for n in range(4):
        assert F.standard_term(T.linear_tree(n), n) == Var(0)


def test_standard_constructions_suspend():
    for t in all_trees(5):
        g = F.tree_to_ctx(t)
        for n in range(t.height, t.height + 2):
            if n == 0 and t != LEAF:
                continue
            lhs = F.suspend_tm(F.standard_coh(t, n), len(g))
            rhs = F.standard_coh(T.suspend_tree(t), n + 1)
            assert lhs == rhs
            assert F.suspend_ty(F.standard_type(t, n), len(g)) == F.standard_type(
                T.suspend_tree(t), n + 1
            )


def test_standard_type_globularity():
    for t in all_trees(6):
        for m in range(0, t.height + 1):
            for n in range(0, m + 1):
                for eps in ("-", "+"):
                    lhs = F.standard_type(t, n)
                    rhs = F.substitute(
                        F.standard_type(T.tree_boundary(t, m), n),
                        F.label_to_sub(F.boundary_inclusion(t, m, eps)),
                    )
                    assert lhs == rhs


def test_standard_coh_precondition():
    with pytest.raises(F.MalformedSyntax):
        F.standard_coh(CHAIN2_TREE, 0)


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
                assert SP.interior_label(d, p, t) == SP.id_label(t)


def test_disc_insertion_is_trivial_on_trees():
    for s, p, t in insertion_points(5):
        lh = T.leaf_height(s, p)
        d = T.linear_tree(lh)
        if T.is_insertion_point(s, p, d):
            assert T.insert_tree(s, p, d) == s


def test_disc_insertion_label_max_equal():
    for s in all_trees(5):
        g = F.tree_to_ctx(s)
        for p in T.all_branches(s):
            lh = T.leaf_height(s, p)
            d = T.linear_tree(lh)
            if not T.is_insertion_point(s, p, d):
                continue
            pv = F.path_var(s, T.branch_path(s, p))
            a = SP.canonical_type(g, pv)
            lab = SP.id_label(s)
            m = F.label_from_disc(a, pv)
            out = T.insert_ltree(lab, p, m)
            assert SP.label_eq_max(out, lab)


def test_exterior_sends_branch_to_standard_coherence():
    for s, p, t in insertion_points(6):
        kappa = F.exterior_label(s, p, t)
        iota = SP.interior_label(s, p, t)
        lh = T.leaf_height(s, p)
        expect = F.substitute(F.standard_coh(t, lh), F.label_to_sub(iota))
        assert SP.at(kappa, T.branch_path(s, p)) == expect


def test_exterior_is_full():
    for s, p, t in insertion_points(5):
        r = T.insert_tree(s, p, t)
        n = T.ctx_size(r)
        kappa = F.label_to_sub(F.exterior_label(s, p, t))
        assert SP.free_vars(kappa, n) == SP.VarSet.full(n)


def test_exterior_insert_interior_is_identity():
    for s, p, t in insertion_points(5):
        r = T.insert_tree(s, p, t)
        out = T.insert_ltree(F.exterior_label(s, p, t), p, SP.interior_label(s, p, t))
        assert out == SP.id_label(r)


def test_interior_after_inserted_labelling():
    # iota • (L << M) == M when M is the interior labelling route
    for s, p, t in insertion_points(5):
        kappa = F.exterior_label(s, p, t)
        iota = SP.interior_label(s, p, t)
        glued = T.insert_ltree(kappa, p, iota)
        composed = SP.label_sub(iota, F.label_to_sub(glued))
        assert composed == iota


def test_kept_exterior_labelling_equals_a_fresh_build(monkeypatch):
    # every insertion point of a tree with at most 5 edges; the fresh build
    # recurses through the builder, with nothing kept
    points = list(insertion_points(6))
    kept = []
    for s, p, t in points:
        kept.append(F.exterior_label(s, p, t))
        assert F.exterior_label(s, p, t) is kept[-1]
    monkeypatch.setattr(F, "exterior_label", F._exterior_label)
    for (s, p, t), k in zip(points, kept):
        assert F._exterior_label(s, p, t) == k


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
                assert SP.label_eq_max(
                    F.exterior_label(s, p, t), F.exterior_label(s, q, t)
                )


def test_pushout_factorisation_unique_at_desk_scale():
    # uniqueness of the factorisation through the inserted tree: every
    # variable of the inserted context appears in the image of the exterior
    # or interior labelling, so a factoring substitution is forced pointwise
    for s, p, t in insertion_points(5):
        r = T.insert_tree(s, p, t)
        n = T.ctx_size(r)
        fv = SP.free_vars(F.label_to_sub(F.exterior_label(s, p, t)), n).union(
            SP.free_vars(F.label_to_sub(SP.interior_label(s, p, t)), n)
        )
        assert fv == SP.VarSet.full(n)


# ---------------------------------------------------------------------------
# records


def record_classes() -> list:
    out, todo = [], [T.Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            out.append(cls)
            todo.append(cls)
    return out


# instances for the classes whose constructors check their fields; every
# other class takes placeholder values
CHECKED = {
    Tree: Tree((LEAF,)),
    LTree: LTree(Tree((LEAF,)), (0, 1, 2)),
    R.RawTree: R.RawTree(Tree((LEAF,)), (None, "x", "f")),
    N.EvalConfig: N.SUA,
}


def example(cls):
    if cls in CHECKED:
        return CHECKED[cls]
    return cls(*range(len(cls._fields)))


def rebuild(x):
    """A copy of x built again from the fields of every record in it."""
    if isinstance(x, T.Record):
        return type(x)(*(rebuild(getattr(x, f)) for f in x._fields))
    if isinstance(x, tuple):
        return tuple(rebuild(v) for v in x)
    return x


def test_records_are_immutable_and_slotted():
    classes = record_classes()
    assert len(classes) >= 49
    for cls in classes:
        x = example(cls)
        assert not hasattr(x, "__dict__"), cls
        for name in x._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        for name in x._fields:
            with pytest.raises(AttributeError):
                delattr(x, name)
        y = rebuild(x)
        # trees, configurations and flat variables are interned: an equal
        # one is the same object
        assert (y is x) if cls in (Tree, N.EvalConfig, F.Var) else (y is not x), cls
        assert y == x and hash(y) == hash(x), cls


def test_records_store_each_field_in_its_slot():
    # constructors store through the slot setters, in slot order: a
    # placeholder record built from 0, 1, 2, … reads i in its i-th field
    for cls in record_classes():
        if cls not in CHECKED:
            x = example(cls)
            assert [getattr(x, f) for f in cls._fields] == list(range(len(cls._fields)))
    # and no constructor of the package goes through object.__setattr__
    for cls in record_classes():
        if cls.__module__.startswith("cattkernel."):
            for name in ("__init__", "__new__"):
                own = cls.__dict__.get(name)
                if inspect.isfunction(own):
                    assert "object.__setattr__" not in inspect.getsource(own), (cls, name)


def test_trees_and_configurations_hash_by_identity():
    # interned values hash as objects do, so a tuple of trees, and a cache
    # keyed by trees or configurations, hashes in C with no call back
    for t in all_trees(4):
        assert hash(t) == object.__hash__(t)
    values = itertools.product((False, True), (False, True), ("none", "id", "full"))
    for dr, ecr, ins in values:
        cfg = N.EvalConfig(dr=dr, ecr=ecr, insertion=ins)
        assert N.EvalConfig(dr, ecr, ins) is cfg
        assert hash(cfg) == object.__hash__(cfg)
    assert N.EvalConfig(dr=True, ecr=True, insertion="id") is N.SU
    assert Tree.__hash__ is object.__hash__ and N.EvalConfig.__hash__ is object.__hash__


def test_records_of_different_classes_are_unequal():
    assert N.NVar(0) != C.CVar(0)
    assert F.Var(0) != C.CVar(0)
    assert R.RHole() != R.RId()
    examples = [example(cls) for cls in record_classes() if cls not in CHECKED]
    for x, y in itertools.combinations(examples, 2):
        assert x != y and not x == y, (x, y)


def test_a_record_equals_itself_without_reading_its_fields():
    class Unequal:
        def __eq__(self, other):
            raise AssertionError("compared")

    # one field, so equality would compare the field values themselves
    x = F.Var(Unequal())
    assert x == x and not x != x
    with pytest.raises(AssertionError):
        x == F.Var(Unequal())


def test_record_constructor_and_repr():
    # ImportCmd has the generic constructor of the base class
    x = R.ImportCmd("a.catt")
    assert x == R.ImportCmd("a.catt", R.SYNTH)
    assert x == R.ImportCmd(path="a.catt", span=R.SYNTH)
    assert repr(N.NVar(0)) == "NVar(pos=0)"
    with pytest.raises(TypeError):
        R.ImportCmd()
    with pytest.raises(TypeError):
        R.ImportCmd("a.catt", R.SYNTH, 0)
    with pytest.raises(TypeError):
        R.ImportCmd("a.catt", colour=0)


def test_records_check_their_fields():
    with pytest.raises(T.MalformedSyntax):
        LTree(Tree((LEAF,)), (0, 1))
    with pytest.raises(T.MalformedSyntax):
        R.RawTree(LEAF, ("x", "y"))


@given(S.ctx_and_term())
def test_flat_terms_rebuild_from_their_fields(ctx_term):
    for x in ctx_term:
        y = rebuild(x)
        assert y == x and hash(y) == hash(x)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_normal_forms_rebuild_from_their_fields(seed):
    tree, _, term_text = gen_typed.random_case(random.Random(seed))
    for config in (N.SU, N.SUA):
        ck = Checker(Signature(config=config))
        for x in ck.elab(make_ctx(tree), R.parse_term(term_text)):
            y = rebuild(x)
            assert y == x and hash(y) == hash(x)
