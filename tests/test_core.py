"""Core syntax: flattening and conversion to raw syntax; the standard
types, disc and insertion labellings built as values are checked against
the flat ones here too."""

import pytest

from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel.core import CSTAR, CApp, CArgs, CComp, CId, CSusp, CVar
from cattkernel.flat import STAR, Arrow, Var
from cattkernel.trees import LEAF, LTree, Tree, linear_tree

import specs as SP

CHAIN2 = Tree((LEAF, LEAF))
EXAMPLE = Tree((Tree((LEAF, LEAF)), LEAF))


def all_trees(max_nodes: int):
    by_nodes: list[list[Tree]] = [[], [LEAF]]
    for n in range(2, max_nodes + 1):
        acc = []
        # trees with n nodes = head branch (k nodes) + remaining branches
        for k in range(1, n):
            for head in by_nodes[k]:
                for rest in by_nodes[n - k]:
                    acc.append(Tree((head,) + rest.branches))
        by_nodes.append(acc)
    seen = []
    for group in by_nodes[1:]:
        for t in group:
            if t not in seen:
                seen.append(t)
    return seen


TREES = all_trees(5)


def id_args(t: Tree) -> CArgs:
    """The labelling of t by its own variables."""
    return CArgs(LTree(t, tuple(map(CVar, range(T.ctx_size(t))))))


def unnamed(t: Tree) -> C.Names:
    """The names of a context over t that names no cell."""
    return C.Names(LTree(t, (None,) * T.ctx_size(t)))


# ---------------------------------------------------------------------------
# flattening of variables and applications


def test_flatten_list_variable():
    assert C.flatten_tm(CVar(0), 3) == Var(2)
    assert C.flatten_tm(CVar(2), 3) == Var(0)


def test_flatten_path_variable():
    # a variable of a tree context is its position: the index of its path
    # in the realised context, flattened to the one shared Var of its index
    for t in (CHAIN2, EXAMPLE, T.suspend_tree(EXAMPLE), linear_tree(3)):
        paths = T.path_table(t).paths
        for i in range(T.ctx_size(t)):
            assert C.flatten_tm(CVar(i), t) is F.path_var(t, paths[i])
    pinned = [F.path_var(CHAIN2, p) for p in ((0,), (0, 0), (2,))]
    assert pinned == [Var(4), Var(2), Var(1)]


def test_flatten_sub_application():
    s = CApp(CVar(0), CArgs((CVar(2),), CSTAR))
    assert C.flatten_tm(s, 4) == Var(1)


def test_flatten_label_application():
    s = CApp(CComp(CHAIN2), id_args(CHAIN2))
    assert C.flatten_tm(s, CHAIN2) == F.standard_coh(CHAIN2, 1)


def test_flatten_suspension():
    tm = CSusp(CVar(0))
    assert C.flatten_tm(tm, T.suspend_tree(CHAIN2)) == F.suspend_tm(
        Var(4), T.ctx_size(CHAIN2)
    )


def test_flatten_identity_head():
    assert C.flatten_tm(CId(0), LEAF) == F.standard_coh(linear_tree(0), 1)
    got = C.flatten_tm(CId(1), linear_tree(1))
    assert F.is_identity(got)


# ---------------------------------------------------------------------------
# standard constructions agree with the flat ones


def test_std_type_flattens_to_standard_type():
    for t in TREES:
        for n in range(t.height, t.height + 3):
            b = N.quote_ty(N.standard_nf_type(N.WEAK, t, n))
            assert C.flatten_ty(b, t) == F.standard_type(t, n)


def test_std_term_flattens_to_standard_term():
    for t in TREES:
        for n in range(max(t.height, 1), t.height + 3):
            x = N._std_term(N.WEAK, t, n, N.id_env(t))
            assert N.flatten_nf(x, t) == F.standard_term(t, n)


# ---------------------------------------------------------------------------
# disc and exterior labellings, built as values, agree with the flat ones


def _lift_tm(x, n: int):
    assert isinstance(x, F.Var)
    return N.NVar(n - 1 - x.idx)


def _lift_ty(a, n: int):
    if isinstance(a, F.Star):
        return ()
    return ((_lift_tm(a.src, n), _lift_tm(a.tgt, n)),) + _lift_ty(a.base, n)


def test_label_from_disc_matches_flat():
    g = F.disc_ctx(2)
    n = len(g)
    cases = [
        (STAR, Var(0)),
        (Arrow(Var(4), STAR, Var(3)), Var(2)),
        (Arrow(Var(2), Arrow(Var(4), STAR, Var(3)), Var(1)), Var(0)),
    ]
    for a, t in cases:
        got = N.disc_label(_lift_ty(a, n), _lift_tm(t, n))
        want = F.label_from_disc(a, t)
        assert got.map(lambda e: N.flatten_nf(e, n)) == want


def insertion_points(max_nodes: int):
    for s in all_trees(max_nodes):
        for p in T.all_branches(s):
            for t in all_trees(max_nodes):
                if T.is_insertion_point(s, p, t):
                    yield s, tuple(p), t


def test_exterior_clabel_matches_flat():
    # the weak theory leaves the standard coherence on the inserted branch
    # as it is, so flattening must give the flat exterior labelling
    for s, p, t in insertion_points(4):
        r = T.insert_tree(s, p, t)
        got = N.exterior(N.WEAK, s, p, t)
        flat = got.map(lambda e: N.flatten_nf(e, r))
        assert flat == F.exterior_label(s, p, t)


# ---------------------------------------------------------------------------
# labelling round trip


def test_label_round_trip():
    for t in TREES:
        lab = SP.id_label(t)
        assert F.label_from_sub(t, F.label_to_sub(lab)) == lab


def test_label_round_trip_after_substitution():
    lab = SP.id_label(EXAMPLE)
    sigma = F.label_to_sub(lab)
    assert F.label_from_sub(EXAMPLE, sigma) == lab


def test_label_from_sub_length_mismatch():
    with pytest.raises(F.MalformedSyntax):
        F.label_from_sub(CHAIN2, F.FlatSub(STAR, (Var(0),)))


# ---------------------------------------------------------------------------
# conversion to raw syntax


def test_to_raw_variables():
    nm = C.Names(["x", "f"])
    assert C.to_raw(CVar(1), nm) == R.RVar("f")
    assert C.to_raw(CVar(2), unnamed(CHAIN2)) == R.RVar("p00")
    assert C.to_raw(CVar(2)) == R.RVar("v2")


def test_to_raw_label_keeps_only_maximal_entries():
    raw = C.to_raw(CApp(CComp(CHAIN2), id_args(CHAIN2)), unnamed(CHAIN2))
    tree = raw.args.data
    assert tree.elements == (None, None, None)
    assert tree.branches[0].elements == (R.RVar("p00"),)


def test_to_raw_keep_implicits():
    app = CApp(CComp(CHAIN2), id_args(CHAIN2))
    raw = C.to_raw(app, unnamed(CHAIN2), keep_implicits=True)
    assert raw.args.data.elements == (R.RVar("p0"), R.RVar("p1"), R.RVar("p2"))


def test_to_raw_pretty_parses_back():
    raw = C.to_raw(CApp(CComp(CHAIN2), id_args(CHAIN2)), unnamed(CHAIN2))
    printed = R.pretty(raw)
    assert SP.strip_spans(R.parse_term(printed)) == SP.strip_spans(raw)


def test_to_raw_coherence():
    coh = C.CCoh(CHAIN2, N.quote_ty(N.standard_nf_type(N.WEAK, CHAIN2, 1)))
    raw = C.to_raw(coh)
    printed = R.pretty(raw)
    assert printed.startswith("coh [ p0{p00}p1{p10}p2 :")
