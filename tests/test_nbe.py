"""Evaluation, quotation, environments, sizes, and the reduction cases."""

import pytest

from test_core import all_trees, id_args

from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import trees as T
from cattkernel.core import CSusp, CVar
from cattkernel.nbe import SU, SUA, WEAK, Env, NApp, NCoh, NComp, NId, NVar
from cattkernel.trees import LEAF, LTree, Tree, linear_tree
import specs as SP
from specs import NestedLabel as NL

CHAIN2 = Tree((LEAF, LEAF))
CHAIN3 = Tree((LEAF, LEAF, LEAF))
VERT = Tree((CHAIN2,))  # two 2-cells glued along a 1-cell


def ev(cfg, x, env):
    return N.eval_tm(cfg, x, env)


def std_type(t: Tree, n: int):
    return N.quote_ty(N.standard_nf_type(WEAK, t, n))


def std_comp_term(t: Tree):
    return C.CApp(C.CComp(t), id_args(t))


def id_term(n: int, t: Tree):
    return C.CApp(C.CId(n), id_args(t))


def var(t: Tree, p) -> NVar:
    """The variable of the cell p of t: its position."""
    return NVar(SP.path_pos(t, p))


def id_label(t: Tree) -> LTree:
    """The labelling of t by its own variables."""
    return LTree(t, tuple(map(NVar, range(T.ctx_size(t)))))


# ---------------------------------------------------------------------------
# environments


def test_id_env_evaluates_paths_to_themselves():
    env = N.id_env(CHAIN2)
    assert ev(WEAK, CVar(2), env) == var(CHAIN2, (0, 0)) == NVar(2)


def test_lift_tree_env():
    sigma = T.suspend_tree(CHAIN2)
    up = N.lift(N.id_env(sigma))
    assert up.ty == ((var(sigma, (0,)), var(sigma, (1,))),)
    assert up.lookup(0) == var(sigma, (0, 0))


def test_lift_list_env():
    env = N.id_list_env(4)
    up = N.lift(env)
    assert up.ty == ((NVar(0), NVar(1)),)
    assert up.lookup(0) == NVar(2)


def test_lower_folds_type_into_tree():
    d1 = linear_tree(1)
    x, y, f = var(d1, (0,)), var(d1, (1,)), var(d1, (0, 0))
    lt = N.lower(Env(LTree(LEAF, (f,)), ((x, y),)))
    assert lt == NL((x, y), (NL((f,)),)).to_ltree()


def test_suspension_evaluates_via_lift():
    d1 = T.suspend_tree(LEAF)
    assert ev(WEAK, CSusp(CVar(0)), N.id_env(d1)) == var(d1, (0, 0))


def test_suspension_environment_suspends_normal_forms():
    # lifting the identity environment of the suspended tree gives the
    # suspension environment: heads move up a dimension, not only variables
    sigma = T.suspend_tree(CHAIN2)
    up = N.lift(N.id_env(sigma))
    comp = NApp(NComp(CHAIN2), id_label(CHAIN2))
    assert N.eval_nf(WEAK, comp, up) == NApp(NComp(sigma), id_label(sigma))
    b = N.standard_nf_type(WEAK, CHAIN2, 1)
    assert N.eval_nf_ty(WEAK, b, up) == N.standard_nf_type(WEAK, sigma, 2)


# ---------------------------------------------------------------------------
# heads under the weak configuration


def test_weak_comp_is_inert():
    nf = ev(WEAK, std_comp_term(CHAIN2), N.id_env(CHAIN2))
    assert isinstance(nf, NApp) and nf.head == NComp(CHAIN2)


def test_weak_identity_head():
    nf = ev(WEAK, id_term(0, LEAF), N.id_env(LEAF))
    assert nf == NApp(NId(0), LTree(LEAF, (NVar(0),)))


def test_coherence_with_standard_type_becomes_comp():
    coh = C.CCoh(CHAIN2, std_type(CHAIN2, 1))
    nf = ev(WEAK, coh, N.id_env(CHAIN2))
    assert isinstance(nf, NApp) and nf.head == NComp(CHAIN2)


def test_identity_coherence_recognised_without_ecr():
    # coh [ D1 : U^2 ] is the identity on the top cell
    d1 = linear_tree(1)
    coh = C.CCoh(d1, std_type(d1, 2))
    nf = ev(WEAK, coh, N.id_env(d1))
    assert isinstance(nf, NApp) and nf.head == NId(1)


def test_plain_coherence_stays_a_coherence():
    for cfg in (WEAK, SU, SUA):
        nf = ev(cfg, C.CCoh(CHAIN3, std_type(CHAIN3, 1)), N.id_env(CHAIN3))
        assert isinstance(nf, NApp)


# ---------------------------------------------------------------------------
# disc removal


def test_disc_removal_unary_composite():
    d1 = linear_tree(1)
    unary = C.CCoh(d1, std_type(d1, 1))
    assert ev(SU, unary, N.id_env(d1)) == var(d1, (0, 0))
    nf = ev(WEAK, unary, N.id_env(d1))
    assert isinstance(nf, NApp) and nf.head == NComp(d1)


def test_disc_removal_higher_disc():
    d2 = linear_tree(2)
    unary = C.CCoh(d2, std_type(d2, 2))
    assert ev(SU, unary, N.id_env(d2)) == var(d2, (0, 0, 0))


# ---------------------------------------------------------------------------
# endo-coherence removal


def test_ecr_reduces_endo_coherence_to_identity():
    src = std_comp_term(CHAIN2)
    endo = C.CCoh(CHAIN2, C.CArrow(src, std_type(CHAIN2, 1), src))
    nf = ev(SU, endo, N.id_env(CHAIN2))
    assert isinstance(nf, NApp) and nf.head == NId(1)
    # the disc labelling carries the composite and its endpoints
    assert nf.label.branches[0].elements[0] == ev(SU, src, N.id_env(CHAIN2))


def test_ecr_off_keeps_endo_coherence():
    src = std_comp_term(CHAIN2)
    endo = C.CCoh(CHAIN2, C.CArrow(src, std_type(CHAIN2, 1), src))
    nf = ev(WEAK, endo, N.id_env(CHAIN2))
    assert isinstance(nf, NApp) and isinstance(nf.head, NCoh)


# ---------------------------------------------------------------------------
# pruning via disc insertion


def vert_data(ident):
    """A labelling of VERT by its own variables, except for ident at the
    second 2-cell, whose cell (0, 1) is the target of the first."""
    x, y = var(VERT, (0,)), var(VERT, (1,))
    f, g, a = var(VERT, (0, 0)), var(VERT, (0, 1)), var(VERT, (0, 0, 0))
    return NL((x, y), (NL((f, g, g), (NL((a,), ()), NL((ident,), ()))),)).to_ltree()


def test_pruning_removes_identity_argument():
    # vertical composite of a 2-cell with an identity on its target
    x, y, g = var(VERT, (0,)), var(VERT, (1,)), var(VERT, (0, 1))
    ident = NApp(NId(1), NL((x, y), (NL((g,), ()),)).to_ltree())
    nf = ev(SU, C.CComp(VERT), Env(vert_data(ident), ()))
    # pruning leaves a unary composite, then disc removal returns the cell
    assert nf == var(VERT, (0, 0, 0))


def test_pruning_disabled_under_weak():
    x, y, g = var(VERT, (0,)), var(VERT, (1,)), var(VERT, (0, 1))
    ident = NApp(NId(1), NL((x, y), (NL((g,), ()),)).to_ltree())
    nf = ev(WEAK, C.CComp(VERT), Env(vert_data(ident), ()))
    assert isinstance(nf, NApp) and nf.head == NComp(VERT)


# ---------------------------------------------------------------------------
# full insertion


def test_full_insertion_flattens_nested_composites():
    x, y, z, w = (var(CHAIN3, (i,)) for i in range(4))
    f, g, h = (var(CHAIN3, (i, 0)) for i in range(3))
    inner = NApp(NComp(CHAIN2), NL((x, y, z), (NL((f,), ()), NL((g,), ()))).to_ltree())
    data = NL((x, z, w), (NL((inner,), ()), NL((h,), ()))).to_ltree()
    nf_sua = ev(SUA, C.CComp(CHAIN2), Env(data, ()))
    assert isinstance(nf_sua, NApp) and nf_sua.head == NComp(CHAIN3)
    nf_su = ev(SU, C.CComp(CHAIN2), Env(data, ()))
    assert isinstance(nf_su, NApp) and nf_su.head == NComp(CHAIN2)


def test_branch_for_is_the_shortest_insertion_branch():
    # _find_redex takes trees.first_branch down the maximal path and checks
    # it alone; the definition tries every prefix of the path.  The trees
    # are all those with at most 5 edges.
    trees = all_trees(6)
    assert len(trees) == 1 + 1 + 2 + 5 + 14 + 42
    found = 0
    for s in trees:
        for mp in SP.maximal_paths(s):
            for t in trees:
                prefixes = (mp[:cut] for cut in range(1, len(mp) + 1))
                expected = next(
                    (
                        p
                        for p in prefixes
                        if SP.is_branch(s, p) and T.is_insertion_point(s, p, t)
                    ),
                    None,
                )
                p = T.first_branch(s, mp)
                got = p if p is not None and T.is_insertion_point(s, p, t) else None
                assert got == expected, (s, mp, t)
                found += expected is not None
    assert found > 1000


# ---------------------------------------------------------------------------
# quotation and flattening


def test_quote_eval_round_trip():
    samples = [
        var(CHAIN2, (0, 0)),
        NApp(NComp(CHAIN2), id_label(CHAIN2)),
        NApp(NId(1), id_label(linear_tree(1))),
    ]
    for cfg in (WEAK, SU, SUA):
        for nf in samples:
            tree = (
                nf.head.tree
                if isinstance(nf, NApp) and isinstance(nf.head, NComp)
                else CHAIN2
            )
            env = N.id_env(nf.label.shape if isinstance(nf, NApp) else tree)
            assert ev(cfg, N.quote_tm(nf), env) == nf


def test_flatten_nf_matches_standard_composite():
    nf = NApp(NComp(CHAIN2), id_label(CHAIN2))
    assert N.flatten_nf(nf, CHAIN2) == F.standard_coh(CHAIN2, 1)


def test_flatten_nf_type():
    b = N.standard_nf_type(WEAK, CHAIN2, 1)
    assert C.flatten_ty(N.quote_ty(b), CHAIN2) == F.standard_type(CHAIN2, 1)


# ---------------------------------------------------------------------------
# sizes


def test_size_of_variables_and_heads():
    assert N.size_tm(NVar(0)) == 0
    comp = NApp(NComp(CHAIN2), id_label(CHAIN2))
    assert N.size_tm(comp) == 1
    ident = NApp(NId(1), id_label(linear_tree(1)))
    assert N.size_tm(ident) == 1


def test_size_counts_nested_heads():
    inner = NApp(NComp(CHAIN2), id_label(CHAIN2))
    x, z, w = var(CHAIN3, (0,)), var(CHAIN3, (2,)), var(CHAIN3, (3,))
    h = var(CHAIN3, (2, 0))
    data = NL((x, z, w), (NL((inner,), ()), NL((h,), ()))).to_ltree()
    outer = NApp(NComp(CHAIN2), data)
    assert N.size_tm(outer) == 2


def test_size_of_coherence_counts_its_type():
    b = N.standard_nf_type(WEAK, CHAIN2, 1)
    coh = NApp(NCoh(CHAIN2, b), id_label(CHAIN2))
    assert N.size_tm(coh) == 1 + N.size_ty(b)


# ---------------------------------------------------------------------------
# variable collection


def test_nf_vars():
    nf = NApp(NComp(CHAIN2), id_label(CHAIN2))
    assert N.nf_vars(nf) == {0, 1, 2, 3, 4}


def test_config_validation():
    with pytest.raises(ValueError):
        N.EvalConfig(insertion="sometimes")
