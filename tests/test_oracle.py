"""Small-step reduction: rules, traces, complexity, confluence sampling."""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen_typed
import specs as SP
from flat_cases import (
    CHAIN2,
    assoc_pair,
    binary_comp,
    make_ctx,
    pruning_chain,
    two_peak_term,
)

from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import oracle as O
from cattkernel import pasting as P
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel.flat import Arrow, Coh, FlatSub, STAR, Var
from cattkernel.oracle import RuleSet
from cattkernel.typecheck import Checker, Signature

ROOT = Path(__file__).resolve().parent.parent

SU = RuleSet.SU_PRIME
SUA = RuleSet.SUA_PRIME


def unary_comp(t, a):
    """The unary composite of t : a."""
    n = F.dim_ty(a)
    return Coh(F.disc_ctx(n), F.unary_comp_ty(n), F.sub_from_disc(a, t))


# ---------------------------------------------------------------------------
# individual rules


def test_variables_are_normal():
    assert O.step(Var(3), SU) == []
    assert O.step(Var(3), SUA) == []


def test_disc_removal_step():
    g = F.tree_to_ctx(CHAIN2)
    fg = F.standard_coh(CHAIN2, 1)
    t = unary_comp(fg, Arrow(Var(4), STAR, Var(1)))
    steps = O.step(t, SU)
    assert any(s.rule == "dr" and s.term == fg for s in steps)


def test_endo_coherence_step():
    fg = F.standard_coh(CHAIN2, 1)
    endo = Coh(
        F.tree_to_ctx(CHAIN2),
        Arrow(fg, F.standard_type(CHAIN2, 1), fg),
        F.identity_sub(F.tree_to_ctx(CHAIN2)),
    )
    steps = [s for s in O.step(endo, SU) if s.rule == "ecr"]
    assert len(steps) == 1
    assert F.is_identity(steps[0].term)


def test_identities_are_normal():
    ident = F.canonical_identity(STAR, Var(0))
    assert O.step(ident, SU) == []
    assert O.step(ident, SUA) == []


def test_pruning_step_only_in_first_rule_set():
    _, t = two_peak_term()
    assert sum(1 for s in O.step(t, SU) if s.rule == "prune") == 2
    assert all(s.rule != "prune" for s in O.step(t, SUA))


def test_insertion_step_only_in_second_rule_set():
    _, left, _, ternary = assoc_pair()
    su_rules = {s.rule for s in O.step(left, SU)}
    assert "insert" not in su_rules
    ins = [s for s in O.step(left, SUA) if s.rule == "insert"]
    assert len(ins) == 1 and ins[0].term == ternary


def test_insertion_of_identity_argument():
    x = Var(0)
    t = binary_comp(x, F.canonical_identity(STAR, x), x, F.canonical_identity(STAR, x), x)
    rules = {s.rule for s in O.step(t, SUA)}
    assert "insert" in rules


def test_unary_composite_argument_is_not_inserted():
    v = lambda p: SP.path_var(CHAIN2, p)
    inner = unary_comp(v((0, 0)), Arrow(v((0,)), STAR, v((1,))))
    t = binary_comp(v((0,)), inner, v((1,)), v((1, 0)), v((2,)))
    assert all(s.rule != "insert" for s in O.step(t, SUA))


def test_pruning_is_insertion_of_an_identity(monkeypatch):
    # pruning a peak whose argument is an identity, built as the insertion
    # of the identity's disc along the branch of that peak, gives the
    # reduct of the Dyck-word reference: the head over the pruned word's
    # realisation, its type pulled back along the projection, and the
    # substitution without the peak's two terms; the step names the peak
    # by its maximal path
    checked = 0
    prune_steps = O._prune_steps

    def checked_steps(t):
        nonlocal checked
        s = P.ctx_to_tree(t.ctx)
        d = SP.tree_to_dyck(s)
        for st in prune_steps(t):
            mp = st.where[1]
            assert st.where[0] == "head" and mp in SP.maximal_paths(s)
            i = SP.path_pos(s, mp)
            assert F.is_identity(t.sub.terms[i])
            (p,) = [p for p in SP.peaks(d) if SP.peak_pos(d, p) == i]
            d2, pi = SP.prune(d, p)
            assert st.term == Coh(
                SP.dyck_realise(d2)[0],
                F.substitute(t.ty, pi),
                SP.prune_terms(t.sub, d, p),
            )
            checked += 1
            yield st

    monkeypatch.setattr(O, "_prune_steps", checked_steps)
    rng = random.Random(29)
    ck = Checker(Signature())
    for _ in range(120):
        tree, _, term_text = gen_typed.random_case(rng)
        term, _ = ck.check(make_ctx(tree), R.parse_term(term_text))
        O.normalise(C.flatten_tm(term, tree), SU)
    assert checked > 100


def test_pruning_rejects_an_identity_of_the_wrong_dimension():
    # the peak f of the binary composite over [f, g] is a 1-cell, but its
    # argument is the identity of a 1-cell, a 2-cell: its substitution does
    # not fit the disc that pruning the peak inserts
    v = lambda p: SP.path_var(CHAIN2, p)
    x, y, f = v((0,)), v((1,)), v((0, 0))
    ident = F.canonical_identity(Arrow(x, STAR, y), f)
    t = binary_comp(x, ident, y, v((1, 0)), v((2,)))
    with pytest.raises(F.MalformedSyntax):
        O.step(t, SU)


# ---------------------------------------------------------------------------
# congruence steps


def test_argument_steps_keep_the_rule_tag():
    v = lambda p: SP.path_var(CHAIN2, p)
    inner = unary_comp(v((0, 0)), Arrow(v((0,)), STAR, v((1,))))
    t = binary_comp(v((0,)), inner, v((1,)), v((1, 0)), v((2,)))
    tags = [(s.rule, s.where[0]) for s in O.step(t, SU)]
    assert ("dr", "arg") in tags


def test_cell_steps_are_tagged_and_preserve_complexity():
    g = F.tree_to_ctx(CHAIN2)
    v = lambda p: SP.path_var(CHAIN2, p)
    red_src = unary_comp(v((0, 0)), Arrow(v((0,)), STAR, v((1,))))
    a = Arrow(red_src, Arrow(v((0,)), STAR, v((1,))), v((0, 0)))
    t = Coh(g, a, F.identity_sub(g))
    cells = [s for s in O.step(t, SU) if s.where[0] == "cell"]
    assert cells and all(s.rule == "cell" for s in cells)
    for s in cells:
        assert SP.complexity(s.term) == SP.complexity(t)


# ---------------------------------------------------------------------------
# the three-step chain


def test_three_step_chain():
    _, term, var = pruning_chain()
    nf, trace = O.normalise(term, SU)
    assert trace == ["ecr", "prune", "dr"]
    assert nf == var


def test_chain_complexity_strictly_decreases():
    _, term, _ = pruning_chain()
    t = term
    while True:
        steps = O.step(t, SU)
        if not steps:
            break
        nxt = steps[0]
        assert nxt.rule != "cell"
        assert SP.less_than(SP.complexity(nxt.term), SP.complexity(t))
        t = nxt.term


# ---------------------------------------------------------------------------
# associativity


def test_both_bracketings_insert_to_the_ternary_composite():
    _, left, right, ternary = assoc_pair()
    assert O.normalise(left, SUA)[0] == ternary
    assert O.normalise(right, SUA)[0] == ternary
    lnf, rnf = O.normalise(left, SU)[0], O.normalise(right, SU)[0]
    assert lnf != rnf


# the vertical composite of three 2-cells, bracketed either way: each
# inner composite is inserted at a branch of length 2, into the one branch
# of the context's tree
VERTICAL_BRACKETINGS = (
    "normalise comp[[comp[[a, b]], c]] in [[a, b, c]]\n"
    "normalise comp[[a, comp[[b, c]]]] in [[a, b, c]]\n"
)


def test_vertical_bracketings_insert_at_a_branch_of_length_2():
    cmds = R.parse(VERTICAL_BRACKETINGS)
    for cmd, branch in zip(cmds, [(0, 0), (0, 1)]):
        for config, rules in [(N.SUA, SUA), (N.SU, SU)]:
            ck = Checker(Signature(config=config))
            ctx = ck.elab_ctx(cmd.ctx)
            core, _ = ck.check(ctx, cmd.term)
            flat = C.flatten_tm(core, ctx.tree)
            nf, trace = O.normalise(flat, rules)
            assert nf == N.flatten_nf(ck.nf(ctx, core), ctx.tree)
            if rules is SUA:
                ((rule, where),) = [(st.rule, st.where) for st in O.first_steps(flat, SUA)]
                assert (rule, where) == ("insert", ("head",) + branch)
            else:
                assert trace == []


# ---------------------------------------------------------------------------
# normalisation


def test_normal_form_returns_itself():
    _, _, _, ternary = assoc_pair()
    nf, trace = O.normalise(ternary, SUA)
    assert nf == ternary and trace == []


def test_seed_invariance():
    _, term, var = pruning_chain()
    assert SP.normalise_random(term, SU, 1) == var
    assert SP.normalise_random(term, SU, 2) == var
    _, left, _, ternary = assoc_pair()
    for seed in (1, 2, 3):
        assert SP.normalise_random(left, SUA, seed) == ternary


def test_step_cap_guards_against_divergence(monkeypatch):
    monkeypatch.setattr(O, "STEP_CAP", 1)
    _, term, _ = pruning_chain()
    with pytest.raises(O.NonTermination):
        O.normalise(term, SU)


# ---------------------------------------------------------------------------
# the first reduct, found lazily


def full_list_normalise(t, rules):
    """Normalisation that builds every reduct and keeps the first, checking
    at each term that the lazy search finds the same first reduct."""
    trace = []
    while steps := O.step(t, rules):
        assert next(O.reducts(t, rules)) == steps[0]
        trace.append(steps[0].rule)
        t = steps[0].term
    return t, trace


def lazy_cases(config):
    _, left, right, _ = assoc_pair()
    yield pruning_chain()[1]
    yield two_peak_term()[1]
    yield left
    yield right
    rng = random.Random(17)
    ck = Checker(Signature(config=config))
    for _ in range(40):
        tree, _, term_text = gen_typed.random_case(rng)
        term, _ = ck.check(make_ctx(tree), R.parse_term(term_text))
        yield C.flatten_tm(term, tree)


@pytest.mark.parametrize("rules, config", [(SU, N.SU), (SUA, N.SUA)], ids=["su", "sua"])
def test_lazy_first_reduct_gives_the_same_reduction(rules, config):
    for t in lazy_cases(config):
        nf, trace = full_list_normalise(t, rules)
        assert O.normalise(t, rules) == (nf, trace)
        assert [st.rule for st in O.first_steps(t, rules)] == trace
        assert O.step(nf, rules) == []


def test_first_reduct_ends_the_search(monkeypatch):
    # the lazy search stops at the first reduct; the full list goes on to
    # search the remaining positions
    searched = []
    head_steps = O._head_steps

    def counted(t, rules):
        searched.append(t)
        return head_steps(t, rules)

    monkeypatch.setattr(O, "_head_steps", counted)
    v = lambda p: SP.path_var(CHAIN2, p)
    f_ty, g_ty = Arrow(v((0,)), STAR, v((1,))), Arrow(v((1,)), STAR, v((2,)))
    inner = unary_comp(v((0, 0)), f_ty)
    first = unary_comp(inner, f_ty)
    # comp[comp<comp<f>>, comp<g>] has no head step under SU; its first
    # reduct removes the outer disc of its first argument
    nested = binary_comp(v((0,)), first, v((1,)), unary_comp(v((1, 0)), g_ty), v((2,)))
    # (f*g)*h inserts its argument f*g at the head under SUA
    _, left, _, _ = assoc_pair()
    for t, rules, rule, lazy in [(nested, SU, "dr", [nested, first]), (left, SUA, "insert", [left])]:
        searched.clear()
        assert next(O.reducts(t, rules)).rule == rule
        assert searched == lazy
        searched.clear()
        O.step(t, rules)
        assert len(searched) > len(lazy)


@pytest.mark.parametrize("rules", [SU, SUA], ids=["su", "sua"])
def test_lazy_normalise_reads_fewer_contexts(rules, monkeypatch):
    """A lazy normalise searches fewer heads, and so reads fewer contexts,
    than stepping through every reduct; the count is of head searches, since
    a realised context already knows its tree."""
    calls = 0
    head_steps = O._head_steps

    def counted(t, rules):
        nonlocal calls
        calls += 1
        return head_steps(t, rules)

    monkeypatch.setattr(O, "_head_steps", counted)
    _, term, _ = pruning_chain()
    O.normalise(term, rules)
    lazy, calls = calls, 0
    t = term
    while steps := O.step(t, rules):
        t = steps[0].term
    assert 0 < lazy < calls


# ---------------------------------------------------------------------------
# no second search of a normal subterm


def typed_flat_term(seed, config):
    """A random well-typed composite, elaborated under config, flattened."""
    tree, _, term_text = gen_typed.random_case(random.Random(seed))
    term, _ = Checker(Signature(config=config)).check(make_ctx(tree), R.parse_term(term_text))
    return C.flatten_tm(term, tree)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(SU, N.SU), (SUA, N.SUA)]),
)
def test_first_steps_match_the_full_search(seed, case):
    rules, config = case
    t = typed_flat_term(seed, config)
    assert list(O.first_steps(t, rules)) == SP.first_steps_reference(t, rules)


@pytest.mark.parametrize("rules, config", [(SU, N.SU), (SUA, N.SUA)], ids=["su", "sua"])
def test_a_normal_subterm_is_searched_once_per_run(rules, config, monkeypatch):
    searched = []
    head_steps = O._head_steps

    def counted(t, rules):
        searched.append(t)  # keeps t, so ids stay its own
        return head_steps(t, rules)

    monkeypatch.setattr(O, "_head_steps", counted)
    fewer = 0
    for t in lazy_cases(config):
        searched.clear()
        steps = list(O.first_steps(t, rules))
        seen = {}
        for u in searched:
            seen.setdefault(id(u), []).append(u)
        for (u, *again) in seen.values():
            assert not again or O.step(u, rules), "a normal subterm was searched twice"
        memo = len(searched)
        searched.clear()
        assert SP.first_steps_reference(t, rules) == steps
        fewer += memo < len(searched)
    assert fewer > 0


def test_only_a_search_that_found_nothing_marks_its_term():
    _, left, _, ternary = assoc_pair()
    normal = {}
    assert list(O.reducts(left, SUA, normal)) == O.step(left, SUA) != []
    assert id(left) not in normal
    assert list(O.reducts(ternary, SUA, normal)) == []
    assert normal[id(ternary)] is ternary
    # a marked term is not searched again, unless no memo is passed
    assert list(O.reducts(left, SUA, {id(left): left})) == []
    assert O.step(left, SUA) != []


def test_a_subterm_met_again_after_a_step_is_searched_again():
    # one object in two argument positions: the first step rewrites it in
    # the first, and it is still to be reduced in the second
    x, f = Var(1), Var(0)
    u = unary_comp(f, Arrow(x, STAR, x))
    t = binary_comp(x, u, x, u, x)
    steps = list(O.first_steps(t, SU))
    assert steps == SP.first_steps_reference(t, SU)
    assert [(st.rule, st.where) for st in steps] == [
        ("dr", ("arg", 2, "head")),
        ("dr", ("arg", 4, "head")),
    ]


# ---------------------------------------------------------------------------
# facts of the validation route worked out once


def test_disc_test_compares_a_context_once(monkeypatch):
    calls = 0
    eq = F.FlatCtx.__eq__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return eq(a, b)

    monkeypatch.setattr(F.FlatCtx, "__eq__", counted)
    x = Var(0)
    canon = F.canonical_identity(Arrow(x, STAR, x), x)
    # fresh contexts, equal to D^1 and to the realised 3-point path
    disc = F.FlatCtx(F.disc_ctx(1).entries)
    chain = F.FlatCtx(F.tree_to_ctx(CHAIN2).entries)
    ident = Coh(disc, canon.ty, canon.sub)
    unary = Coh(disc, F.unary_comp_ty(1), canon.sub)
    other = Coh(chain, F.standard_type(CHAIN2, 1), F.identity_sub(chain))
    for t, is_id, is_unary in [(ident, True, False), (unary, False, True), (other, False, False)]:
        for _ in range(3):
            assert F.is_identity(t) is is_id
            assert F.is_unary_comp(t) is is_unary
    assert calls <= 2
    assert disc._disc == 1 and chain._disc is False


def test_insertion_search_builds_no_labelling_without_an_insertable_argument(monkeypatch):
    # the construction cache starts empty, so the step plans its insertion
    # whatever ran before
    O._construction.cache_clear()
    planned = []
    insertion = T.insertion

    def counted(s, p, t):
        planned.append((s, p, t))
        return insertion(s, p, t)

    monkeypatch.setattr(T, "insertion", counted)
    _, left, _, ternary = assoc_pair()
    assert list(O._insert_steps(ternary)) == []
    assert planned == []
    # the composite argument of (f*g)*h is insertable: the one step plans
    # its own insertion once, for the exterior and the merged labellings,
    # and no other
    (st,) = O._insert_steps(left)
    assert planned == [(CHAIN2, st.where[1:], CHAIN2)]


def test_normalising_again_builds_no_pasting_construction(monkeypatch):
    # a second normalisation of the same terms finds every realised context
    # and insertion construction (plan, realisation and exterior labelling)
    # built by the first, pruning and inserting alike, and scans no context;
    # the caches start empty, so the first builds some whatever ran before
    for cache in (F.tree_to_ctx, F.standard_coh, O._construction):
        cache.cache_clear()
    built = Counter()

    def counts() -> Counter:
        # the realisations and insertion constructions that the caches
        # build, with the scans
        return built + Counter(
            tree_to_ctx=F.tree_to_ctx.cache_info().misses,
            construction=O._construction.cache_info().misses,
        )

    scan = P._scan

    def counted_scan(*args):
        built["_scan"] += 1
        return scan(*args)

    monkeypatch.setattr(P, "_scan", counted_scan)
    _, chain, _ = pruning_chain()
    cases = [(chain, SU)] + [
        (typed_flat_term(seed, config), rules)
        for seed in range(6)
        for rules, config in [(SU, N.SU), (SUA, N.SUA)]
    ]
    for t, rules in cases:
        first = O.normalise(t, rules)
        before = counts()
        assert O.normalise(t, rules) == first
        assert counts() == before, t
    assert counts()["construction"] > 0


def test_pruning_scans_no_context_that_keeps_its_tree(monkeypatch):
    # every head of the chain and of its reducts is over a context that
    # flat.tree_to_ctx built, which keeps its tree: the prune search reads
    # it there and scans nothing.  The caches start empty, so the contexts
    # are new and have been pruned by nothing before.
    for cache in (F.tree_to_ctx, F.standard_coh, F.standard_type, O._construction):
        cache.cache_clear()
    scans = 0
    scan = P._scan

    def counted(g):
        nonlocal scans
        scans += 1
        return scan(g)

    monkeypatch.setattr(P, "_scan", counted)
    _, chain, var = pruning_chain()
    assert O.normalise(chain, SU) == (var, ["ecr", "prune", "dr"])
    assert scans == 0


def test_flattened_composites_share_one_coherence():
    for t in [CHAIN2, T.Tree((CHAIN2, T.LEAF))]:
        a, b = C.flatten_tm(C.CComp(t), t), C.flatten_tm(C.CComp(t), t)
        assert a is b and a.ctx is b.ctx
        assert a == F.standard_coh(t, t.height)


def _variables_in(t):
    """Every Var in t, context entries and types included, each node read
    once however often it is shared."""
    seen, todo = set(), [t]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if x.__class__ is Var:
            yield x
        elif isinstance(x, T.Record):
            todo.extend(getattr(x, f) for f in x._fields)
        elif isinstance(x, tuple):
            todo.extend(x)


def test_flattened_terms_and_reducts_share_their_variables():
    # every variable that flattening builds, and every one in the oracle's
    # reducts, over 2 corpus rounds is the one shared Var of its index
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads as W
    finally:
        sys.path.remove(str(ROOT / "bench"))
    rng = random.Random(11)
    seen = 0
    for inp in W.corpus_round(rng) + W.corpus_round(rng):
        for r in W.corpus_verdict(inp):
            terms = [r.flat_term, r.flat_nf]
            if r.preset in W.RULES:
                rules = W.RULES[r.preset]
                terms += [st.term for st in O.first_steps(r.flat_term, rules)]
                terms += [st.term for st in O.step(r.flat_term, rules)]
            for t in terms:
                for v in _variables_in(t):
                    assert v is F.Var(v.idx), v
                    seen += 1
    assert seen > 1000


# ---------------------------------------------------------------------------
# complexity measure


def test_complexity_of_variables_and_heads():
    assert SP.complexity(Var(0)) == ()
    ident = F.canonical_identity(STAR, Var(0))
    assert SP.complexity(ident) == (0, 1)
    fg = F.standard_coh(CHAIN2, 1)
    assert SP.complexity(fg) == (0, 2)


def test_complexity_sums_over_arguments():
    x = Var(0)
    ident = F.canonical_identity(STAR, x)
    t = binary_comp(x, ident, x, ident, x)
    assert SP.complexity(t) == (0, 4)


def test_reverse_lexicographic_order():
    assert SP.less_than((5, 1), (0, 2))
    assert SP.less_than((0, 1), (0, 0, 1))
    assert not SP.less_than((0, 0, 1), (9, 9))
    assert not SP.less_than((1, 1), (1, 1))


def test_substitution_compatibility():
    # a reduct of s, substituted, is a reduct of s substituted
    v = lambda p: SP.path_var(CHAIN2, p)
    s = unary_comp(v((0, 0)), Arrow(v((0,)), STAR, v((1,))))
    sigma = FlatSub(STAR, tuple(Var(9 - i) for i in range(5)))
    reducts = {st.term for st in O.step(s, SU)}
    pushed = {st.term for st in O.step(F.substitute(s, sigma), SU)}
    assert {F.substitute(t, sigma) for t in reducts} <= pushed


# ---------------------------------------------------------------------------
# local confluence sampling


def test_two_pruning_peaks_join():
    _, t = two_peak_term()
    assert SP.local_confluence_sample(t, SU, depth=2) == []


def test_chain_term_is_locally_confluent():
    _, term, _ = pruning_chain()
    assert SP.local_confluence_sample(term, SU, depth=4) == []


def test_distinct_reducts_join():
    # the unit and the unary composite reduce in two different ways (prune
    # or insert, and disc removal), so a join has to be searched for
    ck = Checker(Signature())
    ctx = ck.elab_ctx(R.parse_ctx("x{f}y"))
    term, _ = ck.check(ctx, R.parse_term("comp[comp<{f}>, id(y)]"))
    t = C.flatten_tm(term, ctx.tree)
    for rules in (SU, SUA):
        reducts = [st.term for st in O.step(t, rules)]
        assert len(reducts) == len(set(reducts)) == 2
        assert SP.local_confluence_sample(t, rules, depth=2) == []


def test_normal_forms_trivially_pass():
    assert SP.local_confluence_sample(Var(0), SU) == []
