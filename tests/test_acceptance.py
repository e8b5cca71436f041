"""End-to-end acceptance checks, one test per headline requirement.

Each test exercises the system through its public entry points: the
command interpreter over the shipped library file, the evaluator presets,
and the independent small-step reduction engine that cross-validates
normal forms.
"""

import random
import time
from pathlib import Path

import pytest

import gen_typed
import specs as SP
from flat_cases import CHAIN3, assoc_pair, check_prunes_commute, make_ctx, merge, pruning_chain

from cattkernel import cli as X
from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import oracle as O
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel.flat import STAR, Arrow, FlatCtx, FlatSub, Var
from cattkernel.nbe import SU, SUA, WEAK, NId
from cattkernel.oracle import RuleSet
from cattkernel.trees import LEAF, LTree, Tree
from cattkernel.typecheck import Checker, Signature

MONOIDAL = Path(__file__).resolve().parent.parent / "catt" / "monoidal.catt"

PRESETS = (WEAK, SU, SUA)


def load(text: str, config) -> tuple[X.SessionState, list[str]]:
    state = X.SessionState(sig=Signature(config=config))
    out: list[str] = []
    for cmd in R.parse(text):
        out.extend(X.run_command(state, cmd))
    return state, out


def nf_of(state: X.SessionState, name: str):
    entry = state.sig.entries[name]
    return Checker(state.sig).nf(entry.ctx, entry.term)


# ---------------------------------------------------------------------------
# 1. the shipped library loads under every preset


def test_01_shipped_file_loads_under_every_preset():
    text = MONOIDAL.read_text()
    for config in PRESETS:
        start = time.perf_counter()
        _, out = load(text, config)
        elapsed = time.perf_counter() - start
        # both assertions in the file hold, including the coherence
        # versus built-in composite comparison with no reduction enabled
        assert out.count("assertion holds") == 2
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. the unit and associator laws trivialise under the strict presets


def test_02_unit_and_associator_coherences_become_identities():
    text = MONOIDAL.read_text()

    start = time.perf_counter()
    st_su, _ = load(text, SU)
    tri = nf_of(st_su, "triangle")
    assert isinstance(tri.head, NId)
    assert time.perf_counter() - start < 1.0

    start = time.perf_counter()
    st_sua, _ = load(text, SUA)
    pent = nf_of(st_sua, "pentagon")
    assert isinstance(pent.head, NId)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 3. the exchange cell on identity arguments


def test_03_exchange_on_identities_typechecks_with_size_19():
    text = MONOIDAL.read_text() + (
        "def eh (x : *), (a : id(x) -> id(x)), (b : id(x) -> id(x))"
        " : vert(a,b) -> vert(b,a) = swap(a, b)\n"
        "size swap(a, b) in"
        " (x : *), (a : id(x) -> id(x)), (b : id(x) -> id(x))\n"
    )
    _, out = load(text, SU)
    assert "defined eh" in out
    assert out[-1] == "size: 19"


# ---------------------------------------------------------------------------
# 4. both bracketings of a triple composite


def _flat_nf(config, tree, term_text):
    ck = Checker(Signature(config=config))
    ctx = make_ctx(tree)
    term, _ = ck.check(ctx, R.parse_term(term_text))
    return N.flatten_nf(ck.nf(ctx, term), tree)


def test_04_bracketings_flatten_only_with_insertion():
    left_text = "comp[comp[p00, p10], p20]"
    right_text = "comp[p00, comp[p10, p20]]"
    _, _, _, ternary = assoc_pair()

    left = _flat_nf(SUA, CHAIN3, left_text)
    right = _flat_nf(SUA, CHAIN3, right_text)
    assert left == ternary
    assert right == ternary

    assert _flat_nf(SU, CHAIN3, left_text) != _flat_nf(SU, CHAIN3, right_text)


# ---------------------------------------------------------------------------
# 5. the three-step simplification chain


def test_05_simplification_chain_agrees_with_the_evaluator():
    _, term, var = pruning_chain()
    nf, trace = O.normalise(term, RuleSet.SU_PRIME)
    assert trace == ["ecr", "prune", "dr"]
    assert nf == var

    ctx_text = (
        "(x : *), (y : *), (f : x -> y), (z : *), (g : y -> z),"
        " (h : x -> z), (a : comp[f,g] -> h)"
    )
    term_text = (
        "comp[coh [ m0{m00}m1{m10}m2 : comp[m00,m10] -> comp[m00,m10] ]"
        " (f, g), a]"
    )
    ck = Checker(Signature(config=SU))
    cmd = R.parse(f"normalise {term_text} in {ctx_text}")[0]
    ctx = ck.elab_ctx(cmd.ctx)
    core, _ = ck.check(ctx, cmd.term)
    assert N.flatten_nf(ck.nf(ctx, core), len(ctx)) == var
    assert O.normalise(C.flatten_tm(core, len(ctx)), RuleSet.SU_PRIME)[0] == var


# ---------------------------------------------------------------------------
# 6/7. random well-typed terms: evaluator/reduction agreement and the
# strictly decreasing complexity measure


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(20260823)
    cases = [gen_typed.random_case(rng) for _ in range(500)]
    stats = {
        "checked": 0,
        "steps": 0,
        "violations": 0,
        "mismatches": 0,
        "seed_mismatches": 0,
    }
    pairs = ((SU, RuleSet.SU_PRIME), (SUA, RuleSet.SUA_PRIME))
    for i, (tree, _, term_text) in enumerate(cases):
        for config, rules in pairs:
            ck = Checker(Signature(config=config))
            ctx = make_ctx(tree)
            term, _ = ck.check(ctx, R.parse_term(term_text))
            nbe_nf = N.flatten_nf(ck.nf(ctx, term), tree)
            start = C.flatten_tm(term, tree)
            t = start
            while True:
                steps = O.step(t, rules)
                if not steps:
                    break
                chosen = steps[0]
                stats["steps"] += 1
                if chosen.rule != "cell" and not SP.less_than(
                    SP.complexity(chosen.term), SP.complexity(t)
                ):
                    stats["violations"] += 1
                t = chosen.term
            if t != nbe_nf:
                stats["mismatches"] += 1
            if SP.normalise_random(start, rules, i + 1) != t:
                stats["seed_mismatches"] += 1
            stats["checked"] += 1
    return stats


def test_06_evaluator_agrees_with_reduction_on_random_terms(random_suite):
    assert random_suite["checked"] >= 1000
    assert random_suite["mismatches"] == 0
    assert random_suite["seed_mismatches"] == 0


def test_07_complexity_strictly_decreases_on_every_step(random_suite):
    assert random_suite["steps"] > 0
    assert random_suite["violations"] == 0


# ---------------------------------------------------------------------------
# 8. full terms over the one- and two-dimensional discs


DISC_SETUPS = (
    (
        1,
        "(x : *), (y : *), (f : x -> y)",
        (
            "f",
            "comp[f, id(y)]",
            "comp[id(x), f]",
            "coh [ x{f}y : comp[f] -> comp[f] ] (f)",
        ),
    ),
    (
        2,
        "(x : *), (y : *), (f : x -> y), (g : x -> y), (a : f -> g)",
        (
            "a",
            "comp[a, id(g)]",
            "comp[id(f), a]",
            "coh [ x{f{a}g}y : comp[a] -> comp[a] ] (a)",
        ),
    ),
)


def _coh_nodes(t) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + sum(_coh_nodes(u) for u in t.sub.terms)


def _iterated_identity_on_a_variable(t) -> bool:
    while F.is_identity(t):
        t = t.sub.terms[-1]
    return isinstance(t, Var)


def test_08_full_disc_terms_normalise_to_iterated_identities():
    total = 0
    for dim, ctx_text, seeds in DISC_SETUPS:
        ck = Checker(Signature(config=SU))
        cmd = R.parse(f"normalise {seeds[0]} in {ctx_text}")[0]
        ctx = ck.elab_ctx(cmd.ctx)
        disc = F.disc_ctx(dim)
        seen: set = set()
        frontier = list(seeds)
        while frontier:
            grown: list[str] = []
            for text in frontier:
                term, _ = ck.check(ctx, R.parse_term(text))
                flat = C.flatten_tm(term, len(ctx))
                if _coh_nodes(flat) > 3 or flat in seen:
                    continue
                seen.add(flat)
                assert SP.support(disc, flat) == SP.VarSet.full(len(disc))
                nf = N.flatten_nf(ck.nf(ctx, term), len(ctx))
                assert _iterated_identity_on_a_variable(nf)
                assert O.normalise(flat, RuleSet.SU_PRIME)[0] == nf
                grown.extend((f"id({text})", f"comp[{text}]"))
            frontier = grown
        total += len(seen)
    assert total >= 25


# ---------------------------------------------------------------------------
# 9. structural law suites


def all_trees(max_nodes: int):
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
        for p in SP.all_branches(s):
            for t in ts:
                if T.is_insertion_point(s, p, t):
                    yield s, p, t


def _rand_term(rng: random.Random, depth: int, width: int):
    if depth == 0 or rng.random() < 0.5:
        return Var(rng.randrange(width))
    return F.canonical_identity(STAR, _rand_term(rng, depth - 1, width))


def _rand_sub(rng: random.Random, n_terms: int, width: int) -> FlatSub:
    return FlatSub(
        STAR, tuple(_rand_term(rng, 2, width) for _ in range(n_terms))
    )


def test_09_structural_laws_hold_exactly():
    start = time.perf_counter()
    rng = random.Random(7)

    # substitution composition is associative and unital
    for _ in range(50):
        s1 = _rand_sub(rng, 4, 5)
        s2 = _rand_sub(rng, 5, 6)
        s3 = _rand_sub(rng, 6, 4)
        assert F.compose(F.compose(s1, s2), s3) == F.compose(
            s1, F.compose(s2, s3)
        )
        assert F.compose(s1, F.identity_sub(FlatCtx((STAR,) * 5))) == s1
        assert F.compose(F.identity_sub(FlatCtx((STAR,) * 4)), s1) == s1

    # suspending a disc gives the next disc
    for n in range(5):
        assert F.suspend_ctx(F.disc_ctx(n)) == F.disc_ctx(n + 1)

    # the sphere type pulled back along the classifying substitution
    # returns the classified type
    samples = [SP.sphere_ty(n) for n in range(5)]
    idx = F.canonical_identity(STAR, Var(0))
    samples.append(Arrow(idx, STAR, idx))
    samples.append(Arrow(Var(2), Arrow(idx, STAR, idx), Var(1)))
    for a in samples:
        n = F.dim_ty(a)
        assert F.substitute(SP.sphere_ty(n), F.sub_from_sphere(a)) == a

    # pruning two peaks commutes: the peaks of a tree are its maximal paths
    # (none for the leaf), and the oracle's prune steps at the peaks i < j,
    # taken in either order, reach the head over the context that the
    # Dyck reference prunes to
    for t in all_trees(6):
        check_prunes_commute(t)

    # labellings: realisation is a homomorphism and round-trips
    for t in all_trees(5):
        lab = SP.id_label(t)
        assert LTree(t, F.label_to_sub(lab).terms) == lab
        tau = _rand_sub(rng, T.ctx_size(t), T.ctx_size(t))
        assert F.label_to_sub(SP.label_sub(lab, tau), tau.ty) == F.compose(
            F.label_to_sub(lab), tau
        )
        for n in range(t.height + 1):
            for eps in ("-", "+"):
                incl = F.boundary_inclusion(t, n, eps)
                b = T.tree_boundary(t, n)
                assert LTree(b, F.label_to_sub(incl).terms) == incl
                assert F.label_to_sub(SP.label_sub(incl, tau), tau.ty) == F.compose(
                    F.label_to_sub(incl), tau
                )

    # insertion: the exterior labelling sends the branch to the standard
    # coherence over the interior, and gluing the two is the identity
    for s, p, t in insertion_points(6):
        plan = T.insertion(s, p, t)
        kappa = F.exterior_label(plan)
        iota = SP.interior_label(s, p, t)
        lh = SP.leaf_height(s, p)
        expect = F.substitute(F.standard_coh(t, lh), F.label_to_sub(iota))
        assert SP.at(kappa, SP.branch_path(s, p)) == expect
        assert merge(kappa, p, iota) == SP.id_label(plan.tree)

    # disc unit laws for insertion
    for n in range(1, 4):
        d = T.linear_tree(n)
        for p in SP.all_branches(d):
            for t in all_trees(5):
                if T.is_insertion_point(d, p, t):
                    assert T.insertion(d, p, t).tree == t
                    assert SP.interior_label(d, p, t) == SP.id_label(t)
    for s, p, t in insertion_points(5):
        d = T.linear_tree(SP.leaf_height(s, p))
        if T.is_insertion_point(s, p, d):
            assert T.insertion(s, p, d).tree == s

    # pushout factorisation is unique: the two legs jointly cover the
    # inserted context, so a factoring substitution is forced pointwise
    for s, p, t in insertion_points(5):
        plan = T.insertion(s, p, t)
        n = T.ctx_size(plan.tree)
        fv = SP.free_vars(F.label_to_sub(F.exterior_label(plan)), n).union(
            SP.free_vars(F.label_to_sub(SP.interior_label(s, p, t)), n)
        )
        assert fv == SP.VarSet.full(n)

    # tree and context boundary computations agree
    for t in all_trees(6):
        g = F.tree_to_ctx(t)
        for n in range(0, t.height + 2):
            for eps in ("-", "+"):
                assert SP.tree_boundary_set(t, n, eps) == SP.boundary_set(
                    g, n, eps
                )

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 10. excluded large benchmarks


def test_10_large_proof_term_benchmarks_are_out_of_scope():
    """The exchange cell under the weak preset (size 1807) and the
    syllepsis (sizes 2745/1785) need large proof constructions that are
    not part of the shipped corpus; their size equalities are optional
    extras for anyone who reconstructs those files, not required here."""
    cmds = R.parse(MONOIDAL.read_text())
    names = {c.name for c in cmds if isinstance(c, R.DefCmd)}
    assert "swap" in names
    assert "syllepsis" not in names
