"""The bidirectional checker, driven through the surface syntax."""

import random
from pathlib import Path

import pytest

from cattkernel import cli as X
from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel.core import path_name
from cattkernel.flat import VarSet
from cattkernel.nbe import SU, SUA, WEAK, NApp, NCoh, NComp, NId, NVar
from cattkernel.trees import LEAF, Tree, linear_tree
from cattkernel.typecheck import (
    CheckError,
    Checker,
    OperationSet,
    Signature,
    TreeCtx,
    op_allowed,
)

import gen_typed
from flat_cases import make_ctx

CHAIN2 = Tree((LEAF, LEAF))
CHAIN3 = Tree((LEAF, LEAF, LEAF))

COMP1 = "def comp1 [f,g] = comp\n"
COMP1L = "def comp1L (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z) = comp[f, g]\n"


def session(config=WEAK, ops=OperationSet.REGULAR) -> X.SessionState:
    return X.SessionState(sig=Signature(config=config, ops=ops))


def run(state: X.SessionState, text: str) -> list[str]:
    out: list[str] = []
    for cmd in R.parse(text):
        out.extend(X.run_command(state, cmd))
    return out


def nf_of(state: X.SessionState, name: str):
    entry = state.sig.entries[name]
    return Checker(state.sig).nf(entry.ctx, entry.term)


# ---------------------------------------------------------------------------
# definitions


def test_def_with_list_context():
    st = session()
    assert run(st, COMP1L) == ["defined comp1L"]
    entry = st.sig.entries["comp1L"]
    assert len(entry.ty) == 1


def test_def_with_tree_context():
    st = session()
    run(st, "def whisk [ x{f}y{a{b}}z ] = comp")
    assert "whisk" in st.sig.entries


def test_def_infers_context_of_a_coherence():
    st = session()
    run(st, "def assoc = coh [ x{f}y{g}z{h}w : comp[f,comp[g,h]] -> comp[comp[f,g],h] ]")
    entry = st.sig.entries["assoc"]
    assert isinstance(entry.ctx, TreeCtx) and entry.ctx.tree == CHAIN3


def test_def_with_stated_type():
    st = session()
    run(st, COMP1)
    run(st, "def same (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z) : x -> z = comp1(f, g)")
    assert "same" in st.sig.entries


def test_def_with_wrong_stated_type():
    st = session()
    run(st, COMP1)
    with pytest.raises(CheckError):
        run(st, "def bad (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z) : z -> x = comp1(f, g)")


def test_duplicate_context_names_rejected():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def dup [ x{f}x ] = f")


def test_unknown_variable_rejected():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def oops (x : *) = y")


# ---------------------------------------------------------------------------
# coherence formation


def test_non_boundary_support_rejected_under_regular():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def inv = coh [ x{f}y : y -> x ]")


def test_groupoidal_operations_allow_inverses():
    st = session(ops=OperationSet.GROUPOIDAL)
    run(st, "def inv = coh [ x{f}y : y -> x ]")
    assert "inv" in st.sig.entries


def test_normal_form_supports_match_flat_supports():
    # the tree support of a normal form is the support of its flattening
    rng = random.Random(3)
    for _ in range(60):
        tree, _, term_text = gen_typed.random_case(rng)
        g = T.tree_to_ctx(tree)
        ctx = make_ctx(tree)
        for config in (WEAK, SU, SUA):
            ck = Checker(Signature(config=config))
            term, ty = ck.check(ctx, R.parse_term(term_text))
            for x in (ck.nf(ctx, term),) + ty[0]:
                got = VarSet.of(
                    len(g), (T.path_pos(tree, p) for p in ck.support(ctx, x))
                )
                assert got == F.support(g, N.flatten_nf(x, tree))


# ---------------------------------------------------------------------------
# operation sets, on path supports


def test_disc_boundaries_allowed_under_regular():
    ck = Checker(Signature())
    for n in range(1, 4):
        t = linear_tree(n)
        u = ck.support(make_ctx(t), NVar((0,) * n))  # d_{n-1}^-
        v = ck.support(make_ctx(t), NVar((0,) * (n - 1) + (1,)))  # d_{n-1}^+
        assert op_allowed(OperationSet.REGULAR, t, u, v)


def test_groupoidal_allows_everything():
    u = {(0,)}
    assert op_allowed(OperationSet.GROUPOIDAL, linear_tree(2), u, u)


def test_regular_rejects_non_boundary():
    u = {(0,)}
    assert not op_allowed(OperationSet.REGULAR, linear_tree(2), u, u)


def test_regular_allows_full():
    t = Tree((LEAF, Tree((LEAF,))))  # x{f}y{g{a}h}z
    full = set(T.all_paths(t))
    assert op_allowed(OperationSet.REGULAR, t, full, full)


def test_coherence_over_singleton_tree_rejected():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def pt = coh [ x : x -> x ]")


def test_mismatched_arrow_endpoint_types_rejected():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def bad (x : *), (y : *), (f : x -> y), (a : f -> f) : x -> a = f")


# ---------------------------------------------------------------------------
# labellings


def test_labelling_fills_implicit_arguments():
    st = session()
    run(st, COMP1)
    run(st, "def outer (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z) = comp<{f}{g}>")
    assert "outer" in st.sig.entries


def test_labelling_with_broken_chaining_rejected():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def bad (x : *), (y : *), (f : x -> y), (g : x -> y) = comp[f, g]")


def test_singleton_labelling_must_be_explicit():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def bad (x : *) = comp<{_}>")


def test_explicit_boundary_arguments_are_checked():
    st = session()
    with pytest.raises(CheckError):
        run(st, "def bad (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z) = comp<y{f}y{g}z>")


# ---------------------------------------------------------------------------
# substitutions and implicit suspension


def test_named_term_applied_to_arguments():
    st = session()
    run(st, COMP1)
    run(st, "def tri (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z), (w : *), (h : z -> w) = comp1(comp1(f,g), h)")
    assert "tri" in st.sig.entries


def test_wrong_argument_count_rejected():
    st = session()
    run(st, COMP1L)
    with pytest.raises(CheckError):
        run(st, "def bad (x : *), (y : *), (f : x -> y) = comp1L(f)")


def test_implicit_suspension_of_list_definitions():
    # comp1L expects 0-cells and 1-cells; passing cells one dimension up
    # suspends the definition
    st = session()
    run(st, COMP1L)
    run(st, "def v (x : *), (y : *), (f : x -> y), (g : x -> y), (h : x -> y), (a : f -> g), (b : g -> h) = comp1L(f, g, a, h, b)")
    entry = st.sig.entries["v"]
    assert len(entry.ty) == 2


def test_implicit_suspension_of_tree_definitions():
    st = session()
    run(st, COMP1)
    run(st, "def v (x : *), (y : *), (f : x -> y), (g : x -> y), (h : x -> y), (a : f -> g), (b : g -> h) = comp1(a, b)")
    entry = st.sig.entries["v"]
    assert len(entry.ty) == 2


def test_identity_applied_to_a_cell():
    st = session()
    run(st, "def idf (x : *), (y : *), (f : x -> y) = id(f)")
    entry = st.sig.entries["idf"]
    assert len(entry.ty) == 2
    nf = nf_of(st, "idf")
    assert isinstance(nf, NApp) and nf.head == NId(1)


# ---------------------------------------------------------------------------
# normal forms per preset


def test_unary_composite_strict_only_under_su():
    st = session()
    run(st, "def one (x : *), (y : *), (f : x -> y) = comp[f]")
    weak_nf = nf_of(st, "one")
    assert isinstance(weak_nf, NApp) and weak_nf.head == NComp(Tree((LEAF,)))
    st_su = session(config=SU)
    run(st_su, "def one (x : *), (y : *), (f : x -> y) = comp[f]")
    assert nf_of(st_su, "one") == NVar(2)


def test_associativity_only_under_sua():
    text = (
        COMP1
        + "def l (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z), (w : *), (h : z -> w) = comp1(comp1(f,g), h)\n"
        + "def r (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z), (w : *), (h : z -> w) = comp1(f, comp1(g,h))\n"
    )
    st_su = session(config=SU)
    run(st_su, text)
    assert nf_of(st_su, "l") != nf_of(st_su, "r")
    st_sua = session(config=SUA)
    run(st_sua, text)
    left = nf_of(st_sua, "l")
    assert left == nf_of(st_sua, "r")
    assert isinstance(left, NApp) and left.head == NComp(CHAIN3)


def test_unitality_under_su():
    st = session(config=SU)
    run(st, COMP1)
    run(st, "def lu (x : *), (y : *), (f : x -> y) = comp1(id(x), f)")
    assert nf_of(st, "lu") == NVar(2)


def test_weak_theory_keeps_units():
    st = session()
    run(st, COMP1)
    run(st, "def lu (x : *), (y : *), (f : x -> y) = comp1(id(x), f)")
    nf = nf_of(st, "lu")
    assert isinstance(nf, NApp) and nf.head == NComp(CHAIN2)


def test_endo_coherence_normalises_to_identity_under_su():
    text = "def e (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z) = coh [ x{f}y{g}z : comp[f,g] -> comp[f,g] ] (f, g)"
    st = session(config=SU)
    run(st, text)
    nf = nf_of(st, "e")
    assert isinstance(nf, NApp) and nf.head == NId(1)
    st_weak = session()
    run(st_weak, text)
    nf = nf_of(st_weak, "e")
    assert isinstance(nf, NApp) and isinstance(nf.head, NCoh)


# ---------------------------------------------------------------------------
# commands


def test_assert_command_reports_equality():
    st = session()
    run(st, COMP1)
    out = run(
        st,
        "assert comp1(f,g) = comp[f,g] in (x : *), (y : *), (f : x -> y), (z : *), (g : y -> z)",
    )
    assert out == ["assertion holds"]


def test_assert_command_rejects_distinct_terms():
    st = session(config=SU)
    run(st, COMP1)
    with pytest.raises(CheckError):
        run(st, "assert comp1(f,g) = comp1(g,f) in [f,g]")


def test_normalise_command_output():
    st = session(config=SU)
    out = run(st, "normalise comp[f, id(y)] in (x : *), (y : *), (f : x -> y)")
    assert out == ["normal form: f", "of type: x -> y"]


def test_size_command_output():
    st = session()
    run(st, COMP1)
    out = run(st, "size comp1(comp1(f,g),h) in [f,g,h]")
    assert out == ["size: 2"]


def test_square_context_sugar():
    st = session()
    out = run(st, "normalise comp in [[a, b]]")
    assert out[0].startswith("normal form: comp")


def test_failed_command_leaves_signature_unchanged():
    st = session()
    run(st, COMP1)
    before = dict(st.sig.entries)
    with pytest.raises(CheckError):
        run(st, "def bad (x : *) = comp1(x)")
    assert st.sig.entries == before


# ---------------------------------------------------------------------------
# display round trips


def test_normal_form_output_reparses():
    st = session(config=SU)
    run(st, COMP1)
    out = run(st, "normalise comp1(comp1(f,g),h) in [f,g,h]")
    printed = out[0].removeprefix("normal form: ")
    reparsed = R.parse_term(printed)
    assert R.pretty(reparsed) == printed


def test_keep_implicits_shows_all_arguments():
    st = session(config=SU)
    st.keep_implicits = True
    out = run(st, "normalise comp[f, g] in [f, g]")
    assert out[0] == "normal form: comp<p0{f}p1{g}p2>"


# ---------------------------------------------------------------------------
# values carried by elaboration

ALL_CONFIGS = [
    N.EvalConfig(dr=dr, ecr=ecr, insertion=ins)
    for dr in (False, True)
    for ecr in (False, True)
    for ins in ("none", "id", "full")
]

MONOIDAL = Path(__file__).resolve().parent.parent / "catt" / "monoidal.catt"


def list_ctx_text(t: Tree) -> str:
    """The realisation of t as a list context, each cell named after its
    path as in gen_typed.ctx_text."""
    entries = []
    for p in sorted(T.all_paths(t), key=lambda p: T.path_pos(t, p)):
        if len(p) == 1:
            ty = "*"
        else:
            q = p[:-1]
            ty = f"{path_name(q)} -> {path_name(q[:-1] + (q[-1] + 1,))}"
        entries.append(f"({path_name(p)} : {ty})")
    return ", ".join(entries)


def test_elaborated_value_is_the_normal_form():
    rng = random.Random(11)
    cases = [gen_typed.random_case(rng) for _ in range(30)]
    for config in ALL_CONFIGS:
        ck = Checker(Signature(config=config))
        for tree, tree_text, term_text in cases:
            raw = R.parse_term(term_text)
            # the context text parses to the suspension of the tree, so
            # the term is applied one dimension up there
            ctxs = (
                make_ctx(tree),
                ck.elab_ctx(R.parse_ctx(tree_text)),
                ck.elab_ctx(R.parse_ctx(list_ctx_text(tree))),
            )
            for ctx in ctxs:
                term, ty, value = ck.elab(ctx, raw)
                nf = ck.nf(ctx, term)
                assert value == nf, (config, ctx, term_text)
                assert ck.check(ctx, raw) == (term, ty)
                # normal forms are fixed points of normalisation
                assert ck.nf(ctx, N.quote_tm(nf)) == nf
                if config == WEAK:
                    # the weak theory only evaluates: flattening sees no change
                    amb = ctx.tree if isinstance(ctx, TreeCtx) else len(ctx)
                    assert N.flatten_nf(nf, amb) == C.flatten_tm(term, amb)


def test_elaborated_values_in_the_monoidal_file():
    # the file applies definitions to cells of higher dimension than their
    # contexts (implicit suspension) and elaborates coherence types
    cmds = R.parse(MONOIDAL.read_text())
    for config in ALL_CONFIGS:
        st = session(config=config)
        ck = Checker(st.sig)
        for cmd in cmds:
            if isinstance(cmd, R.DefCmd) and cmd.ctx is None:
                ctx, term, ty = ck.infer(cmd.term)
                if isinstance(term, C.CCoh):
                    assert ty == ck.nf_ty(ctx, term.ty)
            else:
                ctx = ck.elab_ctx(cmd.ctx)
                raws = (cmd.lhs, cmd.rhs) if isinstance(cmd, R.AssertCmd) else (cmd.term,)
                for raw in raws:
                    term, _, value = ck.elab(ctx, raw)
                    assert value == ck.nf(ctx, term), (config, cmd)
            if isinstance(cmd, R.DefCmd):
                X.run_command(st, cmd)


def left_nested(n: int) -> str:
    t = "f0"
    for i in range(1, n):
        t = f"comp[{t}, f{i}]"
    return t


@pytest.mark.parametrize("config", [SU, SUA], ids=["su", "sua"])
def test_nested_composite_evaluates_each_argument_once(config, monkeypatch):
    # Evaluating each argument where it is checked makes the work grow
    # about linearly in the number of nested composites; re-evaluating
    # every argument at each enclosing level made it grow quadratically.
    calls = 0
    eval_tm = N.eval_tm

    def counted(*args):
        nonlocal calls
        calls += 1
        return eval_tm(*args)

    monkeypatch.setattr(N, "eval_tm", counted)

    def count(n: int) -> int:
        nonlocal calls
        calls = 0
        ck = Checker(Signature(config=config))
        names = ", ".join(f"f{i}" for i in range(n))
        ctx = ck.elab_ctx(R.parse_ctx(f"[{names}]"))
        term, _ = ck.check(ctx, R.parse_term(left_nested(n)))
        ck.nf(ctx, term)
        return calls

    count(64)  # fill the caches of standard types first
    assert count(64) / count(32) <= 2.5
