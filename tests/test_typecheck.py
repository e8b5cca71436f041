"""The bidirectional checker, driven through the surface syntax."""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cattkernel import cli as X
from cattkernel import core as C
from cattkernel import flat as F
from cattkernel import nbe as N
from cattkernel import oracle as O
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel import typecheck as TC
from cattkernel.core import path_name
from cattkernel.nbe import SU, SUA, WEAK, NApp, NCoh, NComp, NId, NVar
from cattkernel.trees import LEAF, LTree, Tree, linear_tree
from cattkernel.typecheck import (
    CheckError,
    Checker,
    OperationSet,
    Signature,
    TreeCtx,
    op_allowed,
)

import gen_typed
import specs as SP
from flat_cases import make_ctx

ROOT = Path(__file__).resolve().parent.parent

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
    # a definition's context and a coherence's tree context alike
    for text in ("def dup [ x{f}x ] = f", "def dup = coh [ x{f}x : f -> f ]"):
        with pytest.raises(CheckError, match="duplicate variable 'x'"):
            run(session(), text)


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
        g = F.tree_to_ctx(tree)
        ctx = make_ctx(tree)
        for config in (WEAK, SU, SUA):
            ck = Checker(Signature(config=config))
            term, ty = ck.check(ctx, R.parse_term(term_text))
            for x in (ck.nf(ctx, term),) + ty[0]:
                got = SP.VarSet.of(len(g), ck.support(ctx, x))
                assert got == SP.support(g, N.flatten_nf(x, tree))


def core_positions(x, n: int):
    """(position, length of its context) for each core variable of x, a
    core term or type over a context of length n."""
    cls = x.__class__
    if cls is C.CVar:
        yield x.pos, n
    elif cls is C.CApp:
        data = x.args.data
        es = data.entries if isinstance(data, LTree) else data
        yield from core_positions(x.term, len(es))
        yield from core_positions(x.args.ty, n)
        for e in es:
            yield from core_positions(e, n)
    elif cls is C.CSusp:
        yield from core_positions(x.term, n - 2)
    elif cls is C.CCoh:
        yield from core_positions(x.ty, T.ctx_size(x.tree))
    elif cls is C.CArrow:
        for y in (x.src, x.base, x.tgt):
            yield from core_positions(y, n)


def nf_positions(x, n: int):
    """(position, length of its context) for each variable of x, a normal
    form or a normal type over a context of length n."""
    if x.__class__ is tuple:
        for s, t in x:
            yield from nf_positions(s, n)
            yield from nf_positions(t, n)
    elif x.__class__ is NVar:
        yield x.pos, n
    else:
        if x.head.__class__ is NCoh:
            yield from nf_positions(x.head.ty, T.ctx_size(x.head.tree))
        for e in x.label.entries:
            yield from nf_positions(e, n)


def test_every_kernel_variable_is_a_position_of_its_context():
    # a variable of a tree context is its position, as one of a list
    # context is: an int in range of the context it lives over
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads as W
    finally:
        sys.path.remove(str(ROOT / "bench"))
    rng = random.Random(5)
    inputs = [gen_typed.random_case(rng)[1:] for _ in range(40)]
    inputs += W.corpus_round(rng) + W.corpus_round(rng)
    seen = 0
    for ctx_text, term_text in inputs:
        for config in (WEAK, SU, SUA):
            ck = Checker(Signature(config=config))
            ctx = ck.elab_ctx(R.parse_ctx(ctx_text))
            term, ty, value = ck.elab(ctx, R.parse_term(term_text))
            n = T.ctx_size(ctx.tree)
            found = [
                *core_positions(term, n),
                *core_positions(N.quote_tm(value), n),
                *nf_positions(value, n),
                *nf_positions(ty, n),
            ]
            assert all(type(i) is int and 0 <= i < m for i, m in found), found
            seen += len(found)
    assert seen > 1000


# ---------------------------------------------------------------------------
# operation sets, on supports of positions


def test_disc_boundaries_allowed_under_regular():
    ck = Checker(Signature())
    for n in range(1, 4):
        t = linear_tree(n)
        u = ck.support(make_ctx(t), NVar(SP.path_pos(t, (0,) * n)))  # d_{n-1}^-
        v = ck.support(make_ctx(t), NVar(SP.path_pos(t, (0,) * (n - 1) + (1,))))  # d_{n-1}^+
        assert op_allowed(OperationSet.REGULAR, t, u, v)


def test_groupoidal_allows_everything():
    u = {0}
    assert op_allowed(OperationSet.GROUPOIDAL, linear_tree(2), u, u)


def test_regular_rejects_non_boundary():
    u = {0}
    assert not op_allowed(OperationSet.REGULAR, linear_tree(2), u, u)


def test_regular_allows_full():
    t = Tree((LEAF, Tree((LEAF,))))  # x{f}y{g{a}h}z
    full = set(range(T.ctx_size(t)))
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


@pytest.mark.parametrize(
    "ctx, args", [("x{f}y", "<x{f}y{g}z>"), ("x{f{a}g{b}h}y", "<x{f{a}g}y>")]
)
def test_labelling_of_another_shape_rejected(ctx, args):
    # the shapes differ at the root, or only below it
    st = session()
    run(st, f"def h {ctx} = comp")
    with pytest.raises(CheckError, match="the labelling does not match the shape"):
        run(st, f"normalise h{args} in x{{f}}y{{g}}z")


@pytest.mark.parametrize(
    "text, at, message",
    [
        ("normalise comp[x, f] in x{f}y", "x", "a type of the wrong dimension"),
        ("normalise comp[f, a] in x{f{a}g}y", "[f, a]", "live over different types"),
        ("normalise comp<x{f}y{_}z> in x{f}y{g}z", "_", "cannot be omitted"),
        ("normalise comp<x{f{_}g}y> in x{f{a}g}y", "_", "cannot be omitted"),
        (
            "normalise comp<x{f}y{g{x}h}z> in x{f}y{g{a}h}z",
            "x",
            "a type of the wrong dimension",
        ),
        ("normalise comp<x{f}y{g}x> in x{f}y{g}z", "x", "disagrees with the inferred"),
    ],
)
def test_labelling_errors_point_at_the_labelling_at_fault(text, at, message):
    # the span is that of the part of the labelling at fault, nested or not:
    # a whole labelling, one of its branches, or one entry
    with pytest.raises(CheckError, match=message) as err:
        run(session(SU), text)
    span = err.value.span
    assert text[span.start : span.end] == at
    assert text.rfind(at, 0, text.index(" in ")) == span.start


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

MONOIDAL = ROOT / "catt" / "monoidal.catt"


def list_ctx_text(t: Tree) -> str:
    """The realisation of t as a list context, each cell named after its
    path as in gen_typed.ctx_text."""
    entries = []
    for p in T.path_table(t).paths:
        ends = SP.cell_ends(p)
        ty = "*" if ends is None else " -> ".join(map(path_name, ends))
        entries.append(f"({path_name(p)} : {ty})")
    return ", ".join(entries)


def test_elaborated_value_is_the_normal_form():
    rng = random.Random(11)
    cases = [gen_typed.random_case(rng) for _ in range(30)]
    for config in ALL_CONFIGS:
        ck = Checker(Signature(config=config))
        for tree, tree_text, term_text in cases:
            raw = R.parse_term(term_text)
            assert ck.elab_ctx(R.parse_ctx(tree_text)).tree == tree
            # in square brackets the context is the suspension of the tree,
            # so the term is applied one dimension up there
            ctxs = (
                make_ctx(tree),
                ck.elab_ctx(R.parse_ctx(f"[ {tree_text} ]")),
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
                    assert ty == N.eval_ty(config, term.ty, TC.ctx_id_env(ctx))
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


def right_nested(n: int) -> str:
    t = f"f{n - 1}"
    for i in reversed(range(n - 1)):
        t = f"comp[f{i}, {t}]"
    return t


def nary_ctx(n: int) -> str:
    return "[" + ", ".join(f"f{i}" for i in range(n)) + "]"


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
        ctx = ck.elab_ctx(R.parse_ctx(nary_ctx(n)))
        term, _ = ck.check(ctx, R.parse_term(left_nested(n)))
        ck.nf(ctx, term)
        return calls

    count(64)  # fill the caches of standard types first
    assert count(64) / count(32) <= 2.5


@pytest.mark.parametrize("config", [SU, SUA], ids=["su", "sua"])
def test_nested_composite_elaborates_in_linear_work(config, monkeypatch):
    # Names are found in an index of the context, a labelling keeps its
    # shape once built, an insertion builds its shape from the two shapes
    # it joins, and a square-bracket item is parsed without scanning ahead
    # to its end; each of these grew quadratically in the nesting depth
    # when done again at every level.  The parser's work is counted as the
    # tokens it reads, which a scan ahead or a second parse would add to.
    counts = {"path_table": 0, "Tree": 0, "token": 0}

    def counted(key, f):
        def g(*args):
            counts[key] += 1
            return f(*args)

        return g

    monkeypatch.setattr(T, "path_table", counted("path_table", T.path_table))
    # a tree is asked for at Tree.__new__, which finds or makes it
    monkeypatch.setattr(T.Tree, "__new__", counted("Tree", T.Tree.__new__))
    tokenize = R.tokenize

    class CountedTokens(list):
        def __getitem__(self, i):
            counts["token"] += 1
            return list.__getitem__(self, i)

    monkeypatch.setattr(R, "tokenize", lambda *args: CountedTokens(tokenize(*args)))

    def count(n: int) -> dict:
        counts.update(dict.fromkeys(counts, 0))
        ck = Checker(Signature(config=config))
        ctx = ck.elab_ctx(R.parse_ctx(nary_ctx(n)))
        term, _ = ck.check(ctx, R.parse_term(left_nested(n)))
        ck.nf(ctx, term)
        return dict(counts)

    count(128)  # fill the caches of standard types first
    small, large = count(64), count(128)
    for key in counts:
        assert large[key] <= 2.5 * small[key], (key, small[key], large[key])


@pytest.mark.parametrize("config", [WEAK, SU, SUA], ids=["weak", "su", "sua"])
def test_the_kernel_route_leaves_no_reference_cycles(config):
    # parsing, elaborating, quoting and printing free what they build by
    # reference counting alone: a recursive closure is a reference cycle,
    # and one per labelling kept its raw syntax alive until the cyclic
    # collector ran, which took about an eighth of the nary workload's time
    cases = [gen_typed.random_case(random.Random(seed)) for seed in range(20)]
    texts = [(nary_ctx(16), nested(16)) for nested in (left_nested, right_nested)]
    texts += [(ctx_text, term_text) for _, ctx_text, term_text in cases]

    def run() -> None:
        ck = Checker(Signature(config=config))
        for ctx_text, term_text in texts:
            ctx = ck.elab_ctx(R.parse_ctx(ctx_text))
            _, _, value = ck.elab(ctx, R.parse_term(term_text))
            R.pretty(C.to_raw(N.quote_tm(value), C.Names(ctx.names)))

    run()  # fill the caches first
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("config, size", [(SU, 127), (SUA, 1)], ids=["su", "sua"])
@pytest.mark.parametrize("nested", [left_nested, right_nested], ids=["left", "right"])
def test_deeply_nested_composite_normalises(config, size, nested):
    ck = Checker(Signature(config=config))
    ctx = ck.elab_ctx(R.parse_ctx(nary_ctx(128)))
    term, _, value = ck.elab(ctx, R.parse_term(nested(128)))
    # comparing two normal forms nested 127 deep takes about 1450 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3000)
    try:
        assert value == ck.nf(ctx, term)
    finally:
        sys.setrecursionlimit(limit)
    assert N.size_tm(value) == size


# ---------------------------------------------------------------------------
# facts that contexts and coherence heads keep


@pytest.mark.parametrize(
    "ctx_text, name",
    [("[f, g]", "g"), ("x{f{a}g}y", "a"), ("(x : *), (y : *), (f : x -> y)", "f")],
    ids=["square", "tree", "list"],
)
def test_a_context_keeps_each_variable_it_looks_up(ctx_text, name):
    ck = Checker(Signature(config=SU))
    ctx = ck.elab_ctx(R.parse_ctx(ctx_text))
    first = ck.lookup(ctx, name)
    again = ck.lookup(ctx, name)
    assert all(x is y for x, y in zip(first, again))
    pos = TC.name_index(ctx)[name]
    assert first == (C.CVar(pos), ctx.type_of(pos), NVar(pos))
    # the value is the identity environment's, and the core variable the
    # one its quotation keeps
    assert first[2] is TC.ctx_id_env(ctx).lookup(pos)
    assert N.quote_tm(first[2]) is first[0]
    assert ck.lookup(ctx, "nowhere") is None


def kept_heads(monkeypatch) -> list:
    """Record each coherence head that ``infer_coh`` returns, with the
    configuration it was elaborated under."""
    heads = []
    infer_coh = Checker.infer_coh

    def recorded(self, raw):
        out = infer_coh(self, raw)
        heads.append((self.config, out[1]))
        return out

    monkeypatch.setattr(Checker, "infer_coh", recorded)
    return heads


def test_a_coherence_keeps_the_value_of_its_type(monkeypatch, capsys):
    heads = kept_heads(monkeypatch)
    for flags in ([], ["--su"], ["--sua"]):
        for path in sorted((ROOT / "catt").glob("*.catt")):
            assert X.main(flags + [str(path)]) == 0, path
    capsys.readouterr()
    from_files = len(heads)
    rng = random.Random(29)
    cases = [gen_typed.random_case(rng) for _ in range(60)]
    for config in (WEAK, SU, SUA):
        ck = Checker(Signature(config=config))
        for tree, _, term_text in cases:
            ck.elab(make_ctx(tree), R.parse_term(term_text))
    assert from_files and len(heads) > from_files
    for config, head in heads:
        fresh = N.eval_ty(config, head.ty, N.id_env(head.tree))
        assert head._ty_nf == {config: fresh}


def test_a_defined_coherence_evaluates_its_type_once_per_configuration(monkeypatch):
    calls: dict = {}
    eval_ty = N.eval_ty

    def counted(config, a, env):
        calls[config, a] = calls.get((config, a), 0) + 1
        return eval_ty(config, a, env)

    state = session(SU)
    run(state, COMP1 + "def assoc = coh [ {f}{g}{h} "
        ": comp1(comp1(f,g),h) -> comp1(f,comp1(g,h)) ]\n")
    head = state.sig.entries["assoc"].term
    monkeypatch.setattr(N, "eval_ty", counted)
    ctx = "[p, q, r, s]"
    out = run(state, f"normalise assoc(p,q,r) in {ctx}\n"
              f"normalise assoc(q,r,s) in {ctx}\n"
              f"normalise assoc(comp1(p,q),r,s) in {ctx}\n")
    assert sum(line.startswith("normal form: ") for line in out) == 3
    # elaboration kept the value of the type it elaborated under SU
    assert calls.get((SU, head.ty), 0) == 0
    for config in (WEAK, SU, SUA):
        for _ in range(3):
            N.eval_tm(config, head, N.id_env(head.tree))
    kept = {config: calls.get((config, head.ty), 0) for config in (WEAK, SU, SUA)}
    assert kept == {WEAK: 1, SU: 0, SUA: 1}


# the least recursion limit at which each layer handles a left-nested SU
# composite of n arguments, found by bisection in a fresh interpreter, in a
# thread with a large stack so that no limit tried can overflow it
LAYER_DEPTH = """
import sys, threading
from cattkernel import core as C, nbe as N, surface as R
from cattkernel.typecheck import Checker, Signature

def layers(n):
    t = "f0"
    for i in range(1, n):
        t = f"comp[{t}, f{i}]"
    ck = Checker(Signature(config=N.SU))
    ctx = ck.elab_ctx(R.parse_ctx("[" + ", ".join(f"f{i}" for i in range(n)) + "]"))
    raw = R.parse_term(t)
    term, _, value = ck.elab(ctx, raw)
    core = N.quote_tm(value)
    names = C.Names(ctx.names)
    shown = C.to_raw(core, names)
    other = ck.nf(ctx, term)
    assert other is not value
    flat, flat_other = C.flatten_tm(term, ctx.tree), C.flatten_tm(term, ctx.tree)
    assert flat is not flat_other
    return {
        "elab": lambda: ck.elab(ctx, raw),
        "quote_tm": lambda: N.quote_tm(value),
        "to_raw": lambda: C.to_raw(core, names),
        "pretty": lambda: R.pretty(shown),
        "flatten_tm": lambda: C.flatten_tm(term, ctx.tree),
        "equality": lambda: value == other,
        "flat_equality": lambda: flat == flat_other,
    }

def least_limit(f):
    lo, hi = 30, 5000
    while lo < hi:
        mid = (lo + hi) // 2
        sys.setrecursionlimit(mid)
        try:
            f()
            hi = mid
        except RecursionError:
            lo = mid + 1
        finally:
            sys.setrecursionlimit(5000)
    return lo

def main():
    sys.setrecursionlimit(5000)
    for n in map(int, sys.argv[1:]):
        for name, f in layers(n).items():
            print(name, n, least_limit(f))

threading.stack_size(256 << 20)
worker = threading.Thread(target=main)
worker.start()
worker.join()
"""

# frames per nesting level of each layer, as measured when the budget was
# set: a layer that needs more has started to recurse more deeply
LAYER_BUDGET = {
    "elab": 6,
    "quote_tm": 2,
    "to_raw": 2,
    "pretty": 6,
    "flatten_tm": 3,
    "equality": 6,
    # two flat terms flattened apart: 7 frames per level with Record's
    # generic equality, 5 with the flat records' own
    "flat_equality": 5,
}


def test_layer_depth_budget():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", LAYER_DEPTH, "64", "128"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    limits: dict = {}
    for line in proc.stdout.splitlines():
        name, n, limit = line.split()
        limits[name, int(n)] = int(limit)
    assert len(limits) == 2 * len(LAYER_BUDGET)
    for name, budget in LAYER_BUDGET.items():
        per_level = (limits[name, 128] - limits[name, 64]) / 64
        assert per_level <= budget, (name, limits[name, 64], limits[name, 128])


def test_eval_nf_is_eval_of_the_quotation():
    # eval_nf evaluates a normal form as evaluating its quotation would, in
    # the suspension environments of tree and list contexts and in the
    # argument environments of labellings, whose type part is not empty
    # when the labelling lands in the suspended context
    rng = random.Random(23)
    cases = []
    for _ in range(20):
        tree, tree_text, term_text = gen_typed.random_case(rng)
        raw = R.parse_term(term_text)
        inner = None
        if isinstance(raw.term, R.RComp):
            shape = raw.args.data.shape
            inner = (shape, gen_typed.random_composite(rng, shape))
        cases.append((tree, tree_text, raw, inner))

    def agree(config, x, b, env):
        assert N.eval_nf(config, x, env) == N.eval_tm(config, N.quote_tm(x), env)
        assert N.eval_nf_ty(config, b, env) == N.eval_ty(config, N.quote_ty(b), env)

    for config in ALL_CONFIGS:
        ck = Checker(Signature(config=config))
        for tree, tree_text, raw, inner in cases:
            tree_ctx = ck.elab_ctx(R.parse_ctx(tree_text))
            list_ctx = ck.elab_ctx(R.parse_ctx(list_ctx_text(tree)))
            for ctx, up in (
                (tree_ctx, N.lift(N.id_env(T.suspend_tree(tree)))),
                (list_ctx, N.lift(N.id_list_env(len(list_ctx) + 2))),
            ):
                _, b, x = ck.elab(ctx, raw)
                agree(config, x, b, up)
            if inner is None:
                continue
            shape, inner_text = inner
            inner_ctx = ck.elab_ctx(R.parse_ctx(gen_typed.ctx_text(shape)))
            _, b, x = ck.elab(inner_ctx, R.parse_term(inner_text))
            for ctx in (tree_ctx, ck.elab_ctx(R.parse_ctx(f"[ {tree_text} ]"))):
                _, vals, lab_ty = ck.check_label(ctx, raw.args, shape)
                agree(config, x, b, N.Env(vals, lab_ty))


# ---------------------------------------------------------------------------
# kernel paths that the random terms do not reach, checked against the oracle

KERNEL_PATH_DEFS = (
    "def c = coh [ x{f}y{g}z : x -> z ]\n"
    "def u = coh [ x{f}y : f -> f ]\n"
    "def vert (x : *), (y : *), (f : x -> y), (g : x -> y), (a : f -> g),"
    " (h : x -> y), (b : g -> h) = comp[[a, b]]\n"
    "def comp1 [f,g] = comp\n"
    "def unitor = coh [ x{f}y : comp1(id(x), f) -> f ]\n"
    "def v (x : *), (y : *), (f : x -> y) = f\n"
    "def w (x : *), (y : *), (f : x -> y), (g : x -> y), (a : comp[f, id(y)] -> g) = a\n"
)

W_SUSP_CTX = (
    "(n : *), (s : *), (x : n -> s), (y : n -> s), (f : x -> y), (g : x -> y),"
    " (a : comp[f, id(y)] -> g)"
)

KERNEL_PATH_CASES = [
    # explicit suspension: infer's suspension branch, suspended types
    ("S(c)<x{a{m}b{n}d}y>", "a -> d", "x{a{m}b{n}d}y"),
    ("S(u)(m)", "m -> m", "x{a{m}b}y"),
    # a suspended type that holds a composite: the composite is suspended
    # with the variables
    ("S(unitor)(m)", "comp1(id(a), m) -> m", "x{a{m}b}y"),
    # a bare suspension of a list-context definition
    ("S(v)", "x -> y", "(n : *), (s : *), (x : n -> s), (y : n -> s), (f : x -> y)"),
    # one whose context has a composite in a type: the suspended context
    # holds its normal type, the written one the elaborated composite
    ("S(w)", "comp[f, id(y)] -> g", W_SUSP_CTX),
    # a bare name in check position: check_by_infer, ctx_compatible
    ("c", "x -> z", "x{f}y{g}z"),
    # a list-context definition applied to a substitution: eval_tm's
    # substitution branch
    (
        "vert(x, y, f, f, id(f), g, a)",
        "f -> g",
        "(x : *), (y : *), (f : x -> y), (g : x -> y), (a : f -> g)",
    ),
    # a coherence with an identity argument at a branch of length 2: under
    # insertion, its type is transported along the exterior labelling of
    # an inner plan
    (
        "coh [x{f{a}g{b}h}y : comp[[a, b]] -> comp[[a, b]]](id(f), b)",
        "comp[[id(f), b]] -> comp[[id(f), b]]",
        "x{f{b}h}y",
    ),
]


@pytest.mark.parametrize(
    "config, rules",
    [(SU, O.RuleSet.SU_PRIME), (SUA, O.RuleSet.SUA_PRIME)],
    ids=["su", "sua"],
)
def test_kernel_paths_agree_with_the_oracle(config, rules):
    st = session(config=config)
    run(st, KERNEL_PATH_DEFS)
    ck = Checker(st.sig)
    for term_text, ty_text, ctx_text in KERNEL_PATH_CASES:
        ctx = ck.elab_ctx(R.parse_ctx(ctx_text))
        term, ty, value = ck.elab(ctx, R.parse_term(term_text))
        assert ty == ck.check_ty(ctx, R.parse_type(ty_text))[1], term_text
        assert value == ck.nf(ctx, term)
        amb = ctx.tree if isinstance(ctx, TreeCtx) else len(ctx)
        nf, _ = O.normalise(C.flatten_tm(term, amb), rules)
        assert N.flatten_nf(value, amb) == nf, term_text


def test_kernel_paths_under_the_weak_theory():
    # the weak theory only evaluates: types are the stated ones and
    # flattening sees no change
    st = session()
    run(st, KERNEL_PATH_DEFS)
    ck = Checker(st.sig)
    for term_text, ty_text, ctx_text in KERNEL_PATH_CASES:
        ctx = ck.elab_ctx(R.parse_ctx(ctx_text))
        term, ty, value = ck.elab(ctx, R.parse_term(term_text))
        assert ty == ck.check_ty(ctx, R.parse_type(ty_text))[1], term_text
        assert value == ck.nf(ctx, term)
        amb = ctx.tree if isinstance(ctx, TreeCtx) else len(ctx)
        assert N.flatten_nf(value, amb) == C.flatten_tm(term, amb), term_text


def test_bare_suspension_of_a_list_context_definition():
    st = session()
    run(st, KERNEL_PATH_DEFS)
    out = run(
        st,
        "normalise S(v) in (n : *), (s : *), (x : n -> s), (y : n -> s), (f : x -> y)",
    )
    assert out == ["normal form: f", "of type: x -> y"]


@pytest.mark.parametrize(
    "config, shown",
    [(WEAK, "comp<{{f}{id<{y}>}}> -> g"), (SU, "f -> g")],
    ids=["weak", "su"],
)
def test_bare_suspension_with_a_composite_in_a_context_type(config, shown):
    # list contexts are compared by the normal forms of their types
    st = session(config=config)
    run(st, KERNEL_PATH_DEFS)
    out = run(st, f"normalise S(w) in {W_SUSP_CTX}")
    assert out == ["normal form: a", f"of type: {shown}"]


def test_list_contexts_compared_in_the_configured_theory():
    # (a : f -> g) is the context of S(w) only where comp[f, id(y)] is f
    text = "normalise S(w) in " + W_SUSP_CTX.replace("comp[f, id(y)]", "f")
    st = session(config=SU)
    run(st, KERNEL_PATH_DEFS)
    assert run(st, text) == ["normal form: a", "of type: f -> g"]
    st = session()
    run(st, KERNEL_PATH_DEFS)
    with pytest.raises(CheckError, match="the term lives over a different context"):
        run(st, text)


def test_name_over_a_different_context_rejected():
    st = session()
    run(st, KERNEL_PATH_DEFS)
    with pytest.raises(CheckError, match="the term lives over a different context"):
        run(st, "normalise c in x{f}y")
