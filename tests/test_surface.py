"""Tokenizer, parser, pretty-printer and raw syntax round trips."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattkernel import surface as S
from cattkernel.trees import Tree, path_table
from cattkernel.surface import (
    AssertCmd,
    DefCmd,
    ImportCmd,
    NormaliseCmd,
    ParseError,
    RApp,
    RArgs,
    RArrow,
    RawTree,
    RCoh,
    RComp,
    RHole,
    RId,
    RListCtx,
    RStar,
    RSusp,
    RTreeCtx,
    RTyHole,
    RVar,
    SizeCmd,
    Span,
    parse,
    parse_ctx,
    parse_term,
    parse_type,
    pretty,
)

import specs
from specs import pretty_command, strip_spans

ROOT = Path(__file__).resolve().parent.parent
CATT_DIR = ROOT / "catt"


def leaf(entry=None) -> RawTree:
    return tree([entry], [])


def tree(elements, branches) -> RawTree:
    """The raw labelling with these 0-cell entries and branches, built
    through its nested view."""
    nested = tuple(map(specs.NestedLabel.of, branches))
    return specs.NestedLabel(tuple(elements), nested).to_ltree(RawTree)


# ---------------------------------------------------------------------------
# tokens

# pieces of text: every token of one character, the arrows and the
# suspension, letters and digits (some not ASCII), the characters words
# are made of, comments, blanks, and characters that start no token
TOKEN_PIECES = sorted(S._PUNCT) + [
    "->", "→", "Σ", "S", "comp", "in", "x", "Z", "é", "²", "٣", "0", "7",
    "_", ".", "/", "#", "# note\n", " ", "\t", "\r", "\n",
    "-", "@", "\x0b",
]


def tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text, "t")
    except ParseError as e:
        return (e.message, e.span, e.expected)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=12).map("".join))
def test_tokens_agree_with_the_reference(text):
    assert tokens_or_error(S.tokenize, text) == tokens_or_error(specs.tokenize, text)


# ---------------------------------------------------------------------------
# terms


def test_parse_variable():
    assert strip_spans(parse_term("f")) == RVar("f")


def test_parse_builtins_and_holes():
    assert strip_spans(parse_term("id")) == RId()
    assert strip_spans(parse_term("comp")) == RComp()
    assert strip_spans(parse_term("_")) == RHole()


def test_parse_suspension():
    assert strip_spans(parse_term("S(f)")) == RSusp(RVar("f"))
    assert strip_spans(parse_term("Σ(f)")) == RSusp(RVar("f"))


def test_parse_substitution_args():
    t = strip_spans(parse_term("comp1(f, g)"))
    assert t == RApp(RVar("comp1"), RArgs((RVar("f"), RVar("g"))))


def test_parse_nested_application():
    t = strip_spans(parse_term("comp1(id(x), f)"))
    inner = RApp(RId(), RArgs((RVar("x"),)))
    assert t == RApp(RVar("comp1"), RArgs((inner, RVar("f"))))


def test_parse_coherence():
    t = strip_spans(parse_term("coh [ x{f}y : x -> y ]"))
    assert t == RCoh(
        tree(["x", "y"], [leaf("f")]),
        RArrow(RVar("x"), None, RVar("y")),
    )


def test_parse_coherence_with_omitted_entries():
    t = strip_spans(parse_term("coh [ x{}{}z : x -> z ]"))
    assert t == RCoh(
        tree(["x", None, "z"], [leaf(), leaf()]),
        RArrow(RVar("x"), None, RVar("z")),
    )


def test_underscore_allowed_inside_names():
    assert strip_spans(parse_term("vert_susp")) == RVar("vert_susp")


# ---------------------------------------------------------------------------
# trees


def test_square_sugar_equals_curly():
    a = strip_spans(parse_term("comp<{f}{{a}{b}}>").args.data)
    b = strip_spans(parse_term("comp[f,[a,b]]").args.data)
    assert a == b


def test_square_sugar_structure():
    t = strip_spans(parse_term("comp[f,g]").args.data)
    assert t == tree([None, None, None], [leaf(RVar("f")), leaf(RVar("g"))])


def test_square_item_nests_when_it_parses_as_a_tree():
    t = strip_spans(parse_term("comp[x{a}y, h]").args.data)
    assert t.branches[0] == tree([RVar("x"), RVar("y")], [leaf(RVar("a"))])
    assert t.branches[1] == leaf(RVar("h"))


def test_square_item_with_parenthesised_term_is_an_element():
    t = strip_spans(parse_term("comp[horiz(a, b), h]").args.data)
    assert t.branches[0] == leaf(
        RApp(RVar("horiz"), RArgs((RVar("a"), RVar("b"))))
    )


def test_square_item_with_braces_inside_angle_brackets_is_an_element():
    t = strip_spans(parse_term("comp[comp<x{f}y>]").args.data)
    inner = RApp(RComp(), RArgs(tree([RVar("x"), RVar("y")], [leaf(RVar("f"))])))
    assert t == tree([None, None], [leaf(inner)])


@pytest.mark.parametrize("text, bad", [("comp[f g]", 7), ("comp[f{a}g h]", 11)])
def test_malformed_square_item(text, bad):
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert str(e.value) == f"unexpected {text[bad]!r} (expected one of: rbracket)"
    assert e.value.span.start == bad


def test_angle_bracket_labelling_args():
    t = strip_spans(parse_term("comp<x{f}y>"))
    assert t == RApp(
        RComp(),
        RArgs(tree([RVar("x"), RVar("y")], [leaf(RVar("f"))])),
    )


def test_labelling_args_with_type_part():
    t = strip_spans(parse_term("comp<f -> g | {a}>"))
    assert t.args.ty == RArrow(RVar("f"), None, RVar("g"))


@pytest.mark.parametrize("text", ["comp<* | {f}>", "comp(* | f)"], ids=["label", "sub"])
def test_base_type_part(text):
    assert strip_spans(parse_term(text)).args.ty == RStar()


def block_spans(t: RawTree, text: str) -> list[str]:
    """The text under the span of each labelling block of t, the whole
    labelling first and then its branches' blocks depth first; every other
    index of t must carry the synthesized span."""
    out = []
    starts = set()

    def walk(s: Tree, o: int) -> None:
        starts.add(o)
        span = t.span_at(o)
        out.append(text[span.start : span.end])
        for b, off in zip(s.branches, path_table(s).offsets):
            walk(b, o + off)

    walk(t.shape, 0)
    assert all(t.span_at(o) == S.SYNTH for o in range(len(t.entries)) if o not in starts)
    return out


@pytest.mark.parametrize(
    "text, blocks",
    [
        ("comp<x{f{a}g}y{h}z>", ["x{f{a}g}y{h}z", "f{a}g", "a", "h"]),
        ("comp<{}{{a}{b}}>", ["{}{{a}{b}}", "", "{a}{b}", "a", "b"]),
        ("comp[f, [a, b], x{g}y]", ["[f, [a, b], x{g}y]", "f", "[a, b]", "a", "b", "x{g}y", "g"]),
        ("comp[[[f]], g]", ["[[[f]], g]", "[[f]]", "[f]", "f", "g"]),
        ("comp[]", ["[]"]),
    ],
)
def test_parsed_labellings_keep_the_span_of_each_block(text, blocks):
    t = parse_term(text).args.data
    assert block_spans(t, text) == blocks


def nested_application(depth: int, inner: str = "f(x, y)") -> str:
    """f(f(…f(x, y)…, y), y), the innermost argument list written inner."""
    t = inner
    for _ in range(depth - 1):
        t = f"f({t}, y)"
    return t


def count_term_atoms(monkeypatch, text: str, depth: int) -> tuple:
    """The result or error of parsing text and the number of terms parsed;
    past 100 terms per nesting level the parse stops with an assertion."""
    calls = 0
    atom = S._Parser.term_atom

    def counted(self):
        nonlocal calls
        calls += 1
        assert calls <= 100 * depth, f"over {100 * depth} terms parsed at depth {depth}"
        return atom(self)

    monkeypatch.setattr(S._Parser, "term_atom", counted)
    try:
        out = parse_term(text)
    except ParseError as e:
        out = e
    return out, calls


def test_nested_application_parses_in_linear_work(monkeypatch):
    # the leading type part of an argument list is tried first and reads
    # the first argument as the source of an arrow; parsing that argument
    # again at every level made the work double per level
    counts = {}
    for depth in (32, 64):
        t, counts[depth] = count_term_atoms(monkeypatch, nested_application(depth), depth)
        assert isinstance(t, RApp)
    assert counts[64] / counts[32] <= 2.5


def test_malformed_nested_application_fails_in_linear_work(monkeypatch):
    counts = {}
    for depth in (32, 64):
        text = nested_application(depth, "f(x,)")
        e, counts[depth] = count_term_atoms(monkeypatch, text, depth)
        assert isinstance(e, ParseError)
        assert str(e) == "unexpected ')' (expected one of: term)"
        bad = text.index("x,)") + 2
        assert (e.span.start, e.span.end) == (bad, bad + 1)
    assert counts[64] / counts[32] <= 2.5


# the least recursion limit at which parse_term reads each text, found by
# bisection in a fresh interpreter
PARSE_DEPTH = """
import sys
from cattkernel import surface as R

def least_limit(text):
    lo, hi = 30, 5000
    while lo < hi:
        mid = (lo + hi) // 2
        sys.setrecursionlimit(mid)
        try:
            R.parse_term(text)
            hi = mid
        except RecursionError:
            lo = mid + 1
        finally:
            sys.setrecursionlimit(5000)
    return lo

for text in sys.argv[1:]:
    print(least_limit(text))
"""


def test_parse_depth_budget():
    # frames per nesting level of a left-nested composite, written with a
    # square-bracket labelling and as an application of a binary composite
    def square(n: int) -> str:
        t = "f0"
        for i in range(1, n):
            t = f"comp[{t}, f{i}]"
        return t

    def applied(n: int) -> str:
        t = "f0"
        for i in range(1, n):
            t = f"comp1({t}, f{i})"
        return t

    texts = [square(64), square(128), applied(64), applied(128)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PARSE_DEPTH, *texts],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    sq64, sq128, app64, app128 = map(int, proc.stdout.split())
    assert (sq128 - sq64) / 64 <= 5
    assert (app128 - app64) / 64 <= 4


# ---------------------------------------------------------------------------
# types


def test_parse_star():
    assert strip_spans(parse_type("*")) == RStar()
    assert strip_spans(parse_type("⋆")) == RStar()


def test_parse_arrow():
    assert strip_spans(parse_type("x -> y")) == RArrow(RVar("x"), None, RVar("y"))
    assert strip_spans(parse_type("x → y")) == RArrow(RVar("x"), None, RVar("y"))


def test_parse_annotated_arrow():
    t = strip_spans(parse_type("(x -> y) | f -> g"))
    assert t == RArrow(
        RVar("f"), RArrow(RVar("x"), None, RVar("y")), RVar("g")
    )


def test_parse_star_annotated_arrow():
    t = strip_spans(parse_type("* | x -> y"))
    assert t == RArrow(RVar("x"), RStar(), RVar("y"))


def test_parse_type_hole():
    assert strip_spans(parse_type("_")) == RTyHole()


def test_arrow_endpoints_can_be_applications():
    t = strip_spans(parse_type("comp1(f,g) -> h"))
    assert isinstance(t.src, RApp) and t.tgt == RVar("h")


# ---------------------------------------------------------------------------
# contexts and commands


def test_parse_list_ctx():
    c = strip_spans(parse_ctx("(x : *), (f : x -> x)"))
    assert c == RListCtx(
        (("x", RStar()), ("f", RArrow(RVar("x"), None, RVar("x"))))
    )


def test_parse_tree_ctx():
    c = strip_spans(parse_ctx("x{f}y{g}z"))
    assert c == RTreeCtx(tree(["x", "y", "z"], [leaf("f"), leaf("g")]))


def test_parse_def_forms():
    c1 = strip_spans(parse("def a = comp")[0])
    assert c1 == DefCmd("a", None, None, RComp())
    c2 = strip_spans(parse("def a [f,g] = comp")[0])
    assert c2.ctx is not None and c2.ty is None
    c3 = strip_spans(parse("def a (x : *) : x -> x = id(x)")[0])
    assert c3.ty == RArrow(RVar("x"), None, RVar("x"))


def test_parse_other_commands():
    cmds = parse(
        "normalise comp in [f,g]\n"
        "assert f = g in (x : *), (f : x -> x), (g : x -> x)\n"
        "size comp(f, g) in [f,g]\n"
        "import lib/monoidal.catt\n"
    )
    kinds = [type(c) for c in cmds]
    assert kinds == [NormaliseCmd, AssertCmd, SizeCmd, ImportCmd]
    assert cmds[3].path == "lib/monoidal.catt"


def test_comments_are_ignored():
    cmds = parse("# binary composite\ndef a [f,g] = comp # trailing\n")
    assert len(cmds) == 1


def test_whitespace_insensitive():
    a = parse("def a [f,g] = comp")
    b = parse("def\n  a\n  [ f , g ]\n  =\n  comp")
    assert strip_spans(a[0]) == strip_spans(b[0])


# ---------------------------------------------------------------------------
# the shipped corpus


def test_monoidal_file_parses():
    text = (CATT_DIR / "monoidal.catt").read_text()
    cmds = parse(text, source="monoidal.catt")
    names = [c.name for c in cmds if isinstance(c, DefCmd)]
    assert names == [
        "comp1coh",
        "comp1",
        "horiz",
        "vert",
        "vert_susp",
        "unitor_l",
        "unitor_r",
        "assoc",
        "triangle",
        "pentagon",
        "swap",
    ]
    assert sum(isinstance(c, AssertCmd) for c in cmds) == 2


def test_monoidal_file_round_trips():
    text = (CATT_DIR / "monoidal.catt").read_text()
    for cmd in parse(text):
        printed = pretty_command(cmd)
        reparsed = parse(printed)
        assert len(reparsed) == 1
        assert strip_spans(reparsed[0]) == strip_spans(cmd)


# ---------------------------------------------------------------------------
# errors and spans


def test_parse_error_carries_span():
    with pytest.raises(ParseError) as e:
        parse_term("coh [ x{f}y : x -> ]")
    assert e.value.span.start == 19


def test_parse_error_expected_set():
    with pytest.raises(ParseError) as e:
        parse("walk f in [f]")
    assert "def" in e.value.expected


def test_spans_cover_source_text():
    text = "def a [f,g] = comp"
    cmd = parse(text)[0]
    assert text[cmd.span.start : cmd.span.end] == text
    assert text[cmd.term.span.start : cmd.term.span.end] == "comp"


def test_render_error_points_at_line():
    text = "def a [f,g] = comp\ndef b = ]"
    try:
        parse(text)
        assert False
    except ParseError as e:
        msg = S.render_error(str(e), e.span, text)
        assert ":2:" in msg and "^" in msg


def test_backwards_span_rejected():
    with pytest.raises(ValueError):
        Span(None, 3, 1)


# ---------------------------------------------------------------------------
# pretty round trips on generated syntax

names = st.sampled_from(["x", "y", "f", "g", "a", "b"])


def raw_terms(depth: int = 3):
    base = st.one_of(
        names.map(RVar),
        st.just(RHole()),
        st.just(RId()),
        st.just(RComp()),
    )
    if depth == 0:
        return base
    sub = raw_terms(depth - 1)

    def trees_of(inner):
        return st.recursive(
            inner.map(leaf),
            lambda kids: st.lists(kids, min_size=1, max_size=3).map(
                lambda bs: tree([None] * (len(bs) + 1), bs)
            ),
            max_leaves=4,
        )

    args = st.one_of(
        st.lists(sub, min_size=1, max_size=3).map(lambda ts: RArgs(tuple(ts))),
        trees_of(st.one_of(st.none(), sub)).map(RArgs),
    )
    arrows = st.builds(
        RArrow, sub, st.one_of(st.none(), st.just(RStar())), sub
    )
    return st.one_of(
        base,
        st.builds(RSusp, sub),
        st.builds(RApp, base, args),
        st.builds(RCoh, trees_of(st.one_of(st.none(), names)), arrows),
    )


@settings(max_examples=200)
@given(raw_terms())
def test_pretty_parse_round_trip(t):
    assert strip_spans(parse_term(pretty(t))) == strip_spans(t)
