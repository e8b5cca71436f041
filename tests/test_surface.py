"""Tokenizer, parser, pretty-printer and raw syntax round trips."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattkernel import surface as S
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

from specs import pretty_command, strip_spans

CATT_DIR = Path(__file__).resolve().parent.parent / "catt"


def leaf(entry=None) -> RawTree:
    return RawTree((entry,), ())


def tree(elements, branches) -> RawTree:
    return RawTree(tuple(elements), tuple(branches))


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
            inner.map(lambda e: RawTree((e,), ())),
            lambda kids: st.lists(kids, min_size=1, max_size=3).map(
                lambda bs: RawTree(tuple([None] * (len(bs) + 1)), tuple(bs))
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
