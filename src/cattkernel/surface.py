"""Raw surface syntax: spans, the tokenizer, the parser for terms, types,
trees, contexts and commands, and the pretty-printer.

No well-formedness invariants are maintained here; holes and omitted
entries are allowed everywhere and legality is the typechecker's concern.
"""

from __future__ import annotations

from typing import Optional, Union

from .trees import LTree, Record, Tree, path_table

KEYWORDS = {"coh", "comp", "id", "def", "normalise", "assert", "size", "import", "in"}


class Span(Record):
    __slots__ = ("source", "start", "end")
    source: Optional[str]
    start: int
    end: int

    def __init__(self, source: Optional[str], start: int, end: int):
        if start > end:
            raise ValueError("backwards span")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


SYNTH = Span(None, 0, 0)


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: frozenset = frozenset()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        if self.expected:
            opts = ", ".join(sorted(self.expected))
            return f"{self.message} (expected one of: {opts})"
        return self.message


# ---------------------------------------------------------------------------
# raw syntax


class RawNode(Record):
    """A node of raw syntax: its last field is its span, SYNTH unless
    given."""

    __slots__ = ()
    _defaults = {"span": SYNTH}


class RawTree(LTree):
    """A labelling of optional entries, as written: an LTree with its own
    span and its branches' spans.  The spans are kept beside the entries,
    the span of each labelling at the index where its block starts and
    SYNTH at every other index."""

    __slots__ = ("_spans",)
    _fields = ("elements", "branches", "span")
    branches: tuple["RawTree", ...]

    def __init__(
        self, elements: tuple, branches: tuple["RawTree", ...] = (), span: Span = SYNTH
    ):
        if len(elements) != len(branches) + 1:
            raise ValueError("tree shape mismatch")
        LTree.__init__(self, elements, branches)
        spans = (span,) + (SYNTH,) * len(branches)
        for b in branches:
            spans += b._spans
        object.__setattr__(self, "_spans", spans)

    @classmethod
    def from_entries(
        cls, t: Tree, entries: tuple, spans: Optional[tuple] = None
    ) -> "RawTree":
        out = super().from_entries(t, entries)
        object.__setattr__(out, "_spans", spans or (SYNTH,) * len(entries))
        return out

    @property
    def span(self) -> Span:
        return self.span_at(0)

    def span_at(self, o: int) -> Span:
        """The span of the labelling whose block starts at index o."""
        return self._spans[o]

    def _block(self, b: Tree, o: int) -> "RawTree":
        end = o + b._ctx_size
        return self.from_entries(b, self.entries[o:end], self._spans[o:end])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self._shape is other._shape
                and self.entries == other.entries
                and self._spans == other._spans
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._shape, self.entries, self._spans))


class RVar(RawNode):
    __slots__ = ("name", "span")
    name: str
    span: Span

    def __init__(self, name: str, span: Span = SYNTH):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "span", span)


class RHole(RawNode):
    __slots__ = ("span",)
    span: Span


class RId(RawNode):
    __slots__ = ("span",)
    span: Span


class RComp(RawNode):
    __slots__ = ("span",)
    span: Span

    def __init__(self, span: Span = SYNTH):
        object.__setattr__(self, "span", span)


class RCoh(RawNode):
    __slots__ = ("tree", "ty", "span")
    tree: RawTree
    ty: "RawType"
    span: Span


class RSusp(RawNode):
    __slots__ = ("term", "span")
    term: "RawTerm"
    span: Span


class RApp(RawNode):
    __slots__ = ("term", "args", "span")
    term: "RawTerm"
    args: "RArgs"
    span: Span

    def __init__(self, term: "RawTerm", args: "RArgs", span: Span = SYNTH):
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "span", span)


RawTerm = Union[RVar, RHole, RId, RComp, RCoh, RSusp, RApp]


class RStar(RawNode):
    __slots__ = ("span",)
    span: Span


class RTyHole(RawNode):
    __slots__ = ("span",)
    span: Span


class RArrow(RawNode):
    __slots__ = ("src", "base", "tgt", "span")
    src: RawTerm
    base: Optional["RawType"]
    tgt: RawTerm
    span: Span


RawType = Union[RStar, RTyHole, RArrow]


class RArgs(RawNode):
    """The arguments of an application with an optional type part: a tuple
    of terms in the substitution style, or a RawTree of optional terms in
    the labelling style."""

    __slots__ = ("data", "ty", "span")
    data: Union[tuple, RawTree]
    ty: Optional[RawType]
    span: Span

    def __init__(
        self,
        data: Union[tuple, RawTree],
        ty: Optional[RawType] = None,
        span: Span = SYNTH,
    ):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "span", span)


class RTreeCtx(RawNode):
    __slots__ = ("tree", "span")
    tree: RawTree  # entries are Optional[str]
    span: Span


class RListCtx(RawNode):
    __slots__ = ("entries", "span")
    entries: tuple  # of (name, RawType)
    span: Span


RawCtx = Union[RTreeCtx, RListCtx]


class DefCmd(RawNode):
    __slots__ = ("name", "ctx", "ty", "term", "span")
    name: str
    ctx: Optional[RawCtx]
    ty: Optional[RawType]
    term: RawTerm
    span: Span


class NormaliseCmd(RawNode):
    __slots__ = ("term", "ctx", "span")
    term: RawTerm
    ctx: RawCtx
    span: Span


class AssertCmd(RawNode):
    __slots__ = ("lhs", "rhs", "ctx", "span")
    lhs: RawTerm
    rhs: RawTerm
    ctx: RawCtx
    span: Span


class SizeCmd(RawNode):
    __slots__ = ("term", "ctx", "span")
    term: RawTerm
    ctx: RawCtx
    span: Span


class ImportCmd(RawNode):
    __slots__ = ("path", "span")
    path: str
    span: Span


Command = Union[DefCmd, NormaliseCmd, AssertCmd, SizeCmd, ImportCmd]


# ---------------------------------------------------------------------------
# tokenizer


class Token(Record):
    __slots__ = ("kind", "value", "start", "end")
    kind: str
    value: str
    start: int
    end: int

    def __init__(self, kind: str, value: str, start: int, end: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


_PUNCT = {
    "{": "lbrace",
    "}": "rbrace",
    "[": "lbracket",
    "]": "rbracket",
    "(": "lparen",
    ")": "rparen",
    "⟨": "langle",
    "⟩": "rangle",
    "<": "langle",
    ">": "rangle",
    ":": "colon",
    ",": "comma",
    "|": "bar",
    "=": "equals",
    "*": "star",
    "⋆": "star",
    "_": "hole",
}


def tokenize(text: str, source: Optional[str] = None) -> list[Token]:
    toks: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(Token("arrow", "->", i, i + 2))
            i += 2
            continue
        if c == "→":
            toks.append(Token("arrow", "→", i, i + 1))
            i += 1
            continue
        if c == "Σ":
            toks.append(Token("susp", "Σ", i, i + 1))
            i += 1
            continue
        if c in _PUNCT:
            toks.append(Token(_PUNCT[c], c, i, i + 1))
            i += 1
            continue
        if c.isalnum() or c in "./":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_./"):
                j += 1
            word = text[i:j]
            if word == "S":
                toks.append(Token("susp", word, i, j))
            elif word in KEYWORDS:
                toks.append(Token(word, word, i, j))
            else:
                toks.append(Token("name", word, i, j))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", Span(source, i, i + 1))
    toks.append(Token("eof", "", n, n))
    return toks


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str, source: Optional[str] = None):
        self.text = text
        self.source = source
        self.toks = tokenize(text, source)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"unexpected {t.value or 'end of input'!r}",
                self.span_of(t),
                frozenset({kind}),
            )
        return self.next()

    def span_of(self, t: Token) -> Span:
        return Span(self.source, t.start, t.end)

    def span_from(self, start: int) -> Span:
        end = self.toks[self.pos - 1].end if self.pos > 0 else start
        return Span(self.source, start, max(start, end))

    # -- terms --------------------------------------------------------------

    def term(self) -> RawTerm:
        start = self.peek().start
        t = self.term_atom()
        while self.peek().kind in ("lparen", "langle", "lbracket"):
            args = self.args()
            t = RApp(t, args, self.span_from(start))
        return t

    def term_atom(self) -> RawTerm:
        t = self.peek()
        if t.kind == "name":
            self.next()
            return RVar(t.value, self.span_of(t))
        if t.kind == "hole":
            self.next()
            return RHole(self.span_of(t))
        if t.kind == "id":
            self.next()
            return RId(self.span_of(t))
        if t.kind == "comp":
            self.next()
            return RComp(self.span_of(t))
        if t.kind == "susp":
            start = t.start
            self.next()
            self.expect("lparen")
            inner = self.term()
            self.expect("rparen")
            return RSusp(inner, self.span_from(start))
        if t.kind == "coh":
            start = t.start
            self.next()
            self.expect("lbracket")
            tree = self.tree(element="name")
            self.expect("colon")
            ty = self.type_()
            self.expect("rbracket")
            return RCoh(tree, ty, self.span_from(start))
        raise ParseError(
            f"unexpected {t.value or 'end of input'!r}",
            self.span_of(t),
            frozenset({"term"}),
        )

    # -- arguments ----------------------------------------------------------

    def args(self) -> RArgs:
        t = self.peek()
        start = t.start
        if t.kind == "lparen":
            self.next()
            ty: Optional[RawType] = None
            terms: list[RawTerm] = []
            if self.peek().kind != "rparen":
                ty = self.type_part()
                terms.append(self.term())
                while self.peek().kind == "comma":
                    self.next()
                    terms.append(self.term())
            self.expect("rparen")
            return RArgs(tuple(terms), ty, self.span_from(start))
        if t.kind == "langle":
            self.next()
            ty = self.type_part()
            tree = self.tree(element="term")
            self.expect("rangle")
            return RArgs(tree, ty, self.span_from(start))
        if t.kind == "lbracket":
            tree = self.square_tree(element="term")
            return RArgs(tree, None, self.span_from(start))
        raise ParseError("expected arguments", self.span_of(t))

    def type_part(self) -> Optional[RawType]:
        """An optional leading `type |` of an argument list.  A type atom
        before the bar is tried last: `type_` reads `* |` as the start of
        an annotated arrow type."""
        save = self.pos
        for parse in (self.type_, self.type_atom):
            try:
                ty = parse()
                self.expect("bar")
                return ty
            except ParseError:
                self.pos = save
        return None

    # -- trees --------------------------------------------------------------

    def tree(self, element: str) -> RawTree:
        if self.peek().kind == "lbracket":
            return self.square_tree(element)
        return self.curly_tree(element)

    def curly_tree(self, element: str) -> RawTree:
        start = self.peek().start
        elements = [self.tree_element(element)]
        branches: list[RawTree] = []
        while self.peek().kind == "lbrace":
            self.next()
            branches.append(self.curly_tree(element))
            self.expect("rbrace")
            elements.append(self.tree_element(element))
        return RawTree(tuple(elements), tuple(branches), self.span_from(start))

    def tree_element(self, element: str):
        t = self.peek()
        stops = (
            "lbrace",
            "rbrace",
            "rangle",
            "rbracket",
            "colon",
            "comma",
            "equals",
            "in",
            "eof",
        )
        if t.kind in stops:
            return None
        if element == "name":
            if t.kind == "hole":
                self.next()
                return None
            return self.expect("name").value
        return self.term()

    def square_tree(self, element: str) -> RawTree:
        """Square-bracket sugar: each item is a branch, written as a tree;
        a single entry is the tree of that entry alone."""
        start = self.peek().start
        self.expect("lbracket")
        branches: list[RawTree] = []
        if self.peek().kind != "rbracket":
            branches.append(self.tree(element))
            while self.peek().kind == "comma":
                self.next()
                branches.append(self.tree(element))
        self.expect("rbracket")
        elements = tuple([None] * (len(branches) + 1))
        return RawTree(elements, tuple(branches), self.span_from(start))

    # -- types --------------------------------------------------------------

    def type_(self) -> RawType:
        start = self.peek().start
        save = self.pos
        base: Optional[RawType] = None
        try:
            b = self.type_atom()
            if self.peek().kind == "bar":
                self.next()
                base = b
            elif self.peek().kind in ("arrow", "lparen", "langle"):
                # an atom followed by an arrow or by arguments starts a
                # term, as in `_(x) -> y`
                raise ParseError("the start of a term", self.span_of(self.peek()))
            else:
                return b
        except ParseError:
            if base is None:
                self.pos = save
        src = self.term()
        self.expect("arrow")
        tgt = self.term()
        return RArrow(src, base, tgt, self.span_from(start))

    def type_atom(self) -> RawType:
        t = self.peek()
        if t.kind == "star":
            self.next()
            return RStar(self.span_of(t))
        if t.kind == "hole":
            self.next()
            return RTyHole(self.span_of(t))
        if t.kind == "lparen":
            self.next()
            inner = self.type_()
            self.expect("rparen")
            return inner
        raise ParseError(
            f"unexpected {t.value or 'end of input'!r}",
            self.span_of(t),
            frozenset({"type"}),
        )

    # -- contexts -----------------------------------------------------------

    def ctx(self) -> RawCtx:
        t = self.peek()
        start = t.start
        if t.kind == "lparen":
            entries = [self.ctx_entry()]
            while self.peek().kind == "comma":
                self.next()
                entries.append(self.ctx_entry())
            return RListCtx(tuple(entries), self.span_from(start))
        tree = self.tree(element="name")
        return RTreeCtx(tree, self.span_from(start))

    def ctx_entry(self) -> tuple:
        self.expect("lparen")
        name = self.expect("name").value
        self.expect("colon")
        ty = self.type_()
        self.expect("rparen")
        return (name, ty)

    # -- commands -----------------------------------------------------------

    def command(self) -> Command:
        t = self.peek()
        start = t.start
        if t.kind == "def":
            self.next()
            name = self.expect("name").value
            ctx: Optional[RawCtx] = None
            ty: Optional[RawType] = None
            if self.peek().kind != "equals":
                ctx = self.ctx()
                if self.peek().kind == "colon":
                    self.next()
                    ty = self.type_()
            self.expect("equals")
            term = self.term()
            return DefCmd(name, ctx, ty, term, self.span_from(start))
        if t.kind == "normalise":
            self.next()
            term = self.term()
            self.expect("in")
            return NormaliseCmd(term, self.ctx(), self.span_from(start))
        if t.kind == "assert":
            self.next()
            lhs = self.term()
            self.expect("equals")
            rhs = self.term()
            self.expect("in")
            return AssertCmd(lhs, rhs, self.ctx(), self.span_from(start))
        if t.kind == "size":
            self.next()
            term = self.term()
            self.expect("in")
            return SizeCmd(term, self.ctx(), self.span_from(start))
        if t.kind == "import":
            self.next()
            p = self.peek()
            if p.kind not in ("name",):
                raise ParseError("expected a file path", self.span_of(p))
            self.next()
            return ImportCmd(p.value, self.span_from(start))
        raise ParseError(
            f"unexpected {t.value or 'end of input'!r}",
            self.span_of(t),
            frozenset({"def", "normalise", "assert", "size", "import"}),
        )

    def commands(self) -> list[Command]:
        out = []
        while self.peek().kind != "eof":
            out.append(self.command())
        return out


def parse(text: str, source: Optional[str] = None) -> list[Command]:
    return _Parser(text, source).commands()


def parse_term(text: str, source: Optional[str] = None) -> RawTerm:
    p = _Parser(text, source)
    t = p.term()
    p.expect("eof")
    return t


def parse_type(text: str, source: Optional[str] = None) -> RawType:
    p = _Parser(text, source)
    t = p.type_()
    p.expect("eof")
    return t


def parse_ctx(text: str, source: Optional[str] = None) -> RawCtx:
    p = _Parser(text, source)
    c = p.ctx()
    p.expect("eof")
    return c


# ---------------------------------------------------------------------------
# pretty printer


def pretty(x) -> str:
    if isinstance(x, RVar):
        return x.name
    if isinstance(x, RHole) or isinstance(x, RTyHole):
        return "_"
    if isinstance(x, RId):
        return "id"
    if isinstance(x, RComp):
        return "comp"
    if isinstance(x, RCoh):
        return f"coh [ {pretty_tree(x.tree)} : {pretty(x.ty)} ]"
    if isinstance(x, RSusp):
        return f"S({pretty(x.term)})"
    if isinstance(x, RApp):
        return f"{pretty(x.term)}{pretty_args(x.args)}"
    if isinstance(x, RStar):
        return "*"
    if isinstance(x, RArrow):
        if x.base is None:
            return f"{pretty(x.src)} -> {pretty(x.tgt)}"
        return f"{_pretty_base(x.base)} | {pretty(x.src)} -> {pretty(x.tgt)}"
    if isinstance(x, RTreeCtx):
        return pretty_tree(x.tree)
    if isinstance(x, RListCtx):
        return ", ".join(f"({v} : {pretty(a)})" for v, a in x.entries)
    raise TypeError(f"cannot pretty-print {x!r}")


def _pretty_base(a: RawType) -> str:
    s = pretty(a)
    if isinstance(a, RArrow) and a.base is None:
        return f"({s})"
    return s


def pretty_tree(t: RawTree) -> str:
    es = t.values()

    def block(s: Tree, o: int) -> str:
        # the block of the subtree s starts at index o of the entries
        out = []
        offsets = path_table(s).offsets
        for i, b in enumerate(s.branches):
            out.append(_pretty_entry(es[o + i]))
            out.append("{" + block(b, o + offsets[i]) + "}")
        out.append(_pretty_entry(es[o + len(s.branches)]))
        return "".join(out)

    return block(t.shape(), 0)


def _pretty_entry(e) -> str:
    if e is None:
        return ""
    if isinstance(e, str):
        return e
    return pretty(e)


def pretty_args(a: RArgs) -> str:
    labelling = isinstance(a.data, RawTree)
    inner = pretty_tree(a.data) if labelling else ", ".join(map(pretty, a.data))
    if a.ty is not None:
        inner = f"{pretty(a.ty)} | {inner}"
    return f"<{inner}>" if labelling else f"({inner})"


# ---------------------------------------------------------------------------
# diagnostics


def render_error(message: str, span: Span, text: Optional[str] = None) -> str:
    """Render a message with a source label pointing into the input."""
    where = span.source or "<input>"
    if text is None:
        return f"error: {message}\n  at {where}:{span.start}-{span.end}"
    line_start = text.rfind("\n", 0, span.start) + 1
    line_end = text.find("\n", span.start)
    if line_end == -1:
        line_end = len(text)
    line_no = text.count("\n", 0, span.start) + 1
    col = span.start - line_start
    width = max(1, min(span.end, line_end) - span.start)
    line = text[line_start:line_end]
    return (
        f"error: {message}\n"
        f"  at {where}:{line_no}:{col + 1}\n"
        f"  | {line}\n"
        f"  | {' ' * col}{'^' * width}"
    )
