"""Raw surface syntax: spans, the tokenizer, the parser for terms, types,
trees, contexts and commands, and the pretty-printer.

No well-formedness invariants are maintained here; holes and omitted
entries are allowed everywhere and legality is the typechecker's concern.
"""

from __future__ import annotations

from typing import Optional, Union

from .trees import LEAF, LTree, Record, Tree, path_table

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
    """A labelling of optional entries, as written: an LTree whose third
    field, ``spans``, keeps the span of each labelling at the index where
    its block starts and SYNTH at every other index (every index if no
    spans are given).  ``RawTree(shape, entries, spans=None)`` is its one
    constructor, and a branch view keeps its block of spans.  Equality and
    the hash are ``Record``'s, over all three fields."""

    __slots__ = ("spans",)
    _fields = ("shape", "entries", "spans")
    spans: tuple

    def __init__(self, shape: Tree, entries: tuple, spans: Optional[tuple] = None):
        LTree.__init__(self, shape, entries)
        object.__setattr__(self, "spans", spans or (SYNTH,) * len(entries))

    __eq__ = Record.__eq__
    __hash__ = Record.__hash__

    @property
    def span(self) -> Span:
        return self.span_at(0)

    def span_at(self, o: int) -> Span:
        """The span of the labelling whose block starts at index o."""
        return self.spans[o]

    def _block(self, b: Tree, o: int) -> "RawTree":
        end = o + b._ctx_size
        return RawTree(b, self.entries[o:end], self.spans[o:end])


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

# A token is a tuple (kind, value, start, end).  These are its fields.
KIND, VALUE, START, END = range(4)

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
# the tokens of one character, read before words, since Σ is a letter
_SINGLE = {**_PUNCT, "→": "arrow", "Σ": "susp"}


def tokenize(text: str, source: Optional[str] = None) -> list[tuple]:
    toks: list[tuple] = []
    push = toks.append
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        kind = _SINGLE.get(c)
        if kind is not None:
            push((kind, c, i, i + 1))
            i += 1
            continue
        if c.isalnum() or c in "./":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_./"):
                j += 1
            word = text[i:j]
            if word == "S":
                push(("susp", word, i, j))
            elif word in KEYWORDS:
                push((word, word, i, j))
            else:
                push(("name", word, i, j))
            i = j
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            push(("arrow", "->", i, i + 2))
            i += 2
            continue
        raise ParseError(f"unexpected character {c!r}", Span(source, i, i + 1))
    push(("eof", "", n, n))
    return toks


# ---------------------------------------------------------------------------
# parser

_ARGS_OPEN = ("lparen", "langle", "lbracket")
_TYPE_ATOM_OPEN = ("star", "hole", "lparen")
_ELEMENT_STOPS = (
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


def _block(elements: list, branches: list, span: Span) -> tuple:
    """The shape, entries and spans of a labelling in ``all_paths`` order,
    from the entries of its 0-cells and the blocks of its branches, each
    block after the 0-cell that ends it: its own span at the start and each
    branch's span where the branch's block starts, as ``RawTree`` keeps
    them."""
    if not branches:
        return LEAF, elements, [span]
    entries, spans = elements[:1], [span]
    for e, (_, es, ss) in zip(elements[1:], branches):
        entries.append(e)
        entries += es
        spans.append(SYNTH)
        spans += ss
    return Tree(tuple([b[0] for b in branches])), entries, spans


def _raw_tree(block: tuple) -> RawTree:
    shape, entries, spans = block
    return RawTree(shape, tuple(entries), tuple(spans))


class _Parser:
    def __init__(self, text: str, source: Optional[str] = None):
        self.text = text
        self.source = source
        self.toks = tokenize(text, source)
        self.pos = 0
        # token position -> (term, end position), or the ParseError that
        # parsing a term there raised
        self.terms_at: dict = {}

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        if t[KIND] != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> tuple:
        t = self.peek()
        if t[KIND] != kind:
            raise ParseError(
                f"unexpected {t[VALUE] or 'end of input'!r}",
                self.span_of(t),
                frozenset({kind}),
            )
        return self.next()

    def span_of(self, t: tuple) -> Span:
        return Span(self.source, t[START], t[END])

    def span_from(self, start: int) -> Span:
        end = self.toks[self.pos - 1][END] if self.pos > 0 else start
        return Span(self.source, start, max(start, end))

    # -- terms --------------------------------------------------------------

    def term(self) -> RawTerm:
        """The term at the current token, parsed once per position: a
        second call there (after an argument list's leading type part was
        tried) returns the first call's term, or raises its error again."""
        pos = self.pos
        done = self.terms_at.get(pos)
        if done is not None:
            if isinstance(done, ParseError):
                raise done.with_traceback(None)
            t, self.pos = done
            return t
        try:
            start = self.peek()[START]
            t = self.term_atom()
            while self.peek()[KIND] in _ARGS_OPEN:
                args = self.args()
                t = RApp(t, args, self.span_from(start))
        except ParseError as e:
            self.terms_at[pos] = e
            raise
        self.terms_at[pos] = (t, self.pos)
        return t

    def term_atom(self) -> RawTerm:
        t = self.peek()
        kind = t[KIND]
        if kind == "name":
            self.next()
            return RVar(t[VALUE], self.span_of(t))
        if kind == "hole":
            self.next()
            return RHole(self.span_of(t))
        if kind == "id":
            self.next()
            return RId(self.span_of(t))
        if kind == "comp":
            self.next()
            return RComp(self.span_of(t))
        if kind == "susp":
            self.next()
            self.expect("lparen")
            inner = self.term()
            self.expect("rparen")
            return RSusp(inner, self.span_from(t[START]))
        if kind == "coh":
            self.next()
            self.expect("lbracket")
            tree = self.tree(element="name")
            self.expect("colon")
            ty = self.type_()
            self.expect("rbracket")
            return RCoh(tree, ty, self.span_from(t[START]))
        raise ParseError(
            f"unexpected {t[VALUE] or 'end of input'!r}",
            self.span_of(t),
            frozenset({"term"}),
        )

    # -- arguments ----------------------------------------------------------

    def args(self) -> RArgs:
        t = self.peek()
        kind = t[KIND]
        start = t[START]
        if kind == "lparen":
            self.next()
            ty: Optional[RawType] = None
            terms: list[RawTerm] = []
            if self.peek()[KIND] != "rparen":
                ty = self.type_part()
                terms.append(self.term())
                while self.peek()[KIND] == "comma":
                    self.next()
                    terms.append(self.term())
            self.expect("rparen")
            return RArgs(tuple(terms), ty, self.span_from(start))
        if kind == "langle":
            self.next()
            ty = self.type_part()
            tree = self.tree(element="term")
            self.expect("rangle")
            return RArgs(tree, ty, self.span_from(start))
        if kind == "lbracket":
            tree = _raw_tree(self.square_block(element="term"))
            return RArgs(tree, None, tree.span)
        raise ParseError("expected arguments", self.span_of(t))

    def type_part(self) -> Optional[RawType]:
        """An optional leading `type |` of an argument list.  A type atom
        before the bar is tried last, and only on a token that can start
        one: `type_` reads `* |` as the start of an annotated arrow type.
        The term that `type_` reads as the source of an arrow is kept, so
        the arguments do not parse it again."""
        save = self.pos
        parses = [self.type_]
        if self.peek()[KIND] in _TYPE_ATOM_OPEN:
            parses.append(self.type_atom)
        for parse in parses:
            try:
                ty = parse()
                self.expect("bar")
                return ty
            except ParseError:
                self.pos = save
        return None

    # -- trees --------------------------------------------------------------

    def tree(self, element: str) -> RawTree:
        block = self.square_block if self.peek()[KIND] == "lbracket" else self.curly_block
        return _raw_tree(block(element))

    def curly_block(self, element: str) -> tuple:
        """A labelling in braces, as the shape, entries and spans of
        `_block`; a branch in braces is again in braces."""
        start = self.peek()[START]
        return self.braces(element, start, self.tree_element(element))

    def braces(self, element: str, start: int, first) -> tuple:
        """The labelling in braces that begins at start, its first entry
        read."""
        elements = [first]
        branches: list[tuple] = []
        while self.peek()[KIND] == "lbrace":
            self.next()
            branches.append(self.curly_block(element))
            self.expect("rbrace")
            elements.append(self.tree_element(element))
        return _block(elements, branches, self.span_from(start))

    def tree_element(self, element: str):
        t = self.peek()
        if t[KIND] in _ELEMENT_STOPS:
            return None
        if element == "name":
            if t[KIND] == "hole":
                self.next()
                return None
            return self.expect("name")[VALUE]
        return self.term()

    def square_block(self, element: str) -> tuple:
        """Square-bracket sugar, as the shape, entries and spans of
        `_block`: each item is a branch, written as a tree.  A single entry
        is the leaf block of that entry alone, whose span is a term's own;
        an entry followed by braces begins a labelling in braces."""
        start = self.peek()[START]
        self.next()  # the opening bracket, which the caller has seen
        branches: list[tuple] = []
        if self.peek()[KIND] != "rbracket":
            while True:
                t = self.peek()
                if t[KIND] == "lbracket":
                    branches.append(self.square_block(element))
                else:
                    x = self.tree_element(element)
                    if self.peek()[KIND] == "lbrace":
                        branches.append(self.braces(element, t[START], x))
                    elif isinstance(x, RawNode):
                        branches.append((LEAF, [x], [x.span]))
                    else:
                        branches.append((LEAF, [x], [self.span_from(t[START])]))
                if self.peek()[KIND] != "comma":
                    break
                self.next()
        self.expect("rbracket")
        elements = [None] * (len(branches) + 1)
        return _block(elements, branches, self.span_from(start))

    # -- types --------------------------------------------------------------

    def type_(self) -> RawType:
        start = self.peek()[START]
        save = self.pos
        base: Optional[RawType] = None
        if self.peek()[KIND] in _TYPE_ATOM_OPEN:
            try:
                b = self.type_atom()
                if self.peek()[KIND] == "bar":
                    self.next()
                    base = b
                elif self.peek()[KIND] in ("arrow", "lparen", "langle"):
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
        if t[KIND] == "star":
            self.next()
            return RStar(self.span_of(t))
        if t[KIND] == "hole":
            self.next()
            return RTyHole(self.span_of(t))
        if t[KIND] == "lparen":
            self.next()
            inner = self.type_()
            self.expect("rparen")
            return inner
        raise ParseError(
            f"unexpected {t[VALUE] or 'end of input'!r}",
            self.span_of(t),
            frozenset({"type"}),
        )

    # -- contexts -----------------------------------------------------------

    def ctx(self) -> RawCtx:
        t = self.peek()
        start = t[START]
        if t[KIND] == "lparen":
            entries = [self.ctx_entry()]
            while self.peek()[KIND] == "comma":
                self.next()
                entries.append(self.ctx_entry())
            return RListCtx(tuple(entries), self.span_from(start))
        tree = self.tree(element="name")
        return RTreeCtx(tree, self.span_from(start))

    def ctx_entry(self) -> tuple:
        self.expect("lparen")
        name = self.expect("name")[VALUE]
        self.expect("colon")
        ty = self.type_()
        self.expect("rparen")
        return (name, ty)

    # -- commands -----------------------------------------------------------

    def command(self) -> Command:
        t = self.peek()
        kind = t[KIND]
        start = t[START]
        if kind == "def":
            self.next()
            name = self.expect("name")[VALUE]
            ctx: Optional[RawCtx] = None
            ty: Optional[RawType] = None
            if self.peek()[KIND] != "equals":
                ctx = self.ctx()
                if self.peek()[KIND] == "colon":
                    self.next()
                    ty = self.type_()
            self.expect("equals")
            term = self.term()
            return DefCmd(name, ctx, ty, term, self.span_from(start))
        if kind == "normalise":
            self.next()
            term = self.term()
            self.expect("in")
            return NormaliseCmd(term, self.ctx(), self.span_from(start))
        if kind == "assert":
            self.next()
            lhs = self.term()
            self.expect("equals")
            rhs = self.term()
            self.expect("in")
            return AssertCmd(lhs, rhs, self.ctx(), self.span_from(start))
        if kind == "size":
            self.next()
            term = self.term()
            self.expect("in")
            return SizeCmd(term, self.ctx(), self.span_from(start))
        if kind == "import":
            self.next()
            p = self.peek()
            if p[KIND] != "name":
                raise ParseError("expected a file path", self.span_of(p))
            self.next()
            return ImportCmd(p[VALUE], self.span_from(start))
        raise ParseError(
            f"unexpected {t[VALUE] or 'end of input'!r}",
            self.span_of(t),
            frozenset({"def", "normalise", "assert", "size", "import"}),
        )

    def commands(self) -> list[Command]:
        out = []
        while self.peek()[KIND] != "eof":
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
    es = t.entries

    def block(s: Tree, o: int) -> str:
        # the block of the subtree s starts at index o of the entries, and
        # the 0-cell that ends a branch comes just before the branch's block
        out = [_pretty_entry(es[o])]
        for b, bo in zip(s.branches, path_table(s).offsets):
            out.append("{" + block(b, o + bo) + "}")
            out.append(_pretty_entry(es[o + bo - 1]))
        return "".join(out)

    return block(t.shape, 0)


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
