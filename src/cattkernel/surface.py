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
        s_source, s_start, s_end = self._setters
        s_source(self, source)
        s_start(self, start)
        s_end(self, end)


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
        (s_spans,) = self._setters
        s_spans(self, spans or (SYNTH,) * len(entries))

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
        s_name, s_span = self._setters
        s_name(self, name)
        s_span(self, span)


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
        (s_span,) = self._setters
        s_span(self, span)


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
        s_term, s_args, s_span = self._setters
        s_term(self, term)
        s_args(self, args)
        s_span(self, span)


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
        s_data, s_ty, s_span = self._setters
        s_data(self, data)
        s_ty(self, ty)
        s_span(self, span)


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
_TYPE_ATOM_OPEN = ("star", "lparen")
_COMMANDS = ("def", "normalise", "assert", "size", "import")
# the tokens that can follow an entry of a labelling: a branch, the end of
# a branch, of the labelling or of what holds it, and the keyword that
# starts the next command
_ELEMENT_STOPS = frozenset(
    ("lbrace", "rbrace", "rangle", "rbracket", "colon", "comma", "equals", "in", "eof")
    + _COMMANDS
)


def _block(elements: list, branches: list, span: Span) -> tuple:
    """The shape, entries and spans of a labelling in table order,
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
    """A recursive-descent parser that reads each token once and never
    goes back: where two readings share a prefix, it reads the prefix once
    and the token after it decides.  The paths that run per term read the
    current token as ``self.toks[self.pos]``; ``peek`` serves the paths
    that run once per command or context."""

    def __init__(self, text: str, source: Optional[str] = None):
        self.source = source
        self.toks = tokenize(text, source)
        self.pos = 0

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def expect(self, kind: str) -> tuple:
        t = self.toks[self.pos]
        if t[KIND] != kind:
            raise self.unexpected(t, kind)
        self.pos += 1
        return t

    def unexpected(self, t: tuple, *expected: str) -> ParseError:
        return ParseError(
            f"unexpected {t[VALUE] or 'end of input'!r}",
            self.span_of(t),
            frozenset(expected),
        )

    def span_of(self, t: tuple) -> Span:
        return Span(self.source, t[START], t[END])

    def span_from(self, start: int) -> Span:
        end = self.toks[self.pos - 1][END] if self.pos > 0 else start
        return Span(self.source, start, max(start, end))

    # -- terms --------------------------------------------------------------

    def term(self) -> RawTerm:
        toks = self.toks
        start = toks[self.pos][START]
        t = self.term_atom()
        while toks[self.pos][KIND] in _ARGS_OPEN:
            t = RApp(t, self.args(), self.span_from(start))
        return t

    def term_atom(self) -> RawTerm:
        t = self.toks[self.pos]
        kind = t[KIND]
        if kind == "name":
            self.pos += 1
            return RVar(t[VALUE], self.span_of(t))
        if kind == "comp":
            self.pos += 1
            return RComp(self.span_of(t))
        if kind == "id":
            self.pos += 1
            return RId(self.span_of(t))
        if kind == "hole":
            self.pos += 1
            return RHole(self.span_of(t))
        if kind == "susp":
            self.pos += 1
            self.expect("lparen")
            inner = self.term()
            self.expect("rparen")
            return RSusp(inner, self.span_from(t[START]))
        if kind == "coh":
            self.pos += 1
            self.expect("lbracket")
            tree = self.tree(self.name_element)
            self.expect("colon")
            ty = self.type_()
            self.expect("rbracket")
            return RCoh(tree, ty, self.span_from(t[START]))
        raise self.unexpected(t, "term")

    # -- arguments ----------------------------------------------------------

    def args(self) -> RArgs:
        toks = self.toks
        t = toks[self.pos]
        kind = t[KIND]
        if kind == "lbracket":
            tree = _raw_tree(self.square_block(self.term_element))
            return RArgs(tree, None, tree.span)
        self.pos += 1  # the opening parenthesis or angle bracket
        if kind == "lparen":
            ty: Optional[RawType] = None
            terms: list[RawTerm] = []
            if toks[self.pos][KIND] != "rparen":
                ty, first = self.lead(self.term)
                terms.append(first)
                while toks[self.pos][KIND] == "comma":
                    self.pos += 1
                    terms.append(self.term())
            self.expect("rparen")
            return RArgs(tuple(terms), ty, self.span_from(t[START]))
        ty, first = self.lead(self.first_entry)
        if first is None and toks[self.pos][KIND] == "lbracket":
            block = self.square_block(self.term_element)
        else:
            # the labelling starts at its first entry, or where the entry
            # is left out
            start = toks[self.pos][START] if first is None else first.span.start
            block = self.braces(self.term_element, start, first)
        tree = _raw_tree(block)
        self.expect("rangle")
        return RArgs(tree, ty, self.span_from(t[START]))

    def lead(self, item) -> tuple:
        """The optional leading `type |` of an argument list and the first
        argument after it, which ``item`` reads; each is read once.  The
        first item is a type atom (`*` or a type in parentheses, which no
        term starts with) or an argument, and the token after it decides:
        `->` makes it the source of an arrow type part, and `|` after a
        type atom or `_` makes that the type part, or the base of an arrow
        type part if `->` follows the next argument."""
        toks = self.toks
        t = toks[self.pos]
        if t[KIND] in _TYPE_ATOM_OPEN:
            base = self.type_atom()
            if toks[self.pos][KIND] != "bar":
                # without a bar the item was to be a term
                raise self.unexpected(t, "term")
        else:
            base = None
            x = item()
            kind = toks[self.pos][KIND]
            if kind == "bar" and x.__class__ is RHole:
                base = RTyHole(x.span)
            elif kind != "arrow":
                return None, x
        if base is not None:
            self.pos += 1  # the bar
            x = item()
            if toks[self.pos][KIND] != "arrow":
                return base, x
        ty = self.arrow(t[START], base, x)
        self.expect("bar")
        return ty, item()

    # -- trees --------------------------------------------------------------

    def tree(self, element) -> RawTree:
        kind = self.toks[self.pos][KIND]
        block = self.square_block if kind == "lbracket" else self.curly_block
        return _raw_tree(block(element))

    def curly_block(self, element) -> tuple:
        """A labelling in braces, as the shape, entries and spans of
        `_block`; a branch in braces is again in braces.  ``element``
        reads an entry."""
        start = self.toks[self.pos][START]
        return self.braces(element, start, element())

    def braces(self, element, start: int, first) -> tuple:
        """The labelling in braces that begins at start, its first entry
        read."""
        toks = self.toks
        elements = [first]
        branches: list[tuple] = []
        while toks[self.pos][KIND] == "lbrace":
            self.pos += 1
            branches.append(self.curly_block(element))
            self.expect("rbrace")
            elements.append(element())
        return _block(elements, branches, self.span_from(start))

    def term_element(self) -> Optional[RawTerm]:
        """An entry of a labelling of terms: a term, or None where the
        entry is left out."""
        if self.toks[self.pos][KIND] in _ELEMENT_STOPS:
            return None
        return self.term()

    def first_entry(self) -> Optional[RawTerm]:
        """The first entry of a labelling in angle brackets, or None where
        it is left out or the labelling is in square brackets."""
        if self.toks[self.pos][KIND] == "lbracket":
            return None
        return self.term_element()

    def name_element(self) -> Optional[str]:
        """An entry of a tree of names: a name, or None where the entry is
        left out or written `_`."""
        kind = self.toks[self.pos][KIND]
        if kind in _ELEMENT_STOPS:
            return None
        if kind == "hole":
            self.pos += 1
            return None
        return self.expect("name")[VALUE]

    def square_block(self, element) -> tuple:
        """Square-bracket sugar, as the shape, entries and spans of
        `_block`: each item is a branch, written as a tree.  A single entry
        is the leaf block of that entry alone, whose span is a term's own;
        an entry followed by braces begins a labelling in braces."""
        toks = self.toks
        start = toks[self.pos][START]
        self.pos += 1  # the opening bracket, which the caller has seen
        branches: list[tuple] = []
        if toks[self.pos][KIND] != "rbracket":
            while True:
                t = toks[self.pos]
                if t[KIND] == "lbracket":
                    branches.append(self.square_block(element))
                else:
                    x = element()
                    if toks[self.pos][KIND] == "lbrace":
                        branches.append(self.braces(element, t[START], x))
                    elif isinstance(x, RawNode):
                        branches.append((LEAF, [x], [x.span]))
                    else:
                        branches.append((LEAF, [x], [self.span_from(t[START])]))
                if toks[self.pos][KIND] != "comma":
                    break
                self.pos += 1
        self.expect("rbracket")
        elements = [None] * (len(branches) + 1)
        return _block(elements, branches, self.span_from(start))

    # -- types --------------------------------------------------------------

    def type_(self) -> RawType:
        """A type: `*`, `_`, a type in parentheses, `s -> t`, or `a | s ->
        t` for a type a of the first three kinds.  `_` is read as a term:
        the hole of a type unless an arrow or arguments follow it."""
        toks = self.toks
        t = toks[self.pos]
        if t[KIND] in _TYPE_ATOM_OPEN:
            base = self.type_atom()
            if toks[self.pos][KIND] != "bar":
                return base
        else:
            src = self.term()
            kind = toks[self.pos][KIND]
            if kind == "arrow" or src.__class__ is not RHole:
                return self.arrow(t[START], None, src)
            base = RTyHole(src.span)
            if kind != "bar":
                return base
        self.pos += 1  # the bar
        return self.arrow(t[START], base, self.term())

    def type_atom(self) -> RawType:
        """`*`, or a type in parentheses: the caller has seen one of their
        opening tokens."""
        t = self.toks[self.pos]
        self.pos += 1
        if t[KIND] == "star":
            return RStar(self.span_of(t))
        inner = self.type_()
        self.expect("rparen")
        return inner

    def arrow(self, start: int, base: Optional[RawType], src: RawTerm) -> RArrow:
        """The arrow type from src, read, to the term after the arrow."""
        self.expect("arrow")
        tgt = self.term()
        return RArrow(src, base, tgt, self.span_from(start))

    # -- contexts -----------------------------------------------------------

    def ctx(self) -> RawCtx:
        t = self.peek()
        start = t[START]
        if t[KIND] == "lparen":
            entries = [self.ctx_entry()]
            while self.peek()[KIND] == "comma":
                self.pos += 1
                entries.append(self.ctx_entry())
            return RListCtx(tuple(entries), self.span_from(start))
        tree = self.tree(self.name_element)
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
            self.pos += 1
            name = self.expect("name")[VALUE]
            ctx: Optional[RawCtx] = None
            ty: Optional[RawType] = None
            if self.peek()[KIND] != "equals":
                ctx = self.ctx()
                if self.peek()[KIND] == "colon":
                    self.pos += 1
                    ty = self.type_()
            self.expect("equals")
            term = self.term()
            return DefCmd(name, ctx, ty, term, self.span_from(start))
        if kind == "normalise":
            self.pos += 1
            term = self.term()
            self.expect("in")
            return NormaliseCmd(term, self.ctx(), self.span_from(start))
        if kind == "assert":
            self.pos += 1
            lhs = self.term()
            self.expect("equals")
            rhs = self.term()
            self.expect("in")
            return AssertCmd(lhs, rhs, self.ctx(), self.span_from(start))
        if kind == "size":
            self.pos += 1
            term = self.term()
            self.expect("in")
            return SizeCmd(term, self.ctx(), self.span_from(start))
        if kind == "import":
            self.pos += 1
            p = self.peek()
            if p[KIND] != "name":
                raise ParseError("expected a file path", self.span_of(p))
            self.pos += 1
            return ImportCmd(p[VALUE], self.span_from(start))
        raise self.unexpected(t, *_COMMANDS)

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
    # raw node classes have no subclasses, so a node's class decides
    cls = x.__class__
    if cls is RVar:
        return x.name
    if cls is RApp:
        return f"{pretty(x.term)}{pretty_args(x.args)}"
    if cls is RComp:
        return "comp"
    if cls is RHole or cls is RTyHole:
        return "_"
    if cls is RId:
        return "id"
    if cls is RCoh:
        return f"coh [ {pretty_tree(x.tree)} : {pretty(x.ty)} ]"
    if cls is RSusp:
        return f"S({pretty(x.term)})"
    if cls is RStar:
        return "*"
    if cls is RArrow:
        if x.base is None:
            return f"{pretty(x.src)} -> {pretty(x.tgt)}"
        return f"{_pretty_base(x.base)} | {pretty(x.src)} -> {pretty(x.tgt)}"
    if cls is RTreeCtx:
        return pretty_tree(x.tree)
    if cls is RListCtx:
        return ", ".join(f"({v} : {pretty(a)})" for v, a in x.entries)
    raise TypeError(f"cannot pretty-print {x!r}")


def _pretty_base(a: RawType) -> str:
    s = pretty(a)
    if isinstance(a, RArrow) and a.base is None:
        return f"({s})"
    return s


def pretty_tree(t: RawTree) -> str:
    return _pretty_block(t.entries, t.shape, 0)


def _pretty_block(es: tuple, s: Tree, o: int) -> str:
    """The block of the subtree s, which starts at index o of the entries
    es; the 0-cell that ends a branch comes just before the branch's
    block."""
    out = [_pretty_entry(es[o])]
    for b, bo in zip(s.branches, path_table(s).offsets):
        out.append("{" + _pretty_block(es, b, o + bo) + "}")
        out.append(_pretty_entry(es[o + bo - 1]))
    return "".join(out)


def _pretty_entry(e) -> str:
    if e is None:
        return ""
    if e.__class__ is str:
        return e
    return pretty(e)


def pretty_args(a: RArgs) -> str:
    labelling = a.data.__class__ is RawTree
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
