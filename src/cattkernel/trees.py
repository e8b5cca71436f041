"""Trees as pasting diagrams: paths, branches, labellings, tree boundaries
and insertion.

A tree is a list of trees; it presents the pasting context that glues the
suspensions of its children along their endpoint 0-cells.  A cell of that
context is a path of the tree; the tree's ``PathTable`` lists the paths in
the order of the cells there, with each cell's endpoints, and the kernel
route names a cell by its index in that order, its position.  A labelling
is one entry per path, kept as one tuple in that order.  Realising trees
and labellings as flat contexts and substitutions belongs to the
validation route, in ``flat``.

An insertion's ``Insertion`` plan is the one place where the positions of
its cells are derived: the merged labelling (``splice``) and both routes'
exterior labellings read them from it.

``Record``, the immutable base of every node class of the package, is
defined here because this module imports no other.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterator, Optional
from weakref import WeakValueDictionary


class MalformedSyntax(Exception):
    """Raised on out-of-scope indices or arity mismatches."""


class Record:
    """An immutable node with a fixed tuple of fields.

    A subclass lists its attributes in ``__slots__``.  Its fields are those
    slots, or the ``_fields`` it names when further slots hold values
    derived from the fields (as ``Tree`` keeps its height); equality, the
    hash and the repr see the fields alone.  A record equals itself without
    a look at its fields, and records of different classes are never equal.
    The constructor takes the fields by position or by keyword, with the
    values in ``_defaults`` for fields left out; classes built on hot paths
    define a straight-line ``__init__`` instead, and ``Tree``, which is
    interned, a ``__new__``.

    Every constructor stores through ``_setters``: the ``__set__`` of each
    slot the class declares, in ``__slots__`` order, which writes the slot
    without the generic attribute protocol.  A straight-line constructor
    unpacks them once (``s_term, s_args = self._setters``) and calls each
    on the new record.  ``__setattr__`` refuses every other assignment.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls._setters = tuple(
            cls.__dict__[name].__set__ for name in cls.__slots__ if name != "__weakref__"
        )
        # the field values, read in C: one value for one field, a tuple for
        # several, and the class itself for none
        cls._values = attrgetter(*cls._fields or ("__class__",))

    def __init__(self, *args, **kwargs):
        # the fields are the class's first slots, so the first setters
        # store them
        fields = self._fields
        setters = self._setters
        n = len(args)
        if n > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        for store, value in zip(setters, args):
            store(self, value)
        for name, store in zip(fields[n:], setters[n:]):
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} needs a value for {name}")
            store(self, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} has no field {min(kwargs)}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


Path = tuple[int, ...]
Branch = tuple[int, ...]


# Every live tree, by its branches; a tree leaves the table when the last
# reference to it goes.
_TREES: WeakValueDictionary = WeakValueDictionary()


class Tree(Record):
    """A tree, interned: equal trees are one object, so equality and the
    hash are identity's, and a cache keyed by trees finds its entry by an
    identity test.  Its ``PathTable`` is built at the first ``path_table``
    call and kept in a slot outside the fields."""

    __slots__ = (
        "branches", "_height", "_trunk_height", "_ctx_size", "_table", "__weakref__",
    )
    _fields = ("branches",)
    branches: tuple[Tree, ...]

    def __new__(cls, branches: tuple[Tree, ...] = ()):
        # The children are interned already, so the key hashes in C from
        # their identities and compares child by child by identity.
        t = _TREES.get(branches)
        if t is None:
            # Computed once from the children's stored values.  They are
            # slots outside the fields, so the repr sees the branches alone.
            bs = branches
            height = max((b._height + 1 for b in bs), default=0)
            trunk = 1 + bs[0]._trunk_height if len(bs) == 1 else 0
            size = 1 + sum(b._ctx_size + 1 for b in bs)
            t = object.__new__(cls)
            s_branches, s_height, s_trunk, s_size, s_table = cls._setters
            s_branches(t, bs)
            s_height(t, height)
            s_trunk(t, trunk)
            s_size(t, size)
            s_table(t, None)
            _TREES[bs] = t
        return t

    # __new__ finds or makes the tree, and equal trees are one object
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def height(self) -> int:
        return self._height

    @property
    def is_linear(self) -> bool:
        return self._height == self._trunk_height

    def __repr__(self) -> str:
        return "T[" + ",".join(repr(b)[1:] for b in self.branches) + "]"


LEAF = Tree(())


def suspend_tree(t: Tree) -> Tree:
    return Tree((t,))


def linear_tree(n: int) -> Tree:
    t = LEAF
    for _ in range(n):
        t = suspend_tree(t)
    return t


# ---------------------------------------------------------------------------
# paths


class PathTable:
    """The facts of a tree that its labellings read: its paths in the
    order of the realised context, the index at which each branch's block of
    paths starts, just after the 0-cell that ends the branch, the indices
    of the 0-cells of the root block, 0 and then each offset - 1, the
    indices of the maximal paths, in table order, and each cell's
    endpoints: None at a 0-cell, at a cell ``q + (j,)`` the indices of
    ``q`` and of the sibling that follows it.  Both routes address a
    cell by its index; no table maps a path back to it."""

    __slots__ = ("paths", "offsets", "zeros", "maximal", "ends")

    def __init__(self, paths: tuple, offsets: tuple, maximal: tuple, ends: tuple):
        self.paths = paths
        self.offsets = offsets
        self.zeros = (0,) + tuple(o - 1 for o in offsets)
        self.maximal = maximal
        self.ends = ends


def path_table(t: Tree) -> PathTable:
    """The table of t, built from its children's at the first call."""
    tb = t._table
    if tb is None:
        paths: list[Path] = [(0,)]
        ends: list = [None]
        offsets = []
        maximal = [] if t.branches else [0]
        z = 0  # the index of the 0-cell k
        for k, b in enumerate(t.branches):
            # the 0-cell k + 1 ends the branch, just before its block; a
            # 0-cell of the branch goes from the 0-cell k to k + 1
            o = len(paths) + 1
            offsets.append(o)
            cell = (z, o - 1)
            if b.branches:
                sub = path_table(b)
                paths.append((k + 1,))
                paths += [(k,) + q for q in sub.paths]
                ends.append(None)
                ends += [cell if e is None else (e[0] + o, e[1] + o) for e in sub.ends]
                maximal += [o + i for i in sub.maximal]
            else:  # a leaf, the most common branch, has the one path (0,)
                paths += ((k + 1,), (k, 0))
                ends += (None, cell)
                maximal.append(o)
            z = o - 1
        tb = PathTable(tuple(paths), tuple(offsets), tuple(maximal), tuple(ends))
        object.__setattr__(t, "_table", tb)
    return tb


# ---------------------------------------------------------------------------
# size


def ctx_size(t: Tree) -> int:
    """The number of paths of t: the length of the context it presents."""
    return t._ctx_size


# ---------------------------------------------------------------------------
# labellings


class LTree(Record):
    """A labelling of a tree: one entry per path.  Its fields are its tree,
    ``shape``, and ``entries``, the tuple of its entries in its tree's
    table order, so each branch's entries are one block of that tuple, which
    starts at the branch's offset in the tree's ``PathTable``, just after
    the 0-cell that ends the branch.  ``LTree(shape, entries)`` is its one
    constructor; ``from_fn`` and ``map`` go through it.

    ``elements``, the entries of the 0-cells, gathered from before each
    block, and ``branches``, one labelling per branch, are read-only views
    built at each read; the benchmark's n-ary check and the tests read
    them.  Equality sees the shape, by identity, and the entries: it is
    written out because labellings are compared on hot paths.
    """

    __slots__ = ("shape", "entries")
    shape: Tree
    entries: tuple

    def __init__(self, shape: Tree, entries: tuple):
        if len(entries) != shape._ctx_size:
            raise MalformedSyntax("labelling shape mismatch")
        # LTree's own setters: a RawTree's are for its spans alone
        s_shape, s_entries = LTree._setters
        s_shape(self, shape)
        s_entries(self, entries)

    @classmethod
    def from_fn(cls, t: Tree, f: Callable[[Path], Any]) -> "LTree":
        """The labelling of t whose entry at each path p is f(p)."""
        return cls(t, tuple(map(f, path_table(t).paths)))

    @property
    def elements(self) -> tuple:
        es = self.entries
        return tuple(es[i] for i in path_table(self.shape).zeros)

    @property
    def branches(self) -> tuple["LTree", ...]:
        t = self.shape
        offsets = path_table(t).offsets
        return tuple(self._block(b, o) for b, o in zip(t.branches, offsets))

    def _block(self, b: Tree, o: int) -> "LTree":
        """The labelling of the branch b whose block starts at o."""
        return LTree(b, self.entries[o : o + b._ctx_size])

    def map(self, f: Callable) -> "LTree":
        """The labelling of the images; it keeps the shape."""
        return self.__class__(self.shape, tuple(map(f, self.entries)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.shape is other.shape and self.entries == other.entries
        return NotImplemented

    __hash__ = Record.__hash__


# ---------------------------------------------------------------------------
# boundaries


def tree_boundary(t: Tree, n: int) -> Tree:
    if n == 0:
        return LEAF
    return Tree(tuple(tree_boundary(b, n - 1) for b in t.branches))


def boundary_index(t: Tree, n: int, eps: str) -> tuple[int, ...]:
    """The inclusion of the n-boundary of t of side eps: the position in t
    of each cell of the boundary tree, in that tree's order.  Its 0-cells
    are t's, and the boundary of each branch is included in its block; at
    n = 0 the boundary is t's first or last 0-cell."""
    tb = path_table(t)
    if n == 0:
        return (tb.zeros[-1],) if eps == "+" else (0,)
    out = [0]
    for b, o in zip(t.branches, tb.offsets):
        out.append(o - 1)
        out += [o + i for i in boundary_index(b, n - 1, eps)]
    return tuple(out)


# ---------------------------------------------------------------------------
# insertion


def is_insertion_point(s: Tree, p: Branch, t: Tree) -> bool:
    """Whether t inserts into s along p: p is a branch, a path of
    indices down s to a linear subtree, no higher than t's trunk, and the
    leaf that subtree ends in is at least as high as t.  Any other tuple
    answers False."""
    if not p or len(p) - 1 > t._trunk_height:
        return False
    sub = s
    for k in p:
        bs = sub.branches
        if not 0 <= k < len(bs):
            return False
        sub = bs[k]
    return sub.is_linear and len(p) + sub._height >= t._height


def first_branch(s: Tree, mp: Path) -> Optional[Branch]:
    """The shortest branch of s whose maximal path is mp: the first prefix
    of mp that leads to a linear subtree, or None if there is none.  Along
    the longer ones len(p) + the subtree's height is the same and the trunk
    bound only tightens, so if t inserts at any of them it inserts here."""
    sub = s
    for cut, k in enumerate(mp[:-1], 1):
        sub = sub.branches[k]
        if sub.is_linear:
            return mp[:cut]
    return None


def branches_to(s: Tree, mp: Path) -> Iterator[Branch]:
    """The branches of s whose maximal path is mp, shortest first: the
    prefixes of mp from the first branch to the one that leads to the
    leaf.  Taken maximal path by maximal path, in table order, the
    branches of s come in pre-order."""
    p = first_branch(s, mp)
    if p is not None:
        for c in range(len(p), len(mp)):
            yield mp[:c]


class Insertion(Record):
    """The plan of inserting t (``inserted``) into s (``host``) at the
    branch p (``branch``), k = p[0]: the merged tree r, and where the cells
    of s and t land in r.  s's cells before its 0-cell k+1 keep their
    positions, that 0-cell is ``join``, t's last 0-cell (``zk`` if t is the
    leaf), branch k is s's block ``lo:hi``, and the cells after it move by
    ``shift``.  t's 0-cell 0 is s's 0-cell k, at ``zk``; its other cells
    are r's from lo - 1 on, or, past a branch of length 1, ``join`` and the
    cells that ``inner``, the plan of the insertion into branch k, places
    from lo on."""

    __slots__ = (
        "host", "branch", "inserted", "tree", "zk", "lo", "hi", "join", "shift", "inner",
    )

    def __init__(self, host, branch, inserted, tree, zk, lo, hi, join, shift, inner):
        (s_host, s_branch, s_inserted, s_tree, s_zk,
         s_lo, s_hi, s_join, s_shift, s_inner) = self._setters
        s_host(self, host)
        s_branch(self, branch)
        s_inserted(self, inserted)
        s_tree(self, tree)
        s_zk(self, zk)
        s_lo(self, lo)
        s_hi(self, hi)
        s_join(self, join)
        s_shift(self, shift)
        s_inner(self, inner)


def insertion(s: Tree, p: Branch, t: Tree) -> Insertion:
    """The plan of inserting t into s at the branch p.  Nothing keeps it:
    each route plans an insertion once and passes the plan on."""
    if not is_insertion_point(s, p, t):
        raise MalformedSyntax("not an insertion point")
    k = p[0]
    tb = path_table(s)
    lo = tb.offsets[k]
    hi = lo + s.branches[k]._ctx_size
    zk = tb.zeros[k]
    if len(p) == 1:
        inner = None
        mid = t.branches
        # t's last 0-cell comes just before its last branch's block
        join = lo - 3 + t._ctx_size - mid[-1]._ctx_size if mid else zk
    else:
        inner = insertion(s.branches[k], p[1:], t.branches[0])
        mid = (inner.tree,)
        join = lo - 1
    r = Tree(s.branches[:k] + mid + s.branches[k + 1 :])
    return Insertion(s, p, t, r, zk, lo, hi, join, r._ctx_size - s._ctx_size, inner)


def splice(es: tuple, plan: Insertion, ms: tuple) -> tuple:
    """The entries over the plan's merged tree, from es over the host and
    ms over the inserted tree: ms[0] takes the place of the host's 0-cell
    k, and the rest of ms that of its 0-cell k+1 and branch k, or, past a
    branch of length 1, ms[1] that of the 0-cell and the rest of ms, along
    the inner plan, that of the branch."""
    zk, lo, hi, inner = plan.zk, plan.lo, plan.hi, plan.inner
    if inner is None:
        rest = ms[1:]
    else:
        rest = ms[1:2] + splice(es[lo:hi], inner, ms[2:])
    return es[:zk] + ms[:1] + es[zk + 1 : lo - 1] + rest + es[hi:]
