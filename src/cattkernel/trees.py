"""Trees as pasting diagrams: paths, branches, labellings, tree boundaries
and insertion.

A tree is a list of trees; it presents the pasting context that glues the
suspensions of its children along their endpoint 0-cells.  A cell of that
context is a path of the tree, and a labelling is a tree of entries, one
per path.  Realising trees and labellings as flat contexts and
substitutions belongs to the validation route, in ``flat``.

``Record``, the immutable base of every node class of the package, is
defined here because this module imports no other.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable
from weakref import WeakValueDictionary


class MalformedSyntax(Exception):
    """Raised on out-of-scope indices or arity mismatches."""


class Record:
    """An immutable node with a fixed tuple of fields.

    A subclass lists its attributes in ``__slots__``.  Its fields are those
    slots, or the ``_fields`` it names when further slots hold values
    derived from the fields (as ``Tree`` keeps its height); equality, the
    hash and the repr see the fields alone.  Records of different classes
    are never equal.  The constructor takes the fields by position or by
    keyword, with the values in ``_defaults`` for fields left out; classes
    built on hot paths define a straight-line ``__init__`` instead, and
    ``Tree``, which is interned, a ``__new__``.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        # the field values, read in C: one value for one field, a tuple for
        # several, and the class itself for none
        cls._values = attrgetter(*cls._fields or ("__class__",))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args) :]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} needs a value for {name}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} has no field {min(kwargs)}")

    def __eq__(self, other):
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
    """A tree, interned: equal trees are one object, so equality is
    identity and a cache keyed by trees finds its entry by an identity
    test."""

    __slots__ = (
        "branches", "_height", "_trunk_height", "_ctx_size", "_hash", "__weakref__"
    )
    _fields = ("branches",)
    branches: tuple[Tree, ...]

    def __new__(cls, branches: tuple[Tree, ...] = ()):
        # The children are interned already, so the key hashes from their
        # stored hashes and compares child by child by identity.
        t = _TREES.get(branches)
        if t is None:
            # Computed once from the children's stored values.  They are
            # slots outside the fields, so the repr sees the branches alone,
            # and the hash is the hash of the branches.
            bs = branches
            height = max((b._height + 1 for b in bs), default=0)
            trunk = 1 + bs[0]._trunk_height if len(bs) == 1 else 0
            size = 1 + sum(b._ctx_size + 1 for b in bs)
            t = object.__new__(cls)
            object.__setattr__(t, "branches", bs)
            object.__setattr__(t, "_height", height)
            object.__setattr__(t, "_trunk_height", trunk)
            object.__setattr__(t, "_ctx_size", size)
            object.__setattr__(t, "_hash", hash(bs))
            _TREES[bs] = t
        return t

    # __new__ finds or makes the tree, and equal trees are one object
    __init__ = object.__init__
    __eq__ = object.__eq__

    def __hash__(self) -> int:
        return self._hash

    @property
    def height(self) -> int:
        return self._height

    @property
    def trunk_height(self) -> int:
        return self._trunk_height

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


def subtree(t: Tree, p: tuple[int, ...]) -> Tree:
    for k in p:
        if not 0 <= k < len(t.branches):
            raise MalformedSyntax("path leaves the tree")
        t = t.branches[k]
    return t


# ---------------------------------------------------------------------------
# paths


def all_paths(t: Tree) -> list[Path]:
    out: list[Path] = [(k,) for k in range(len(t.branches) + 1)]
    for k, b in enumerate(t.branches):
        out.extend((k,) + q for q in all_paths(b))
    return out


def maximal_paths(t: Tree) -> list[Path]:
    if not t.branches:
        return [(0,)]
    return [(k,) + q for k, b in enumerate(t.branches) for q in maximal_paths(b)]


def max_path(n: int) -> Path:
    """The unique maximal path of the linear tree of height n."""
    return (0,) * (n + 1)


# ---------------------------------------------------------------------------
# branches


def is_branch(s: Tree, p: Branch) -> bool:
    if not p:
        return False
    try:
        return subtree(s, p).is_linear
    except MalformedSyntax:
        return False


def branch_height(p: Branch) -> int:
    return len(p) - 1


def branch_path(s: Tree, p: Branch) -> Path:
    """The maximal path obtained by following the branch down its linear
    subtree."""
    return p + max_path(subtree(s, p).height)


def leaf_height(s: Tree, p: Branch) -> int:
    return len(branch_path(s, p)) - 1


def all_branches(s: Tree) -> list[Branch]:
    def walk(t: Tree, prefix: Branch) -> list[Branch]:
        out = []
        for k, b in enumerate(t.branches):
            q = prefix + (k,)
            if b.is_linear:
                out.append(q)
            out.extend(walk(b, q))
        return out

    return walk(s, ())


# ---------------------------------------------------------------------------
# size


def ctx_size(t: Tree) -> int:
    """The number of paths of t: the length of the context it presents."""
    return t._ctx_size


# ---------------------------------------------------------------------------
# labellings


class LTree(Record):
    """A tree of entries: one entry per 0-cell slot, one sub-LTree per
    branch."""

    __slots__ = ("elements", "branches", "_shape")
    _fields = ("elements", "branches")
    elements: tuple
    branches: tuple["LTree", ...]

    def __init__(self, elements: tuple, branches: tuple["LTree", ...] = ()):
        if len(elements) != len(branches) + 1:
            raise MalformedSyntax("labelling shape mismatch")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "_shape", None)

    def shape(self) -> Tree:
        # Built at the first call and kept, as Tree keeps its hash.  It is a
        # slot outside the fields, so equality and repr still see the
        # entries alone.
        s = self._shape
        if s is None:
            s = Tree(tuple(b.shape() for b in self.branches))
            object.__setattr__(self, "_shape", s)
        return s

    def lookup(self, p: Path):
        if len(p) == 1:
            return self.elements[p[0]]
        return self.branches[p[0]].lookup(p[1:])

    def values(self):
        """The entries, in ``all_paths`` order."""
        yield from self.elements
        for b in self.branches:
            yield from b.values()

    def map(self, f: Callable) -> "LTree":
        """The labelling of the images; it keeps the source's shape, if
        built."""
        out = type(self)(
            tuple(f(e) for e in self.elements),
            tuple(b.map(f) for b in self.branches),
        )
        object.__setattr__(out, "_shape", self._shape)
        return out

    @classmethod
    def from_fn(cls, t: Tree, f: Callable[[Path], Any]) -> "LTree":
        """The labelling of t whose entry at each path p is f(p); its shape
        is t."""
        out = cls(
            tuple(f((k,)) for k in range(len(t.branches) + 1)),
            tuple(
                cls.from_fn(b, lambda q, k=k: f((k,) + q))
                for k, b in enumerate(t.branches)
            ),
        )
        object.__setattr__(out, "_shape", t)
        return out


# ---------------------------------------------------------------------------
# boundaries


def tree_boundary(t: Tree, n: int) -> Tree:
    if n == 0:
        return LEAF
    return Tree(tuple(tree_boundary(b, n - 1) for b in t.branches))


def boundary_path(t: Tree, n: int, eps: str, p: Path) -> Path:
    """Include a path of the n-boundary tree back into t."""
    if n == 0:
        return (0,) if eps == "-" else (len(t.branches),)
    if len(p) == 1:
        return p
    k = p[0]
    return (k,) + boundary_path(t.branches[k], n - 1, eps, p[1:])


def boundary_paths(t: Tree, n: int, eps: str) -> set[Path]:
    """The paths of t in its n-boundary of side eps."""
    return {boundary_path(t, n, eps, p) for p in all_paths(tree_boundary(t, n))}


# ---------------------------------------------------------------------------
# insertion


def is_insertion_point(s: Tree, p: Branch, t: Tree) -> bool:
    return (
        is_branch(s, p)
        and branch_height(p) <= t.trunk_height
        and leaf_height(s, p) >= t.height
    )


def insert_tree(s: Tree, p: Branch, t: Tree) -> Tree:
    if not is_insertion_point(s, p, t):
        raise MalformedSyntax("not an insertion point")
    k = p[0]
    if len(p) == 1:
        return Tree(s.branches[:k] + t.branches + s.branches[k + 1 :])
    inner = insert_tree(s.branches[k], p[1:], t.branches[0])
    return Tree(s.branches[:k] + (inner,) + s.branches[k + 1 :])


def insert_ltree(lt: LTree, p: Branch, m: LTree) -> LTree:
    """Splice the labelling of the inserted tree into the host labelling;
    the image of the branch itself is never read.  The result keeps its
    shape, the insertion of the two shapes."""
    shape = insert_tree(lt.shape(), p, m.shape())

    def go(l: LTree, q: Branch, mm: LTree) -> LTree:
        k = q[0]
        elements = l.elements[:k] + mm.elements + l.elements[k + 2 :]
        if len(q) == 1:
            branches = l.branches[:k] + mm.branches + l.branches[k + 1 :]
        else:
            branches = (
                l.branches[:k]
                + (go(l.branches[k], q[1:], mm.branches[0]),)
                + l.branches[k + 1 :]
            )
        return LTree(elements, branches)

    out = go(lt, p, m)
    object.__setattr__(out, "_shape", shape)
    return out
