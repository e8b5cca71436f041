"""Core syntax: the elaborated language produced by the typechecker and
consumed by evaluation.

A variable is its position counted from the start of its context, a list
context or a tree context alike.  Standard types, disc labellings and the exterior
labelling of an insertion are built as values, in ``nbe``; the printer
reads the core syntax that quotation builds.
"""

from __future__ import annotations

from typing import Optional, Union

from . import surface as R
from . import trees as T
from .trees import LTree, Path, Record, Tree


class CVar(Record):
    # a position from the start of its context
    __slots__ = ("pos",)
    pos: int

    def __init__(self, pos: int):
        (s_pos,) = self._setters
        s_pos(self, pos)


class CCoh(Record):
    """A coherence head over a tree.  It keeps the value of its type per
    configuration, in ``_ty_nf`` outside the fields: elaboration stores
    the value it has just built, and evaluation reads it, or computes it
    once and stores it."""

    __slots__ = ("tree", "ty", "_ty_nf")
    _fields = ("tree", "ty")
    tree: Tree
    ty: "CoreType"

    def __init__(self, tree: Tree, ty: "CoreType"):
        s_tree, s_ty, s_ty_nf = self._setters
        s_tree(self, tree)
        s_ty(self, ty)
        s_ty_nf(self, {})


class CId(Record):
    __slots__ = ("n",)
    n: int


class CComp(Record):
    __slots__ = ("tree",)
    tree: Tree

    def __init__(self, tree: Tree):
        (s_tree,) = self._setters
        s_tree(self, tree)


class CApp(Record):
    __slots__ = ("term", "args")
    term: "CoreTerm"
    args: "CArgs"

    def __init__(self, term: "CoreTerm", args: "CArgs"):
        s_term, s_args = self._setters
        s_term(self, term)
        s_args(self, args)


class CSusp(Record):
    __slots__ = ("term",)
    term: "CoreTerm"


CoreTerm = Union[CVar, CCoh, CId, CComp, CApp, CSusp]


class CStar(Record):
    __slots__ = ()


class CArrow(Record):
    __slots__ = ("src", "base", "tgt")
    src: CoreTerm
    base: "CoreType"
    tgt: CoreTerm


CoreType = Union[CStar, CArrow]

CSTAR = CStar()


class CArgs(Record):
    """The arguments of an application: a tuple, a substitution out of a
    list context, or an LTree, a labelling out of a tree context.  The type
    part is the image of the base type and drives implicit suspension."""

    __slots__ = ("data", "ty")
    data: Union[tuple, LTree]
    ty: CoreType

    def __init__(self, data: Union[tuple, LTree], ty: CoreType = CSTAR):
        s_data, s_ty = self._setters
        s_data(self, data)
        s_ty(self, ty)


# ---------------------------------------------------------------------------
# flattening

Ambient = Union[Tree, int]

# The flat module, imported at the first flattening: only the validation
# route flattens, so a run without it never loads ``flat``.
F = None


def _import_flat() -> None:
    global F
    from . import flat

    F = flat


def _amb_size(amb: Ambient) -> int:
    return amb if amb.__class__ is int else amb._ctx_size


def flatten_tm(x: CoreTerm, amb: Ambient) -> F.FlatTerm:
    if F is None:
        _import_flat()
    # core classes have no subclasses, so a node's class decides the case
    cls = x.__class__
    if cls is CVar:
        return F.Var(_amb_size(amb) - 1 - x.pos)
    if cls is CApp:
        data = x.args.data
        inner_amb = len(data) if data.__class__ is tuple else data.shape
        return F.substitute(flatten_tm(x.term, inner_amb), flatten_args(x.args, amb))
    if cls is CComp:
        return F.standard_coh(x.tree, x.tree.height)
    if cls is CCoh:
        g = F.tree_to_ctx(x.tree)
        return F.Coh(g, flatten_ty(x.ty, x.tree), F.identity_sub(g))
    if cls is CId:
        return F.standard_coh(T.linear_tree(x.n), x.n + 1)
    if cls is CSusp:
        inner_amb = _unsuspend(amb)
        return F.suspend_tm(flatten_tm(x.term, inner_amb), _amb_size(inner_amb))
    raise TypeError(f"cannot flatten {x!r}")


def flatten_ty(a: CoreType, amb: Ambient) -> F.FlatType:
    """Flatten a type as elaboration and quotation produce it: a stack of
    arrows over the base type."""
    if F is None:
        _import_flat()
    cls = a.__class__
    if cls is CStar:
        return F.STAR
    if cls is CArrow:
        return F.Arrow(
            flatten_tm(a.src, amb), flatten_ty(a.base, amb), flatten_tm(a.tgt, amb)
        )
    raise TypeError(f"cannot flatten {a!r}")


def _unsuspend(amb: Ambient) -> Ambient:
    if amb.__class__ is Tree:
        if len(amb.branches) != 1:
            raise T.MalformedSyntax("suspended term needs a suspension context")
        return amb.branches[0]
    return amb - 2


def flatten_args(args: CArgs, amb: Ambient) -> F.FlatSub:
    ty = flatten_ty(args.ty, amb)
    data = args.data
    es = data if data.__class__ is tuple else data.entries
    return F.FlatSub(ty, tuple([flatten_tm(e, amb) for e in es]))


# ---------------------------------------------------------------------------
# conversion to raw syntax


def path_name(p: Path) -> str:
    return "p" + "".join(str(k) for k in p)


class Names:
    """Display names for the variables of a context, by position.  A cell
    of a tree context that has no name is shown by its path name, with
    ``_`` added until no other cell uses it; ``fallback`` records each name
    so given."""

    def __init__(self, names=None):
        # names: a sequence for a list context, an LTree for a tree context
        self.names = names
        self.fallback: dict = {}
        self._taken = set(names.entries) if isinstance(names, LTree) else set()

    def __call__(self, pos: int) -> str:
        names = self.names
        if names is None:
            return f"v{pos}"
        if not isinstance(names, LTree):
            return names[pos]
        n = names.entries[pos]
        if n is not None:
            return n
        if pos not in self.fallback:
            n = path_name(T.path_table(names.shape).paths[pos])
            while n in self._taken:
                n += "_"
            self.fallback[pos] = n
            self._taken.add(n)
        return self.fallback[pos]


def to_raw(x, names: Optional[Names] = None, keep_implicits: bool = False):
    nm = names or Names()
    cls = x.__class__
    if cls is CVar:
        return R.RVar(nm(x.pos))
    if cls is CApp:
        return R.RApp(
            to_raw(x.term, nm, keep_implicits),
            _raw_label(x.args, nm, keep_implicits),
        )
    if cls is CComp:
        return R.RComp()
    if cls is CCoh:
        tree = R.RawTree.from_fn(x.tree, path_name)
        return R.RCoh(tree, to_raw(x.ty, Names(tree), keep_implicits))
    if cls is CId:
        return R.RId()
    if cls is CStar:
        return R.RStar()
    if cls is CArrow:
        base = (
            to_raw(x.base, nm, keep_implicits)
            if keep_implicits and x.base.__class__ is not CStar
            else None
        )
        return R.RArrow(
            to_raw(x.src, nm, keep_implicits), base, to_raw(x.tgt, nm, keep_implicits)
        )
    raise TypeError(f"cannot convert {x!r}")


def _raw_label(lab: CArgs, nm: Names, keep_implicits: bool) -> R.RArgs:
    ty = None
    if keep_implicits and not isinstance(lab.ty, CStar):
        ty = to_raw(lab.ty, nm, True)
    lt = lab.data
    es = lt.entries
    if keep_implicits:
        entries = tuple(to_raw(e, nm, True) for e in es)
    else:
        # only the entries at maximal paths are shown; every other entry
        # of a labelling is implicit
        shown = [None] * len(es)
        for i in T.path_table(lt.shape).maximal:
            shown[i] = to_raw(es[i], nm, False)
        entries = tuple(shown)
    return R.RArgs(R.RawTree(lt.shape, entries), ty)
