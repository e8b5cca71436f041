"""Core syntax: the elaborated language produced by the typechecker and
consumed by evaluation.

Terms over a list context use positions counted from the start; terms over
a tree context use paths.  Standard types, disc labellings and the exterior
labelling of an insertion are built as values, in ``nbe``; the printer
reads the core syntax that quotation builds.
"""

from __future__ import annotations

from typing import Optional, Union

from . import surface as R
from . import trees as T
from .trees import LTree, Path, Record, Tree


class CVar(Record):
    # a position from the start of a list context, or a path of a tree
    # context
    __slots__ = ("pos",)
    pos: Union[int, Path]

    def __init__(self, pos: Union[int, Path]):
        object.__setattr__(self, "pos", pos)


class CCoh(Record):
    __slots__ = ("tree", "ty")
    tree: Tree
    ty: "CoreType"


class CId(Record):
    __slots__ = ("n",)
    n: int


class CComp(Record):
    __slots__ = ("tree",)
    tree: Tree

    def __init__(self, tree: Tree):
        object.__setattr__(self, "tree", tree)


class CApp(Record):
    __slots__ = ("term", "args")
    term: "CoreTerm"
    args: "CArgs"

    def __init__(self, term: "CoreTerm", args: "CArgs"):
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "args", args)


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
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ty", ty)


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
    return T.ctx_size(amb) if isinstance(amb, Tree) else amb


def flatten_tm(x: CoreTerm, amb: Ambient) -> F.FlatTerm:
    if F is None:
        _import_flat()
    if isinstance(x, CVar):
        if isinstance(x.pos, tuple):
            return F.path_var(amb, x.pos)
        return F.Var(_amb_size(amb) - 1 - x.pos)
    if isinstance(x, CCoh):
        g = F.tree_to_ctx(x.tree)
        return F.Coh(g, flatten_ty(x.ty, x.tree), F.identity_sub(g))
    if isinstance(x, CId):
        return F.standard_coh(T.linear_tree(x.n), x.n + 1)
    if isinstance(x, CComp):
        return F.standard_coh(x.tree, x.tree.height)
    if isinstance(x, CApp):
        data = x.args.data
        inner_amb = data.shape if isinstance(data, LTree) else len(data)
        return F.substitute(flatten_tm(x.term, inner_amb), flatten_args(x.args, amb))
    if isinstance(x, CSusp):
        inner_amb = _unsuspend(amb)
        return F.suspend_tm(flatten_tm(x.term, inner_amb), _amb_size(inner_amb))
    raise TypeError(f"cannot flatten {x!r}")


def flatten_ty(a: CoreType, amb: Ambient) -> F.FlatType:
    """Flatten a type as elaboration and quotation produce it: a stack of
    arrows over the base type."""
    if F is None:
        _import_flat()
    if isinstance(a, CStar):
        return F.STAR
    if isinstance(a, CArrow):
        return F.Arrow(
            flatten_tm(a.src, amb), flatten_ty(a.base, amb), flatten_tm(a.tgt, amb)
        )
    raise TypeError(f"cannot flatten {a!r}")


def _unsuspend(amb: Ambient) -> Ambient:
    if isinstance(amb, Tree):
        if len(amb.branches) != 1:
            raise T.MalformedSyntax("suspended term needs a suspension context")
        return amb.branches[0]
    return amb - 2


def flatten_args(args: CArgs, amb: Ambient) -> F.FlatSub:
    ty = flatten_ty(args.ty, amb)
    if isinstance(args.data, LTree):
        return F.label_to_sub(args.data.map(lambda e: flatten_tm(e, amb)), ty)
    return F.FlatSub(ty, tuple(flatten_tm(t, amb) for t in args.data))


# ---------------------------------------------------------------------------
# conversion to raw syntax


def path_name(p: Path) -> str:
    return "p" + "".join(str(k) for k in p)


class Names:
    """Display names for the variables of a context.  A cell of a tree
    context that has no name is shown by its path name, with ``_`` added
    until no other cell uses it; ``fallback`` records each name so given."""

    def __init__(self, names=None):
        # names: a sequence for a list context, an LTree for a tree context
        self.names = names
        self.fallback: dict = {}
        self._taken = set(names.entries) if isinstance(names, LTree) else set()

    def __call__(self, pos) -> str:
        if not isinstance(pos, tuple):
            return f"v{pos}" if self.names is None else self.names[pos]
        if isinstance(self.names, LTree):
            n = self.names.lookup(pos)
            if n is not None:
                return n
        if pos not in self.fallback:
            n = path_name(pos)
            while n in self._taken:
                n += "_"
            self.fallback[pos] = n
            self._taken.add(n)
        return self.fallback[pos]


def to_raw(x, names: Optional[Names] = None, keep_implicits: bool = False):
    nm = names or Names()
    if isinstance(x, CVar):
        return R.RVar(nm(x.pos))
    if isinstance(x, CCoh):
        tree = R.RawTree.from_fn(x.tree, path_name)
        return R.RCoh(tree, to_raw(x.ty, Names(tree), keep_implicits))
    if isinstance(x, CId):
        return R.RId()
    if isinstance(x, CComp):
        return R.RComp()
    if isinstance(x, CApp):
        return R.RApp(
            to_raw(x.term, nm, keep_implicits),
            _raw_label(x.args, nm, keep_implicits),
        )
    if isinstance(x, CStar):
        return R.RStar()
    if isinstance(x, CArrow):
        base = (
            to_raw(x.base, nm, keep_implicits)
            if keep_implicits and not isinstance(x.base, CStar)
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
