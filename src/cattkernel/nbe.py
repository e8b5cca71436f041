"""Normalisation by evaluation.

Evaluation maps core syntax into a normal form syntax of variables and
head terms applied to fully explicit labellings.  The configurable parts
of definitional equality live here: disc removal, endo-coherence removal,
and insertion (pruning is insertion of discs along identity arguments).
Implicit suspension is resolved during evaluation via the type part of
environments.

Normal forms are also evaluated in place (``eval_nf``): substituting into a
result type, suspending a term or a type (an environment whose type part is
the arrow between the two poles), and transporting a coherence's type
along an insertion's exterior labelling.  Standard types, disc labellings
and exterior labellings are built here as values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

from . import core as C
from . import trees as T
from .core import CoreTerm, CoreType
from .trees import LTree, Path, Record, Tree


class EvalConfig(Record):
    # the hash is kept, as Tree keeps its own: configurations key the cache
    # of standard types
    __slots__ = ("dr", "ecr", "insertion", "_hash")
    _fields = ("dr", "ecr", "insertion")
    dr: bool
    ecr: bool
    insertion: str  # none | id | full

    def __init__(self, dr: bool = False, ecr: bool = False, insertion: str = "none"):
        if insertion not in ("none", "id", "full"):
            raise ValueError("insertion must be none, id or full")
        object.__setattr__(self, "dr", dr)
        object.__setattr__(self, "ecr", ecr)
        object.__setattr__(self, "insertion", insertion)
        object.__setattr__(self, "_hash", hash((dr, ecr, insertion)))

    def __hash__(self) -> int:
        return self._hash


WEAK = EvalConfig()
SU = EvalConfig(dr=True, ecr=True, insertion="id")
SUA = EvalConfig(dr=True, ecr=True, insertion="full")


# ---------------------------------------------------------------------------
# normal forms


class NVar(Record):
    __slots__ = ("pos",)
    pos: Union[int, Path]

    def __init__(self, pos: Union[int, Path]):
        object.__setattr__(self, "pos", pos)


class NCoh(Record):
    __slots__ = ("tree", "ty")
    tree: Tree
    ty: tuple  # NfType


class NId(Record):
    __slots__ = ("n",)
    n: int

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)


class NComp(Record):
    __slots__ = ("tree",)
    tree: Tree

    def __init__(self, tree: Tree):
        object.__setattr__(self, "tree", tree)


Head = Union[NCoh, NId, NComp]


class NApp(Record):
    __slots__ = ("head", "label")
    head: Head
    label: LTree  # of NfTerm

    def __init__(self, head: Head, label: LTree):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "label", label)


NfTerm = Union[NVar, NApp]

# NfType: tuple of (source, target) pairs, the first pair at top dimension;
# the empty tuple is the base type.
NfType = tuple


# ---------------------------------------------------------------------------
# environments


class Env(Record):
    """Evaluated images of the variables of a context, together with the
    image type of the base type."""

    __slots__ = ("data", "ty")
    data: Union[LTree, tuple]
    ty: NfType

    def __init__(self, data: Union[LTree, tuple], ty: NfType = ()):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ty", ty)

    def lookup(self, key) -> NfTerm:
        if isinstance(key, tuple):
            return self.data.lookup(key)
        return self.data[key]


# Environments are immutable, so one identity environment per tree or
# length serves every caller.
@lru_cache(maxsize=256)
def id_env(t: Tree) -> Env:
    return Env(LTree.from_fn(t, NVar), ())


@lru_cache(maxsize=256)
def id_list_env(n: int) -> Env:
    return Env(tuple(NVar(i) for i in range(n)), ())


def lift(env: Env) -> Env:
    """The environment for the unsuspended context."""
    if isinstance(env.data, LTree):
        t = env.data.shape
        if len(t.branches) != 1:
            raise T.MalformedSyntax("environment is not a suspension")
        es = env.data.entries
        inner = LTree(t.branches[0], es[2:])
    else:
        es = env.data
        inner = es[2:]
    return Env(inner, ((es[0], es[1]),) + env.ty)


def lower(env: Env) -> LTree:
    """Fold the type part into the tree, yielding a labelling over the
    suspended shape with trivial type part."""
    if not isinstance(env.data, LTree):
        raise T.MalformedSyntax("only tree environments can be lowered")
    lt = env.data
    if not env.ty:
        return lt
    tree, pairs = lt.shape, ()
    for s, t in env.ty:
        tree, pairs = T.suspend_tree(tree), (s, t) + pairs
    return LTree(tree, pairs + lt.entries)


# ---------------------------------------------------------------------------
# evaluation


def eval_tm(cfg: EvalConfig, x: CoreTerm, env: Env) -> NfTerm:
    if isinstance(x, C.CVar):
        return env.lookup(x.pos)
    if isinstance(x, C.CCoh):
        return _eval_head(cfg, x.tree, eval_ty(cfg, x.ty, id_env(x.tree)), env)
    if isinstance(x, C.CComp):
        return _eval_head(cfg, x.tree, None, env)
    if isinstance(x, C.CId):
        d = len(env.ty)
        return NApp(NId(x.n + d), lower(env))
    if isinstance(x, C.CApp):
        return eval_tm(cfg, x.term, eval_args(cfg, x.args, env))
    if isinstance(x, C.CSusp):
        return eval_tm(cfg, x.term, lift(env))
    raise TypeError(f"cannot evaluate {x!r}")


def eval_ty(cfg: EvalConfig, a: CoreType, env: Env) -> NfType:
    if isinstance(a, C.CStar):
        return env.ty
    if isinstance(a, C.CArrow):
        return ((eval_tm(cfg, a.src, env), eval_tm(cfg, a.tgt, env)),) + eval_ty(
            cfg, a.base, env
        )
    raise TypeError(f"cannot evaluate {a!r}")


def eval_args(cfg: EvalConfig, args: C.CArgs, env: Env) -> Env:
    """The environment of the evaluated arguments of a substitution or a
    labelling."""
    if isinstance(args.data, LTree):
        data = args.data.map(lambda e: eval_tm(cfg, e, env))
    else:
        data = tuple(eval_tm(cfg, t, env) for t in args.data)
    return Env(data, eval_ty(cfg, args.ty, env))


def eval_nf(cfg: EvalConfig, x: NfTerm, env: Env) -> NfTerm:
    """Evaluate a normal form in an environment: the same as evaluating
    its quotation, without building core syntax."""
    if isinstance(x, NVar):
        return env.lookup(x.pos)
    args = Env(x.label.map(lambda e: eval_nf(cfg, e, env)), env.ty)
    head = x.head
    if isinstance(head, NId):
        return NApp(NId(head.n + len(env.ty)), lower(args))
    ty = head.ty if isinstance(head, NCoh) else None
    return _eval_head(cfg, head.tree, ty, args)


def eval_nf_ty(cfg: EvalConfig, b: NfType, env: Env) -> NfType:
    pairs = tuple((eval_nf(cfg, s, env), eval_nf(cfg, t, env)) for s, t in b)
    return pairs + env.ty


def disc_label(b: NfType, x: NfTerm) -> LTree:
    """The labelling of the disc tree that classifies a term x of type b."""
    return lower(Env(LTree(T.LEAF, (x,)), b))


# ---------------------------------------------------------------------------
# coherence evaluation


def _branch_for(s: Tree, mp: Path, t: Tree) -> Optional[tuple]:
    """The shortest branch under the maximal path mp that accepts an
    insertion of t.  Only the first linear subtree on the way down can:
    the deeper ones reach the same leaf from a higher branch point."""
    sub = s
    for cut in range(1, len(mp)):
        sub = sub.branches[mp[cut - 1]]
        if sub.is_linear:
            if cut - 1 <= t.trunk_height and cut + sub.height >= t.height:
                return mp[:cut]
            return None
    return None


def _find_redex(cfg: EvalConfig, s: Tree, lt: LTree):
    """A branch of s whose locally maximal argument allows insertion."""
    id_candidates = []
    full_candidates = []
    tb = T.path_table(s)
    for i in tb.maximal:
        arg = lt.entries[i]
        if not isinstance(arg, NApp):
            continue
        mp = tb.paths[i]
        if isinstance(arg.head, NId):
            t = T.linear_tree(arg.head.n)
            p = _branch_for(s, mp, t)
            if p is not None:
                id_candidates.append((len(p) - 1, p, t, arg.label))
        elif isinstance(arg.head, NComp) and cfg.insertion == "full":
            t = arg.head.tree
            p = _branch_for(s, mp, t)
            if p is not None:
                full_candidates.append((len(p) - 1, p, t, arg.label))
    if id_candidates:
        _, p, t, m = min(id_candidates, key=lambda c: c[0])
        return p, t, m
    if full_candidates:
        _, p, t, m = full_candidates[0]
        return p, t, m
    return None


def exterior(cfg: EvalConfig, s: Tree, p: T.Branch, t: Tree) -> LTree:
    """The exterior labelling of inserting t into s along the branch p, as
    values over the tree the insertion makes."""
    k = p[0]
    if len(p) == 1:
        nt = len(t.branches)
        # the inserted branch: the standard coherence of t, included as
        # components k .. k+nt-1
        b = standard_nf_type(cfg, t, s.branches[k].height + 1)
        inc = Env(LTree.from_fn(t, lambda q: NVar((q[0] + k,) + q[1:])))
        coh = _eval_head(cfg, t, b, inc)
        mid = disc_label(eval_nf_ty(cfg, b, inc), coh).entries[2:]
    else:
        nt = 1
        # the inner exterior labelling, suspended into component k
        r = T.insert_tree(s.branches[k], p[1:], t.branches[0])
        up = Env(
            LTree.from_fn(r, lambda q: NVar((k,) + q)),
            ((NVar((k,)), NVar((k + 1,))),),
        )
        inner = exterior(cfg, s.branches[k], p[1:], t.branches[0])
        mid = tuple(eval_nf(cfg, e, up) for e in inner.entries)

    def shifted(j: int):
        return j if j <= k else j + nt - 1

    # each 0-cell before the block of the branch it ends: the identity on
    # the other branches, moved past the inserted ones
    entries = [NVar((0,))]
    for j, sub in enumerate(s.branches):
        entries.append(NVar((shifted(j + 1),)))
        if j == k:
            entries.extend(mid)
        else:
            sj = shifted(j)
            entries.extend(NVar((sj,) + q) for q in T.path_table(sub).paths)
    return LTree(s, tuple(entries))


def _eval_head(
    cfg: EvalConfig, tree: Tree, coh_ty: Optional[NfType], env: Env
) -> NfTerm:
    """Evaluate a composite (coh_ty None) or a coherence, whose type is a
    normal type over its own tree, in an environment."""
    d = len(env.ty)
    lt = lower(env)
    s = tree
    for _ in range(d):
        s = T.suspend_tree(s)
    b = coh_ty
    if b is not None and d:
        up = id_env(s)
        for _ in range(d):
            up = lift(up)
        b = eval_nf_ty(cfg, b, up)
    comp_dim = s.height
    if cfg.insertion != "none":
        while True:
            redex = _find_redex(cfg, s, lt)
            if redex is None:
                break
            p, t, m = redex
            if b is not None:
                b = eval_nf_ty(cfg, b, Env(exterior(cfg, s, p, t)))
            lt = T.insert_ltree(lt, p, m)
            s = lt.shape
    if b is None:
        b = standard_nf_type(cfg, s, comp_dim)
    return _classify(cfg, s, b, lt)


def _classify(cfg: EvalConfig, s: Tree, b: NfType, lt: LTree) -> NfTerm:
    if cfg.ecr and b and b[0][0] == b[0][1]:
        rest = b[1:]
        env = Env(lt)
        label = disc_label(rest, b[0][0]).map(lambda e: eval_nf(cfg, e, env))
        return NApp(NId(len(rest)), label)
    linear = s.is_linear
    if (
        not cfg.ecr
        and linear
        and b
        and b[0][0] == b[0][1] == NVar(T.max_path(s.height))
        and b[1:] == standard_nf_type(cfg, s, s.height)
    ):
        return NApp(NId(s.height), lt)
    if cfg.dr and linear and b == standard_nf_type(cfg, s, s.height):
        return lt.lookup(T.max_path(s.height))
    if b == standard_nf_type(cfg, s, s.height):
        return NApp(NComp(s), lt)
    return NApp(NCoh(s, b), lt)


@lru_cache(maxsize=256)
def standard_nf_type(cfg: EvalConfig, t: Tree, n: int) -> NfType:
    """The standard type of dimension n over t, as a normal type: each
    pair is the standard term over a boundary of t, included at its source
    and at its target."""
    if n == 0:
        return ()
    b = T.tree_boundary(t, n - 1)

    def side(eps: str) -> NfTerm:
        inc = LTree.from_fn(b, lambda p: NVar(T.boundary_path(t, n - 1, eps, p)))
        return _std_term(cfg, b, n - 1, Env(inc))

    return ((side("-"), side("+")),) + standard_nf_type(cfg, t, n - 1)


def _std_term(cfg: EvalConfig, b: Tree, m: int, env: Env) -> NfTerm:
    """The value of the standard term of dimension m over b in env."""
    if b == T.LEAF and m == 0:
        return env.lookup((0,))
    if m > 0 and len(b.branches) == 1:
        return _std_term(cfg, b.branches[0], m - 1, lift(env))
    return _eval_head(cfg, b, standard_nf_type(cfg, b, m), env)


# ---------------------------------------------------------------------------
# quotation


def quote_tm(x: NfTerm) -> CoreTerm:
    if isinstance(x, NVar):
        return C.CVar(x.pos)
    head = x.head
    if isinstance(head, NCoh):
        inner: CoreTerm = C.CCoh(head.tree, quote_ty(head.ty))
    elif isinstance(head, NId):
        inner = C.CId(head.n)
    else:
        inner = C.CComp(head.tree)
    return C.CApp(inner, C.CArgs(x.label.map(quote_tm)))


def quote_ty(b: NfType) -> CoreType:
    out: CoreType = C.CSTAR
    for s, t in reversed(b):
        out = C.CArrow(quote_tm(s), out, quote_tm(t))
    return out


# ---------------------------------------------------------------------------
# flattening of normal forms


def flatten_nf(x: NfTerm, amb):
    return C.flatten_tm(quote_tm(x), amb)


# ---------------------------------------------------------------------------
# size


def size_tm(x: NfTerm) -> int:
    if isinstance(x, NVar):
        return 0
    return _size_head(x.head) + _size_label(x.label)


def _size_head(h: Head) -> int:
    if isinstance(h, NCoh):
        return 1 + size_ty(h.ty)
    return 1


def _size_label(lt: LTree) -> int:
    return sum(size_tm(e) for e in lt.entries)


def size_ty(b: NfType) -> int:
    return sum(size_tm(s) + size_tm(t) for s, t in b)


# ---------------------------------------------------------------------------
# support


def nf_vars(x) -> set:
    """All variable positions appearing in a normal form."""
    if isinstance(x, NVar):
        return {x.pos}
    if isinstance(x, NApp):
        return nf_vars(x.label)
    if isinstance(x, LTree):
        out: set = set()
        for e in x.entries:
            out |= nf_vars(e)
        return out
    if isinstance(x, tuple):  # NfType
        out = set()
        for s, t in x:
            out |= nf_vars(s) | nf_vars(t)
        return out
    raise TypeError(f"no variables in {x!r}")
