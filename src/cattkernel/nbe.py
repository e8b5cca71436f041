"""Normalisation by evaluation.

Evaluation maps core syntax into a normal form syntax of variables and
head terms applied to fully explicit labellings.  The configurable parts
of definitional equality live here: disc removal, endo-coherence removal,
and insertion (pruning is insertion of discs along identity arguments).
Implicit suspension is resolved during evaluation via the type part of
environments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from . import core as C
from . import flat as F
from . import trees as T
from .core import CoreTerm, CoreType
from .trees import LTree, Path, Tree


@dataclass(frozen=True)
class EvalConfig:
    dr: bool = False
    ecr: bool = False
    insertion: str = "none"  # none | id | full

    def __post_init__(self):
        if self.insertion not in ("none", "id", "full"):
            raise ValueError("insertion must be none, id or full")


WEAK = EvalConfig()
SU = EvalConfig(dr=True, ecr=True, insertion="id")
SUA = EvalConfig(dr=True, ecr=True, insertion="full")


# ---------------------------------------------------------------------------
# normal forms


@dataclass(frozen=True)
class NVar:
    pos: Union[int, Path]


@dataclass(frozen=True)
class NCoh:
    tree: Tree
    ty: tuple  # NfType


@dataclass(frozen=True)
class NId:
    n: int


@dataclass(frozen=True)
class NComp:
    tree: Tree


Head = Union[NCoh, NId, NComp]


@dataclass(frozen=True)
class NApp:
    head: Head
    label: LTree  # of NfTerm


NfTerm = Union[NVar, NApp]

# NfType: tuple of (source, target) pairs, the first pair at top dimension;
# the empty tuple is the base type.
NfType = tuple


# ---------------------------------------------------------------------------
# environments


@dataclass(frozen=True)
class Env:
    """Evaluated images of the variables of a context, together with the
    image type of the base type."""

    data: Union[LTree, tuple]
    ty: NfType = ()

    def lookup(self, key) -> NfTerm:
        if isinstance(key, tuple):
            return self.data.lookup(key)
        return self.data[key]


# Environments are immutable, so one identity environment per tree or
# length serves every caller.
@lru_cache(maxsize=None)
def id_env(t: Tree) -> Env:
    return Env(LTree.from_fn(t, NVar), ())


@lru_cache(maxsize=None)
def id_list_env(n: int) -> Env:
    return Env(tuple(NVar(i) for i in range(n)), ())


def lift(env: Env) -> Env:
    """The environment for the unsuspended context."""
    pair_ty: NfType
    if isinstance(env.data, LTree):
        if len(env.data.branches) != 1:
            raise F.MalformedSyntax("environment is not a suspension")
        pair = (env.data.elements[0], env.data.elements[1])
        return Env(env.data.branches[0], (pair,) + env.ty)
    pair = (env.data[0], env.data[1])
    return Env(env.data[2:], (pair,) + env.ty)


def lower(env: Env) -> LTree:
    """Fold the type part into the tree, yielding a labelling over the
    suspended shape with trivial type part."""
    if not isinstance(env.data, LTree):
        raise F.MalformedSyntax("only tree environments can be lowered")
    lt = env.data
    for s, t in env.ty:
        lt = LTree((s, t), (lt,))
    return lt


def restrict(env: Env, low: int, high: int) -> Env:
    if not isinstance(env.data, LTree):
        raise F.MalformedSyntax("only tree environments can be restricted")
    lt = env.data
    return Env(
        LTree(lt.elements[low : high + 1], lt.branches[low:high]), env.ty
    )


# ---------------------------------------------------------------------------
# evaluation


def eval_tm(cfg: EvalConfig, x: CoreTerm, env: Env) -> NfTerm:
    if isinstance(x, C.CVar):
        return env.lookup(x.idx)
    if isinstance(x, C.CPath):
        return env.lookup(x.path)
    if isinstance(x, C.CTop):
        return eval_tm(cfg, x.body, env)
    if isinstance(x, C.CCoh):
        return _eval_head(cfg, x.tree, x.ty, env)
    if isinstance(x, C.CComp):
        return _eval_head(cfg, x.tree, None, env)
    if isinstance(x, C.CId):
        d = len(env.ty)
        return NApp(NId(x.n + d), lower(env))
    if isinstance(x, C.CInc):
        return eval_tm(cfg, x.term, restrict(env, x.low, x.high))
    if isinstance(x, C.CSub):
        inner = Env(
            tuple(eval_tm(cfg, t, env) for t in x.sub.terms),
            eval_ty(cfg, x.sub.ty, env),
        )
        return eval_tm(cfg, x.term, inner)
    if isinstance(x, C.CLabel):
        inner = Env(
            x.label.lt.map(lambda e: eval_tm(cfg, e, env)),
            eval_ty(cfg, x.label.ty, env),
        )
        return eval_tm(cfg, x.term, inner)
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
    if isinstance(a, C.CTySub):
        inner = Env(
            tuple(eval_tm(cfg, t, env) for t in a.sub.terms),
            eval_ty(cfg, a.sub.ty, env),
        )
        return eval_ty(cfg, a.ty, inner)
    if isinstance(a, C.CTyLabel):
        inner = Env(
            a.label.lt.map(lambda e: eval_tm(cfg, e, env)),
            eval_ty(cfg, a.label.ty, env),
        )
        return eval_ty(cfg, a.ty, inner)
    if isinstance(a, C.CTySusp):
        return eval_ty(cfg, a.ty, lift(env))
    raise TypeError(f"cannot evaluate {a!r}")


# ---------------------------------------------------------------------------
# coherence evaluation


def _branch_for(s: Tree, mp: Path, t: Tree) -> Optional[tuple]:
    """The shortest branch under the maximal path mp that accepts an
    insertion of t."""
    for cut in range(1, len(mp) + 1):
        p = mp[:cut]
        if T.is_branch(s, p) and T.is_insertion_point(s, p, t):
            return p
    return None


def _find_redex(cfg: EvalConfig, s: Tree, lt: LTree):
    """A branch of s whose locally maximal argument allows insertion."""
    id_candidates = []
    full_candidates = []
    for mp in T.maximal_paths(s):
        arg = lt.lookup(mp)
        if not isinstance(arg, NApp):
            continue
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


def _eval_head(
    cfg: EvalConfig, tree: Tree, coh_ty: Optional[CoreType], env: Env
) -> NfTerm:
    d = len(env.ty)
    lt = lower(env)
    s = tree
    a = coh_ty
    for _ in range(d):
        s = T.suspend_tree(s)
        if a is not None:
            a = C.CTySusp(a)
    comp_dim = s.height
    if cfg.insertion != "none":
        while True:
            redex = _find_redex(cfg, s, lt)
            if redex is None:
                break
            p, t, m = redex
            if a is not None:
                a = C.CTyLabel(a, C.exterior_clabel(s, p, t))
            lt = C.insert_ltree(lt, p, m)
            s = T.insert_tree(s, p, t)
    if a is None:
        b = standard_nf_type(cfg, s, comp_dim)
    else:
        b = eval_ty(cfg, a, id_env(s))
    return _classify(cfg, s, b, lt)


def _classify(cfg: EvalConfig, s: Tree, b: NfType, lt: LTree) -> NfTerm:
    if cfg.ecr and b and b[0][0] == b[0][1]:
        rest = b[1:]
        disc = C.label_from_disc(quote_ty(rest), quote_tm(b[0][0]))
        env = Env(lt, ())
        nf_label = disc.lt.map(lambda e: eval_tm(cfg, e, env))
        return NApp(NId(len(rest)), nf_label)
    linear = s == T.linear_tree(s.height)
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


_STD_CACHE: dict = {}


def standard_nf_type(cfg: EvalConfig, t: Tree, n: int) -> NfType:
    key = (cfg, t, n)
    if key not in _STD_CACHE:
        _STD_CACHE[key] = eval_ty(cfg, C.std_type(t, n), id_env(t))
    return _STD_CACHE[key]


# ---------------------------------------------------------------------------
# quotation


def quote_tm(x: NfTerm) -> CoreTerm:
    if isinstance(x, NVar):
        if isinstance(x.pos, tuple):
            return C.CPath(x.pos)
        return C.CVar(x.pos)
    head = x.head
    if isinstance(head, NCoh):
        inner: CoreTerm = C.CCoh(head.tree, quote_ty(head.ty))
    elif isinstance(head, NId):
        inner = C.CId(head.n)
    else:
        inner = C.CComp(head.tree)
    return C.CLabel(inner, C.CoreLabel(x.label.map(quote_tm), C.CSTAR))


def quote_ty(b: NfType) -> CoreType:
    out: CoreType = C.CSTAR
    for s, t in reversed(b):
        out = C.CArrow(quote_tm(s), out, quote_tm(t))
    return out


# ---------------------------------------------------------------------------
# flattening of normal forms


def flatten_nf(x: NfTerm, amb) -> F.FlatTerm:
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
    total = sum(size_tm(e) for e in lt.elements)
    return total + sum(_size_label(b) for b in lt.branches)


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
        for e in x.elements:
            out |= nf_vars(e)
        for b in x.branches:
            out |= nf_vars(b)
        return out
    if isinstance(x, tuple):  # NfType
        out = set()
        for s, t in x:
            out |= nf_vars(s) | nf_vars(t)
        return out
    raise TypeError(f"no variables in {x!r}")
