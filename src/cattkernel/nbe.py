"""Normalisation by evaluation.

Evaluation maps core syntax into a normal form syntax of variables, each
its position in its context, and head terms applied to fully explicit
labellings.  The configurable parts of definitional equality live here:
disc removal, endo-coherence removal, and insertion (pruning is insertion
of discs along identity arguments).  Implicit suspension is resolved
during evaluation via the type part of environments.

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
from .trees import LTree, Record, Tree


# Every configuration made so far, by its values: at most twelve.
_CONFIGS: dict = {}


class EvalConfig(Record):
    """Which reductions evaluation performs.  Interned over its twelve
    values, as ``Tree`` is over its branches: equal configurations are one
    object, so equality and the hash are identity's, and the caches keyed
    by configurations (standard types, the types that coherence heads
    keep) find their entries by an identity test."""

    __slots__ = ("dr", "ecr", "insertion")
    dr: bool
    ecr: bool
    insertion: str  # none | id | full

    def __new__(cls, dr: bool = False, ecr: bool = False, insertion: str = "none"):
        key = (bool(dr), bool(ecr), insertion)
        cfg = _CONFIGS.get(key)
        if cfg is None:
            if insertion not in ("none", "id", "full"):
                raise ValueError("insertion must be none, id or full")
            cfg = object.__new__(cls)
            s_dr, s_ecr, s_insertion = cls._setters
            s_dr(cfg, key[0])
            s_ecr(cfg, key[1])
            s_insertion(cfg, insertion)
            _CONFIGS[key] = cfg
        return cfg

    # __new__ finds or makes the configuration, and equal ones are one object
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__


WEAK = EvalConfig()
SU = EvalConfig(dr=True, ecr=True, insertion="id")
SUA = EvalConfig(dr=True, ecr=True, insertion="full")


# ---------------------------------------------------------------------------
# normal forms


class NVar(Record):
    """A variable, by its position in its context.  Its quotation is built
    at the first ``quote_tm`` and kept in a slot outside the fields, so a
    variable kept by an identity environment quotes to one kept core
    variable."""

    __slots__ = ("pos", "_core")
    _fields = ("pos",)
    pos: int

    def __init__(self, pos: int):
        s_pos, s_core = self._setters
        s_pos(self, pos)
        s_core(self, None)


class NCoh(Record):
    __slots__ = ("tree", "ty")
    tree: Tree
    ty: tuple  # NfType

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (
            self.tree is other.tree and (self.ty is other.ty or self.ty == other.ty)
        )

    __hash__ = Record.__hash__


class NId(Record):
    __slots__ = ("n",)
    n: int

    def __init__(self, n: int):
        (s_n,) = self._setters
        s_n(self, n)


class NComp(Record):
    __slots__ = ("tree",)
    tree: Tree

    def __init__(self, tree: Tree):
        (s_tree,) = self._setters
        s_tree(self, tree)


Head = Union[NCoh, NId, NComp]


class NApp(Record):
    __slots__ = ("head", "label")
    head: Head
    label: LTree  # of NfTerm

    def __init__(self, head: Head, label: LTree):
        s_head, s_label = self._setters
        s_head(self, head)
        s_label(self, label)

    # written out, identity first, as the flat records' are: normal forms
    # are compared on hot paths and share their subterms
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (
            (self.head is other.head or self.head == other.head)
            and (self.label is other.label or self.label == other.label)
        )

    __hash__ = Record.__hash__


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
        s_data, s_ty = self._setters
        s_data(self, data)
        s_ty(self, ty)

    def lookup(self, pos: int) -> NfTerm:
        data = self.data
        if data.__class__ is LTree:
            return data.entries[pos]
        return data[pos]


# Environments are immutable, so one identity environment per tree or
# length serves every caller; a tree's shares the variables of its length.
@lru_cache(maxsize=256)
def id_env(t: Tree) -> Env:
    return Env(LTree(t, id_list_env(t._ctx_size).data), ())


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
    # core classes have no subclasses, so a node's class decides the case
    cls = x.__class__
    if cls is C.CVar:
        return env.lookup(x.pos)
    if cls is C.CApp:
        return _eval_app(cfg, x, env)
    if cls is C.CComp:
        return _eval_head(cfg, x.tree, None, env)
    if cls is C.CCoh:
        b = x._ty_nf.get(cfg)
        if b is None:
            b = x._ty_nf[cfg] = eval_ty(cfg, x.ty, id_env(x.tree))
        return _eval_head(cfg, x.tree, b, env)
    if cls is C.CId:
        d = len(env.ty)
        return NApp(NId(x.n + d), lower(env))
    if cls is C.CSusp:
        return eval_tm(cfg, x.term, lift(env))
    raise TypeError(f"cannot evaluate {x!r}")


def eval_ty(cfg: EvalConfig, a: CoreType, env: Env) -> NfType:
    if a.__class__ is C.CStar:
        return env.ty
    if a.__class__ is C.CArrow:
        return ((eval_tm(cfg, a.src, env), eval_tm(cfg, a.tgt, env)),) + eval_ty(
            cfg, a.base, env
        )
    raise TypeError(f"cannot evaluate {a!r}")


def _eval_app(cfg: EvalConfig, x: C.CApp, env: Env) -> NfTerm:
    """Evaluate an application on an explicit stack, so that nesting costs
    no Python frames.  An application's arguments are evaluated left to
    right; one that is itself an application is pushed, with the iterator
    over its parent's arguments and the values so far.  Then the head is
    evaluated in the environment of the values: a head that is an
    application takes the place of the one it heads, and any other head
    gives the value that goes to the application below on the stack."""
    pending = []
    data = x.args.data
    args = iter(data.entries if data.__class__ is LTree else data)
    vals: list = []
    while True:
        data = env.data
        ees = data.entries if data.__class__ is LTree else data
        for e in args:
            ecls = e.__class__
            if ecls is C.CVar:
                vals.append(ees[e.pos])
            elif ecls is C.CApp:
                pending.append((x, env, args, vals))
                x = e
                break
            else:
                vals.append(eval_tm(cfg, e, env))
        else:
            # every argument of x has its value: evaluate the head
            data = x.args.data
            if data.__class__ is LTree:
                data = LTree(data.shape, tuple(vals))
            else:
                data = tuple(vals)
            ty = x.args.ty
            inner = Env(data, env.ty if ty.__class__ is C.CStar else eval_ty(cfg, ty, env))
            head = x.term
            if head.__class__ is C.CApp:
                x, env = head, inner
            else:
                v = eval_tm(cfg, head, inner)
                if not pending:
                    return v
                x, env, args, vals = pending.pop()
                vals.append(v)
                continue
        # x is an application whose arguments are still to evaluate, in env
        data = x.args.data
        args = iter(data.entries if data.__class__ is LTree else data)
        vals = []


def eval_nf(cfg: EvalConfig, x: NfTerm, env: Env) -> NfTerm:
    """Evaluate a normal form in an environment: the same as evaluating
    its quotation, without building core syntax.  An application waits on
    an explicit stack, as in ``_eval_app``, while an entry of its labelling
    that is an application is evaluated."""
    data = env.data
    ees = data.entries if data.__class__ is LTree else data
    if x.__class__ is NVar:
        return ees[x.pos]
    pending = []
    entries = iter(x.label.entries)
    vals: list = []
    while True:
        for e in entries:
            if e.__class__ is NVar:
                vals.append(ees[e.pos])
            else:
                pending.append((x, entries, vals))
                x, entries, vals = e, iter(e.label.entries), []
                break
        else:
            args = Env(LTree(x.label.shape, tuple(vals)), env.ty)
            head = x.head
            hcls = head.__class__
            if hcls is NId:
                v = NApp(NId(head.n + len(env.ty)), lower(args))
            else:
                ty = head.ty if hcls is NCoh else None
                v = _eval_head(cfg, head.tree, ty, args)
            if not pending:
                return v
            x, entries, vals = pending.pop()
            vals.append(v)


def eval_nf_ty(cfg: EvalConfig, b: NfType, env: Env) -> NfType:
    return tuple([(eval_nf(cfg, s, env), eval_nf(cfg, t, env)) for s, t in b]) + env.ty


def disc_label(b: NfType, x: NfTerm) -> LTree:
    """The labelling of the disc tree that classifies a term x of type b."""
    return lower(Env(LTree(T.LEAF, (x,)), b))


# ---------------------------------------------------------------------------
# coherence evaluation


def _find_redex(cfg: EvalConfig, s: Tree, lt: LTree):
    """A branch of s whose locally maximal argument allows insertion."""
    id_candidates = []
    full_candidates = []
    tb = T.path_table(s)
    es = lt.entries
    for i in [i for i in tb.maximal if es[i].__class__ is NApp]:
        arg = es[i]
        mp = tb.paths[i]
        head = arg.head
        if head.__class__ is NId:
            t = T.linear_tree(head.n)
            candidates = id_candidates
        elif head.__class__ is NComp and cfg.insertion == "full":
            t = head.tree
            candidates = full_candidates
        else:
            continue
        p = T.first_branch(s, mp)
        if p is not None and T.is_insertion_point(s, p, t):
            candidates.append((len(p) - 1, p, t, arg.label))
    if id_candidates:
        _, p, t, m = min(id_candidates, key=lambda c: c[0])
        return p, t, m
    if full_candidates:
        _, p, t, m = full_candidates[0]
        return p, t, m
    return None


def exterior(cfg: EvalConfig, plan: T.Insertion) -> LTree:
    """The exterior labelling of the plan's insertion of t into s along the
    branch p, as values over the tree r the insertion makes, at the
    positions of the plan: s's cells before its 0-cell k+1 (k = p[0]) are
    r's first ones, that 0-cell is ``join``, and the cells after branch k
    are shifted."""
    s, t = plan.host, plan.inserted
    zk, lo, inner = plan.zk, plan.lo, plan.inner
    if inner is None:
        # the inserted branch: the standard coherence of t, included with
        # t's first 0-cell at zk and its other cells from lo - 1 on
        b = standard_nf_type(cfg, t, s.branches[plan.branch[0]].height + 1)
        cells = (zk, *range(lo - 1, lo + t._ctx_size - 2))
        inc = Env(LTree(t, tuple(map(NVar, cells))))
        coh = _eval_head(cfg, t, b, inc)
        mid = disc_label(eval_nf_ty(cfg, b, inc), coh).entries[2:]
    else:
        # the inner exterior labelling, suspended into r's branch k
        rk = inner.tree
        up = Env(
            LTree(rk, tuple(map(NVar, range(lo, lo + rk._ctx_size)))),
            ((NVar(zk), NVar(plan.join)),),
        )
        mid = tuple(eval_nf(cfg, e, up) for e in exterior(cfg, inner).entries)
    after = range(plan.hi + plan.shift, plan.tree._ctx_size)
    return LTree(s, (*map(NVar, range(lo - 1)), NVar(plan.join), *mid, *map(NVar, after)))


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
            plan = T.insertion(s, p, t)
            if b is not None:
                b = eval_nf_ty(cfg, b, Env(exterior(cfg, plan)))
            s = plan.tree
            lt = LTree(s, T.splice(lt.entries, plan, m.entries))
    std = None
    if b is None:
        b = standard_nf_type(cfg, s, comp_dim)
        if s.height == comp_dim:
            std = b
    return _classify(cfg, s, b, lt, std)


def _classify(
    cfg: EvalConfig, s: Tree, b: NfType, lt: LTree, std: Optional[NfType]
) -> NfTerm:
    """The normal form of the head of type b over s applied to lt; std is
    the standard type of s at its height, or None if the caller has not
    looked it up."""
    if cfg.ecr and b and b[0][0] == b[0][1]:
        rest = b[1:]
        env = Env(lt)
        label = disc_label(rest, b[0][0]).map(lambda e: eval_nf(cfg, e, env))
        return NApp(NId(len(rest)), label)
    linear = s.is_linear
    if std is None:
        std = standard_nf_type(cfg, s, s.height)
    if (
        not cfg.ecr
        and linear
        and b
        and b[0][0] == b[0][1] == NVar(s._ctx_size - 1)
        and b[1:] == std
    ):
        return NApp(NId(s.height), lt)
    if cfg.dr and linear and b == std:
        return lt.entries[-1]
    if b == std:
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
        inc = LTree(b, tuple(map(NVar, T.boundary_index(t, n - 1, eps))))
        return _std_term(cfg, b, n - 1, Env(inc))

    return ((side("-"), side("+")),) + standard_nf_type(cfg, t, n - 1)


def _std_term(cfg: EvalConfig, b: Tree, m: int, env: Env) -> NfTerm:
    """The value of the standard term of dimension m over b in env."""
    if b == T.LEAF and m == 0:
        return env.lookup(0)
    if m > 0 and len(b.branches) == 1:
        return _std_term(cfg, b.branches[0], m - 1, lift(env))
    return _eval_head(cfg, b, standard_nf_type(cfg, b, m), env)


# ---------------------------------------------------------------------------
# quotation


def quote_tm(x: NfTerm) -> CoreTerm:
    """The core term of a normal form, built in post-order on an explicit
    stack: an application whose labelling holds an application waits, with
    the iterator over its entries and the quotations so far, until that
    entry is quoted."""
    if x.__class__ is NVar:
        c = x._core
        return c if c is not None else _quote_var(x)
    pending = []
    entries = iter(x.label.entries)
    out: list = []
    while True:
        for e in entries:
            if e.__class__ is NVar:
                c = e._core
                out.append(c if c is not None else _quote_var(e))
            else:
                pending.append((x, entries, out))
                x, entries, out = e, iter(e.label.entries), []
                break
        else:
            head = x.head
            hcls = head.__class__
            if hcls is NComp:
                inner: CoreTerm = C.CComp(head.tree)
            elif hcls is NId:
                inner = C.CId(head.n)
            else:
                inner = C.CCoh(head.tree, quote_ty(head.ty))
            c = C.CApp(inner, C.CArgs(LTree(x.label.shape, tuple(out))))
            if not pending:
                return c
            x, entries, out = pending.pop()
            out.append(c)


def _quote_var(x: NVar) -> C.CVar:
    """Build a variable's quotation and keep it in the variable."""
    c = C.CVar(x.pos)
    object.__setattr__(x, "_core", c)
    return c


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
    """The number of heads in a normal form, a coherence's type included,
    counted on an explicit stack."""
    n = 0
    todo = [x]
    while todo:
        y = todo.pop()
        if y.__class__ is NApp:
            head = y.head
            n += 1 + size_ty(head.ty) if head.__class__ is NCoh else 1
            todo += y.label.entries
    return n


def size_ty(b: NfType) -> int:
    return sum(size_tm(s) + size_tm(t) for s, t in b)


# ---------------------------------------------------------------------------
# support


def nf_vars(x) -> set:
    """The positions of the variables of a normal form or a normal type."""
    if x.__class__ is NVar:
        return {x.pos}
    ys = x.label.entries if x.__class__ is NApp else [e for pair in x for e in pair]
    out: set = set()
    for y in ys:
        out |= nf_vars(y)
    return out
