"""Bidirectional typechecking: elaboration of raw syntax into core syntax.

Heads synthesise their own context (a top-level name, a coherence, the
identity); applications check arguments against that context, converting
substitutions over tree contexts into labellings.  All equality checks go
through evaluation, so the configured reductions and implicit suspension
are handled uniformly.  Elaboration returns the value of each subterm with
it, so an argument is evaluated once, where it is checked, and never again
by the applications that contain it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from . import core as C
from . import nbe as N
from . import surface as R
from . import trees as T
from .core import CoreTerm, CoreType
from .nbe import Env, EvalConfig, NfType
from .surface import SYNTH, Span
from .trees import LTree, Tree


class CheckError(Exception):
    def __init__(self, message: str, span: Span = SYNTH):
        super().__init__(message)
        self.message = message
        self.span = span


@dataclass(frozen=True)
class ListCtx:
    names: tuple  # of str
    types: tuple  # of CoreType, positions from the start

    def __len__(self):
        return len(self.names)


@dataclass(frozen=True)
class TreeCtx:
    tree: Tree
    names: LTree  # of Optional[str]


Ctx = Union[ListCtx, TreeCtx]


def ctx_id_env(ctx: Ctx) -> Env:
    if isinstance(ctx, TreeCtx):
        return N.id_env(ctx.tree)
    return N.id_list_env(len(ctx))


def ctx_compatible(a: Ctx, b: Ctx) -> bool:
    if isinstance(a, TreeCtx) and isinstance(b, TreeCtx):
        return a.tree == b.tree
    if isinstance(a, ListCtx) and isinstance(b, ListCtx):
        return a.types == b.types
    return False


@dataclass(frozen=True)
class SigEntry:
    ctx: Ctx
    term: CoreTerm
    ty: NfType


class OperationSet(Enum):
    REGULAR = "regular"
    GROUPOIDAL = "groupoidal"


def op_allowed(ops: OperationSet, t: Tree, src: set, tgt: set) -> bool:
    """Whether a coherence over t whose source and target have these path
    supports is an operation: both supports full, or the source and target
    boundaries of t one dimension down."""
    if ops is OperationSet.GROUPOIDAL:
        return True
    if src == tgt == set(T.all_paths(t)):
        return True
    d = t.height
    if d == 0:
        return False
    return (src, tgt) == (
        T.boundary_paths(t, d - 1, "-"),
        T.boundary_paths(t, d - 1, "+"),
    )


@dataclass
class Signature:
    config: EvalConfig = N.WEAK
    ops: OperationSet = OperationSet.REGULAR
    entries: dict = field(default_factory=dict)


def _suspend_nf_tm(x):
    if isinstance(x, N.NVar):
        if isinstance(x.pos, tuple):
            return N.NVar((0,) + x.pos)
        return N.NVar(x.pos + 2)
    return N.NApp(x.head, x.label.map(_suspend_nf_tm))


def _suspend_nf_ty(b: NfType, tree_ctx: bool) -> NfType:
    shifted = tuple((_suspend_nf_tm(s), _suspend_nf_tm(t)) for s, t in b)
    if tree_ctx:
        bottom = ((N.NVar((0,)), N.NVar((1,))),)
    else:
        bottom = ((N.NVar(0), N.NVar(1)),)
    return shifted + bottom


class Checker:
    def __init__(self, sig: Signature):
        self.sig = sig

    @property
    def config(self) -> EvalConfig:
        return self.sig.config

    # -- evaluation helpers -------------------------------------------------

    def nf(self, ctx: Ctx, t: CoreTerm):
        return N.eval_tm(self.config, t, ctx_id_env(ctx))

    def nf_ty(self, ctx: Ctx, a: CoreType) -> NfType:
        return N.eval_ty(self.config, a, ctx_id_env(ctx))

    # -- context elaboration ------------------------------------------------

    def elab_ctx(self, raw: R.RawCtx) -> Ctx:
        if isinstance(raw, R.RTreeCtx):
            shape = _raw_shape(raw.tree)
            names = _raw_names(raw.tree)
            seen: set = set()
            for nm in _ltree_values(names):
                if nm is not None:
                    if nm in seen:
                        raise CheckError(f"duplicate variable {nm!r}", raw.span)
                    seen.add(nm)
            return TreeCtx(shape, names)
        names: list = []
        types: list = []
        for name, raw_ty in raw.entries:
            if name in names:
                raise CheckError(f"duplicate variable {name!r}", raw.span)
            prefix = ListCtx(tuple(names), tuple(types))
            ty, _ = self.check_ty(prefix, raw_ty)
            names.append(name)
            types.append(ty)
        return ListCtx(tuple(names), tuple(types))

    # -- inference ----------------------------------------------------------

    def infer(self, raw: R.RawTerm) -> tuple:
        """Synthesise a context, a core term over it, and its type."""
        if isinstance(raw, R.RVar):
            entry = self.sig.entries.get(raw.name)
            if entry is None:
                raise CheckError(f"unknown name {raw.name!r}", raw.span)
            return entry.ctx, C.CTop(raw.name, entry.term), entry.ty
        if isinstance(raw, R.RCoh):
            return self.infer_coh(raw)
        if isinstance(raw, R.RId):
            ctx = TreeCtx(T.LEAF, LTree((None,), ()))
            ty = ((N.NVar((0,)), N.NVar((0,))),)
            return ctx, C.CId(0), ty
        if isinstance(raw, R.RSusp):
            ctx, t, ty = self.infer(raw.term)
            if isinstance(ctx, TreeCtx):
                up: Ctx = TreeCtx(
                    T.suspend_tree(ctx.tree), LTree((None, None), (ctx.names,))
                )
                return up, C.CSusp(t), _suspend_nf_ty(ty, True)
            up = ListCtx(
                ("_north", "_south") + ctx.names,
                (C.CSTAR, C.CSTAR) + tuple(C.CTySusp(a) for a in ctx.types),
            )
            return up, C.CSusp(t), _suspend_nf_ty(ty, False)
        if isinstance(raw, R.RComp):
            raise CheckError("cannot infer the shape of a bare composite", raw.span)
        if isinstance(raw, R.RHole):
            raise CheckError("cannot infer a hole", raw.span)
        raise CheckError("this term needs a context to be checked in", raw.span)

    def infer_coh(self, raw: R.RCoh) -> tuple:
        shape = _raw_shape(raw.tree)
        if shape == T.LEAF:
            raise CheckError("a coherence needs a non-trivial context", raw.span)
        ctx = TreeCtx(shape, _raw_names(raw.tree))
        ty_core, ty_nf = self.check_ty(ctx, raw.ty)
        if not ty_nf:
            raise CheckError("a coherence needs an arrow type", raw.ty.span)
        src, tgt = ty_nf[0]
        u = self.support(ctx, src)
        v = self.support(ctx, tgt)
        if not op_allowed(self.sig.ops, shape, u, v):
            raise CheckError(
                "the source and target supports do not form an allowed operation",
                raw.ty.span,
            )
        return ctx, C.CCoh(shape, ty_core), ty_nf

    # -- checking -----------------------------------------------------------

    def check(self, ctx: Ctx, raw: R.RawTerm) -> tuple:
        """Elaborate a term in a context; return it with its type."""
        t, ty, _ = self.elab(ctx, raw)
        return t, ty

    def elab(self, ctx: Ctx, raw: R.RawTerm) -> tuple:
        """Elaborate a term in a context; return it with its type and its
        value, which equals ``self.nf(ctx, term)``."""
        if isinstance(raw, R.RVar):
            found = self.lookup(ctx, raw.name)
            if found is not None:
                return found
            return self.check_by_infer(ctx, raw)
        if isinstance(raw, R.RComp):
            if isinstance(ctx, TreeCtx):
                tree = ctx.tree
                t = C.CComp(tree)
                ty = N.standard_nf_type(self.config, tree, tree.height)
                return t, ty, self.nf(ctx, t)
            raise CheckError("a bare composite needs a tree context", raw.span)
        if isinstance(raw, R.RId):
            if isinstance(ctx, TreeCtx) and ctx.tree.is_linear:
                n = ctx.tree.height
                t = C.CId(n)
                ty = N.standard_nf_type(self.config, ctx.tree, n + 1)
                return t, ty, self.nf(ctx, t)
            return self.check_by_infer(ctx, raw)
        if isinstance(raw, R.RApp):
            return self.check_app(ctx, raw)
        if isinstance(raw, R.RHole):
            raise CheckError("a hole is not allowed here", raw.span)
        return self.check_by_infer(ctx, raw)

    def check_by_infer(self, ctx: Ctx, raw: R.RawTerm) -> tuple:
        inner_ctx, t, ty = self.infer(raw)
        if not ctx_compatible(inner_ctx, ctx):
            raise CheckError(
                "the term lives over a different context", raw.span
            )
        return t, ty, self.nf(ctx, t)

    def lookup(self, ctx: Ctx, name: str) -> Optional[tuple]:
        if isinstance(ctx, TreeCtx):
            for p in T.all_paths(ctx.tree):
                if ctx.names.lookup(p) == name:
                    return C.CPath(p), self.path_type(ctx, p), N.NVar(p)
            return None
        for i, nm in enumerate(ctx.names):
            if nm == name:
                return C.CVar(i), self.nf_ty(ctx, ctx.types[i]), N.NVar(i)
        return None

    def path_type(self, ctx: TreeCtx, p) -> NfType:
        """The type of a path variable: pairs of endpoint paths, the
        innermost pair first."""
        pairs = []
        q = p
        while len(q) > 1:
            q = q[:-1]
            pairs.append((N.NVar(q), N.NVar(q[:-1] + (q[-1] + 1,))))
        return tuple(pairs)

    def support(self, ctx: TreeCtx, x) -> set:
        """The paths a normal form over a tree context mentions, closed
        under taking the endpoints in their types."""
        out = N.nf_vars(x)
        for p in tuple(out):
            out |= N.nf_vars(self.path_type(ctx, p))
        return out

    def check_app(self, ctx: Ctx, raw: R.RApp) -> tuple:
        head = raw.term
        if isinstance(head, R.RComp) and isinstance(raw.args, R.RLabelArgs):
            shape = _raw_shape(raw.args.tree)
            lab, vals, lab_ty = self.check_label(ctx, raw.args, shape)
            inner_ty = N.standard_nf_type(self.config, shape, shape.height)
            return self.apply_label(C.CComp(shape), inner_ty, lab, vals, lab_ty)
        inner_ctx, t, ty = self.infer(head)
        if isinstance(inner_ctx, TreeCtx):
            args = raw.args
            if isinstance(args, R.RSubArgs):
                args = _sub_to_label(args, inner_ctx.tree)
            lab, vals, lab_ty = self.check_label(ctx, args, inner_ctx.tree)
            return self.apply_label(t, ty, lab, vals, lab_ty)
        if not isinstance(raw.args, R.RSubArgs):
            raise CheckError(
                "labelling arguments need a tree context", raw.args.span
            )
        return self.apply_sub(ctx, inner_ctx, t, ty, raw.args)

    def apply_label(
        self, t, inner_ty, lab: C.CoreLabel, vals: LTree, lab_ty: NfType
    ):
        env = Env(vals, lab_ty)
        out_ty = N.eval_ty(self.config, N.quote_ty(inner_ty), env)
        return C.CLabel(t, lab), out_ty, N.eval_tm(self.config, t, env)

    def apply_sub(self, ctx, inner_ctx: ListCtx, t, inner_ty, args: R.RSubArgs):
        if len(args.terms) != len(inner_ctx):
            raise CheckError(
                f"expected {len(inner_ctx)} arguments, got {len(args.terms)}",
                args.span,
            )
        terms = []
        types = []
        vals = []
        for s in args.terms:
            ti, bi, vi = self.elab(ctx, s)
            terms.append(ti)
            types.append(bi)
            vals.append(vi)
        base_ty = types[0] if types else ()
        env = Env(tuple(vals), base_ty)
        for i, (ti, bi) in enumerate(zip(terms, types)):
            expected = N.eval_ty(self.config, inner_ctx.types[i], env)
            if bi != expected:
                raise CheckError(
                    f"argument {i} has the wrong type", args.terms[i].span
                )
        if args.ty is not None:
            _, given = self.check_ty(ctx, args.ty)
            if given != base_ty:
                raise CheckError(
                    "the type part does not match the arguments", args.ty.span
                )
        sub = C.CoreSub(N.quote_ty(base_ty), tuple(terms))
        out_ty = N.eval_ty(self.config, N.quote_ty(inner_ty), env)
        return C.CSub(t, sub), out_ty, N.eval_tm(self.config, t, env)

    # -- labellings ---------------------------------------------------------

    def check_label(self, ctx: Ctx, args: R.RLabelArgs, shape: Tree) -> tuple:
        """Elaborate a labelling; return it with the labelling of its
        values and the type of its zero cells."""
        if _raw_shape(args.tree) != shape:
            raise CheckError(
                "the labelling does not match the shape of the context",
                args.tree.span,
            )
        lt, vals, ty = self._label_tree(ctx, args.tree, shape)
        if args.ty is not None:
            _, given = self.check_ty(ctx, args.ty)
            if given != ty:
                raise CheckError(
                    "the type part does not match the labelling", args.ty.span
                )
        return C.CoreLabel(lt, N.quote_ty(ty)), vals, ty

    def _label_tree(self, ctx: Ctx, raw: R.RawTree, shape: Tree) -> tuple:
        """The core labelling, the labelling of its values, and the type of
        its zero cells; an omitted argument takes the endpoint value found
        in its neighbours' types."""
        if not shape.branches:
            x = raw.elements[0]
            if x is None or isinstance(x, R.RHole):
                raise CheckError(
                    "a locally maximal argument cannot be omitted", raw.span
                )
            t, ty, v = self.elab(ctx, x)
            return LTree((t,), ()), LTree((v,), ()), ty
        branches = []
        branch_vals = []
        pairs = []
        tails = []
        for i, sub in enumerate(shape.branches):
            m, mv, b = self._label_tree(ctx, raw.branches[i], sub)
            if not b:
                raise CheckError(
                    "a branch argument has a type of the wrong dimension",
                    raw.branches[i].span,
                )
            branches.append(m)
            branch_vals.append(mv)
            pairs.append(b[0])
            tails.append(b[1:])
        for i in range(len(tails) - 1):
            if tails[i] != tails[i + 1]:
                raise CheckError(
                    "the branch arguments live over different types", raw.span
                )
        for i in range(len(pairs) - 1):
            if pairs[i][1] != pairs[i + 1][0]:
                raise CheckError(
                    "consecutive arguments do not share an endpoint", raw.span
                )
        endpoints = [p[0] for p in pairs] + [pairs[-1][1]]
        elements = []
        for i, x in enumerate(raw.elements):
            if x is None or isinstance(x, R.RHole):
                elements.append(N.quote_tm(endpoints[i]))
            else:
                t, _, v = self.elab(ctx, x)
                if v != endpoints[i]:
                    raise CheckError(
                        "an explicit argument disagrees with the inferred one",
                        x.span,
                    )
                elements.append(t)
        return (
            LTree(tuple(elements), tuple(branches)),
            LTree(tuple(endpoints), tuple(branch_vals)),
            tails[0],
        )

    # -- types --------------------------------------------------------------

    def check_ty(self, ctx: Ctx, raw: R.RawType) -> tuple:
        """Elaborate a type; return the core type and its normal form."""
        if isinstance(raw, R.RStar):
            return C.CSTAR, ()
        if isinstance(raw, R.RTyHole):
            raise CheckError("a type hole is not allowed here", raw.span)
        if isinstance(raw, R.RArrow):
            s, a, sv = self.elab(ctx, raw.src)
            t, b, tv = self.elab(ctx, raw.tgt)
            if raw.base is not None:
                base_core, base_nf = self.check_ty(ctx, raw.base)
                if a != base_nf or b != base_nf:
                    raise CheckError(
                        "the endpoints do not have the annotated type", raw.span
                    )
            else:
                if a != b:
                    raise CheckError(
                        "the endpoints have different types", raw.span
                    )
                base_core = N.quote_ty(a)
            return C.CArrow(s, base_core, t), ((sv, tv),) + a
        if isinstance(raw, R.RTySusp):
            raise CheckError("a suspended type cannot be checked here", raw.span)
        raise CheckError("unsupported type", raw.span)


# ---------------------------------------------------------------------------
# raw helpers


def _raw_shape(raw: R.RawTree) -> Tree:
    return Tree(tuple(_raw_shape(b) for b in raw.branches))


def _raw_names(raw: R.RawTree) -> LTree:
    return LTree(
        tuple(raw.elements), tuple(_raw_names(b) for b in raw.branches)
    )


def _ltree_values(lt: LTree):
    yield from lt.elements
    for b in lt.branches:
        yield from _ltree_values(b)


def _sub_to_label(args: R.RSubArgs, shape: Tree) -> R.RLabelArgs:
    """Assign substitution arguments to the locally maximal positions of a
    tree context."""
    mps = T.maximal_paths(shape)
    if len(args.terms) != len(mps):
        raise CheckError(
            f"expected {len(mps)} arguments, got {len(args.terms)}", args.span
        )
    terms = iter(args.terms)

    def build(sub: Tree) -> R.RawTree:
        if not sub.branches:
            return R.RawTree((next(terms),), ())
        elements = tuple([None] * (len(sub.branches) + 1))
        return R.RawTree(elements, tuple(build(b) for b in sub.branches))

    ty = args.ty
    return R.RLabelArgs(build(shape), ty, args.span)
