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

from enum import Enum
from typing import Optional, Union

from . import core as C
from . import nbe as N
from . import surface as R
from . import trees as T
from .core import CoreTerm
from .nbe import Env, EvalConfig, NfType
from .surface import SYNTH, Span
from .trees import LTree, Record, Tree


class CheckError(Exception):
    def __init__(self, message: str, span: Span = SYNTH):
        super().__init__(message)
        self.message = message
        self.span = span


class ListCtx(Record):
    __slots__ = ("names", "types", "_index")
    _fields = ("names", "types")
    names: tuple  # of str
    types: tuple  # of NfType, positions from the start

    def __len__(self):
        return len(self.names)

    @property
    def index(self) -> dict:
        """Each bound name to the first position that binds it.  Built at
        the first lookup, in a slot outside the fields."""
        out = getattr(self, "_index", None)
        if out is None:
            out = {}
            for i, nm in enumerate(self.names):
                out.setdefault(nm, i)
            object.__setattr__(self, "_index", out)
        return out

    def type_of(self, pos: int) -> NfType:
        return self.types[pos]


class TreeCtx(Record):
    __slots__ = ("names", "_index")
    _fields = ("names",)
    names: LTree  # of Optional[str]

    @property
    def tree(self) -> Tree:
        return self.names.shape

    @property
    def index(self) -> dict:
        """Each bound name to the first path, in ``T.all_paths`` order,
        that binds it.  Built at the first lookup, in a slot outside the
        fields, so equality and hashing see the names alone."""
        out = getattr(self, "_index", None)
        if out is None:
            out = {}
            for p, nm in zip(T.path_table(self.tree).paths, self.names.entries):
                if nm is not None:
                    out.setdefault(nm, p)
            object.__setattr__(self, "_index", out)
        return out

    def type_of(self, p) -> NfType:
        """The type of a path variable: pairs of endpoint paths, the
        innermost pair first."""
        pairs = []
        q = p
        while len(q) > 1:
            q = q[:-1]
            pairs.append((N.NVar(q), N.NVar(q[:-1] + (q[-1] + 1,))))
        return tuple(pairs)


Ctx = Union[ListCtx, TreeCtx]


def ctx_id_env(ctx: Ctx) -> Env:
    if isinstance(ctx, TreeCtx):
        return N.id_env(ctx.tree)
    return N.id_list_env(len(ctx))


class SigEntry(Record):
    __slots__ = ("ctx", "term", "ty")
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


class Signature:
    def __init__(
        self,
        config: EvalConfig = N.WEAK,
        ops: OperationSet = OperationSet.REGULAR,
        entries: Optional[dict] = None,
    ):
        self.config = config
        self.ops = ops
        self.entries = {} if entries is None else entries


class Checker:
    def __init__(self, sig: Signature):
        self.sig = sig

    @property
    def config(self) -> EvalConfig:
        return self.sig.config

    # -- evaluation helpers -------------------------------------------------

    def nf(self, ctx: Ctx, t: CoreTerm):
        return N.eval_tm(self.config, t, ctx_id_env(ctx))

    def ctx_compatible(self, a: Ctx, b: Ctx) -> bool:
        """Whether a term over a is a term over b: tree contexts of one
        shape, or list contexts whose types have the same normal forms."""
        if isinstance(a, TreeCtx) and isinstance(b, TreeCtx):
            return a.tree == b.tree
        if isinstance(a, ListCtx) and isinstance(b, ListCtx):
            return a.types == b.types
        return False

    # -- context elaboration ------------------------------------------------

    def elab_ctx(self, raw: R.RawCtx) -> Ctx:
        if isinstance(raw, R.RTreeCtx):
            return _tree_ctx(raw.tree, raw.span)
        names: list = []
        types: list = []
        for name, raw_ty in raw.entries:
            if name in names:
                raise CheckError(f"duplicate variable {name!r}", raw.span)
            prefix = ListCtx(tuple(names), tuple(types))
            _, ty = self.check_ty(prefix, raw_ty)
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
            return entry.ctx, entry.term, entry.ty
        if isinstance(raw, R.RCoh):
            return self.infer_coh(raw)
        if isinstance(raw, R.RId):
            ctx = TreeCtx(LTree(T.LEAF, (None,)))
            ty = ((N.NVar((0,)), N.NVar((0,))),)
            return ctx, C.CId(0), ty
        if isinstance(raw, R.RSusp):
            # the suspension environment sends each variable to its
            # suspension, and the base type to the arrow between the poles
            ctx, t, ty = self.infer(raw.term)
            if isinstance(ctx, TreeCtx):
                names = (None, None) + ctx.names.entries
                up: Ctx = TreeCtx(LTree(T.suspend_tree(ctx.tree), names))
                env = N.lift(ctx_id_env(up))
            else:
                env = N.lift(N.id_list_env(len(ctx) + 2))
                types = tuple(N.eval_nf_ty(self.config, a, env) for a in ctx.types)
                up = ListCtx(("_north", "_south") + ctx.names, ((), ()) + types)
            return up, C.CSusp(t), N.eval_nf_ty(self.config, ty, env)
        if isinstance(raw, R.RComp):
            raise CheckError("cannot infer the shape of a bare composite", raw.span)
        if isinstance(raw, R.RHole):
            raise CheckError("cannot infer a hole", raw.span)
        raise CheckError("this term needs a context to be checked in", raw.span)

    def infer_coh(self, raw: R.RCoh) -> tuple:
        ctx = _tree_ctx(raw.tree, raw.tree.span)
        shape = ctx.tree
        if shape == T.LEAF:
            raise CheckError("a coherence needs a non-trivial context", raw.span)
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
        if not self.ctx_compatible(inner_ctx, ctx):
            raise CheckError(
                "the term lives over a different context", raw.span
            )
        return t, ty, self.nf(ctx, t)

    def lookup(self, ctx: Ctx, name: str) -> Optional[tuple]:
        pos = ctx.index.get(name)
        if pos is None:
            return None
        return C.CVar(pos), ctx.type_of(pos), N.NVar(pos)

    def support(self, ctx: TreeCtx, x) -> set:
        """The paths a normal form over a tree context mentions, closed
        under taking the endpoints in their types."""
        out = N.nf_vars(x)
        for p in tuple(out):
            out |= N.nf_vars(ctx.type_of(p))
        return out

    def check_app(self, ctx: Ctx, raw: R.RApp) -> tuple:
        head, args = raw.term, raw.args
        if isinstance(head, R.RComp) and isinstance(args.data, R.RawTree):
            shape = args.data.shape
            lab, vals, lab_ty = self.check_label(ctx, args, shape)
            inner_ty = N.standard_nf_type(self.config, shape, shape.height)
            return self.apply(C.CComp(shape), inner_ty, lab, Env(vals, lab_ty))
        inner_ctx, t, ty = self.infer(head)
        if isinstance(inner_ctx, TreeCtx):
            if not isinstance(args.data, R.RawTree):
                args = _sub_to_label(args, inner_ctx.tree)
            lab, vals, lab_ty = self.check_label(ctx, args, inner_ctx.tree)
            return self.apply(t, ty, lab, Env(vals, lab_ty))
        if isinstance(args.data, R.RawTree):
            raise CheckError("labelling arguments need a tree context", args.span)
        return self.apply_sub(ctx, inner_ctx, t, ty, args)

    def apply(self, t, inner_ty: NfType, args: C.CArgs, env: Env) -> tuple:
        """Apply t, of type inner_ty, to args, whose values make env."""
        out_ty = N.eval_nf_ty(self.config, inner_ty, env)
        return C.CApp(t, args), out_ty, N.eval_tm(self.config, t, env)

    def apply_sub(self, ctx, inner_ctx: ListCtx, t, inner_ty, args: R.RArgs):
        if len(args.data) != len(inner_ctx):
            raise CheckError(
                f"expected {len(inner_ctx)} arguments, got {len(args.data)}",
                args.span,
            )
        terms = []
        types = []
        vals = []
        for s in args.data:
            ti, bi, vi = self.elab(ctx, s)
            terms.append(ti)
            types.append(bi)
            vals.append(vi)
        base_ty = types[0] if types else ()
        env = Env(tuple(vals), base_ty)
        for i, (ti, bi) in enumerate(zip(terms, types)):
            expected = N.eval_nf_ty(self.config, inner_ctx.types[i], env)
            if bi != expected:
                raise CheckError(
                    f"argument {i} has the wrong type", args.data[i].span
                )
        if args.ty is not None:
            _, given = self.check_ty(ctx, args.ty)
            if given != base_ty:
                raise CheckError(
                    "the type part does not match the arguments", args.ty.span
                )
        sub = C.CArgs(tuple(terms), N.quote_ty(base_ty))
        return self.apply(t, inner_ty, sub, env)

    # -- labellings ---------------------------------------------------------

    def check_label(self, ctx: Ctx, args: R.RArgs, shape: Tree) -> tuple:
        """Elaborate a labelling; return it with the labelling of its
        values and the type of its zero cells."""
        if args.data.shape is not shape:
            raise CheckError(
                "the labelling does not match the shape of the context",
                args.data.span,
            )
        lt, vals, ty = self._label_tree(ctx, args.data, shape)
        if args.ty is not None:
            _, given = self.check_ty(ctx, args.ty)
            if given != ty:
                raise CheckError(
                    "the type part does not match the labelling", args.ty.span
                )
        return C.CArgs(lt, N.quote_ty(ty)), vals, ty

    def _label_tree(self, ctx: Ctx, raw: R.RawTree, shape: Tree) -> tuple:
        """The core labelling, the labelling of its values, and the type of
        its zero cells; an omitted argument takes the endpoint value found
        in its neighbours' types."""
        es = raw.entries

        def block(s: Tree, o: int) -> tuple:
            # the core entries and the values of the block of the subtree s,
            # which starts at index o, and the type of its zero cells
            if not s.branches:
                x = es[o]
                if x is None or isinstance(x, R.RHole):
                    raise CheckError(
                        "a locally maximal argument cannot be omitted", raw.span_at(o)
                    )
                t, ty, v = self.elab(ctx, x)
                return [t], [v], ty
            # the 0-cell that ends a branch comes just before its block
            nb = len(s.branches)
            offsets = T.path_table(s).offsets
            terms: list = [None]
            vals: list = [None]
            pairs = []
            tails = []
            for sub, so in zip(s.branches, offsets):
                m, mv, b = block(sub, o + so)
                if not b:
                    raise CheckError(
                        "a branch argument has a type of the wrong dimension",
                        raw.span_at(o + so),
                    )
                terms.append(None)
                terms += m
                vals.append(None)
                vals += mv
                pairs.append(b[0])
                tails.append(b[1:])
            for i in range(nb - 1):
                if tails[i] != tails[i + 1]:
                    raise CheckError(
                        "the branch arguments live over different types",
                        raw.span_at(o),
                    )
            for i in range(nb - 1):
                if pairs[i][1] != pairs[i + 1][0]:
                    raise CheckError(
                        "consecutive arguments do not share an endpoint",
                        raw.span_at(o),
                    )
            ends = [p[0] for p in pairs] + [pairs[-1][1]]
            for i, end in zip([0] + [so - 1 for so in offsets], ends):
                vals[i] = end
                x = es[o + i]
                if x is None or isinstance(x, R.RHole):
                    terms[i] = N.quote_tm(end)
                else:
                    t, _, v = self.elab(ctx, x)
                    if v != end:
                        raise CheckError(
                            "an explicit argument disagrees with the inferred one",
                            x.span,
                        )
                    terms[i] = t
            return terms, vals, tails[0]

        terms, vals, ty = block(shape, 0)
        return (
            LTree(shape, tuple(terms)),
            LTree(shape, tuple(vals)),
            ty,
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
        raise CheckError("unsupported type", raw.span)


# ---------------------------------------------------------------------------
# raw helpers


def _tree_ctx(raw: R.RawTree, span: Span) -> TreeCtx:
    """The tree context a raw tree of names describes; each name is bound
    at most once."""
    names = LTree(raw.shape, raw.entries)
    seen: set = set()
    for nm in names.entries:
        if nm is not None:
            if nm in seen:
                raise CheckError(f"duplicate variable {nm!r}", span)
            seen.add(nm)
    return TreeCtx(names)


def _sub_to_label(args: R.RArgs, shape: Tree) -> R.RArgs:
    """Assign substitution arguments to the locally maximal positions of a
    tree context."""
    mps = T.maximal_paths(shape)
    if len(args.data) != len(mps):
        raise CheckError(
            f"expected {len(mps)} arguments, got {len(args.data)}", args.span
        )
    data = R.RawTree.from_fn(shape, dict(zip(mps, args.data)).get)
    return R.RArgs(data, args.ty, args.span)
