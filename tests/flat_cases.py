"""Hand-built flat terms shared by the oracle and acceptance tests."""

from cattkernel import flat as F
from cattkernel.core import path_name
from cattkernel.flat import Arrow, Coh, FlatCtx, FlatSub, STAR, Var
from cattkernel.trees import LEAF, LTree, Tree
from cattkernel.typecheck import TreeCtx

CHAIN2 = Tree((LEAF, LEAF))
CHAIN3 = Tree((LEAF, LEAF, LEAF))
VERT = Tree((CHAIN2,))


def make_ctx(t: Tree) -> TreeCtx:
    return TreeCtx(LTree.from_fn(t, path_name))


def binary_comp(x, f, y, g, z) -> Coh:
    """The composite of two 1-cells, with the given boundary terms."""
    lt = LTree((x, y, z), (LTree((f,), ()), LTree((g,), ())))
    return Coh(
        F.tree_to_ctx(CHAIN2),
        F.standard_type(CHAIN2, 1),
        F.label_to_sub(lt),
    )


def assoc_pair() -> tuple:
    """(f*g)*h and f*(g*h) over the 4-point path, with the ternary
    composite they should both flatten to."""
    v = lambda p: F.path_var(CHAIN3, p)
    x0, x1, x2, x3 = v((0,)), v((1,)), v((2,)), v((3,))
    f, g, h = v((0, 0)), v((1, 0)), v((2, 0))
    left = binary_comp(x0, binary_comp(x0, f, x1, g, x2), x2, h, x3)
    right = binary_comp(x0, f, x1, binary_comp(x1, g, x2, h, x3), x3)
    ctx = F.tree_to_ctx(CHAIN3)
    ternary = Coh(ctx, F.standard_type(CHAIN3, 1), F.identity_sub(ctx))
    return ctx, left, right, ternary


def pruning_chain() -> tuple:
    """The vertical composite of an endo-coherence on f*g with a cell
    a : f*g -> h; simplifies to the variable a alone.

    Context: the 3-point path (x, y, f, z, g) extended with h : x -> z
    and a : f*g -> h.  Returns (ctx, term, the variable a).
    """
    chain2_ctx = F.tree_to_ctx(CHAIN2)
    fg = F.standard_coh(CHAIN2, 1)
    h_ty = Arrow(Var(4), STAR, Var(1))
    ctx = FlatCtx(chain2_ctx.entries + (h_ty,))
    fg_w = F.weaken(fg)
    a_ty = Arrow(fg_w, F.weaken(h_ty), Var(0))
    ctx = FlatCtx(ctx.entries + (a_ty,))
    # over the extended context: x=v6 y=v5 f=v4 z=v3 g=v2 h=v1 a=v0
    endo = Coh(
        chain2_ctx,
        Arrow(fg, F.standard_type(CHAIN2, 1), fg),
        FlatSub(STAR, (Var(6), Var(5), Var(4), Var(3), Var(2))),
    )
    fg_outer = F.weaken(fg_w)
    inner = LTree(
        (fg_outer, fg_outer, Var(1)),
        (LTree((endo,), ()), LTree((Var(0),), ())),
    )
    outer = LTree((Var(6), Var(3)), (inner,))
    term = Coh(
        F.tree_to_ctx(VERT),
        F.standard_type(VERT, 2),
        F.label_to_sub(outer),
    )
    return ctx, term, Var(0)


def two_peak_term() -> tuple:
    """A binary composite whose both cells are identities on the same
    point, admitting two pruning steps with the same reduct."""
    ctx = FlatCtx((STAR,))
    x = Var(0)
    ident = F.canonical_identity(STAR, x)
    return ctx, binary_comp(x, ident, x, ident, x)
