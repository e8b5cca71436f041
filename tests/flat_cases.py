"""Hand-built flat terms shared by the oracle and acceptance tests, and the
oracle's prune steps checked against the Dyck-word reference of
``specs``."""

import itertools

from cattkernel import flat as F
from cattkernel import oracle as O
from cattkernel import pasting as P
from cattkernel import trees as T
from cattkernel.core import path_name
from cattkernel.flat import Arrow, Coh, FlatCtx, FlatSub, STAR, Var
from cattkernel.trees import LEAF, LTree, Tree
from cattkernel.typecheck import TreeCtx
import specs as SP
from specs import NestedLabel as NL

CHAIN2 = Tree((LEAF, LEAF))
CHAIN3 = Tree((LEAF, LEAF, LEAF))
VERT = Tree((CHAIN2,))


def merge(lt: LTree, p: T.Branch, m: LTree) -> LTree:
    """The labelling m inserted into lt at the branch p: the two entry
    tuples spliced along the insertion's plan."""
    plan = T.insertion(lt.shape, p, m.shape)
    return LTree(plan.tree, T.splice(lt.entries, plan, m.entries))


def make_ctx(t: Tree) -> TreeCtx:
    return TreeCtx(LTree.from_fn(t, path_name))


def binary_comp(x, f, y, g, z) -> Coh:
    """The composite of two 1-cells, with the given boundary terms."""
    lt = NL((x, y, z), (NL((f,), ()), NL((g,), ()))).to_ltree()
    return Coh(
        F.tree_to_ctx(CHAIN2),
        F.standard_type(CHAIN2, 1),
        F.label_to_sub(lt),
    )


def assoc_pair() -> tuple:
    """(f*g)*h and f*(g*h) over the 4-point path, with the ternary
    composite they should both flatten to."""
    v = lambda p: SP.path_var(CHAIN3, p)
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
    inner = NL(
        (fg_outer, fg_outer, Var(1)),
        (NL((endo,), ()), NL((Var(0),), ())),
    )
    outer = NL((Var(6), Var(3)), (inner,)).to_ltree()
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


def head_prunes(t: Coh) -> dict:
    """The oracle's prune steps at the head of t, in its order, by the
    position of the peak each prunes."""
    s = P.ctx_to_tree(t.ctx)
    return {
        SP.path_pos(s, st.where[1]): st
        for st in O.step(t, O.RuleSet.SU_PRIME)
        if st.rule == "prune" and st.where[0] == "head"
    }


def check_prunes_commute(t: Tree) -> None:
    """For every two peaks i < j of t: over the head whose substitution is
    the Dyck reference's projection that prunes both, the oracle's prune
    steps at i and then j, and at j and then i, reach one term, the head
    over the doubly pruned context.  Pruning i leaves j two positions
    earlier, and its Dyck peak two moves earlier."""
    if not t.branches:
        return
    g = F.tree_to_ctx(t)
    a = F.standard_type(t, t.height)
    d = SP.tree_to_dyck(t)
    peaks = list(zip(SP.peaks(d), T.path_table(t).maximal))
    for (p, i), (q, j) in itertools.combinations(peaks, 2):
        d_p, pi_p = SP.prune(d, p)
        d_pq, pi_pq = SP.prune(d_p, q - 2)
        sigma = F.compose(pi_p, pi_pq)
        first = head_prunes(Coh(g, a, sigma))
        assert list(first) == [i, j]
        via_i = head_prunes(first[i].term)[j - 2].term
        via_j = head_prunes(first[j].term)[i].term
        g_pq = SP.dyck_realise(d_pq)[0]
        assert via_i == via_j == Coh(g_pq, F.substitute(a, sigma), F.identity_sub(g_pq))
