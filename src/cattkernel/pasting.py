"""Pasting contexts: recognition and pruning, on the trees that present
them.

A pasting context is the realisation of a tree (``flat.tree_to_ctx``), and
``ctx_to_tree`` recognises it.  A peak of a tree other than the leaf is one
of its maximal paths: the cell of a leaf of the tree.  Its position in the
realised context is one of the indices in ``trees.path_table(t).maximal``,
and its target sits just before it.  Pruning a peak drops that leaf.  A
context keeps, for each peak pruned once, the pruned context and its
projection, so the oracle builds each at most once per context."""

from __future__ import annotations

from . import flat as F
from . import trees as T
from .flat import STAR, Arrow, FlatCtx, FlatSub, FlatTerm, FlatType, Var
from .trees import Tree

# ---------------------------------------------------------------------------
# recognition


def _scan(g: FlatCtx) -> tuple[Tree | None, int | None]:
    """Read g entry by entry as a pasting context: return the tree it
    presents, or None and the position of the first entry that does not
    fit.  The stack holds the branches read so far at each dimension up to
    the current cell's: a new cell opens a list of branches, and each step
    down closes the top list into a tree."""
    n = len(g)
    if n == 0 or n % 2 == 0 or g.entries[0] != STAR:
        return None, 0
    stack: list[list[Tree]] = [[]]
    t: FlatTerm = Var(0)
    a: FlatType = STAR
    for i in range(1, n, 2):
        b = g.entries[i]
        while len(stack) - 1 > F.dim_ty(b):
            t, a = a.tgt, a.base
            top = stack.pop()
            stack[-1].append(Tree(tuple(top)))
        if a != b:
            return None, i
        expected = Arrow(F.weaken(t), F.weaken(a), Var(0))
        if g.entries[i + 1] != expected:
            return None, i + 1
        stack.append([])
        t = Var(0)
        a = F.weaken(expected)
    while len(stack) > 1:
        top = stack.pop()
        stack[-1].append(Tree(tuple(top)))
    return Tree(tuple(stack[0])), None


def ctx_to_tree(g: FlatCtx) -> Tree | None:
    """The tree g presents, or None if g is not a pasting context.  The
    answer is kept in g, as False for None, so each context is scanned
    once; a context that ``flat.tree_to_ctx`` built has it already."""
    t = g._tree
    if t is None:
        t = _scan(g)[0]
        object.__setattr__(g, "_tree", False if t is None else t)
    return None if t is False else t


# ---------------------------------------------------------------------------
# pruning


def _drop(t: Tree, q: T.Path) -> Tree:
    """t without the leaf at the node path q."""
    bs, k = t.branches, q[0]
    rest = () if len(q) == 1 else (_drop(bs[k], q[1:]),)
    return Tree(bs[:k] + rest + bs[k + 1 :])


def pruned(g: FlatCtx, i: int) -> tuple[FlatCtx, FlatSub]:
    """The context that pruning the peak at position i leaves of the
    pasting context g, with the projection from g to it; built once per
    peak and kept in g.  The context is the realisation of g's tree
    without the peak's leaf, shared with ``flat.tree_to_ctx``."""
    kept = g._pruned
    if kept is None:
        kept = {}
        object.__setattr__(g, "_pruned", kept)
    hit = kept.get(i)
    if hit is None:
        s = ctx_to_tree(g)
        if s is None or not s.branches or i not in T.path_table(s).maximal:
            raise F.MalformedSyntax("not a peak")
        leaf = T.path_table(s).paths[i][:-1]
        r = _drop(s, leaf)
        # the cells before the peak's target and after the peak keep their
        # variables; the target goes to the peak's source, which keeps its
        # position, and the peak to the identity on it
        cells = F.variables(T.ctx_size(r))
        src = F.path_var(r, leaf)
        ident = F.canonical_identity(F.path_type(r, leaf), src)
        terms = cells[: i - 1] + (src, ident) + cells[i - 1 :]
        hit = kept[i] = (F.tree_to_ctx(r), FlatSub(STAR, terms))
    return hit


def prune_sub(sigma: FlatSub, i: int) -> FlatSub:
    """Drop the terms of the peak at position i and of its target."""
    return FlatSub(sigma.ty, sigma.terms[: i - 1] + sigma.terms[i + 1 :])
