"""Pasting contexts: recognition of the trees that present them.

A pasting context is the realisation of a tree (``flat.tree_to_ctx``), and
``ctx_to_tree`` recognises it."""

from __future__ import annotations

from . import flat as F
from .flat import STAR, Arrow, FlatCtx, FlatTerm, FlatType, Var
from .trees import Tree


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
