"""Random well-typed terms over pasting contexts.

Terms are produced as surface syntax over a tree context: full composites
of the context with random bracketing, random identity units, random unary
wraps, and occasional endo-coherence wraps.  Every generated term checks
by construction, and the mix exercises disc removal, endo-coherence
removal, pruning, and insertion.
"""

import random

from cattkernel import trees as T
from cattkernel.core import path_name
from cattkernel.trees import LEAF, Tree
import specs as SP


def random_tree(rng: random.Random, max_vars: int = 9, max_height: int = 3) -> Tree:
    """A non-singleton tree whose context has at most max_vars variables."""
    while True:
        t = _grow(rng, max_height)
        if t != LEAF and T.ctx_size(t) <= max_vars:
            return t


def _grow(rng: random.Random, max_height: int) -> Tree:
    if max_height == 0 or rng.random() < 0.35:
        return LEAF
    n = rng.randint(1, 3)
    return Tree(tuple(_grow(rng, max_height - 1) for _ in range(n)))


def _named(sub: Tree, prefix: tuple) -> str:
    parts = []
    for i, b in enumerate(sub.branches):
        parts.append(path_name(prefix + (i,)))
        parts.append("{" + _named(b, prefix + (i,)) + "}")
    parts.append(path_name(prefix + (len(sub.branches),)))
    return "".join(parts)


def ctx_text(t: Tree) -> str:
    """The tree context with every cell named after its path."""
    return _named(t, ())


def random_composite(rng: random.Random, t: Tree, depth: int = 3) -> str:
    """An expression composing the whole of t, as surface syntax."""
    expr = _compose(
        rng,
        list(t.branches),
        [(i,) for i in range(len(t.branches))],
        [(j,) for j in range(len(t.branches) + 1)],
        depth,
    )
    if t.height < 3 and rng.random() < 0.25:
        args = ", ".join(path_name(p) for p in SP.maximal_paths(t))
        return f"coh [ {_named(t, ())} : {expr} -> {expr} ] ({args})"
    return expr


def _compose(rng, subtrees, prefixes, elem_paths, depth) -> str:
    branches = _branch_strings(rng, subtrees, prefixes, elem_paths, depth)
    return "comp<" + "".join("{" + b + "}" for b in branches) + ">"


def _branch_strings(rng, subtrees, prefixes, elem_paths, depth) -> list:
    n = len(subtrees)
    out = []
    i = 0
    while i < n:
        if depth > 0 and rng.random() < 0.2:
            # identity unit on the boundary cell before branch i
            out.append("id(" + path_name(elem_paths[i]) + ")")
        hi = i
        if depth > 0 and rng.random() < 0.4:
            hi = rng.randint(i, n - 1)
        if hi > i:
            # bracketed sub-composite of a consecutive group; its result
            # sits as many levels up as the tallest group member
            expr = _compose(
                rng,
                subtrees[i : hi + 1],
                prefixes[i : hi + 1],
                elem_paths[i : hi + 2],
                depth - 1,
            )
            wrap = max(s.height for s in subtrees[i : hi + 1])
            out.append("{" * wrap + expr + "}" * wrap)
        else:
            out.append(_single(rng, subtrees[i], prefixes[i], depth))
        i = hi + 1
    if depth > 0 and rng.random() < 0.1:
        out.append("id(" + path_name(elem_paths[n]) + ")")
    return out


def _single(rng, sub: Tree, prefix, depth) -> str:
    if sub == LEAF:
        var = path_name(prefix + (0,))
        if depth > 0 and rng.random() < 0.15:
            return "comp<{" + var + "}>"
        return var
    inner = _branch_strings(
        rng,
        list(sub.branches),
        [prefix + (j,) for j in range(len(sub.branches))],
        [prefix + (j,) for j in range(len(sub.branches) + 1)],
        depth - 1,
    )
    return "".join("{" + b + "}" for b in inner)


def random_case(rng: random.Random) -> tuple:
    """A (tree, context text, term text) triple."""
    t = random_tree(rng)
    return t, ctx_text(t), random_composite(rng, t)
