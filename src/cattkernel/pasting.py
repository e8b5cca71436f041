"""Pasting contexts: recognition, Dyck words and the trees they describe,
peaks, and pruning.

A Dyck word keeps the table of its peaks and, for each peak pruned once,
the pruned context and its projection, so the oracle builds each at most
once per word."""

from __future__ import annotations

from . import flat as F
from .flat import STAR, Arrow, FlatCtx, FlatSub, FlatTerm, FlatType, Var
from .trees import Record, Tree

UP = "U"
DOWN = "D"


class DyckWord(Record):
    """Up/down move sequence; every prefix has at least as many ups as downs.
    Two slots outside the fields keep its peak table (at the first
    ``peak_table``) and its pruned contexts, by peak (at each first
    ``pruned``)."""

    __slots__ = ("moves", "_peaks", "_pruned")
    _fields = ("moves",)
    moves: tuple[str, ...]

    def __init__(self, moves: tuple[str, ...]):
        depth = 0
        for m in moves:
            depth += 1 if m == UP else -1
            if depth < 0:
                raise F.MalformedSyntax("negative prefix in Dyck word")
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "_peaks", None)
        object.__setattr__(self, "_pruned", None)

    def __repr__(self) -> str:
        return "Dyck(" + "".join(self.moves) + ")"


class Peak(Record):
    """Index of an up-move immediately followed by a down-move."""

    __slots__ = ("pos",)
    pos: int

    def __init__(self, pos: int):
        object.__setattr__(self, "pos", pos)


# ---------------------------------------------------------------------------
# ps-context recognition


def _scan(g: FlatCtx) -> tuple[list[str] | None, int | None]:
    """Read g entry by entry as a pasting context: return its Dyck moves, or
    None and the position of the first entry that does not fit."""
    n = len(g)
    if n == 0 or n % 2 == 0 or g.entries[0] != STAR:
        return None, 0
    moves: list[str] = []
    t: FlatTerm = Var(0)
    a: FlatType = STAR
    for i in range(1, n, 2):
        b = g.entries[i]
        while F.dim_ty(a) > F.dim_ty(b):
            t, a = a.tgt, a.base
            moves.append(DOWN)
        if a != b:
            return None, i
        expected = Arrow(F.weaken(t), F.weaken(a), Var(0))
        if g.entries[i + 1] != expected:
            return None, i + 1
        moves.append(UP)
        t = Var(0)
        a = F.weaken(expected)
    moves.extend([DOWN] * F.dim_ty(a))
    return moves, None


# ---------------------------------------------------------------------------
# realisation


def dyck_realise(d: DyckWord) -> tuple[FlatCtx, FlatType, FlatTerm]:
    """The context, type and term associated to a Dyck word."""
    entries: list[FlatType] = [STAR]
    ty: FlatType = STAR
    tm: FlatTerm = Var(0)
    for m in d.moves:
        if m == UP:
            entries.append(ty)
            f_ty = Arrow(F.weaken(tm), F.weaken(ty), Var(0))
            entries.append(f_ty)
            tm = Var(0)
            ty = F.weaken(f_ty)
        else:
            if not isinstance(ty, Arrow):
                raise F.MalformedSyntax("down move at dimension 0")
            tm = ty.tgt
            ty = ty.base
    return FlatCtx(tuple(entries)), ty, tm


def ctx_to_dyck(g: FlatCtx) -> DyckWord | None:
    """Invert realisation: the unique Dyck word whose context is g, or None
    if g is not a ps-context.  The answer is kept in g, as False for None,
    so each context is scanned once."""
    d = g._dyck
    if d is None:
        moves, _ = _scan(g)
        d = False if moves is None else DyckWord(tuple(moves))
        object.__setattr__(g, "_dyck", d)
    return None if d is False else d


def dyck_to_tree(d: DyckWord) -> Tree:
    stack: list[list[Tree]] = [[]]
    for m in d.moves:
        if m == UP:
            stack.append([])
        else:
            top = stack.pop()
            stack[-1].append(Tree(tuple(top)))
    while len(stack) > 1:
        top = stack.pop()
        stack[-1].append(Tree(tuple(top)))
    return Tree(tuple(stack[0]))


def ctx_to_tree(g: FlatCtx) -> Tree | None:
    """Invert the realisation of trees; None if g is not a pasting
    context.  The tree is kept in g, next to its Dyck word; a context that
    ``flat.tree_to_ctx`` built has it already, and is not scanned."""
    t = g._tree
    if t is None:
        d = ctx_to_dyck(g)
        if d is None:
            return None
        t = dyck_to_tree(d)
        object.__setattr__(g, "_tree", t)
    return t


# ---------------------------------------------------------------------------
# peaks and pruning


def peaks(d: DyckWord) -> list[Peak]:
    return [
        Peak(i)
        for i in range(len(d.moves) - 1)
        if d.moves[i] == UP and d.moves[i + 1] == DOWN
    ]


def _peak_entry_pos(d: DyckWord, p: Peak) -> int:
    """Position (from the start of the realised context) of the locally
    maximal variable introduced at the peak."""
    k = sum(1 for m in d.moves[: p.pos + 1] if m == UP)
    return 2 * k


def _require_peak(d: DyckWord, p: Peak) -> None:
    """Check that p is a peak of d: an up move followed by a down move."""
    moves = d.moves
    if not (
        0 <= p.pos < len(moves) - 1 and moves[p.pos] == UP and moves[p.pos + 1] == DOWN
    ):
        raise F.MalformedSyntax("not a peak")


def peak_var(d: DyckWord, p: Peak) -> FlatTerm:
    _require_peak(d, p)
    n = 1 + 2 * sum(1 for m in d.moves if m == UP)
    return Var(n - 1 - _peak_entry_pos(d, p))


def prune(d: DyckWord, p: Peak) -> tuple[DyckWord, FlatSub]:
    """Remove the peak; return the pruned word and the projection
    substitution from the original context to the pruned one."""
    _require_peak(d, p)
    prefix = d.moves[: p.pos]
    suffix = d.moves[p.pos + 2 :]
    ctx_e, ty_e, tm_e = dyck_realise(DyckWord(prefix))
    # the cells of the prefix and of the suffix keep their variables, and
    # the peak's two go to the peak's target and its identity, each
    # weakened past the k cells that the suffix adds
    m, k = len(ctx_e), 2 * suffix.count(UP)
    for _ in range(k):
        ty_e, tm_e = F.weaken(ty_e), F.weaken(tm_e)
    cells = F.variables(m + k)
    terms = cells[:m] + (tm_e, F.canonical_identity(ty_e, tm_e)) + cells[m:]
    return DyckWord(prefix + suffix), FlatSub(STAR, terms)


def peak_table(d: DyckWord) -> tuple[tuple[Peak, int], ...]:
    """Each peak of d with the position of its argument in a substitution
    out of the realised context; built once and kept in d."""
    table = d._peaks
    if table is None:
        table = tuple((p, _peak_entry_pos(d, p)) for p in peaks(d))
        object.__setattr__(d, "_peaks", table)
    return table


def pruned(d: DyckWord, p: Peak) -> tuple[FlatCtx, FlatSub]:
    """The context of the word that pruning p from d leaves, with the
    projection from d's context to it; built once per peak and kept in d.
    The context is the realisation of the pruned word's tree, shared with
    ``flat.tree_to_ctx``, which gives it its tree, and is given the word."""
    kept = d._pruned
    if kept is None:
        kept = {}
        object.__setattr__(d, "_pruned", kept)
    hit = kept.get(p.pos)
    if hit is None:
        d2, proj = prune(d, p)
        g = F.tree_to_ctx(dyck_to_tree(d2))
        if g._dyck is None:
            object.__setattr__(g, "_dyck", d2)
        hit = kept[p.pos] = (g, proj)
    return hit


def prune_sub(sigma: FlatSub, d: DyckWord, p: Peak) -> FlatSub:
    """Drop the two argument terms corresponding to the pruned peak."""
    pos = _peak_entry_pos(d, p)
    terms = sigma.terms[: pos - 1] + sigma.terms[pos + 1 :]
    return FlatSub(sigma.ty, terms)
