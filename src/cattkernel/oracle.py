"""Small-step reduction over the flat syntax.

An independent engine for the two strict equality theories, used to
cross-validate the evaluator: it enumerates single-step reducts, measures
syntactic complexity, and normalises by repeatedly picking a reduct
(deterministically or at random; confluence makes the result agree).

`reducts` finds the reducts lazily.  Deterministic normalisation
(`first_steps`, `normalise` with no generator) builds only the first
reduct at each step; at a normal form the search runs to its end, so a
normal form is still certified by finding no reduct under any rule at any
position.  `step` and random normalisation enumerate every reduct.

Head rules:
  dr      a unary composite reduces to its argument
  ecr     an endo-coherence that is not an identity reduces to a canonical
          identity on its substituted source
  prune   a peak argument that is an identity is removed from the pasting
          context (first rule set only)
  insert  a locally maximal argument that is an identity or a non-unary
          standard composite is inserted into the head tree (second rule
          set only)

Congruence steps inside coherence types (and substitution type parts) are
tagged "cell"; they do not decrease the complexity measure.  Congruence
steps inside substitution arguments keep the tag of the rule that fired.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from . import flat as F
from . import pasting as P
from . import trees as T
from .flat import Arrow, Coh, FlatSub, FlatTerm, FlatType, Star, Var
from .trees import Tree, linear_tree


class RuleSet(Enum):
    SU_PRIME = "su"
    SUA_PRIME = "sua"

    @property
    def prunes(self) -> bool:
        return self is RuleSet.SU_PRIME

    @property
    def inserts(self) -> bool:
        return self is RuleSet.SUA_PRIME


@dataclass(frozen=True)
class Step:
    term: FlatTerm
    rule: str  # dr | ecr | prune | insert | cell
    where: tuple


# ---------------------------------------------------------------------------
# single steps


def step(t: FlatTerm, rules: RuleSet) -> list[Step]:
    """Every single-step reduct of t, with the rule that fired."""
    return list(reducts(t, rules))


def reducts(t: FlatTerm, rules: RuleSet) -> Iterator[Step]:
    """The reducts of t in the order `step` lists them, each built only
    when it is asked for."""
    if isinstance(t, Var):
        return
    assert isinstance(t, Coh)
    yield from _head_steps(t, rules)
    for a, _, w in _ty_steps(t.ty, rules):
        yield Step(Coh(t.ctx, a, t.sub), "cell", ("cell",) + w)
    for s, rule, w in _sub_steps(t.sub, rules):
        yield Step(Coh(t.ctx, t.ty, s), rule, ("arg",) + w)


def _head_steps(t: Coh, rules: RuleSet) -> Iterator[Step]:
    if F.is_unary_comp(t):
        yield Step(t.sub.terms[-1], "dr", ("head",))
    if (
        isinstance(t.ty, Arrow)
        and t.ty.src == t.ty.tgt
        and not F.is_identity(t)
    ):
        reduct = F.canonical_identity(
            F.substitute(t.ty.base, t.sub), F.substitute(t.ty.src, t.sub)
        )
        yield Step(reduct, "ecr", ("head",))
    if rules.prunes and not F.is_identity(t):
        yield from _prune_steps(t)
    if rules.inserts and not F.is_identity(t) and not F.is_unary_comp(t):
        yield from _insert_steps(t)


def _prune_steps(t: Coh) -> Iterator[Step]:
    d = P.ctx_to_dyck(t.ctx)
    if d is None:
        return
    for p in P.peaks(d):
        if not F.is_identity(F.substitute(P.peak_var(d, p), t.sub)):
            continue
        d2, proj = P.prune(d, p)
        reduct = Coh(
            P.dyck_realise(d2)[0],
            F.substitute(t.ty, proj),
            P.prune_sub(t.sub, d, p),
        )
        yield Step(reduct, "prune", ("head", p.pos))


def _insertable(arg: FlatTerm) -> Optional[tuple[Tree, FlatSub]]:
    """The tree and labelling substitution of an argument that may be
    inserted: an identity or a non-unary standard composite."""
    if not isinstance(arg, Coh):
        return None
    if F.is_identity(arg):
        n = (len(arg.ctx) - 1) // 2
        return linear_tree(n), arg.sub
    if F.is_unary_comp(arg):
        return None
    tree = T.ctx_to_tree(arg.ctx)
    if tree is None or arg.ty != T.standard_type(tree, tree.height):
        return None
    return tree, arg.sub


def _insert_steps(t: Coh) -> Iterator[Step]:
    s = T.ctx_to_tree(t.ctx)
    if s is None:
        return
    lab = T.label_from_sub(s, t.sub)
    for p in T.all_branches(s):
        mp = T.branch_path(s, p)
        if not T.is_maximal_path(s, mp):
            continue
        arg = t.sub.terms[T.path_pos(s, mp)]
        found = _insertable(arg)
        if found is None:
            continue
        tree, m_sub = found
        if not T.is_insertion_point(s, tuple(p), tree):
            continue
        kappa = T.label_to_sub(T.exterior_label(s, tuple(p), tree))
        m_lab = T.label_from_sub(tree, m_sub)
        merged = T.insert_label(lab, tuple(p), m_lab)
        inserted = T.insert_tree(s, tuple(p), tree)
        reduct = Coh(
            T.tree_to_ctx(inserted),
            F.substitute(t.ty, kappa),
            T.label_to_sub(merged),
        )
        yield Step(reduct, "insert", ("head",) + tuple(p))


def _ty_steps(a: FlatType, rules: RuleSet) -> Iterator[tuple]:
    if isinstance(a, Star):
        return
    assert isinstance(a, Arrow)
    for st in reducts(a.src, rules):
        yield Arrow(st.term, a.base, a.tgt), st.rule, ("src",) + st.where
    for st in reducts(a.tgt, rules):
        yield Arrow(a.src, a.base, st.term), st.rule, ("tgt",) + st.where
    for b, rule, w in _ty_steps(a.base, rules):
        yield Arrow(a.src, b, a.tgt), rule, ("base",) + w


def _sub_steps(s: FlatSub, rules: RuleSet) -> Iterator[tuple]:
    for i, t in enumerate(s.terms):
        for st in reducts(t, rules):
            terms = s.terms[:i] + (st.term,) + s.terms[i + 1 :]
            yield FlatSub(s.ty, terms), st.rule, (i,) + st.where
    for a, _, w in _ty_steps(s.ty, rules):
        yield FlatSub(a, s.terms), "cell", ("ty",) + w


# ---------------------------------------------------------------------------
# syntactic complexity


Complexity = tuple  # coefficient at index i counts coherences of dimension i


def _add(a: Complexity, b: Complexity) -> Complexity:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def complexity(t: FlatTerm) -> Complexity:
    if isinstance(t, Var):
        return ()
    assert isinstance(t, Coh)
    d = F.dim_ty(t.ty)
    weight = 1 if F.is_identity(t) else 2
    head = (0,) * d + (weight,)
    return _add(head, complexity_sub(t.sub))


def complexity_sub(s: FlatSub) -> Complexity:
    out: Complexity = ()
    for t in s.terms:
        out = _add(out, complexity(t))
    return out


def less_than(a: Complexity, b: Complexity) -> bool:
    """Reverse-lexicographic comparison: higher dimensions dominate."""
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


# ---------------------------------------------------------------------------
# normalisation


class NonTermination(Exception):
    pass


STEP_CAP = 10_000


def first_steps(t: FlatTerm, rules: RuleSet) -> Iterator[Step]:
    """The reduction sequence that always takes the first reduct.  It ends
    at a normal form, once looking for a first reduct has tried every rule
    at every position and found none."""
    while (st := next(reducts(t, rules), None)) is not None:
        yield st
        t = st.term


def _random_steps(t: FlatTerm, rules: RuleSet, rng: random.Random) -> Iterator[Step]:
    while candidates := step(t, rules):
        st = rng.choice(candidates)
        yield st
        t = st.term


def normalise(
    t: FlatTerm, rules: RuleSet, rng: Optional[random.Random] = None
) -> tuple[FlatTerm, list[str]]:
    """Reduce to normal form; return it with the trace of fired rules.

    With no generator the first reduct is always taken; with one, a
    uniformly random reduct.  Confluence makes the result the same.
    """
    steps = first_steps(t, rules) if rng is None else _random_steps(t, rules, rng)
    trace: list[str] = []
    for _ in range(STEP_CAP):
        st = next(steps, None)
        if st is None:
            return t, trace
        trace.append(st.rule)
        t = st.term
    raise NonTermination(f"no normal form within {STEP_CAP} steps")


def normalise_random(t: FlatTerm, rules: RuleSet, seed: int) -> FlatTerm:
    return normalise(t, rules, random.Random(seed))[0]


# ---------------------------------------------------------------------------
# local confluence sampling


def _descendants(t: FlatTerm, rules: RuleSet, depth: int) -> set:
    seen = {t}
    frontier = [t]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for st in step(u, rules):
                if st.term not in seen:
                    seen.add(st.term)
                    nxt.append(st.term)
        frontier = nxt
    return seen


def local_confluence_sample(
    t: FlatTerm, rules: RuleSet, depth: int = 3
) -> list[tuple[FlatTerm, FlatTerm]]:
    """Unjoined pairs of one-step reducts, searching joins within depth
    further steps; empty means no counterexample candidate found."""
    reducts = [st.term for st in step(t, rules)]
    bad = []
    for i in range(len(reducts)):
        for j in range(i + 1, len(reducts)):
            a, b = reducts[i], reducts[j]
            if a == b:
                continue
            if _descendants(a, rules, depth).isdisjoint(
                _descendants(b, rules, depth)
            ):
                bad.append((a, b))
    return bad
