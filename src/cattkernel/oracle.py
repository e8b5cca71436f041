"""Small-step reduction over the flat syntax.

An independent engine for the two strict equality theories, used to
cross-validate the evaluator: it enumerates single-step reducts and
normalises by repeatedly taking the first reduct (confluence makes any
other choice agree).

`reducts` finds the reducts lazily.  Normalisation (`first_steps`,
`normalise`) builds only the first reduct at each step, and a step keeps
every subterm it does not rewrite.  Within one run, a subterm whose search
went to its end without finding a reduct is normal and is not searched
again.  At a normal form the search runs to its end, skipping only those
subterms, so a normal form is still certified by finding no reduct under
any rule at any position.  `step` enumerates every reduct with no subterm
skipped.

Head rules:
  dr      a unary composite reduces to its argument
  ecr     an endo-coherence that is not an identity reduces to a canonical
          identity on its substituted source
  prune   a peak argument that is an identity is removed from the pasting
          context: a peak is a leaf of the context's tree, and pruning it
          is inserting the identity's disc along the peak's branch (first
          rule set only)
  insert  a locally maximal argument that is an identity or a non-unary
          standard composite is inserted into the head tree (second rule
          set only)

Both build their reduct with `_inserted`.

Congruence steps inside coherence types (and substitution type parts) are
tagged "cell"; they do not decrease the syntactic complexity measure.
Congruence steps inside substitution arguments keep the tag of the rule
that fired.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional

from . import flat as F
from . import pasting as P
from . import trees as T
from .flat import Arrow, Coh, FlatSub, FlatTerm, FlatType, Star, Var
from .trees import MalformedSyntax, Record, Tree, linear_tree


class RuleSet(Enum):
    SU_PRIME = "su"
    SUA_PRIME = "sua"

    @property
    def prunes(self) -> bool:
        return self is RuleSet.SU_PRIME

    @property
    def inserts(self) -> bool:
        return self is RuleSet.SUA_PRIME


class Step(Record):
    __slots__ = ("term", "rule", "where")
    term: FlatTerm
    rule: str  # dr | ecr | prune | insert | cell
    where: tuple

    def __init__(self, term: FlatTerm, rule: str, where: tuple):
        s_term, s_rule, s_where = self._setters
        s_term(self, term)
        s_rule(self, rule)
        s_where(self, where)


# ---------------------------------------------------------------------------
# single steps


def step(t: FlatTerm, rules: RuleSet) -> list[Step]:
    """Every single-step reduct of t, with the rule that fired."""
    return list(reducts(t, rules))


def reducts(t: FlatTerm, rules: RuleSet, normal: Optional[dict] = None) -> Iterator[Step]:
    """The reducts of t in the order `step` lists them, each built only
    when it is asked for.

    ``normal`` holds the subterms that a search in the same run went
    through to its end without finding a reduct, keyed by ``id`` and
    holding the subterm itself so that its id stays its own.  Such a
    subterm is normal, so its search is skipped; a search of a subterm
    that ends here having yielded nothing adds it."""
    if t.__class__ is Var or (normal is not None and id(t) in normal):
        return
    assert t.__class__ is Coh
    yielded = False
    for st in _head_steps(t, rules):
        yielded = True
        yield st
    for a, _, w in _ty_steps(t.ty, rules, normal):
        yielded = True
        yield Step(Coh(t.ctx, a, t.sub), "cell", ("cell",) + w)
    for s, rule, w in _sub_steps(t.sub, rules, normal):
        yielded = True
        yield Step(Coh(t.ctx, t.ty, s), rule, ("arg",) + w)
    if normal is not None and not yielded:
        normal[id(t)] = t


def _head_steps(t: Coh, rules: RuleSet) -> Iterator[Step]:
    # each shape of the head is decided once
    unary = F.is_unary_comp(t)
    if unary:
        yield Step(t.sub.terms[-1], "dr", ("head",))
    identity = F.is_identity(t)
    a = t.ty
    if a.__class__ is Arrow and (a.src is a.tgt or a.src == a.tgt) and not identity:
        reduct = F.canonical_identity(F.substitute(a.base, t.sub), F.substitute(a.src, t.sub))
        yield Step(reduct, "ecr", ("head",))
    if rules.prunes and not identity:
        yield from _prune_steps(t)
    if rules.inserts and not identity and not unary:
        yield from _insert_steps(t)


def _prune_steps(t: Coh) -> Iterator[Step]:
    s = P.ctx_to_tree(t.ctx)
    if s is None or not s.branches:
        return
    terms = t.sub.terms
    tb = T.path_table(s)
    for i in tb.maximal:
        arg = terms[i]
        if not F.is_identity(arg):
            continue
        mp = tb.paths[i]
        reduct = _inserted(t, s, mp[:-1], linear_tree(len(mp) - 2), arg.sub)
        yield Step(reduct, "prune", ("head", mp))


def _insertable(arg: FlatTerm) -> Optional[tuple[Tree, FlatSub]]:
    """The tree and labelling substitution of an argument that may be
    inserted: an identity or a non-unary standard composite."""
    if arg.__class__ is not Coh:
        return None
    if F.is_identity(arg):
        n = (len(arg.ctx) - 1) // 2
        return linear_tree(n), arg.sub
    if F.is_unary_comp(arg):
        return None
    tree = P.ctx_to_tree(arg.ctx)
    if tree is None:
        return None
    ty = F.standard_type(tree, tree.height)
    return (tree, arg.sub) if arg.ty is ty or arg.ty == ty else None


def _insert_steps(t: Coh) -> Iterator[Step]:
    s = P.ctx_to_tree(t.ctx)
    if s is None:
        return
    terms = t.sub.terms
    tb = T.path_table(s)
    for i in tb.maximal:
        found = _insertable(terms[i])
        if found is None:
            continue
        tree, m_sub = found
        for p in T.branches_to(s, tb.paths[i]):
            if not T.is_insertion_point(s, p, tree):
                continue
            yield Step(_inserted(t, s, p, tree, m_sub), "insert", ("head",) + p)


# Bounded like the realisations it keeps: all that a step needs about one
# insertion shape, which depends on three interned trees alone, so a run
# that meets a shape again builds nothing for it.
@lru_cache(maxsize=128)
def _construction(s: Tree, p: T.Branch, tree: Tree) -> tuple:
    """The plan of inserting tree into s at the branch p, the realisation
    of its merged tree and its exterior labelling as a substitution."""
    plan = T.insertion(s, p, tree)
    return plan, F.tree_to_ctx(plan.tree), F.label_to_sub(F.exterior_label(plan))


def _inserted(t: Coh, s: Tree, p: T.Branch, tree: Tree, m_sub: FlatSub) -> Coh:
    """The head t over the tree s with the tree labelled by m_sub inserted
    at the branch p: t's terms and m_sub's, spliced by the insertion's plan,
    over the merged tree's realisation, and t's type along the exterior
    labelling.  Each substitution must have one term per cell of its tree."""
    if len(t.sub.terms) != s._ctx_size or len(m_sub.terms) != tree._ctx_size:
        raise MalformedSyntax("substitution length does not match the tree")
    plan, ctx, kappa = _construction(s, p, tree)
    return Coh(
        ctx,
        F.substitute(t.ty, kappa),
        FlatSub(t.sub.ty, T.splice(t.sub.terms, plan, m_sub.terms)),
    )


def _ty_steps(a: FlatType, rules: RuleSet, normal: Optional[dict]) -> Iterator[tuple]:
    if a.__class__ is Star:
        return
    assert a.__class__ is Arrow
    for st in reducts(a.src, rules, normal):
        yield Arrow(st.term, a.base, a.tgt), st.rule, ("src",) + st.where
    for st in reducts(a.tgt, rules, normal):
        yield Arrow(a.src, a.base, st.term), st.rule, ("tgt",) + st.where
    for b, rule, w in _ty_steps(a.base, rules, normal):
        yield Arrow(a.src, b, a.tgt), rule, ("base",) + w


def _sub_steps(s: FlatSub, rules: RuleSet, normal: Optional[dict]) -> Iterator[tuple]:
    for i, t in enumerate(s.terms):
        for st in reducts(t, rules, normal):
            terms = s.terms[:i] + (st.term,) + s.terms[i + 1 :]
            yield FlatSub(s.ty, terms), st.rule, (i,) + st.where
    for a, _, w in _ty_steps(s.ty, rules, normal):
        yield FlatSub(a, s.terms), "cell", ("ty",) + w


# ---------------------------------------------------------------------------
# normalisation


class NonTermination(Exception):
    pass


STEP_CAP = 10_000


def first_steps(t: FlatTerm, rules: RuleSet) -> Iterator[Step]:
    """The reduction sequence that always takes the first reduct.  A step
    keeps the subterms it does not rewrite, so a subterm that an earlier
    search of this run found normal is not searched again.  The sequence
    ends at a normal form, once looking for a first reduct has tried every
    rule at every position not already found normal, and found none."""
    normal: dict = {}
    while (st := next(reducts(t, rules, normal), None)) is not None:
        yield st
        t = st.term


def normalise(t: FlatTerm, rules: RuleSet) -> tuple[FlatTerm, list[str]]:
    """Reduce to normal form, always taking the first reduct; return the
    normal form with the trace of fired rules."""
    steps = first_steps(t, rules)
    trace: list[str] = []
    for _ in range(STEP_CAP):
        st = next(steps, None)
        if st is None:
            return t, trace
        trace.append(st.rule)
        t = st.term
    raise NonTermination(f"no normal form within {STEP_CAP} steps")
