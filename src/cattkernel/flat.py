"""Base de-Bruijn-indexed syntax: contexts, terms, types, extended substitutions.

Variables are indexed from the *end* of the context: Var(0) is the most
recently declared variable.  This makes suspension the identity on variable
indices (the two new 0-cells go at the front) and weakening a uniform
increment.  Positions counted from the start of the context are used for
variable sets and substitution term lists; ``Var(k)`` in a context of length
``n`` sits at position ``n - 1 - k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union


class MalformedSyntax(Exception):
    """Raised on out-of-scope indices or arity mismatches."""


# ---------------------------------------------------------------------------
# data


@dataclass(frozen=True)
class Star:
    def __repr__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Arrow:
    src: "FlatTerm"
    base: "FlatType"
    tgt: "FlatTerm"

    def __repr__(self) -> str:
        return f"({self.src!r} ->[{self.base!r}] {self.tgt!r})"


FlatType = Union[Star, Arrow]
STAR = Star()


@dataclass(frozen=True)
class Var:
    idx: int

    def __repr__(self) -> str:
        return f"v{self.idx}"


@dataclass(frozen=True)
class Coh:
    ctx: "FlatCtx"
    ty: FlatType
    sub: "FlatSub"

    def __repr__(self) -> str:
        return f"Coh({self.ty!r})[{self.sub!r}]"


FlatTerm = Union[Var, Coh]


@dataclass(frozen=True)
class FlatCtx:
    entries: tuple[FlatType, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return "Ctx(" + ", ".join(repr(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class FlatSub:
    """Extended substitution: a type part (the image of *) plus one term per
    domain variable, ordered by position from the start of the domain."""

    ty: FlatType
    terms: tuple[FlatTerm, ...]

    def __repr__(self) -> str:
        parts = [repr(self.ty)] + [repr(t) for t in self.terms]
        return "<" + ", ".join(parts) + ">"


EMPTY_CTX = FlatCtx(())


@dataclass(frozen=True)
class VarSet:
    """Boolean-per-variable set over a fixed context; indexed by position
    from the start of the context."""

    members: tuple[bool, ...]

    def union(self, other: "VarSet") -> "VarSet":
        return VarSet(tuple(a or b for a, b in zip(self.members, other.members)))

    def positions(self) -> list[int]:
        return [i for i, m in enumerate(self.members) if m]

    @staticmethod
    def empty(n: int) -> "VarSet":
        return VarSet((False,) * n)

    @staticmethod
    def full(n: int) -> "VarSet":
        return VarSet((True,) * n)

    @staticmethod
    def of(n: int, positions: Iterable[int]) -> "VarSet":
        mem = [False] * n
        for p in positions:
            mem[p] = True
        return VarSet(tuple(mem))


# ---------------------------------------------------------------------------
# dimensions


def dim_ty(a: FlatType) -> int:
    d = 0
    while isinstance(a, Arrow):
        a = a.base
        d += 1
    return d


def dim_ctx(g: FlatCtx) -> int:
    return max((dim_ty(e) for e in g.entries), default=0)


# ---------------------------------------------------------------------------
# substitution


def substitute(x, sigma: FlatSub):
    """Apply a substitution to a term or type."""
    if isinstance(x, (Star, Arrow)):
        return _sub_ty(x, sigma)
    return _sub_tm(x, sigma)


def _sub_ty(a: FlatType, sigma: FlatSub) -> FlatType:
    if isinstance(a, Star):
        return sigma.ty
    return Arrow(_sub_tm(a.src, sigma), _sub_ty(a.base, sigma), _sub_tm(a.tgt, sigma))


def _sub_tm(t: FlatTerm, sigma: FlatSub) -> FlatTerm:
    if isinstance(t, Var):
        n = len(sigma.terms)
        if not 0 <= t.idx < n:
            raise MalformedSyntax(f"variable v{t.idx} out of range for substitution of arity {n}")
        return sigma.terms[n - 1 - t.idx]
    if isinstance(sigma.ty, Star):
        return Coh(t.ctx, t.ty, compose(t.sub, sigma))
    # extended substitution: suspend the head and unrestrict the argument
    susp = Coh(
        suspend_ctx(t.ctx),
        suspend_ty(t.ty, len(t.ctx)),
        suspend_sub(t.sub, len(sigma.terms)),
    )
    return _sub_tm(susp, unrestrict(sigma))


def compose(tau: FlatSub, sigma: FlatSub) -> FlatSub:
    return FlatSub(_sub_ty(tau.ty, sigma), tuple(_sub_tm(t, sigma) for t in tau.terms))


# ---------------------------------------------------------------------------
# suspension

# The ambient length argument n is the length of the context the suspended
# thing lives over; the two new 0-cells get indices n+1 (N) and n (S).


def suspend_ctx(g: FlatCtx) -> FlatCtx:
    return FlatCtx((STAR, STAR) + tuple(suspend_ty(e, i) for i, e in enumerate(g.entries)))


def suspend_ty(a: FlatType, n: int) -> FlatType:
    if isinstance(a, Star):
        return Arrow(Var(n + 1), STAR, Var(n))
    return Arrow(suspend_tm(a.src, n), suspend_ty(a.base, n), suspend_tm(a.tgt, n))


def suspend_tm(t: FlatTerm, n: int) -> FlatTerm:
    if isinstance(t, Var):
        return t
    return Coh(
        suspend_ctx(t.ctx),
        suspend_ty(t.ty, len(t.ctx)),
        suspend_sub(t.sub, n),
    )


def suspend_sub(sigma: FlatSub, n: int) -> FlatSub:
    lifted = FlatSub(suspend_ty(sigma.ty, n), tuple(suspend_tm(t, n) for t in sigma.terms))
    return unrestrict(lifted)


# ---------------------------------------------------------------------------
# restriction


def unrestrict(sigma: FlatSub) -> FlatSub:
    if not isinstance(sigma.ty, Arrow):
        raise MalformedSyntax("unrestrict requires an arrow type part")
    a = sigma.ty
    return FlatSub(a.base, (a.src, a.tgt) + sigma.terms)


def restrict(sigma: FlatSub) -> FlatSub:
    if len(sigma.terms) < 2:
        raise MalformedSyntax("restrict requires at least two terms")
    return FlatSub(Arrow(sigma.terms[0], sigma.ty, sigma.terms[1]), sigma.terms[2:])


# ---------------------------------------------------------------------------
# weakening and identities


def weaken(x):
    if isinstance(x, (Star, Arrow)):
        return _wk_ty(x)
    if isinstance(x, (Var, Coh)):
        return _wk_tm(x)
    return FlatSub(_wk_ty(x.ty), tuple(_wk_tm(t) for t in x.terms))


def _wk_ty(a: FlatType) -> FlatType:
    if isinstance(a, Star):
        return a
    return Arrow(_wk_tm(a.src), _wk_ty(a.base), _wk_tm(a.tgt))


def _wk_tm(t: FlatTerm) -> FlatTerm:
    if isinstance(t, Var):
        return Var(t.idx + 1)
    return Coh(t.ctx, t.ty, weaken(t.sub))


def weaken_n(x, k: int):
    for _ in range(k):
        x = weaken(x)
    return x


def identity_sub(g: FlatCtx) -> FlatSub:
    n = len(g)
    return FlatSub(STAR, tuple(Var(n - 1 - p) for p in range(n)))


# ---------------------------------------------------------------------------
# discs and spheres


@lru_cache(maxsize=None)
def disc_family(n: int) -> tuple[FlatCtx, FlatCtx, FlatType]:
    """Return (disc context D^n, sphere context S^n, sphere type U^n).

    U^n lives over S^n; the disc adds one entry of type U^n.
    """
    if n == 0:
        return FlatCtx((STAR,)), EMPTY_CTX, STAR
    d_prev, _, u_prev = disc_family(n - 1)
    sphere = FlatCtx(d_prev.entries + (_wk_ty(u_prev),))
    u = Arrow(Var(1), _wk_ty(_wk_ty(u_prev)), Var(0))
    disc = FlatCtx(sphere.entries + (u,))
    return disc, sphere, u


def disc_ctx(n: int) -> FlatCtx:
    return disc_family(n)[0]


def sphere_ctx(n: int) -> FlatCtx:
    return disc_family(n)[1]


def sphere_ty(n: int) -> FlatType:
    return disc_family(n)[2]


def sub_from_sphere(a: FlatType) -> FlatSub:
    """The substitution {A} out of S^dim(A) classifying the type A."""
    if isinstance(a, Star):
        return FlatSub(STAR, ())
    return FlatSub(STAR, sub_from_sphere(a.base).terms + (a.src, a.tgt))


def sub_from_disc(a: FlatType, t: FlatTerm) -> FlatSub:
    """The substitution {A, t} out of D^dim(A)."""
    return FlatSub(STAR, sub_from_sphere(a).terms + (t,))


def unary_comp_ty(n: int) -> FlatType:
    """The type of the unary n-composite over D^n: wk(U^n)."""
    return _wk_ty(sphere_ty(n))


def canonical_identity(a: FlatType, t: FlatTerm) -> FlatTerm:
    """id(A, t): the canonical identity coherence on t."""
    n = dim_ty(a)
    ident_ty = Arrow(Var(0), unary_comp_ty(n), Var(0))
    return Coh(disc_ctx(n), ident_ty, sub_from_disc(a, t))


def is_identity(t: FlatTerm) -> bool:
    """Recognise the canonical-identity coherence shape syntactically."""
    if not isinstance(t, Coh):
        return False
    n = (len(t.ctx) - 1) // 2
    if t.ctx != disc_ctx(n):
        return False
    return t.ty == Arrow(Var(0), unary_comp_ty(n), Var(0))


def is_unary_comp(t: FlatTerm) -> bool:
    """Recognise the unary composite coherence shape syntactically."""
    if not isinstance(t, Coh):
        return False
    n = (len(t.ctx) - 1) // 2
    return t.ctx == disc_ctx(n) and t.ty == unary_comp_ty(n)


# ---------------------------------------------------------------------------
# free variables, downward closure, support


def free_vars(x, ctx_len: int) -> VarSet:
    mem = [False] * ctx_len
    _fv(x, ctx_len, mem)
    return VarSet(tuple(mem))


def _fv(x, n: int, mem: list[bool]) -> None:
    if isinstance(x, Var):
        mem[n - 1 - x.idx] = True
    elif isinstance(x, Coh):
        _fv(x.sub, n, mem)
    elif isinstance(x, Arrow):
        _fv(x.src, n, mem)
        _fv(x.base, n, mem)
        _fv(x.tgt, n, mem)
    elif isinstance(x, Star):
        pass
    elif isinstance(x, FlatSub):
        _fv(x.ty, n, mem)
        for t in x.terms:
            _fv(t, n, mem)
    else:
        raise TypeError(f"cannot take free variables of {type(x).__name__}")


def downward_close(g: FlatCtx, v: VarSet) -> VarSet:
    n = len(g)
    mem = list(v.members)
    for i in reversed(range(n)):
        if mem[i]:
            # entry i's type lives over the prefix of length i; its variable
            # with index j sits at position i - 1 - j of the full context
            sub = free_vars(g.entries[i], i)
            for p in sub.positions():
                mem[p] = True
    return VarSet(tuple(mem))


def support(g: FlatCtx, x) -> VarSet:
    return downward_close(g, free_vars(x, len(g)))


def apply_set(v: VarSet, sigma: FlatSub, codomain_len: int) -> VarSet:
    """Image of a variable set under a (regular) substitution."""
    out = VarSet.empty(codomain_len)
    for i in v.positions():
        out = out.union(free_vars(sigma.terms[i], codomain_len))
    return out


# ---------------------------------------------------------------------------
# canonical types


def canonical_type(g: FlatCtx, t: FlatTerm) -> FlatType:
    if isinstance(t, Var):
        pos = len(g) - 1 - t.idx
        if not 0 <= pos < len(g):
            raise MalformedSyntax(f"variable v{t.idx} out of scope")
        return weaken_n(g.entries[pos], t.idx + 1)
    return _sub_ty(t.ty, t.sub)


# ---------------------------------------------------------------------------
# display (debugging / oracle traces)


def show_tm(t: FlatTerm, names: list[str] | None = None) -> str:
    if isinstance(t, Var):
        if names is not None:
            return names[len(names) - 1 - t.idx]
        return f"v{t.idx}"
    inner = ", ".join(show_tm(u, names) for u in t.sub.terms)
    return f"coh[{show_ty(t.ty, None)}]({inner})"


def show_ty(a: FlatType, names: list[str] | None = None) -> str:
    if isinstance(a, Star):
        return "*"
    return f"{show_tm(a.src, names)} -> {show_tm(a.tgt, names)}"
