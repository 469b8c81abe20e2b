"""Homogeneous terms and truncated classical symbol series.

A HomogeneousTerm is an expression tree tagged with a real homogeneity
degree in xi, validated against Euler's relation on a fixed seeded sample
set.  A ClassicalSymbol is a finite list of such terms with strictly
decreasing degrees and an explicit truncation order: the remainder is
understood to be of order (leading_order - truncation_order).

Zero testing is semantic: evaluate on the seeded samples and compare
against the magnitude scale of the additive subterms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DegreeOrderError, DimensionMismatch, HomogeneityError

EULER_TOL = 1e-9
ZERO_TOL = 1e-9
DEGREE_TOL = 1e-12
_SAMPLE_SEED = 73
_N_SAMPLES = 64


def factorial(alpha) -> int:
    """alpha! = alpha_1! ... alpha_n! of a multi-index alpha."""
    return math.prod(map(math.factorial, alpha))


def multi_indices(n: int, max_order: int):
    """All multi-indices in n variables with order <= max_order, as tuples
    of non-negative integers, by order and then from the last entry's
    largest value down."""
    for total in range(max_order + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            bounds = (-1, *cuts, total + n - 1)
            yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


_sample_cache: dict = {}


def sample_points(n: int):
    """Fixed seeded sample set: 64 points, x uniform in [0, 2pi)^n,
    xi quasi-uniform on the unit sphere.  Returns (x, xi) of shape (n, 64)."""
    if n not in _sample_cache:
        rng = np.random.default_rng(_SAMPLE_SEED + n)
        xs = rng.uniform(0.0, 2.0 * np.pi, size=(n, _N_SAMPLES))
        g = rng.standard_normal(size=(n, _N_SAMPLES))
        xis = g / np.linalg.norm(g, axis=0, keepdims=True)
        _sample_cache[n] = (xs, xis)
    return _sample_cache[n]


@dataclass(frozen=True)
class HomogeneousTerm:
    """Expression homogeneous of a real degree in xi."""

    expr: ex.Expr
    degree: float
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "degree", float(self.degree))

    @classmethod
    def checked(cls, e: ex.Expr, degree: float,
                dimension: int) -> "HomogeneousTerm":
        term = cls(e, degree, dimension)
        res = check_homogeneity(term)
        if res > EULER_TOL:
            raise HomogeneityError(degree, res)
        return term

    @classmethod
    def zero(cls, degree: float, dimension: int) -> "HomogeneousTerm":
        return cls(ex.ZERO, degree, dimension)

    def __add__(self, other):
        if not isinstance(other, HomogeneousTerm):
            return NotImplemented
        if other.dimension != self.dimension:
            raise DimensionMismatch("terms live in different dimensions")
        if abs(other.degree - self.degree) > DEGREE_TOL:
            raise DegreeOrderError(
                "cannot merge terms of different homogeneity degrees")
        return HomogeneousTerm(ex.add(self.expr, other.expr),
                               self.degree, self.dimension)

    def __neg__(self):
        return HomogeneousTerm(ex.neg(self.expr), self.degree, self.dimension)

    def scale(self, c) -> "HomogeneousTerm":
        return HomogeneousTerm(ex.mul(ex.Const(c), self.expr),
                               self.degree, self.dimension)

    def mul(self, other: "HomogeneousTerm") -> "HomogeneousTerm":
        if other.dimension != self.dimension:
            raise DimensionMismatch("terms live in different dimensions")
        return HomogeneousTerm(ex.mul(self.expr, other.expr),
                               self.degree + other.degree, self.dimension)


def differentiate(term: HomogeneousTerm, var_kind: str,
                  alpha) -> HomogeneousTerm:
    """Differentiate |alpha| times: D = (1/i) d/dxi for xi-derivatives,
    the plain partial for x-derivatives.  xi-differentiation lowers the
    degree by |alpha|; x-differentiation leaves it unchanged.
    """
    alpha = tuple(map(int, alpha))
    if any(k < 0 for k in alpha):
        raise ValueError("multi-index entries must be non-negative")
    if len(alpha) != term.dimension:
        raise DimensionMismatch("multi-index length != dimension")
    e = term.expr
    for j, k in enumerate(alpha, start=1):
        for _ in range(k):
            e = e.diff(var_kind, j)
    if var_kind == "xi":
        e = ex.mul(ex.Const((-1j) ** sum(alpha)), e)
    deg = term.degree - (sum(alpha) if var_kind == "xi" else 0)
    return HomogeneousTerm(e, deg, term.dimension)


def check_homogeneity(term: HomogeneousTerm) -> float:
    """Max relative Euler residual |(sum xi_j d/dxi_j - degree) expr| over
    the sample set."""
    n = term.dimension
    xs, xis = sample_points(n)
    radial = ex.add(*(ex.mul(ex.xi(j), term.expr.diff("xi", j))
                      for j in range(1, n + 1)))
    rvals, vals = ex.Program([radial, term.expr])(xs, xis)
    resid = rvals - term.degree * vals
    scale = max(1.0, float(np.max(np.abs(vals))))
    return float(np.max(np.abs(resid))) / scale


def zero_margin(term: HomogeneousTerm, tol: float = ZERO_TOL,
                values=None) -> float:
    """max|value| / (tol * max(1, scale)) on the seeded sample set, where
    scale is the magnitude of the top-level additive subterms: the term
    tests zero when this is at most 1.  `values` is an `ex.Program` table
    on these samples: the test reads the nodes it holds and records every
    node it computes."""
    xs, xis = sample_points(term.dimension)
    parts = term.expr.terms if isinstance(term.expr, ex.Add) else (term.expr,)
    vals, *part_vals = ex.Program([term.expr, *parts], values)(xs, xis)
    scale = float(np.max(sum(np.abs(v) for v in part_vals)))
    return float(np.max(np.abs(vals)) / (tol * max(1.0, scale)))


def is_zero(term: HomogeneousTerm, tol: float = ZERO_TOL,
            values=None) -> bool:
    """Semantic zero test on the seeded sample set: `zero_margin` <= 1."""
    return zero_margin(term, tol, values) <= 1.0


def conjugate(term: HomogeneousTerm) -> HomogeneousTerm:
    """Complex-conjugate all constants (variables are real-valued)."""
    return HomogeneousTerm(term.expr.conj(), term.degree, term.dimension)


@dataclass(frozen=True)
class ClassicalSymbol:
    """Truncated series of homogeneous terms with strictly decreasing
    degrees; the remainder is of order (leading_order - truncation_order)."""

    leading_order: float
    terms: tuple
    truncation_order: int
    dimension: int = field(default=0)

    def __post_init__(self):
        if self.truncation_order < 1:
            raise DegreeOrderError("truncation order must be >= 1")
        n = self.dimension or (self.terms[0].dimension if self.terms else 0)
        if n <= 0:
            raise DimensionMismatch("cannot infer dimension of empty symbol")
        levels: dict = {}       # a level's first degree -> its exprs
        for t in self.terms:
            if t.dimension != n:
                raise DimensionMismatch("mixed-dimension terms")
            if t.degree > self.leading_order + DEGREE_TOL:
                raise DegreeOrderError(
                    f"term degree {t.degree} exceeds leading order "
                    f"{self.leading_order}")
            d = next((d for d in levels if abs(d - t.degree) <= DEGREE_TOL),
                     t.degree)
            levels.setdefault(d, []).append(t.expr)
        cutoff = self.leading_order - self.truncation_order
        kept = (HomogeneousTerm(ex.add(*levels[d]), d, n)
                for d in sorted(levels, reverse=True)
                if d > cutoff + DEGREE_TOL)
        object.__setattr__(self, "terms",
                           tuple(t for t in kept if t.expr is not ex.ZERO))
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "leading_order", float(self.leading_order))

    @classmethod
    def from_terms(cls, terms, truncation_order: int,
                   leading_order: float | None = None) -> "ClassicalSymbol":
        terms = list(terms)
        if leading_order is None:
            if not terms:
                raise DegreeOrderError("cannot infer order of empty symbol")
            leading_order = max(t.degree for t in terms)
        return cls(leading_order, tuple(terms), truncation_order,
                   terms[0].dimension if terms else 0)

    @classmethod
    def single(cls, e: ex.Expr, degree: float, dimension: int,
               truncation_order: int = 4) -> "ClassicalSymbol":
        return cls(degree, (HomogeneousTerm(e, degree, dimension),),
                   truncation_order, dimension)

    @classmethod
    def identity(cls, dimension: int, truncation_order: int = 4):
        return cls.single(ex.ONE, 0.0, dimension, truncation_order)

    def term_at(self, degree: float) -> HomogeneousTerm:
        for t in self.terms:
            if abs(t.degree - degree) <= max(DEGREE_TOL, 1e-9 * abs(degree)):
                return t
        return HomogeneousTerm.zero(degree, self.dimension)

    def degrees(self) -> list:
        return [t.degree for t in self.terms]

    def __add__(self, other) -> "ClassicalSymbol":
        if not isinstance(other, ClassicalSymbol):
            return NotImplemented
        if other.dimension != self.dimension:
            raise DimensionMismatch("symbols live in different dimensions")
        m = max(self.leading_order, other.leading_order)
        n_tr = min(self.leading_order - self.truncation_order,
                   other.leading_order - other.truncation_order)
        return ClassicalSymbol(m, self.terms + other.terms,
                               max(1, int(round(m - n_tr))), self.dimension)

    def __sub__(self, other) -> "ClassicalSymbol":
        return self + other.scale(-1.0)

    def scale(self, c) -> "ClassicalSymbol":
        return ClassicalSymbol(self.leading_order,
                               tuple(t.scale(c) for t in self.terms),
                               self.truncation_order, self.dimension)

    def render(self) -> str:
        lines = [f"degree {t.degree:g}: {t.expr.render()}"
                 for t in self.terms]
        return "\n".join(lines) if lines else "(zero symbol)"


def _gen_binom(a: float, k: int) -> float:
    """Generalized binomial coefficient C(a, k) by the falling factorial
    (well-defined for every real a, unlike the gamma-function route)."""
    out = 1.0
    for i in range(k):
        out *= (a - i) / (i + 1)
    return out


def make_lambda_s(s: float, n: int, N: int) -> ClassicalSymbol:
    """Classical expansion of <xi>^s = |xi|^s (1 + |xi|^-2)^(s/2) by the
    generalized binomial series: sum_k C(s/2, k) |xi|^(s-2k)."""
    if N < 1:
        raise DegreeOrderError("truncation order must be >= 1")
    terms = []
    for k in range(math.ceil(N / 2)):
        c = _gen_binom(s / 2.0, k)
        if c == 0.0:
            continue
        e = ex.mul(ex.Const(c), ex.pow_(ex.xi_norm_sq(n), (s - 2 * k) / 2.0))
        terms.append(HomogeneousTerm(e, s - 2 * k, n))
    if not terms:
        terms = [HomogeneousTerm.zero(s, n)]
    return ClassicalSymbol(s, tuple(terms), N, n)


class Diffeo:
    """A diffeomorphism of the working box given by forward and inverse
    coordinate expressions (lists of n Exprs in x)."""

    def __init__(self, forward, inverse):
        self.forward = tuple(forward)
        self.inverse = tuple(inverse)
        self.dimension = len(self.forward)
        if len(self.inverse) != self.dimension:
            raise DimensionMismatch("forward/inverse length mismatch")
        self._validate()

    def jacobian(self):
        """Entries J[i][j] = d forward_i / d x_j as Exprs."""
        n = self.dimension
        return [[self.forward[i].diff("x", j + 1) for j in range(n)]
                for i in range(n)]

    def _validate(self):
        n = self.dimension
        xs, xis = sample_points(n)
        # round-trip inverse(forward(x)) = x at the samples
        sub = {("x", j + 1): self.forward[j] for j in range(n)}
        comp = [g.subst(sub) for g in self.inverse]
        vals = ex.Program(comp)(xs, xis)
        err = np.max(np.abs(vals - xs))
        if err > 1e-9:
            raise DegreeOrderError(
                f"inverse(forward) deviates from identity by {err:.2e}")
        jac = self.jacobian()
        jv = ex.Program([e for row in jac for e in row])(xs, xis).reshape(
            n, n, -1)
        dets = np.linalg.det(np.moveaxis(jv, 2, 0))
        if np.min(np.abs(dets)) < 1e-12:
            raise DegreeOrderError("Jacobian determinant vanishes at a sample")
