"""Symbol-level operator calculus.

Composition, adjoint, left/right symbol conversion, commutators,
ellipticity tests, the elliptic parametrix recursion, the approximate
square root, and the principal-symbol pullback under a diffeomorphism.

All expansions are truncated: output terms below the certified order of
either input are dropped.  Constructions that need a correction "one level
at a time" (parametrix, square root) are driven by the residual of an
actual composition, with the semantic zero test deciding which residual
levels still need killing.  Composition is bilinear, so the residual is
composed once and then updated: `residual_of(Q, None)` is the residual of
Q, and `residual_of(Q, q)` the change in it when the one-term symbol q,
built with Q's leading order and truncation N, joins Q.  A residual level
that tested zero is one node, and is not tested again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (DimensionMismatch, NonConvergent, NotElliptic,
                     NotPositive, ValidationError, ZeroCovector)
from .hamilton import phase_vector
from .quantize import lattice
from .symbols import (DEGREE_TOL, ClassicalSymbol, Diffeo, HomogeneousTerm,
                      conjugate, differentiate, factorial, is_zero,
                      multi_indices, zero_margin)

ELLIPTIC_THRESHOLD = 1e-8


def principal(P: ClassicalSymbol) -> HomogeneousTerm:
    """The unique term at the leading order (zero if it cancelled)."""
    return P.term_at(P.leading_order)


def compose(P: ClassicalSymbol, Q: ClassicalSymbol,
            truncation: int | None = None) -> ClassicalSymbol:
    """Left-symbol composition: terms (1/alpha!) D_xi^alpha p d_x^alpha q
    collected by homogeneity level, truncated at min of the input orders."""
    if P.dimension != Q.dimension:
        raise DimensionMismatch("compose: dimension mismatch")
    n = P.dimension
    m_out = P.leading_order + Q.leading_order
    n_out = truncation if truncation is not None else min(
        P.truncation_order, Q.truncation_order)
    cutoff = m_out - n_out
    terms = []
    for p in P.terms:
        for q in Q.terms:
            span = p.degree + q.degree - cutoff
            if span <= DEGREE_TOL:
                continue
            lmax = int(math.floor(span - DEGREE_TOL))
            for alpha in multi_indices(n, lmax):
                dp = differentiate(p, "xi", alpha)          # D convention
                dq = differentiate(q, "x", alpha)           # plain partial
                contrib = dp.mul(dq).scale(1.0 / factorial(alpha))
                terms.append(contrib)
    return ClassicalSymbol(m_out, tuple(terms), n_out, n)


def adjoint(P: ClassicalSymbol) -> ClassicalSymbol:
    """Formal adjoint: sum_alpha (1/alpha!) d_x^alpha D_xi^alpha conj(p),
    the right-to-left conversion of the termwise conjugate of P."""
    conj = ClassicalSymbol(P.leading_order,
                           tuple(conjugate(t) for t in P.terms),
                           P.truncation_order, P.dimension)
    return convert_left_right(conj, "right-to-left")


def convert_left_right(P: ClassicalSymbol, direction: str) -> ClassicalSymbol:
    """Total-symbol conversion between left and right quantizations.

    left-to-right:  b ~ sum_alpha ((-1)^|alpha|/alpha!) D_xi^a d_x^a p
    right-to-left:  a ~ sum_alpha (1/alpha!) D_xi^a d_x^a p
    """
    if direction not in ("left-to-right", "right-to-left"):
        raise ValueError("direction must be left-to-right or right-to-left")
    n = P.dimension
    cutoff = P.leading_order - P.truncation_order
    terms = []
    for p in P.terms:
        span = p.degree - cutoff
        lmax = int(math.floor(span - DEGREE_TOL))
        for alpha in multi_indices(n, max(lmax, 0)):
            t = differentiate(p, "xi", alpha)
            t = differentiate(t, "x", alpha)
            c = 1.0 / factorial(alpha)
            if direction == "left-to-right":
                c *= (-1.0) ** sum(alpha)
            terms.append(t.scale(c))
    return ClassicalSymbol(P.leading_order, tuple(terms),
                           P.truncation_order, n)


def commutator(P: ClassicalSymbol, Q: ClassicalSymbol) -> ClassicalSymbol:
    """[P, Q] = PQ - QP.  The top-level term cancels semantically; the
    next level is (1/i) times the Poisson bracket of the principals."""
    return compose(P, Q) - compose(Q, P)


def poisson_bracket(p: HomogeneousTerm, q: HomogeneousTerm) -> HomogeneousTerm:
    """{p, q} = sum_j dp/dxi_j dq/dx_j - dp/dx_j dq/dxi_j."""
    if p.dimension != q.dimension:
        raise DimensionMismatch("poisson_bracket: dimension mismatch")
    n = p.dimension
    e = ex.add(*(
        ex.mul(p.expr.diff("xi", j), q.expr.diff("x", j))
        - ex.mul(p.expr.diff("x", j), q.expr.diff("xi", j))
        for j in range(1, n + 1)))
    return HomogeneousTerm(e, p.degree + q.degree - 1, n)


@dataclass(frozen=True)
class EllipticityReport:
    min_modulus: float
    argmin: tuple            # (x, xi) with |xi| = 1
    verdict: bool
    threshold: float = ELLIPTIC_THRESHOLD


def _sphere_samples(e: ex.Expr, n: int):
    """Values of e on lattice(n, 16) times the unit sphere directions (+-1
    for n = 1, 64 equally spaced angles for n = 2, 64 seeded Gaussian ones
    beyond), in one broadcast evaluation: (lattice, directions, values of
    shape (ndirs, npoints)).  ValidationError for n >= 5, where the
    samples would number 16^n * 64 >= 67 M."""
    if n >= 5:
        raise ValidationError(f"sampling the principal symbol on T^{n} "
                              f"takes 16^{n} x 64 points; dimension must "
                              "be at most 4")
    if n == 1:
        dirs = np.array([[1.0, -1.0]])
    elif n == 2:
        ang = 2.0 * np.pi * np.arange(64) / 64
        dirs = np.vstack([np.cos(ang), np.sin(ang)])
    else:
        g = np.random.default_rng(421).standard_normal((n, 64))
        dirs = g / np.linalg.norm(g, axis=0, keepdims=True)
    xg = lattice(n, 16)
    return xg, dirs, e.ev(xg[:, None], dirs[:, :, None])


def is_elliptic(P: ClassicalSymbol) -> EllipticityReport:
    """Sample |principal(P)| on lattice(n, 16) times 64 unit sphere
    directions against ELLIPTIC_THRESHOLD.  Sampling can miss zeros; the
    argmin (first direction, then first point, among ties) is reported in
    floats so near-characteristic locations are inspectable."""
    xg, dirs, vals = _sphere_samples(principal(P).expr, P.dimension)
    mods = np.abs(vals)
    k, idx = np.unravel_index(np.argmin(mods), mods.shape)
    min_mod = float(mods[k, idx])
    argmin = (tuple(xg[:, idx].tolist()), tuple(dirs[:, k].tolist()))
    return EllipticityReport(min_mod, argmin, min_mod >= ELLIPTIC_THRESHOLD)


def micro_elliptic_at(P: ClassicalSymbol, point) -> bool:
    """True iff the principal symbol is at least ELLIPTIC_THRESHOLD in
    modulus at (x0, xi0/|xi0|); the point is checked by `phase_vector`."""
    n = P.dimension
    pt = phase_vector(point, n)
    x0, xi0 = pt[:n], pt[n:]
    nrm = np.linalg.norm(xi0)
    if nrm == 0.0:
        raise ZeroCovector("micro-ellipticity needs a nonzero covector")
    val = ex.evaluate(principal(P).expr,
                      np.concatenate([x0, xi0 / nrm]))
    return abs(val) >= ELLIPTIC_THRESHOLD


def _kill_levels(first: HomogeneousTerm, lead: HomogeneousTerm,
                 factor: float, residual_of, N: int) -> ClassicalSymbol:
    """Shared driver for parametrix/sqrt: from Q = first, truncated at
    order N, kill the highest level r of the residual R above degree
    R.leading_order - N that fails the semantic zero test, by adding
    q = factor * r / lead at degree r.degree - lead.degree, until none is
    left.  R = residual_of(Q, None) is composed once; each correction
    adds its change residual_of(Q, q), q being the one-term symbol of Q's
    leading order and truncation N.  The level nodes that tested zero are
    kept in a set and skipped: nodes are interned, so a level that later
    corrections leave as it was is the same node, with the same values.
    Raises NonConvergent if a level survives 4N + 4 corrections."""
    Q = ClassicalSymbol.from_terms([first], N)
    R = residual_of(Q, None)
    cutoff = R.leading_order - N    # each change has R's leading order
    values = {}     # node values shared by this construction's zero tests
    passed = set()  # the level nodes that tested zero
    try:
        for it in range(4 * N + 5):
            target = None
            for t in R.terms:
                if t.degree <= cutoff + DEGREE_TOL:
                    break
                if t.expr in passed:
                    continue
                if not is_zero(t, values=values):
                    target = t
                    break
                passed.add(t.expr)
            if target is None:
                return Q
            if it == 4 * N + 4:
                raise NonConvergent(
                    f"residual level of degree {target.degree:g} survives "
                    f"{it} corrections (zero-test margin "
                    f"{zero_margin(target, values=values):.3g})")
            e = ex.mul(ex.Const(factor), ex.div(target.expr, lead.expr))
            q = ClassicalSymbol(Q.leading_order, (HomogeneousTerm(
                e, target.degree - lead.degree, lead.dimension),), N,
                Q.dimension)
            R = R + residual_of(Q, q)
            Q = Q + q
    finally:
        values.clear()      # a traceback keeps this frame, not the table
        passed.clear()


def parametrix(P: ClassicalSymbol, N: int) -> ClassicalSymbol:
    """Two-sided inverse modulo order -N terms, by the elliptic recursion:
    the leading term is 1/principal(P), and each further term kills the
    highest surviving level of compose(P, Q) - 1."""
    rep = is_elliptic(P)
    if not rep.verdict:
        raise NotElliptic(
            f"principal symbol has modulus {rep.min_modulus:.2e} "
            f"at {rep.argmin}")
    n, m = P.dimension, P.leading_order
    # at degree m itself: the level's first degree may be off by DEGREE_TOL
    p_m = HomogeneousTerm(principal(P).expr, m, n)
    ident = ClassicalSymbol.identity(n, N)
    return _kill_levels(HomogeneousTerm(ex.div(ex.ONE, p_m.expr), -m, n),
                        p_m, -1.0,
                        lambda Q, q: compose(P, Q, truncation=N) - ident
                        if q is None else compose(P, q, truncation=N), N)


def sqrt_approx(P: ClassicalSymbol, N: int) -> ClassicalSymbol:
    """Approximate square root: Q with compose(Q, Q) - P of order m - N.
    Requires the principal symbol to be real and strictly positive on the
    samples of `is_elliptic`."""
    p_m = principal(P)
    _, _, vals = _sphere_samples(p_m.expr, P.dimension)
    # judged direction by direction, each on its own magnitude scale
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=1, keepdims=True))
    nonreal = np.any(np.abs(vals.imag) > 1e-9 * scale, axis=1)
    bad = nonreal | np.any(vals.real <= ELLIPTIC_THRESHOLD, axis=1)
    if np.any(bad):
        raise NotPositive(
            "principal symbol takes non-real values"
            if nonreal[np.argmax(bad)]
            else "principal symbol is not strictly positive")
    q0 = HomogeneousTerm(ex.sqrt(p_m.expr), P.leading_order / 2.0,
                         P.dimension)
    # (Q + q)(Q + q) - QQ = Qq + q(Q + q)
    return _kill_levels(q0, q0, 0.5,
                        lambda Q, q: P - compose(Q, Q, truncation=N)
                        if q is None else
                        (compose(Q, q, truncation=N)
                         + compose(q, Q + q, truncation=N)).scale(-1.0), N)


def _minor(mat, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(mat) if k != i]


def _det(mat) -> ex.Expr:
    """Laplace expansion along the first row; the empty matrix's is ONE."""
    if not mat:
        return ex.ONE
    return ex.add(*(ex.mul(ex.Const((-1.0) ** j), mat[0][j],
                           _det(_minor(mat, 0, j)))
                    for j in range(len(mat))))


def pullback_principal(p: HomogeneousTerm, phi: Diffeo) -> HomogeneousTerm:
    """Principal-symbol pullback: (x, eta) -> p(chi(x), (dchi/dx)^{-T} eta),
    assembled symbolically (Jacobian entries stay expression trees)."""
    n = p.dimension
    if phi.dimension != n:
        raise DimensionMismatch("diffeomorphism dimension mismatch")
    jac = phi.jacobian()
    det = _det(jac)
    new_xi = []
    for i in range(n):
        parts = []
        for j in range(n):
            cof = ex.mul(ex.Const((-1.0) ** (i + j)), _det(_minor(jac, i, j)))
            parts.append(ex.mul(cof, ex.xi(j + 1)))
        new_xi.append(ex.div(ex.add(*parts), det))
    table = {("x", j + 1): phi.forward[j] for j in range(n)}
    table.update({("xi", j + 1): new_xi[j] for j in range(n)})
    return HomogeneousTerm(p.expr.subst(table), p.degree, n)
