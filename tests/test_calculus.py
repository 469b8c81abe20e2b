import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psido import calculus as ca
from psido import expr as ex
from psido import symbols as sy
from psido.quantize import GridFunction, op_apply
from psido.errors import (NonConvergent, NotElliptic, NotPositive,
                          ValidationError, ZeroCovector)


def _sym(e, degree, n, trunc=4):
    return sy.ClassicalSymbol.single(e, degree, n, truncation_order=trunc)


def _value(S, degree, x, xi):
    t = S.term_at(degree)
    if t is None:
        return 0.0
    return ex.evaluate(t.expr, list(x) + list(xi))


def _total(S, x, xi):
    return sum(_value(S, d, x, xi) for d in S.degrees())


def _symbols_close(A, B, tol=1e-9):
    rng = np.random.default_rng(11)
    n = A.dimension
    for _ in range(16):
        x = rng.uniform(0, 2 * np.pi, n)
        xi = rng.uniform(1.0, 3.0, n)
        if abs(_total(A, x, xi) - _total(B, x, xi)) > tol:
            return False
    return True


def test_compose_with_identity():
    P = _sym(ex.mul(ex.sin(ex.x(1)), ex.xi_norm_sq(2)), 2.0, 2)
    assert _symbols_close(ca.compose(sy.ClassicalSymbol.identity(2), P), P)
    assert _symbols_close(ca.compose(P, sy.ClassicalSymbol.identity(2)), P)


def test_compose_xi_with_x():
    # xi1 o x1 = x1 xi1 + 1/i: the order-zero correction is -i
    R = ca.compose(_sym(ex.xi(1), 1.0, 1), _sym(ex.x(1), 0.0, 1))
    assert _value(R, 1.0, [2.0], [3.0]) == pytest.approx(6.0)
    assert _value(R, 0.0, [2.0], [3.0]) == pytest.approx(-1j)


def test_compose_xi_with_function():
    # xi1 o f(x) = f xi1 + (1/i) f'
    R = ca.compose(_sym(ex.xi(1), 1.0, 1), _sym(ex.sin(ex.x(1)), 0.0, 1))
    x, xi = 0.7, 3.0
    assert _value(R, 1.0, [x], [xi]) == pytest.approx(np.sin(x) * xi)
    assert _value(R, 0.0, [x], [xi]) == pytest.approx(-1j * np.cos(x))


def test_compose_associative():
    P = _sym(ex.mul(ex.sin(ex.x(1)), ex.xi(1)), 1.0, 1)
    Q = _sym(ex.cos(ex.x(1)), 0.0, 1)
    R = _sym(ex.xi(1), 1.0, 1)
    assert _symbols_close(ca.compose(ca.compose(P, Q), R),
                          ca.compose(P, ca.compose(Q, R)), tol=1e-8)


def test_adjoint_of_x_xi():
    # (x1 xi1)* = x1 xi1 + 1/i
    A = ca.adjoint(_sym(ex.mul(ex.x(1), ex.xi(1)), 1.0, 1))
    assert _value(A, 1.0, [2.0], [3.0]) == pytest.approx(6.0)
    assert _value(A, 0.0, [2.0], [3.0]) == pytest.approx(-1j)


def test_adjoint_involution():
    P = _sym(ex.mul(ex.Const(1 + 1j), ex.sin(ex.x(1)), ex.xi_norm_sq(2)),
             2.0, 2)
    assert _symbols_close(ca.adjoint(ca.adjoint(P)), P, tol=1e-8)


def test_convert_left_right_x_xi():
    # x1 xi1 in left form equals y1 xi1 + i in right form
    R = ca.convert_left_right(_sym(ex.mul(ex.x(1), ex.xi(1)), 1.0, 1),
                              "left-to-right")
    assert _value(R, 1.0, [2.0], [3.0]) == pytest.approx(6.0)
    assert _value(R, 0.0, [2.0], [3.0]) == pytest.approx(1j)


def test_convert_left_right_fixes_x_independent():
    P = _sym(ex.xi_norm_sq(2), 2.0, 2)
    assert _symbols_close(ca.convert_left_right(P, "left-to-right"), P)


def test_convert_left_right_round_trip():
    P = _sym(ex.mul(ex.sin(ex.x(1)), ex.xi(2), ex.xi(2)), 2.0, 2)
    back = ca.convert_left_right(
        ca.convert_left_right(P, "left-to-right"), "right-to-left")
    assert _symbols_close(back, P, tol=1e-8)


def test_commutator_canonical():
    # [xi1, x1] = 1/i
    C = ca.commutator(_sym(ex.xi(1), 1.0, 1), _sym(ex.x(1), 0.0, 1))
    assert _value(C, 0.0, [2.0], [3.0]) == pytest.approx(-1j)
    assert _value(C, 1.0, [2.0], [3.0]) == pytest.approx(0.0)


def test_commutator_self_vanishes():
    P = _sym(ex.mul(ex.sin(ex.x(1)), ex.xi_norm_sq(2)), 2.0, 2)
    C = ca.commutator(P, P)
    for d in C.degrees():
        assert sy.is_zero(C.term_at(d))


def test_commutator_principal_is_poisson_bracket():
    # [xi1^2, sin x1]: principal part (1/i) {xi1^2, sin x1} = -2i xi1 cos x1
    C = ca.commutator(_sym(ex.mul(ex.xi(1), ex.xi(1)), 2.0, 1),
                      _sym(ex.sin(ex.x(1)), 0.0, 1))
    x, xi = 0.5, 3.0
    top = max(d for d in C.degrees() if not sy.is_zero(C.term_at(d)))
    assert top == pytest.approx(1.0)
    assert _value(C, top, [x], [xi]) == \
        pytest.approx(-2j * xi * np.cos(x))


def test_commutator_antisymmetry():
    P = _sym(ex.mul(ex.sin(ex.x(1)), ex.xi(1)), 1.0, 1)
    Q = _sym(ex.mul(ex.cos(ex.x(1)), ex.xi(1)), 1.0, 1)
    A = ca.commutator(P, Q)
    B = ca.commutator(Q, P).scale(-1.0)
    assert _symbols_close(A, B, tol=1e-8)


def test_poisson_bracket():
    pb = ca.poisson_bracket(sy.HomogeneousTerm(ex.xi_norm_sq(1), 2.0, 1),
                            sy.HomogeneousTerm(ex.sin(ex.x(1)), 0.0, 1))
    assert pb.degree == pytest.approx(1.0)
    assert ex.evaluate(pb.expr, [0.5, 3.0]) == \
        pytest.approx(6.0 * np.cos(0.5))


def test_is_elliptic_laplacian():
    rep = ca.is_elliptic(_sym(ex.xi_norm_sq(2), 2.0, 2))
    assert rep.verdict
    assert rep.min_modulus == pytest.approx(1.0, abs=1e-8)


def test_is_elliptic_cauchy_riemann():
    P = _sym(ex.add(ex.xi(1), ex.mul(ex.I, ex.xi(2))), 1.0, 2)
    assert ca.is_elliptic(P).verdict


def test_is_elliptic_wave_operator_fails_on_diagonal():
    rep = ca.is_elliptic(_sym(
        ex.mul(ex.xi(1), ex.xi(1)) - ex.mul(ex.xi(2), ex.xi(2)), 2.0, 2))
    assert not rep.verdict
    _, xi = rep.argmin
    assert abs(abs(xi[0]) - abs(xi[1])) < 1e-6


def _is_elliptic_by_direction(P):
    """One direction at a time, on is_elliptic's 16^n lattice and 64
    directions; ties go to the first direction, then to the first grid
    point."""
    p = ca.principal(P).expr
    xg, dirs, _ = ca._sphere_samples(p, P.dimension)
    best = (np.inf, None)
    for k in range(dirs.shape[1]):
        xiv = np.repeat(dirs[:, k:k + 1], xg.shape[1], axis=1)
        vals = np.abs(p.ev(xg, xiv))
        idx = int(np.argmin(vals))
        if vals[idx] < best[0]:
            best = (float(vals[idx]), (tuple(xg[:, idx]), tuple(dirs[:, k])))
    return best


def test_is_elliptic_matches_direction_by_direction_sampling():
    coef = ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1)))
    for P in (_sym(ex.xi_norm_sq(2), 2.0, 2),          # ties in x
              _sym(ex.mul(coef, ex.xi_norm_sq(2)), 2.0, 2),
              _sym(ex.mul(ex.xi(1), ex.xi(1)) - ex.mul(ex.xi(2), ex.xi(2)),
                   2.0, 2),
              _sym(ex.xi(1), 1.0, 1),
              _sym(ex.mul(coef, ex.xi_norm(3)), 1.0, 3)):
        rep = ca.is_elliptic(P)
        assert (rep.min_modulus, rep.argmin) == _is_elliptic_by_direction(P)


def test_principal_symbol_sampling_refuses_dimension_five():
    # lattice(5, 16) times 64 directions are 67 M samples: the sampler
    # refuses before it builds the lattice
    P = _sym(ex.xi_norm_sq(5), 2.0, 5)
    for construct in (ca.is_elliptic, lambda P: ca.parametrix(P, 2),
                      lambda P: ca.sqrt_approx(P, 2)):
        with pytest.raises(ValidationError, match="T\\^5 takes 16\\^5 x 64 "
                           "points; dimension must be at most 4"):
            construct(P)


def test_sqrt_approx_needs_a_real_positive_principal_symbol():
    with pytest.raises(NotPositive, match="not strictly positive"):
        ca.sqrt_approx(_sym(ex.xi(1), 1.0, 1), 2)
    with pytest.raises(NotPositive, match="non-real"):
        ca.sqrt_approx(_sym(ex.mul(ex.I, ex.xi_norm_sq(2)), 2.0, 2), 2)


def test_correction_loop_raises_when_a_level_survives():
    # a correction of factor 0 folds to ZERO: its one-term symbol q is
    # empty, so is its change P o q, and the degree -1 level of
    # P o (1/p) - 1 for a variable-coefficient P is never killed
    P = _sym(ex.mul(ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1))),
                    ex.xi_norm_sq(2)), 2.0, 2, trunc=3)
    p = ca.principal(P)
    ident = sy.ClassicalSymbol.identity(2, 3)

    def residual_of(Q, q):
        if q is None:
            return ca.compose(P, Q, truncation=3) - ident
        assert not q.terms
        return ca.compose(P, q, truncation=3)

    with pytest.raises(NonConvergent, match=r"degree -1 survives 16 "
                       r"corrections \(zero-test margin \S+\)") as info:
        ca._kill_levels(sy.HomogeneousTerm(ex.div(ex.ONE, p.expr), -2.0, 2),
                        p, 0.0, residual_of, 3)
    # the margin named is the surviving level's, far from passing
    assert float(re.search(r"margin (\S+)\)", str(info.value))[1]) > 1e3


def _spy_on_the_table(monkeypatch, verdict=None):
    """Make each zero test put a node into its value table that nothing
    else holds (nodes are interned, so it is one that no construction
    builds); returns weak references to those nodes.  `verdict`, if
    given, replaces the zero test's answer."""
    refs = []
    real = ca.is_zero

    def spy(term, values):
        node = ex.Sin(ex.x(9))
        values[node] = np.zeros(64)
        refs.append(weakref.ref(node))
        out = real(term, values=values)
        return out if verdict is None else verdict

    monkeypatch.setattr(ca, "is_zero", spy)
    return refs


def test_zero_test_table_does_not_outlive_a_construction(monkeypatch):
    P = _sym(ex.mul(ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1))),
                    ex.xi_norm_sq(2)), 2.0, 2, trunc=3)
    refs = _spy_on_the_table(monkeypatch)
    ca.parametrix(P, 3)
    gc.collect()
    assert refs and all(r() is None for r in refs)
    # a level that never tests zero: the loop raises, and the traceback
    # keeps the loop's frame alive, but not the table
    refs = _spy_on_the_table(monkeypatch, verdict=False)
    with pytest.raises(NonConvergent) as info:
        ca.parametrix(P, 1)
    gc.collect()
    assert info.value.__traceback__ is not None
    assert refs and all(r() is None for r in refs)


@pytest.mark.parametrize("construct", [ca.parametrix, ca.sqrt_approx])
def test_each_residual_level_is_zero_tested_once(monkeypatch, construct):
    # the residual is updated by each correction's composition, and a
    # level that tested zero is not tested again: N - 1 levels below the
    # top fail once and pass once, and the top passes at once
    P = _sym(ex.mul(ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1))),
                    ex.xi_norm_sq(2)), 2.0, 2, trunc=5)
    tested = []
    real = ca.is_zero

    def spy(term, values):
        tested.append(term.expr)
        return real(term, values=values)

    monkeypatch.setattr(ca, "is_zero", spy)
    for N in (3, 4, 5):
        tested.clear()
        construct(P, N)
        assert len(tested) == len(set(tested)) == 2 * N - 1


def test_micro_elliptic_at():
    P = _sym(ex.xi(1), 1.0, 2)
    assert ca.micro_elliptic_at(P, [0.0, 0.0, 1.0, 0.0])
    assert not ca.micro_elliptic_at(P, [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ZeroCovector):
        ca.micro_elliptic_at(P, [0.0, 0.0, 0.0, 0.0])


def test_micro_elliptic_at_needs_a_point_of_length_2n():
    P = _sym(ex.xi(1), 1.0, 2)
    for point in ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="must have length 4"):
            ca.micro_elliptic_at(P, point)


def test_micro_elliptic_at_needs_a_finite_point():
    # [0, 0, inf, 0] read as not micro-elliptic, with a RuntimeWarning
    P = _sym(ex.xi(1), 1.0, 2)
    for point in ([0.0, 0.0, np.inf, 0.0], [np.nan, 0.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="is not finite"):
            ca.micro_elliptic_at(P, point)


def test_parametrix_of_laplacian_is_exact():
    Q = ca.parametrix(_sym(ex.xi_norm_sq(2), 2.0, 2), 3)
    assert _value(Q, -2.0, [0, 0], [3.0, 4.0]) == pytest.approx(1.0 / 25.0)
    for d in Q.degrees():
        if d != -2.0:
            assert sy.is_zero(Q.term_at(d))


def test_parametrix_first_order_terms():
    # for p = xi + x: q_{-1} = 1/xi, q_{-2} = -x/xi^2
    P = _sym(ex.xi(1), 1.0, 1) + _sym(ex.x(1), 0.0, 1)
    Q = ca.parametrix(P, 2)
    x, xi = 2.0, 3.0
    assert _value(Q, -1.0, [x], [xi]) == pytest.approx(1.0 / xi)
    assert _value(Q, -2.0, [x], [xi]) == pytest.approx(-x / xi ** 2)


def test_parametrix_requires_ellipticity():
    with pytest.raises(NotElliptic):
        ca.parametrix(_sym(
            ex.mul(ex.xi(1), ex.xi(1)) - ex.mul(ex.xi(2), ex.xi(2)),
            2.0, 2), 2)


def test_sqrt_of_laplacian_is_exact():
    S = ca.sqrt_approx(_sym(ex.xi_norm_sq(2), 2.0, 2), 3)
    assert _value(S, 1.0, [0, 0], [3.0, 4.0]) == pytest.approx(5.0)
    for d in S.degrees():
        if d != 1.0:
            assert sy.is_zero(S.term_at(d))


def test_sqrt_squares_back():
    P = sy.ClassicalSymbol.single(
        ex.mul(ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1))),
               ex.xi_norm_sq(2)), 2.0, 2, truncation_order=5)
    S = ca.sqrt_approx(P, 4)
    R = ca.compose(S, S, truncation=4)
    # S o S - P has no terms above degree 2 - 4
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = rng.uniform(0, 2 * np.pi, 2)
        xi = rng.uniform(2.0, 4.0, 2)
        diff = _total(R, x, xi) - _total(P, x, xi)
        assert abs(diff) < 1e-6 * max(1.0, abs(_total(P, x, xi)))


def test_pullback_identity():
    p = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    ident = sy.Diffeo([ex.x(1), ex.x(2)], [ex.x(1), ex.x(2)])
    q = ca.pullback_principal(p, ident)
    assert ex.evaluate(q.expr, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(25.0)


def test_pullback_scaling():
    # under y = 2x the covector transforms as xi = eta / 2
    p = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    two = ex.Const(2.0)
    half = ex.Const(0.5)
    phi = sy.Diffeo([ex.mul(two, ex.x(1)), ex.mul(two, ex.x(2))],
                    [ex.mul(half, ex.x(1)), ex.mul(half, ex.x(2))])
    q = ca.pullback_principal(p, phi)
    assert ex.evaluate(q.expr, [0.0, 0.0, 2.0, 2.0]) == pytest.approx(2.0)


def test_pullback_rotation_invariance():
    # |xi|^2 is invariant under rotation of coordinates
    c, s = np.cos(0.3), np.sin(0.3)
    fwd = [ex.add(ex.mul(ex.Const(c), ex.x(1)), ex.mul(ex.Const(-s), ex.x(2))),
           ex.add(ex.mul(ex.Const(s), ex.x(1)), ex.mul(ex.Const(c), ex.x(2)))]
    inv = [ex.add(ex.mul(ex.Const(c), ex.x(1)), ex.mul(ex.Const(s), ex.x(2))),
           ex.add(ex.mul(ex.Const(-s), ex.x(1)), ex.mul(ex.Const(c), ex.x(2)))]
    phi = sy.Diffeo(fwd, inv)
    p = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    q = ca.pullback_principal(p, phi)
    assert ex.evaluate(q.expr, [0.4, 1.1, 3.0, 4.0]) == pytest.approx(25.0)


def test_principal_picks_top_degree():
    P = _sym(ex.xi_norm_sq(2), 2.0, 2) + _sym(ex.xi(1), 1.0, 2)
    assert ca.principal(P).degree == 2.0


# -- calculus laws on random differential symbols ---------------------------

_QUARTERS = st.integers(-4, 4).map(lambda v: v / 4)


@st.composite
def _trig_coefficients(draw, n):
    """a + sum of c cos(k.x) + s sin(k.x) over one or two small integer
    frequency vectors k, the coefficients complex multiples of 1/4."""
    def number():
        return complex(draw(_QUARTERS), draw(_QUARTERS))

    parts = [number()]
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        phase = ex.add(*(ex.mul(float(kj), ex.x(j + 1))
                         for j, kj in enumerate(k)))
        parts += [ex.mul(number(), ex.cos(phase)),
                  ex.mul(number(), ex.sin(phase))]
    return ex.add(*parts)


@st.composite
def _differential_symbols(draw, n=None):
    """sum over |beta| <= m <= 2 of c_beta(x) xi^beta on T^n, n = 1 or 2
    unless given, the c_beta trigonometric polynomials, truncated past its
    last level (degree 0), so that every level of a conversion is kept."""
    if n is None:
        n = draw(st.integers(1, 2))
    m = draw(st.integers(0, 2))
    terms = []
    for d in range(m + 1):
        monomials = [(a, d - a) for a in range(d + 1)] if n == 2 else [(d,)]
        e = ex.add(*(ex.mul(draw(_trig_coefficients(n)),
                            *(ex.pow_(ex.xi(j + 1), b)
                              for j, b in enumerate(beta)))
                     for beta in monomials))
        terms.append(sy.HomogeneousTerm(e, float(d), n))
    trunc = m + draw(st.integers(1, 2))
    return sy.ClassicalSymbol(float(m), tuple(terms), trunc, n)


def _assert_same_operator(A, P):
    """A - P is zero level by level (the zero test), and A and P apply
    alike to a band-limited grid function, to 1e-10."""
    assert all(sy.is_zero(t) for t in (A - P).terms)
    u = GridFunction.random_band_limited(P.dimension, 8, 3,
                                         np.random.default_rng(1))
    got, want = op_apply(A, u).values, op_apply(P, u).values
    assert np.max(np.abs(got - want)) <= 1e-10 * max(
        1.0, np.max(np.abs(want)))


@settings(max_examples=50, deadline=None)
@given(_differential_symbols())
def test_adjoint_is_an_involution_on_differential_symbols(P):
    _assert_same_operator(ca.adjoint(ca.adjoint(P)), P)


@settings(max_examples=50, deadline=None)
@given(_differential_symbols())
def test_left_right_left_returns_a_differential_symbol(P):
    right = ca.convert_left_right(P, "left-to-right")
    _assert_same_operator(ca.convert_left_right(right, "right-to-left"), P)


def _symbols_on_one_torus(count):
    """count differential symbols on one T^n, n = 1 or 2."""
    return st.integers(1, 2).flatmap(
        lambda n: st.tuples(*[_differential_symbols(n)] * count))


@settings(max_examples=50, deadline=None)
@given(_symbols_on_one_torus(3))
def test_compose_is_associative_on_differential_symbols(PQR):
    # both sides keep the levels above m_P + m_Q + m_R - min(truncations)
    P, Q, R = PQR
    _assert_same_operator(ca.compose(ca.compose(P, Q), R),
                          ca.compose(P, ca.compose(Q, R)))


@settings(max_examples=50, deadline=None)
@given(_symbols_on_one_torus(2))
def test_commutator_next_level_is_the_poisson_bracket_over_i(PQ):
    P, Q = PQ
    # a truncation of 1 drops the level m_P + m_Q - 1 from [P, Q]
    assume(min(P.truncation_order, Q.truncation_order) >= 2)
    bracket = ca.poisson_bracket(ca.principal(P), ca.principal(Q))
    level = ca.commutator(P, Q).term_at(bracket.degree)
    _assert_same_operator(sy.ClassicalSymbol.from_terms([level], 1),
                          sy.ClassicalSymbol.from_terms(
                              [bracket.scale(-1j)], 1))


# -- construction laws on random elliptic symbols ---------------------------

@st.composite
def _elliptic_symbols(draw):
    """(N, P) with N in 2..4 and P = (1 + a sin(x1 + phi)) xi1^2
    [+ (1 + b cos x2) xi2^2] + c cos(x_n) xi1 on T^n, n = 1 or 2, truncated
    at 4: a, b uniform in [0.1, 0.5] and phi in [0, 2 pi), drawn in the
    benchmark's elliptic family's order from a drawn seed, so that the
    principal part is positive, and c uniform in [-1, 1]."""
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)
    phi, c = rng.uniform(0.0, 2 * np.pi), rng.uniform(-1.0, 1.0)
    coef = [ex.ONE + ex.mul(ex.Const(a), ex.sin(ex.x(1) + ex.Const(phi))),
            ex.ONE + ex.mul(ex.Const(b), ex.cos(ex.x(2)))]
    top = ex.add(*(ex.mul(coef[j], ex.xi(j + 1), ex.xi(j + 1))
                   for j in range(n)))
    low = ex.mul(ex.Const(c), ex.cos(ex.x(n)), ex.xi(1))
    P = sy.ClassicalSymbol(2.0, (sy.HomogeneousTerm(top, 2.0, n),
                                 sy.HomogeneousTerm(low, 1.0, n)), 4, n)
    return draw(st.integers(2, 4)), P


def _assert_levels_vanish_above(R, degree):
    margins = [sy.zero_margin(t) for t in R.terms
               if t.degree > degree + sy.DEGREE_TOL]
    assert margins and max(margins) <= 1.0


@settings(max_examples=50, deadline=None)
@given(_elliptic_symbols())
def test_parametrix_is_a_right_inverse(NP):
    # kills a parametrix whose change is q o P in place of P o q
    N, P = NP
    Q = ca.parametrix(P, N)
    ident = sy.ClassicalSymbol.identity(P.dimension, N)
    _assert_levels_vanish_above(ca.compose(P, Q, truncation=N) - ident, -N)


@settings(max_examples=50, deadline=None)
@given(_elliptic_symbols())
def test_parametrix_is_a_left_inverse(NP):
    # the construction only kills P o Q - 1; kills compose without its
    # 1/alpha!, whose product is not associative
    N, P = NP
    Q = ca.parametrix(P, N)
    ident = sy.ClassicalSymbol.identity(P.dimension, N)
    _assert_levels_vanish_above(ca.compose(Q, P, truncation=N) - ident, -N)


@settings(max_examples=50, deadline=None)
@given(_elliptic_symbols())
def test_sqrt_squares_back_on_elliptic_symbols(NP):
    # kills the square root's change without q o q
    N, P = NP
    S = ca.sqrt_approx(P, N)
    _assert_levels_vanish_above(ca.compose(S, S, truncation=N) - P,
                                P.leading_order - N)
