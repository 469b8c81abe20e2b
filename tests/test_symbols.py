import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psido import expr as ex
from psido import symbols as sy
from psido.errors import DimensionMismatch, HomogeneityError


def _eval_term(term, x, xi):
    return ex.evaluate(term.expr, list(x) + list(xi))


def test_multi_index_basics():
    assert sy.factorial((2, 1)) == 2
    assert sy.factorial((3, 0, 2)) == 12
    # all alpha with |alpha| <= 2 in two variables, by order, in the
    # order compose and convert_left_right collect their terms
    assert list(sy.multi_indices(2, 2)) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    t = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    with pytest.raises(ValueError, match="non-negative"):
        sy.differentiate(t, "xi", (1, -1))
    with pytest.raises(DimensionMismatch):
        sy.differentiate(t, "xi", (1,))


def test_d_xi_of_xi_is_minus_i():
    t = sy.HomogeneousTerm(ex.xi(1), 1.0, 1)
    d = sy.differentiate(t, "xi", [1])
    assert d.degree == 0.0
    assert _eval_term(d, [0.0], [3.0]) == pytest.approx(-1j)


def test_d_xi_of_xi_norm():
    # D_xi1 |xi| = (1/i) xi1 / |xi|
    t = sy.HomogeneousTerm(ex.xi_norm(2), 1.0, 2)
    d = sy.differentiate(t, "xi", [1, 0])
    assert d.degree == 0.0
    v = _eval_term(d, [0.0, 0.0], [3.0, 4.0])
    assert v == pytest.approx(-1j * 3.0 / 5.0)


def test_partial_x_keeps_degree():
    t = sy.HomogeneousTerm(ex.mul(ex.sin(ex.x(1)), ex.xi(2), ex.xi(2)),
                           2.0, 2)
    d = sy.differentiate(t, "x", [1, 0])
    assert d.degree == 2.0
    v = _eval_term(d, [0.7, 0.0], [0.0, 3.0])
    assert v == pytest.approx(np.cos(0.7) * 9.0)


def test_check_homogeneity_accepts_true_degree():
    t = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    assert sy.check_homogeneity(t) < 1e-9


def test_check_homogeneity_flags_wrong_degree():
    t = sy.HomogeneousTerm(ex.xi_norm_sq(2), 1.0, 2)
    assert sy.check_homogeneity(t) > 1e-3


def test_term_validation_rejects_inhomogeneous():
    with pytest.raises(HomogeneityError):
        sy.HomogeneousTerm.checked(ex.ONE + ex.xi(1), 1.0, 1)


def test_is_zero():
    a = sy.HomogeneousTerm(
        ex.mul(ex.sin(ex.x(1)), ex.sin(ex.x(1)))
        + ex.mul(ex.cos(ex.x(1)), ex.cos(ex.x(1))) - ex.ONE,
        0.0, 1)
    assert sy.is_zero(a.scale(1.0).mul(
        sy.HomogeneousTerm(ex.xi(1), 1.0, 1)))
    b = sy.HomogeneousTerm(ex.xi(1), 1.0, 1)
    assert not sy.is_zero(b)


def test_zero_margin_is_the_ratio_the_zero_test_bounds():
    # |xi1| = 1 at every sample of the unit sphere in one dimension, so
    # xi1 has max|value| = scale = 1 and margin 1 / tol
    b = sy.HomogeneousTerm(ex.xi(1), 1.0, 1)
    for tol, margin in ((0.5, 2.0), (1.0, 1.0), (4.0, 0.25)):
        assert sy.zero_margin(b, tol) == margin
        assert sy.is_zero(b, tol) == (margin <= 1.0)
    a = sy.HomogeneousTerm(
        ex.mul(ex.sin(ex.x(1)), ex.sin(ex.x(1)))
        + ex.mul(ex.cos(ex.x(1)), ex.cos(ex.x(1))) - ex.ONE, 0.0, 1)
    assert sy.zero_margin(a) < 1.0


def test_conjugate():
    t = sy.HomogeneousTerm(ex.mul(ex.I, ex.xi(1)), 1.0, 1)
    c = sy.conjugate(t)
    assert _eval_term(c, [0.0], [2.0]) == pytest.approx(-2j)


def test_term_arithmetic():
    t = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    s = t + t
    assert _eval_term(s, [0, 0], [3.0, 0.0]) == pytest.approx(6.0)
    assert _eval_term(t.scale(-2.0), [0, 0], [3.0, 0.0]) == pytest.approx(-6.0)
    p = t.mul(sy.HomogeneousTerm(ex.xi(2), 1.0, 2))
    assert p.degree == 2.0
    assert _eval_term(p, [0, 0], [3.0, 4.0]) == pytest.approx(12.0)


def test_classical_symbol_container():
    p = sy.ClassicalSymbol.single(ex.xi_norm_sq(2), 2.0, 2)
    assert p.degrees() == [2.0]
    q = sy.ClassicalSymbol.identity(2)
    assert q.term_at(0.0) is not None
    s = p + q
    assert set(s.degrees()) == {2.0, 0.0}
    assert isinstance(s.render(), str)


# level expressions, several carrying constants whose sum depends on the
# order they are folded in: (1 + 1) + 1e16 is exact, (1 + 1e16) + 1 is not
_LEVEL_EXPRS = (ex.xi(1), ex.mul(ex.x(1), ex.xi(2), 3.0), ex.ZERO,
                ex.add(ex.x(1), 1.0), ex.Const(1.0), ex.Const(1e16),
                ex.Const(-1.0), ex.add(ex.xi(2), ex.Const(0.5j)))
# 2 + 5e-13 is within DEGREE_TOL of 2, so the two share a level
_LEVEL_DEGREES = (2.0, 2.0 + 5e-13, 1.0, 0.0, -3.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_LEVEL_DEGREES),
                          st.sampled_from(_LEVEL_EXPRS)),
                min_size=1, max_size=8))
def test_each_level_is_the_pairwise_sum_of_its_terms(draws):
    terms = [sy.HomogeneousTerm(e, d, 2) for d, e in draws]
    P = sy.ClassicalSymbol(2.0, tuple(terms), 4, 2)
    levels = {}     # the first degree of a level -> its pairwise sum
    for t in terms:
        d = next((d for d in levels if abs(d - t.degree) <= sy.DEGREE_TOL),
                 t.degree)
        levels[d] = levels[d] + t if d in levels else t
    want = [levels[d] for d in sorted(levels, reverse=True)
            if d > -2.0 and levels[d].expr is not ex.ZERO]
    assert [t.degree for t in P.terms] == [t.degree for t in want]
    assert all(a.expr is b.expr for a, b in zip(P.terms, want))


def test_make_lambda_s_trivial_cases():
    lam0 = sy.make_lambda_s(0.0, 2, 4)
    assert lam0.degrees() == [0.0]
    assert _eval_term(lam0.term_at(0.0), [0, 0], [3.0, 4.0]) == \
        pytest.approx(1.0)

    lam2 = sy.make_lambda_s(2.0, 2, 4)
    total = sum(_eval_term(lam2.term_at(d), [0, 0], [3.0, 4.0])
                for d in lam2.degrees())
    assert total == pytest.approx(26.0)  # 1 + |xi|^2 at |xi| = 5


def test_make_lambda_s_expansion_accuracy():
    # partial sums of (1 + |xi|^2)^{-1} at |xi| = 4: the N-term truncation
    # error is bounded by the first dropped term, below 4^{-8}
    lam = sy.make_lambda_s(-2.0, 2, 6)
    xi = [4.0, 0.0]
    total = sum(_eval_term(lam.term_at(d), [0, 0], xi)
                for d in lam.degrees())
    exact = 1.0 / 17.0
    assert abs(total - exact) < 4.0 ** (-8)


def test_diffeo_validation():
    fwd = [ex.mul(ex.Const(2.0), ex.x(1))]
    inv = [ex.mul(ex.Const(0.5), ex.x(1))]
    d = sy.Diffeo(fwd, inv)
    J = d.jacobian()
    assert ex.evaluate(J[0][0], [1.3, 0.0]) == pytest.approx(2.0)
    with pytest.raises(Exception):
        sy.Diffeo(fwd, fwd)
