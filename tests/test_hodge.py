import numpy as np
import pytest

from psido.hodge import (FormField, betti, codifferential,
                         complex_parametrix_check, ext_d, green,
                         harmonic_projection, hodge_decompose, hodge_star,
                         inner, laplacian)
from psido.errors import BottomDegree, GridMismatch, TopDegree, ValidationError


def _rand(n, j, M=8, seed=0):
    return FormField.random_band_limited(n, j, M, band=2,
                                         rng=np.random.default_rng(seed))


def _norm(w):
    return np.sqrt(abs(inner(w, w)))


def test_d_squared_is_zero():
    for n in (2, 3):
        for j in range(n - 1):
            w = _rand(n, j, seed=j + 1)
            assert _norm(ext_d(ext_d(w))) < 1e-9 * max(1.0, _norm(w))


def test_delta_squared_is_zero():
    for n in (2, 3):
        for j in range(2, n + 1):
            w = _rand(n, j, seed=j + 5)
            assert _norm(codifferential(codifferential(w))) < \
                1e-9 * max(1.0, _norm(w))


def test_d_on_top_degree_raises():
    with pytest.raises(TopDegree):
        ext_d(_rand(2, 2))


def test_delta_on_functions_raises():
    with pytest.raises(BottomDegree):
        codifferential(_rand(2, 0))


def test_d_of_function_is_gradient():
    # d sin(x1) = cos(x1) dx1 on T^2
    w = FormField.from_callables(
        2, 0, 16, {(): lambda x, y: np.sin(x)})
    dw = ext_d(w)
    ax = 2.0 * np.pi * np.arange(16) / 16
    X, _ = np.meshgrid(ax, ax, indexing="ij")
    assert np.allclose(dw.coefficients[(1,)], np.cos(X), atol=1e-10)
    assert np.allclose(dw.coefficients[(2,)], 0.0, atol=1e-12)


def test_star_on_two_torus():
    # *(dx1) = dx2 and *(dx2) = -dx1
    w = FormField.from_callables(2, 1, 8, {(1,): lambda x, y: 1.0 + 0 * x})
    sw = hodge_star(w)
    assert np.allclose(sw.coefficients[(2,)], 1.0)
    assert np.allclose(sw.coefficients[(1,)], 0.0)
    v = FormField.from_callables(2, 1, 8, {(2,): lambda x, y: 1.0 + 0 * x})
    sv = hodge_star(v)
    assert np.allclose(sv.coefficients[(1,)], -1.0)


def test_double_star_sign():
    # ** = (-1)^{j(n-j)} on a j-form over T^n
    for n in (2, 3):
        for j in range(n + 1):
            w = _rand(n, j, seed=10 * n + j)
            ss = hodge_star(hodge_star(w))
            sign = (-1.0) ** (j * (n - j))
            diff = ss + w.scale(-sign)
            assert _norm(diff) < 1e-9 * max(1.0, _norm(w))


def test_d_delta_adjoint():
    # <d a, b> = <a, delta b>
    a = _rand(3, 1, seed=21)
    b = _rand(3, 2, seed=22)
    assert inner(ext_d(a), b) == pytest.approx(inner(a, codifferential(b)),
                                               abs=1e-8)


def test_laplacian_on_single_mode():
    # Delta (e^{i k x} dx1) = |k|^2 e^{i k x} dx1 on T^2
    M = 16
    ax = 2.0 * np.pi * np.arange(M) / M
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    w = FormField(2, 1, M, {(1,): np.exp(1j * (2 * X + 3 * Y))})
    lw = laplacian(w)
    assert np.allclose(lw.coefficients[(1,)],
                       13.0 * w.coefficients[(1,)], atol=1e-8)
    assert np.allclose(lw.coefficients[(2,)], 0.0, atol=1e-8)


def test_hodge_decomposition():
    w = _rand(2, 1, M=16, seed=33)
    harm, exact, coexact = hodge_decompose(w)
    total = harm + exact + coexact
    assert _norm(total + w.scale(-1.0)) < 1e-8 * max(1.0, _norm(w))
    # pieces are orthogonal
    assert abs(inner(exact, coexact)) < 1e-8
    assert abs(inner(exact, harm)) < 1e-8
    assert abs(inner(coexact, harm)) < 1e-8
    # and live in the right spaces
    assert _norm(laplacian(harm)) < 1e-8 * max(1.0, _norm(harm))
    assert _norm(ext_d(exact)) < 1e-8 * max(1.0, _norm(exact))
    assert _norm(codifferential(coexact)) < 1e-8 * max(1.0, _norm(coexact))


def test_green_inverts_laplacian_off_harmonics():
    w = _rand(2, 1, M=16, seed=44)
    h = harmonic_projection(w)
    g = green(w)
    back = laplacian(g) + h
    assert _norm(back + w.scale(-1.0)) < 1e-8 * max(1.0, _norm(w))


def test_betti_numbers_of_tori():
    # binomial(n, j) for the flat torus
    assert betti(1, 0) == 1 and betti(1, 1) == 1
    assert [betti(2, j) for j in range(3)] == [1, 2, 1]
    assert [betti(3, j) for j in range(4)] == [1, 3, 3, 1]


def test_complex_parametrix_check():
    rep = complex_parametrix_check(2, 1, trials=10)
    assert rep["trials"] == 10
    assert rep["max_residual"] < 1e-8


@pytest.mark.parametrize("trials", [0, -3])
def test_complex_parametrix_check_needs_a_trial(trials):
    # a check of no form reported max_residual 0.0
    with pytest.raises(ValueError, match="trials >= 1"):
        complex_parametrix_check(2, 1, trials=trials)


def test_grid_mismatch_rejected():
    a = _rand(2, 1, M=8)
    b = _rand(2, 1, M=16)
    with pytest.raises(GridMismatch):
        _ = a + b


@pytest.mark.parametrize("n, j", [(0, 0), (4, 0), (2, 3), (2, -1)])
def test_formfield_needs_a_dimension_from_1_to_3(n, j):
    # n = 0 got in, and hodge.laplacian died on an IndexError
    with pytest.raises(GridMismatch, match=f"got n={n}, j={j}"):
        FormField.zero(n, j, 4)
    with pytest.raises(GridMismatch, match=f"got n={n}, j={j}"):
        FormField.random_band_limited(n, j, 4)


def test_formfield_csv_round_trip(tmp_path):
    # every coefficient is written as a plain float, so it reads back exactly
    w = _rand(2, 1, M=4, seed=7)
    path = tmp_path / "w.csv"
    w.write_csv(path)
    v = FormField.read_csv(path)
    assert (v.dimension, v.degree, v.M) == (2, 1, 4)
    for alpha in w.coefficients:
        assert np.array_equal(v.coefficients[alpha], w.coefficients[alpha])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_formfield_rejects_samples_that_are_not_finite(bad):
    v = np.ones((4, 4), dtype=complex)
    v[1, 2] = bad
    with pytest.raises(ValidationError, match="finite"):
        FormField(2, 1, 4, {(2,): v})
