import functools
import gc
import itertools
import warnings
import weakref

import numpy as np
import pytest

from psido import calculus as ca
from psido import expr as ex
from psido import quantize
from psido import symbols as sy
from psido.quantize import (_PAIR_CAP, _PSI_NODES, _PSI_WEIGHTS,
                            _SAMPLE_BUDGET, GridFunction, _cutoff_profile,
                            _estimate_order, _outward_theta_quad, _pair_count,
                            _panel_transform, _separate, circle_index,
                            lattice, op_apply, oscint_eval, sobolev_norm,
                            wavenumbers)
from psido.errors import (GridMismatch, NonConvergent, Overflow,
                          SymbolVanishes, Unstable, ValidationError)


def _sym(e, degree, n):
    return sy.ClassicalSymbol.single(e, degree, n)


def test_fourier_multiplier_on_single_mode():
    u = GridFunction.single_mode(1, 32, [3])
    v = op_apply(_sym(ex.xi(1), 1.0, 1), u)
    assert np.allclose(v.values, 3.0 * u.values, atol=1e-12)


def test_multiplication_operator():
    # a degree-0 x-dependent symbol acts by pointwise multiplication
    u = GridFunction.from_expr(ex.exp(ex.mul(ex.I, ex.x(1))), 1, 32)
    v = op_apply(_sym(ex.sin(ex.x(1)), 0.0, 1), u)
    w = GridFunction.from_expr(ex.mul(ex.sin(ex.x(1)),
                                      ex.exp(ex.mul(ex.I, ex.x(1)))), 1, 32)
    assert np.allclose(v.values, w.values, atol=1e-12)


def test_operator_is_linear():
    rng = np.random.default_rng(5)
    P = _sym(ex.mul(ex.sin(ex.x(1)), ex.xi_norm_sq(2)), 2.0, 2)
    u = GridFunction.random_band_limited(2, 16, 4, rng)
    v = GridFunction.random_band_limited(2, 16, 4, rng)
    lhs = op_apply(P, GridFunction(2, 16, u.values + 2.0 * v.values))
    rhs = op_apply(P, u).values + 2.0 * op_apply(P, v).values
    assert np.allclose(lhs.values, rhs, atol=1e-9)


def test_laplacian_eigenvalues():
    # |xi|^2 on e^{ik.x} multiplies by |k|^2
    P = _sym(ex.xi_norm_sq(2), 2.0, 2)
    for k in ([1, 0], [2, 3], [-4, 1]):
        u = GridFunction.single_mode(2, 32, k)
        v = op_apply(P, u)
        lam = k[0] ** 2 + k[1] ** 2
        assert np.allclose(v.values, lam * u.values, atol=1e-9 * max(lam, 1))


def test_zero_mode_policy():
    # positive-degree symbols send the constant mode to zero
    P = _sym(ex.xi_norm_sq(1), 2.0, 1)
    u = GridFunction.single_mode(1, 16, [0])
    assert op_apply(P, u).l2_norm() < 1e-12


def test_lattice_and_wavenumbers_list_the_grid_in_c_order():
    # column c is the entry np.ndindex visits c-th: a grid's sample order
    for n, M in ((1, 4), (2, 8), (3, 4)):
        x, k = lattice(n, M), wavenumbers(n, M)
        assert x.shape == k.shape == (n, M ** n)
        for c, idx in enumerate(np.ndindex(*(M,) * n)):
            assert x[:, c].tolist() == [2.0 * np.pi * i / M for i in idx]
            assert k[:, c].tolist() == [i - M * (i >= M // 2) for i in idx]


def _direct_sum(P, u, floor=None):
    """sum_k e^{ikx} p(x, k) u^(k) over every lattice mode k, or, given a
    floor, over the modes whose |u^(k)| is above floor times the largest.
    Each term is evaluated once, on the explicit list of (x, k) pairs of
    the lattice and the modes it reads: at k = 0 a degree-0 term is read
    at xi = e1 and every other term drops out."""
    n, M = u.dimension, u.M
    uhat = (np.fft.fftn(u.values) / M ** n).ravel()
    keep = np.abs(uhat) > (-1.0 if floor is None
                           else floor * np.abs(uhat).max())
    x, k = lattice(n, M), wavenumbers(n, M).astype(float)
    out = np.zeros(x.shape[1], dtype=complex)
    for t in P.terms:
        modes = np.flatnonzero(keep & (k.any(axis=0)
                                       | (abs(t.degree) <= 1e-9)))
        xi = k[:, modes]
        xi[0, ~xi.any(axis=0)] = 1.0
        p = t.expr.ev(np.tile(x, modes.size),
                      np.repeat(xi, x.shape[1], axis=1))
        out += np.sum(uhat[modes, None] * np.exp(1j * (k[:, modes].T @ x))
                      * p.reshape(modes.size, -1), axis=0)
    return out.reshape(u.values.shape)


def _assert_direct(P, u):
    want = _direct_sum(P, u)
    got = op_apply(P, u).values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# degree 2 factors into (x, xi) pairs; degree 0 divides by a mixed x/xi
# denominator, so it does not factor and is summed mode by mode
_SEPARABLE = ex.add(
    ex.mul(ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1))),
           ex.xi_norm_sq(2)),
    ex.mul(ex.cos(ex.x(2)), ex.xi(1), ex.xi(2)))
_MIXED_DEN = ex.add(
    ex.mul(ex.Const(2.0) + ex.sin(ex.x(1)), ex.xi(1), ex.xi(1)),
    ex.mul(ex.xi(2), ex.xi(2)))
_MIXED = sy.ClassicalSymbol.from_terms(
    [sy.HomogeneousTerm(_SEPARABLE, 2.0, 2),
     sy.HomogeneousTerm(ex.div(ex.mul(ex.xi(1), ex.xi(1)), _MIXED_DEN),
                        0.0, 2)], 4)


def test_mixed_symbol_takes_both_paths():
    assert _separate(_MIXED.terms[0].expr) is not None
    assert _separate(_MIXED.terms[1].expr) is None


@pytest.mark.parametrize("k", [None, [3, -2], [0, 5]])
def test_mixed_symbol_matches_direct_sum(k):
    if k is None:
        u = GridFunction.random_band_limited(2, 16, 4,
                                             np.random.default_rng(21))
    else:
        u = GridFunction.single_mode(2, 16, k)
    _assert_direct(_MIXED, u)


def test_degree_zero_term_reads_k_zero_at_e1_on_both_paths():
    x1, x2 = np.meshgrid(*([2.0 * np.pi * np.arange(16) / 16] * 2),
                         indexing="ij")
    u = GridFunction.single_mode(2, 16, [0, 0])
    # mode by mode: xi1^2 / den at xi = e1 is 1 / (2 + sin x1); the
    # degree-2 term drops k = 0
    v = op_apply(_MIXED, u)
    assert np.allclose(v.values, 1.0 / (2.0 + np.sin(x1)), atol=1e-13)
    # factored: cos(x2) xi1/|xi| + sin(x1) at xi = e1
    e = ex.add(ex.mul(ex.cos(ex.x(2)), ex.xi(1), ex.pow_(ex.xi_norm_sq(2),
                                                          -0.5)),
               ex.sin(ex.x(1)))
    assert len(_separate(e)) == 2
    P = _sym(e, 0.0, 2)
    v = op_apply(P, u)
    assert np.allclose(v.values, np.cos(x2) + np.sin(x1), atol=1e-13)
    _assert_direct(P, u)
    _assert_direct(P, GridFunction.random_band_limited(
        2, 16, 3, np.random.default_rng(22)))


@pytest.mark.parametrize("k", [[1, 1], [2, -3]])
def test_dense_terms_of_nonzero_degree_are_never_read_at_k_zero(k):
    # xi1^2 / (xi2 den) divides by zero at xi = e1 and the separable
    # cos(x1) |xi|^-2 at xi = 0: only the degree-0 dense term is read on the
    # k = 0 column, all three are read on the other mode
    flat = _MIXED.terms[1]
    odd = ex.div(ex.mul(ex.xi(1), ex.xi(1)), ex.mul(ex.xi(2), _MIXED_DEN))
    sep = ex.mul(ex.cos(ex.x(1)), ex.pow_(ex.xi_norm_sq(2), -1.0))
    P = sy.ClassicalSymbol.from_terms(
        [flat, sy.HomogeneousTerm(odd, -1.0, 2),
         sy.HomogeneousTerm(sep, -2.0, 2)], 4)
    assert [_separate(t.expr) is None for t in P.terms] == [True, True, False]
    u = GridFunction(2, 16, GridFunction.single_mode(2, 16, [0, 0]).values
                     + GridFunction.single_mode(2, 16, k).values)
    want = _direct_sum(P, u, floor=1e-12)
    got = op_apply(P, u).values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# the four routes of a term: factored or dense, read at k = 0 or not; two
# terms of degree 0 merge into one, which does not factor
_ROUTES = {
    "sep0": sy.HomogeneousTerm(ex.mul(ex.cos(ex.x(2)), ex.xi(1), ex.pow_(
        ex.xi_norm_sq(2), -0.5)), 0.0, 2),
    "dense0": _MIXED.terms[1],
    "sep2": sy.HomogeneousTerm(_SEPARABLE, 2.0, 2),
    "dense-1": sy.HomogeneousTerm(ex.div(ex.xi(1), _MIXED_DEN), -1.0, 2),
}


@pytest.mark.parametrize("k_zero", [True, False], ids=["k0", "no_k0"])
@pytest.mark.parametrize("routes", [
    mix for r in range(1, len(_ROUTES) + 1)
    for mix in itertools.combinations(_ROUTES, r)], ids="+".join)
def test_k_zero_rule_on_every_route_mix(routes, k_zero):
    P = sy.ClassicalSymbol.from_terms([_ROUTES[r] for r in routes], 4)
    v = GridFunction.random_band_limited(2, 8, 3, np.random.default_rng(30))
    u = v if k_zero else GridFunction(2, 8, v.values - v.values.mean())
    uhat = np.abs(np.fft.fftn(u.values))
    assert (uhat[0, 0] > 1e-12 * uhat.max()) == k_zero
    want = _direct_sum(P, u, floor=1e-12)
    got = op_apply(P, u).values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _one_program_per_mode(P, u):
    """The dense route as one `Program` call per term and per mode, every
    node evaluated at every mode on the full lattice.  The terms are summed
    in term order on each of op_apply's groups of nonzero modes, and the
    degree-0 ones on the k = 0 column at xi = e1, as op_apply sums them:
    the reference for op_apply on terms that do not factor."""
    n, M = u.dimension, u.M
    uhat = np.fft.fftn(u.values)
    active = (np.abs(uhat) > 1e-12 * np.abs(uhat).max()).ravel()
    x, k = lattice(n, M), wavenumbers(n, M).astype(float)
    group = max(1, _SAMPLE_BUDGET // M ** n)
    for term in P.terms:
        assert _separate(term.expr) is None
    progs = [ex.Program([t.expr]) for t in P.terms]
    flat = [prog for prog, t in zip(progs, P.terms) if abs(t.degree) <= 1e-9]

    def column(xi, terms):
        ps = [prog(x, np.repeat(xi[:, None], M ** n, axis=1))[0]
              for prog in terms]
        return sum(ps[1:], ps[0])

    out = np.zeros(M ** n, dtype=complex)
    if flat and active[0]:
        out += uhat.flat[0] / M ** n * column(np.eye(n)[0], flat)
    cols = np.flatnonzero(active & k.any(axis=0))
    for g in range(0, cols.size, group):
        js = cols[g:g + group]
        p = np.stack([column(k[:, j], progs) for j in js])
        # the phase as the left factor, as in op_apply: numpy's SIMD loops
        # may round a complex product apart when its factors swap
        out += (uhat.flat[js] / M ** n) @ (np.exp(1j * (k[:, js].T @ x)) * p)
    return out.reshape(u.values.shape)


def _parametrix_residual():
    """(Q L - 1) for the order-2 parametrix Q of a variable Laplacian L:
    its levels 0 and -1 are roundoff and -2 is not, none of them factors."""
    L = _sym(ex.add(
        ex.mul(ex.ONE + ex.mul(ex.Const(0.3), ex.sin(ex.x(1) + 1.2)),
               ex.xi(1), ex.xi(1)),
        ex.mul(ex.ONE + ex.mul(ex.Const(0.2), ex.cos(ex.x(2))),
               ex.xi(2), ex.xi(2))), 2.0, 2)
    return (ca.compose(ca.parametrix(L, 2), L, truncation=3)
            - sy.ClassicalSymbol.identity(2, 3))


def _complex_xi_factor():
    """h exp(ih) / (2 + h sin x1) for h = (0.3+1.7i) xi1/|xi|: its xi-only
    numerator multiplies complex by complex, which numpy rounds apart on
    a batch of one and on a longer batch."""
    h = ex.mul(ex.Const(0.3 + 1.7j), ex.xi(1), ex.pow_(ex.xi_norm_sq(2), -0.5))
    return _sym(ex.div(ex.mul(h, ex.exp(ex.mul(ex.I, h))),
                       ex.Const(2.0) + ex.mul(ex.sin(ex.x(1)), h)), 0.0, 2)


@pytest.mark.parametrize("symbol, u", [
    (_parametrix_residual, GridFunction.random_band_limited(
        2, 16, 5, np.random.default_rng(25))),
    (_complex_xi_factor, GridFunction.single_mode(2, 16, [-6, 5]))],
    ids=["residual_dense", "one_mode"])
def test_mode_by_mode_route_matches_one_program_per_mode(symbol, u):
    P = symbol()
    assert np.array_equal(op_apply(P, u).values, _one_program_per_mode(P, u))


@pytest.mark.parametrize("N", [5, 6])
def test_residual_of_a_deep_parametrix_applies(N):
    # the residual's denominators are powers of the symbol p: with the
    # quotient rule (n'd - nd')/d^2 they reached p^(2^k), below 1e-14 at
    # |xi| = 1 for N = 5, 6; as powers p^-1 they grow one power per level
    p = ex.mul(ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1))),
               ex.xi_norm_sq(2))
    P = _sym(p, 2.0, 2)
    R = ca.compose(ca.parametrix(P, N), P, N + 2)
    _assert_direct(R, GridFunction.random_band_limited(
        2, 8, 2, np.random.default_rng(27)))


def _cosine_series(j, terms):
    return ex.add(*(ex.mul(ex.cos(ex.Const(m) * ex.x(j)), ex.xi(j))
                    for m in range(1, terms + 1)))


def _cosine_powers(j, terms):
    """sum_m cos(m xj) (xij / 8)^m: one xi factor per m, each at most 1 on
    the modes |k| <= 8 of a 16-point grid, so that no power amplifies the
    fft noise the direct sum reads at every mode"""
    return ex.add(*(ex.mul(ex.cos(ex.Const(m) * ex.x(j)),
                           ex.pow_(ex.mul(ex.Const(0.125), ex.xi(j)), m))
                    for m in range(1, terms + 1)))


def test_factored_term_spanning_several_pair_groups():
    # one xi factor per power pair, 17 * 5 = 85 of them: more than one
    # chunk of _SAMPLE_BUDGET // M^n = 64 at M = 16
    e = ex.mul(_cosine_powers(1, 17), _cosine_powers(2, 5))
    assert _SAMPLE_BUDGET // 16 ** 2 < len(_separate(e)) == 85 <= _PAIR_CAP
    P = _sym(e, 2.0, 2)
    _assert_direct(P, GridFunction.single_mode(2, 16, [2, -3]))
    _assert_direct(P, GridFunction.random_band_limited(
        2, 16, 3, np.random.default_rng(24)))


def test_term_over_the_pair_cap_is_summed_mode_by_mode():
    a, b = _cosine_series(1, 17), _cosine_series(2, 17)
    e = ex.mul(a, b)
    # 17 products each, so 289 in e; merged, each is one xi factor
    na, nb = (ex._walk(s, _pair_count, {})[1] for s in (a, b))
    assert na * nb > _PAIR_CAP
    assert list(_separate(a)) == [ex.xi(1)]
    assert _separate(e) is None
    P = _sym(e, 2.0, 2)
    _assert_direct(P, GridFunction.single_mode(2, 16, [2, -3]))
    _assert_direct(P, GridFunction.random_band_limited(
        2, 16, 3, np.random.default_rng(23)))


def test_factored_term_divided_by_an_x_factor_and_by_a_xi_factor():
    # a quotient by c(x) is a factor c^-1 of each x factor, one by h(xi)
    # a factor h^-1 of each xi factor; the two x factors of xi1 are one sum
    x1, x2, xi1, xi2 = ex.x(1), ex.x(2), ex.xi(1), ex.xi(2)
    num = ex.add(ex.mul(ex.cos(x1), xi1), ex.mul(ex.sin(x2), xi2),
                 ex.mul(ex.sin(x1), xi1))
    e = ex.add(ex.div(num, ex.Const(2.0) + ex.sin(x1)),
               ex.div(ex.mul(ex.cos(x2), xi1, xi2), ex.xi_norm(2)))
    assert list(_separate(e)) == [
        xi1, xi2, ex.div(ex.mul(xi1, xi2), ex.xi_norm(2))]
    P = _sym(e, 1.0, 2)
    _assert_direct(P, GridFunction.single_mode(2, 16, [2, -3]))
    _assert_direct(P, GridFunction.random_band_limited(
        2, 16, 3, np.random.default_rng(26)))


def test_term_that_does_not_factor_builds_no_pairs(monkeypatch):
    # 64 pairs in the first factors, then a factor that mixes x and xi
    e = ex.mul(_cosine_series(1, 8), _cosine_series(2, 8),
               ex.sqrt(ex.x(1) * ex.x(1) + ex.xi(1) * ex.xi(1)))
    built = []
    mul = ex.mul
    monkeypatch.setattr(ex, "mul", lambda *f: built.append(f) or mul(*f))
    assert _separate(e) is None
    assert not built


def test_product_groups_its_one_kind_factors_around_mixed_ones(monkeypatch):
    # x factor * xi factor * (mixed sum) * x factor * xi factor: the xi-only
    # factors are one xi factor and the x-only ones one x factor, so only
    # the mixed sum's two pairs are multiplied in
    x1, x2, xi1, xi2 = ex.x(1), ex.x(2), ex.xi(1), ex.xi(2)
    inv_norm = ex.pow_(ex.xi_norm_sq(2), -0.5)
    mixed = ex.add(ex.mul(ex.cos(x2), xi2), ex.mul(ex.sin(x1), xi1))
    e = ex.mul(ex.sin(x1), xi1, mixed, ex.cos(x2), inv_norm)
    assert [type(f) for f in e.factors] == [ex.Sin, ex.Var, ex.Add, ex.Cos,
                                            ex.Pow]
    built = []
    mul = ex.mul
    monkeypatch.setattr(ex, "mul", lambda *f: built.append(f) or mul(*f))
    sums = _separate(e)
    # two products per product node for its one-kind groups (the mixed
    # sum's two, e's one) and two per pair that the mixed sum multiplies in
    assert len(built) == 3 * 2 + 2 * 2
    monkeypatch.undo()
    c = ex.mul(ex.sin(x1), ex.cos(x2))
    assert sums == {ex.mul(xi1, inv_norm, xi2): ex.mul(c, ex.cos(x2)),
                    ex.mul(xi1, inv_norm, xi1): ex.mul(c, ex.sin(x1))}
    P = _sym(e, 1.0, 2)
    _assert_direct(P, GridFunction.single_mode(2, 16, [2, -3]))
    _assert_direct(P, GridFunction.random_band_limited(
        2, 16, 3, np.random.default_rng(28)))


def _shared_subtree():
    """A mixed sum holding a product of two mixed sums, and two terms
    that multiply it by an xi factor and by an x factor."""
    x1, x2, xi1, xi2 = ex.x(1), ex.x(2), ex.xi(1), ex.xi(2)
    shared = ex.add(
        ex.mul(ex.add(ex.mul(ex.cos(x1), xi1), ex.mul(ex.sin(x2), xi2)),
               ex.add(xi1, ex.mul(ex.cos(x2), xi2))),
        ex.mul(ex.sin(x1), xi2))
    return shared, [ex.mul(shared, xi1), ex.mul(shared, ex.cos(x2))]


def test_terms_sharing_a_subtree_split_it_once_with_one_table(monkeypatch):
    shared, terms = _shared_subtree()
    alone = [_separate(e) for e in terms]
    built = []
    mul = ex.mul
    monkeypatch.setattr(ex, "mul", lambda *f: built.append(f) or mul(*f))

    def counted(split):
        built.clear()
        return split(), len(built)

    shape, parts = {}, {}
    got, shared_count = counted(
        lambda: [_separate(e, shape, parts) for e in terms])
    assert got == alone
    _, each_count = counted(lambda: [_separate(e) for e in terms])
    _, subtree_count = counted(lambda: _separate(shared))
    assert subtree_count > 0
    assert shared_count == each_count - subtree_count


def test_term_that_does_not_factor_builds_no_pairs_with_shared_tables(
        monkeypatch):
    # the cosine series are counted and split for the first term; the
    # second multiplies them by a factor that mixes x and xi
    series = ex.mul(_cosine_series(1, 8), _cosine_series(2, 8))
    shape, parts = {}, {}
    assert len(_separate(ex.mul(series, ex.xi(2)), shape, parts)) == 1
    e = ex.mul(series, ex.sqrt(ex.x(1) * ex.x(1) + ex.xi(1) * ex.xi(1)))
    built = []
    mul = ex.mul
    monkeypatch.setattr(ex, "mul", lambda *f: built.append(f) or mul(*f))
    assert _separate(e, shape, parts) is None
    assert not built


def test_separable_terms_share_one_xi_one_x_and_one_k_zero_program(
        monkeypatch):
    # degrees 2 and 1 drop k = 0, degree 0 reads it: one xi program and
    # one x program for the three terms on the nonzero modes, and one
    # program of the degree-0 term at xi = e1 on k = 0
    x1, x2, xi1, xi2 = ex.x(1), ex.x(2), ex.xi(1), ex.xi(2)
    P = sy.ClassicalSymbol.from_terms([
        sy.HomogeneousTerm(ex.mul(ex.ONE + ex.mul(ex.Const(0.5),
                                                  ex.sin(x1)),
                                  ex.xi_norm_sq(2)), 2.0, 2),
        sy.HomogeneousTerm(ex.mul(ex.cos(x2), xi1), 1.0, 2),
        sy.HomogeneousTerm(ex.add(ex.mul(ex.cos(x2), xi2, ex.pow_(
            ex.xi_norm_sq(2), -0.5)), ex.sin(x1)), 0.0, 2)], 4)
    u = GridFunction.random_band_limited(2, 16, 4, np.random.default_rng(29))
    want = _direct_sum(P, u)
    programs = []
    program = ex.Program
    monkeypatch.setattr(ex, "Program",
                        lambda *a: programs.append(a) or program(*a))
    got = op_apply(P, u).values
    assert len(programs) == 3
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _composed_pair():
    """P Q of two differential symbols with x-dependent coefficients:
    every level of the composition factors."""
    x1, x2, xi1, xi2 = ex.x(1), ex.x(2), ex.xi(1), ex.xi(2)
    P = sy.ClassicalSymbol.from_terms([
        sy.HomogeneousTerm(_SEPARABLE, 2.0, 2),
        sy.HomogeneousTerm(ex.mul(ex.sin(x2), xi1), 1.0, 2)], 6)
    Q = sy.ClassicalSymbol.from_terms([
        sy.HomogeneousTerm(ex.mul(ex.cos(x1), xi2, xi2), 2.0, 2),
        sy.HomogeneousTerm(ex.Const(0.5) + ex.cos(x2), 0.0, 2)], 6)
    return ca.compose(P, Q)


def _every_route():
    return sy.ClassicalSymbol.from_terms(list(_ROUTES.values()), 4)


def _complex_xi_factors():
    """exp(ih) exp(h) (2 + sin x1) for h = (0.3+1.7i) xi1/|xi|: it factors,
    and its xi factor multiplies complex by complex."""
    h = ex.mul(ex.Const(0.3 + 1.7j), ex.xi(1), ex.pow_(ex.xi_norm_sq(2), -0.5))
    return _sym(ex.mul(ex.exp(ex.mul(ex.I, h)), ex.exp(h),
                       ex.Const(2.0) + ex.sin(ex.x(1))), 0.0, 2)


_REPEATS = {
    "separable": (_composed_pair, GridFunction.random_band_limited(
        2, 16, 4, np.random.default_rng(31))),
    "dense": (_parametrix_residual, GridFunction.random_band_limited(
        2, 16, 5, np.random.default_rng(25))),
    "k_zero": (_every_route, GridFunction.random_band_limited(
        2, 8, 3, np.random.default_rng(30))),
    "one_mode": (_complex_xi_factors, GridFunction.single_mode(2, 16,
                                                               [-6, 5])),
}


@pytest.mark.parametrize("route", _REPEATS)
def test_a_repeat_apply_returns_the_first_calls_bits(route):
    # the second call runs the plan of the first; a symbol built again is
    # another object, equal to the first, and finds the same plan
    symbol, u = _REPEATS[route]
    P = symbol()
    first = op_apply(P, u).values
    plan = quantize._PLANS[P][max(1, _SAMPLE_BUDGET // u.M ** 2)]
    assert (plan.dense is None) == (route in ("separable", "one_mode"))
    assert (not plan.chunks) == (route == "dense")
    assert np.array_equal(op_apply(P, u).values, first)
    again = symbol()
    assert again is not P and again == P
    assert np.array_equal(op_apply(again, u).values, first)
    if route == "k_zero":
        uhat = np.abs(np.fft.fftn(u.values))
        assert plan.deg0 and uhat[0, 0] > 1e-12 * uhat.max()
    if route == "one_mode":
        # one mode is one point of the xi program: its first call ran the
        # array loop, the repeats its point function
        (h, _), = plan.chunks
        assert callable(h._point)


def test_one_symbol_has_a_plan_per_group_size():
    # 64 modes per group at M = 16, 4 at M = 64
    P = _parametrix_residual()
    for M in (16, 64):
        u = GridFunction.random_band_limited(2, M, 2,
                                             np.random.default_rng(M))
        assert np.array_equal(op_apply(P, u).values,
                              _one_program_per_mode(P, u))
    assert sorted(quantize._PLANS[P]) == [4, 64]


def test_each_symbol_is_applied_by_its_own_plan():
    # two symbols of one dimension on one grid, each applied twice in turn
    u = GridFunction.random_band_limited(2, 16, 4, np.random.default_rng(32))
    P = _sym(_SEPARABLE, 2.0, 2)
    Q = _sym(ex.mul(ex.cos(ex.x(1)), ex.xi(2)), 1.0, 2)
    for _ in range(2):
        for S in (P, Q):
            _assert_direct(S, u)


def test_a_repeat_apply_compiles_nothing_and_a_plan_dies_with_its_symbol(
        monkeypatch):
    inits = []
    init = ex.Program.__init__
    monkeypatch.setattr(ex.Program, "__init__",
                        lambda self, *a: inits.append(a) or init(self, *a))
    # a symbol no other test builds: its degree-0 program, one chunk's xi
    # and x programs and the dense terms' program
    P = _every_route().scale(0.75)
    u = GridFunction.random_band_limited(2, 8, 3, np.random.default_rng(33))
    counts = []
    for S in (P, P, _every_route().scale(0.75)):
        inits.clear()
        op_apply(S, u)
        counts.append(len(inits))
    assert counts == [4, 0, 0]
    plan = quantize._PLANS[P][_SAMPLE_BUDGET // 8 ** 2]
    gone = [weakref.ref(P), weakref.ref(plan.dense)]
    del P, S, plan
    gc.collect()
    assert [r() for r in gone] == [None, None]


def test_sobolev_norm_single_mode():
    u = GridFunction.single_mode(2, 32, [3, 4])
    assert sobolev_norm(u, 1.0) == pytest.approx(np.sqrt(26.0))
    assert sobolev_norm(u, 0.0) == pytest.approx(1.0)
    assert sobolev_norm(u, -2.0) == pytest.approx(1.0 / 26.0)


def test_sobolev_norm_parseval():
    rng = np.random.default_rng(9)
    u = GridFunction.random_band_limited(1, 64, 10, rng)
    assert sobolev_norm(u, 0.0) == pytest.approx(u.l2_norm(), rel=1e-12)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
def test_sobolev_norm_rejects_an_order_that_is_not_finite(s):
    # nan gave nan and inf gave inf
    u = GridFunction.random_band_limited(2, 8, 3)
    with pytest.raises(ValidationError, match="must be finite"):
        sobolev_norm(u, s)


def test_sobolev_norm_that_overflows_raises_without_a_warning():
    # 33^400 overflows float64 at the corner modes of an 8-point grid; a
    # constant grid's other coefficients are exact zeros, which add nothing
    u = GridFunction.random_band_limited(2, 8, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="overflows"):
            sobolev_norm(u, 400.0)
        assert sobolev_norm(GridFunction(2, 8, np.ones(64)), 400.0) == 1.0


def test_spectrum_round_trip():
    rng = np.random.default_rng(2)
    u = GridFunction.random_band_limited(2, 16, 5, rng)
    back = np.fft.ifftn(u.spectrum()) * 16 ** 2
    assert np.allclose(back, u.values, atol=1e-12)


def test_spectrum_coefficient_indexing():
    sp = GridFunction.single_mode(1, 16, [3]).spectrum()
    assert sp.shape == (16,)
    assert sp[3] == pytest.approx(1.0)
    assert abs(sp[2]) < 1e-12
    # fft order: mode k - 16 is stored at index k
    assert sp[3 - 16] == pytest.approx(1.0)


def test_spectrum_shift_and_power():
    sp = GridFunction.single_mode(1, 16, [2]).spectrum()
    # fftshift puts mode k at position k + M/2
    assert np.fft.fftshift(sp)[2 + 8] == pytest.approx(1.0)
    assert np.sum(np.abs(sp) ** 2) == pytest.approx(1.0)


def test_gridfunction_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    u = GridFunction.random_band_limited(2, 8, 3, rng)
    path = tmp_path / "u.csv"
    u.write_csv(path)
    v = GridFunction.read_csv(path)
    assert v.dimension == 2 and v.M == 8
    assert np.allclose(v.values, u.values, atol=1e-12)


def test_grids_and_forms_are_written_in_one_lattice_format(tmp_path):
    # one row per lattice entry: its index (a form's basis index first),
    # then the real and imaginary parts; csv rows end in CRLF
    from psido.hodge import FormField
    GridFunction(1, 2, [1 + 0.5j, -0.25]).write_csv(tmp_path / "u.csv")
    assert (tmp_path / "u.csv").read_bytes() == (
        b"# gridfunction n=1 M=2\n0,1.0,0.5\r\n1,-0.25,0.0\r\n")
    FormField(1, 1, 2, {(1,): [0.5 - 1j, 2.0]}).write_csv(tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == (
        b"# formfield n=1 j=1 M=2 alphas=1\n"
        b"0,0,0.5,-1.0\r\n0,1,2.0,0.0\r\n")


def test_gridfunction_rejects_zero_points_per_axis():
    # 0 & -1 is 0, so a power-of-two test alone lets M = 0 through
    with pytest.raises(GridMismatch):
        GridFunction(1, 0, np.zeros(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_gridfunction_rejects_samples_that_are_not_finite(bad):
    # a NaN sample made every mode inactive: op_apply returned zeros
    values = np.ones(16, dtype=complex)
    values[5] = bad
    with pytest.raises(ValidationError, match="finite"):
        GridFunction(1, 16, values)


def test_gridfunction_rejects_values_of_the_wrong_size():
    with pytest.raises(GridMismatch, match="10 values"):
        GridFunction(2, 16, np.zeros(10))


def test_csv_readers_reject_negative_points_per_axis(tmp_path):
    # the header is checked before the reader allocates the grid
    from psido.hodge import FormField
    grid = tmp_path / "u.csv"
    grid.write_text("# gridfunction n=1 M=-4\n0,1.0,0.0\n")
    form = tmp_path / "w.csv"
    form.write_text("# formfield n=2 j=1 M=-4\n0,0,0,1.0,0.0\n")
    with pytest.raises(GridMismatch):
        GridFunction.read_csv(grid)
    with pytest.raises(GridMismatch):
        FormField.read_csv(form)
    with pytest.raises(GridMismatch):
        FormField(2, 1, 0, {})


@pytest.mark.parametrize("header, rows, message", [
    # two rows for entry 0 read as [2, 0, 0, 0], with no error
    ("gridfunction n=1 M=4", "0,1.0,0.0\n0,2.0,0.0\n",
     r"grid CSV entry \(0,\) is given twice"),
    ("gridfunction n=1 M=4", "0,1.0,0.0\n1,2.0,0.0\n3,1.0,0.0\n",
     r"grid CSV entry \(2,\) is missing"),
    ("formfield n=1 j=1 M=2", "0,0,1.0,0.0\n",
     r"form CSV entry \(0, 1\) is missing"),
    ("formfield n=1 j=1 M=2", "0,0,1.0,0.0\n0,1,1.0,0.0\n0,0,1.0,0.0\n",
     r"form CSV entry \(0, 0\) is given twice"),
])
def test_csv_readers_need_every_entry_exactly_once(tmp_path, header, rows,
                                                   message):
    from psido.hodge import FormField
    path = tmp_path / "u.csv"
    path.write_text(f"# {header}\n{rows}")
    cls = GridFunction if header.startswith("grid") else FormField
    with pytest.raises(GridMismatch, match=message):
        cls.read_csv(path)


def test_adjoint_duality():
    # <P u, v> = <u, P* v> in the unweighted L^2 pairing
    from psido.calculus import adjoint
    rng = np.random.default_rng(12)
    P = _sym(ex.mul(ex.Const(1 + 0.5j), ex.sin(ex.x(1)), ex.xi(1)), 1.0, 1)
    u = GridFunction.random_band_limited(1, 64, 8, rng)
    v = GridFunction.random_band_limited(1, 64, 8, rng)
    h = (2 * np.pi / 64)
    lhs = np.vdot(v.values, op_apply(P, u).values) * h
    rhs = np.vdot(op_apply(adjoint(P), v).values, u.values) * h
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_oscint_constant_amplitude():
    # amplitude 1 integrates the inverse transform back: 2 pi psi(0)
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), ex.x(1), ex.x(1))))
    val = oscint_eval(ex.ONE, psi, method="both")
    assert val == pytest.approx(2.0 * np.pi, abs=1e-4)


def test_oscint_methods_agree():
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), ex.x(1), ex.x(1))))
    a = ex.div(ex.ONE, ex.ONE + ex.mul(ex.xi(1), ex.xi(1)))
    va = oscint_eval(a, psi, method="epsilon-cutoff")
    vb = oscint_eval(a, psi, method="parts")
    assert va == pytest.approx(vb, abs=1e-4)


@pytest.mark.parametrize("w", [2.0, 3.0])
def test_oscint_closed_forms_of_centred_gaussians(w):
    # psi = exp(-w x^2): amplitude 1 gives 2 pi psi(0) = 2 pi, amplitude
    # |theta| gives int |theta| sqrt(pi/w) exp(-theta^2/4w) = 4 sqrt(pi w),
    # and theta^2 gives -2 pi psi''(0) = 4 pi w
    psi = ex.exp(ex.neg(ex.mul(ex.Const(w), ex.x(1), ex.x(1))))
    for a, want in ((ex.ONE, 2.0 * np.pi),
                    (ex.xi_norm(1), 4.0 * np.sqrt(np.pi * w)),
                    (ex.mul(ex.xi(1), ex.xi(1)), 4.0 * np.pi * w)):
        for method in ("epsilon-cutoff", "parts"):
            v = oscint_eval(a, psi, method)
            assert abs(v - want) <= 1e-8 * want, (method, v, want)


def test_oscint_of_a_quartic_amplitude_matches_its_closed_form():
    # theta^4 on psi = exp(-2 x^2) gives 2 pi psi^(4)(0) = 2 pi 48.  parts
    # takes six theta derivatives of sigma = theta^8 / (1 + theta^8), whose
    # denominators overflowed as (1 + theta^8)^64 under the quotient rule
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), ex.x(1), ex.x(1))))
    want = 2.0 * np.pi * 48.0
    for method in ("epsilon-cutoff", "parts"):
        v = oscint_eval(ex.pow_(ex.xi(1), 4), psi, method)
        assert abs(v - want) <= 1e-6 * want, (method, v, want)


def test_panel_transform_matches_the_direct_transform():
    # the phase factored at the panel centre against e^{i theta x} built
    # whole, floor snap included: decaying columns snap to exact zeros
    # in the tail, the random one never does
    rng = np.random.default_rng(3)
    x = _PSI_NODES
    W = _PSI_WEIGHTS[:, None] * np.stack(
        [np.exp(-2.0 * x * x), x * np.exp(-3.0 * (x - 0.3) ** 2),
         rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)],
        axis=1)
    scale = np.sum(np.abs(W), axis=0)
    transform = _panel_transform(W)
    mids = np.array([0.5, -0.5, 3.5, -100.5, 255.5, 511.5, -511.5])
    # one block of all seven panels, and blocks of one panel each
    blocks = [transform(mids)]
    blocks.append(np.concatenate([transform(mids[i:i + 1])
                                  for i in range(mids.size)], axis=1))
    for got in blocks:
        assert got.shape == (3, mids.size, 16)
        snapped = 0
        for i, mid in enumerate(mids):
            theta = mid + 0.5 * np.polynomial.legendre.leggauss(16)[0]
            want = (np.exp(1j * np.outer(theta, x)) @ W).T
            want[np.abs(want) < 1e-9 * np.maximum(1.0, scale)[:, None]] = 0.0
            assert np.all((got[:, i] == 0) == (want == 0))
            assert np.all(np.abs(got[:, i] - want)
                          <= 1e-12 * scale[:, None])
            snapped += int(np.count_nonzero(got[:, i] == 0))
            assert np.all(got[2, i] != 0)
        assert snapped > 0


def test_epsilon_sweep_equals_one_scalar_sweep_per_epsilon():
    # chi(eps theta) vanishes beyond 2/eps and the vector sweep runs on
    # until every component is quiet, so each component of the one sweep
    # to 2/eps_min is its own scalar sweep to 2/eps, bit for bit.  The
    # bump's transform snaps to zero early, so its sweeps end quiet; |x|
    # jumps at +-pi, so its transform never does and each eps differs
    x1 = ex.x(1)
    xrow = _PSI_NODES.reshape(1, -1)
    eps = 2.0 ** -np.arange(4.0, 11.0)
    for psi, distinct in (
            (ex.exp(ex.neg(ex.mul(ex.Const(3.0), x1 - 0.3, x1 - 0.3))), 1),
            (ex.sqrt(ex.mul(x1, x1)), 7)):
        transform = _panel_transform(
            (_PSI_WEIGHTS * psi.ev(xrow, np.zeros_like(xrow)))[:, None])
        # one transform per block of panels, shared by all the sweeps
        # below: every 2/eps is a whole number of blocks
        block_hat = functools.lru_cache(None)(
            lambda key: transform(np.frombuffer(key))[0])
        for amp in (ex.ONE, ex.xi_norm(1)):
            prog = ex.Program([amp])

            def integrand(eps):
                def f(th, mids):
                    return (prog(np.zeros((1, 1)), th[None])[0]
                            * _cutoff_profile(eps * th)
                            * block_hat(mids.tobytes()))
                return f

            got = _outward_theta_quad(integrand(eps[:, None, None]),
                                      2.0 / eps[-1])
            want = [_outward_theta_quad(integrand(e), 2.0 / e) for e in eps]
            assert got.shape == (7,)
            assert got.tolist() == want
            assert len(set(want)) == distinct


def test_oscint_closed_form_where_the_epsilon_values_differ():
    # psi = (pi^2 - x^2)^2 has a jump in psi'' at the support edge, so its
    # transform decays like theta^-3 and stays above the snap floor: the
    # seven epsilon values differ, their last two differences shrink and
    # the Richardson step runs.  Amplitude 1 gives 2 pi psi(0) = 2 pi^5
    x1 = ex.x(1)
    psi = ex.pow_(ex.Const(np.pi ** 2) - x1 * x1, 2)
    want = 2.0 * np.pi ** 5
    got = {m: oscint_eval(ex.ONE, psi, m) for m in ("epsilon-cutoff", "parts")}
    for method, v in got.items():
        assert abs(v - want) <= 1e-8 * want, (method, v, want)
    xrow = _PSI_NODES.reshape(1, -1)
    transform = _panel_transform(
        (_PSI_WEIGHTS * psi.ev(xrow, np.zeros_like(xrow)))[:, None])
    eps = 2.0 ** -np.arange(4.0, 11.0)[:, None, None]
    vals = _outward_theta_quad(
        lambda th, mids: _cutoff_profile(eps * th) * transform(mids)[0],
        2.0 / eps[-1, 0, 0])
    assert len(set(vals.tolist())) == 7
    diffs = np.abs(np.diff(vals))
    r = diffs[-1] / diffs[-2]
    assert 0 < r < 0.9
    # the step moves the value by about 1e-12 relative
    richardson = vals[-1] + (vals[-1] - vals[-2]) * r / (1.0 - r)
    assert abs(got["epsilon-cutoff"] - richardson) <= 1e-14 * want


def _pairwise_sweep(f, theta_max):
    """The outward theta sweep one pair of panels at a time, each pair
    added and checked for quiet as it is met, written out as a reference
    for the block sweep.  Returns the integral and the pairs swept."""
    half = 0.5 * quantize._PANEL_WIDTH
    total, quiet, a, pairs = 0.0, 0, 0.0, 0
    while a < theta_max:
        mids = np.array([a + half, -a - half])
        v = half * np.sum(quantize._GL_WEIGHTS * f(
            mids[:, None] + half * quantize._GL_NODES, mids), axis=-1)
        c = v[..., 0] + v[..., 1]
        total = total + c
        pairs += 1
        if a > 8.0 and np.all(
                np.abs(c) < 1e-9 * np.maximum(1.0, np.abs(total))):
            quiet += 1
            if quiet >= quantize._QUIET_PANELS:
                break
        else:
            quiet = 0
        a += quantize._PANEL_WIDTH
    return total, pairs


def _stepped(loud):
    """An integrand of one component per entry of loud: smooth in theta,
    not even, and on the panels with |mid| > loud[i] about 1e-11 of its
    size, so quiet there yet still read into the value."""
    loud = np.asarray(loud, dtype=float)[:, None, None]

    def f(th, mids):
        size = np.where(np.abs(mids)[:, None] < loud, 1.0, 1e-11 * np.abs(th))
        return (1.0 + 0.3 * np.sin(th) + 0.1j * th) * size
    return f


@pytest.mark.parametrize("loud, theta_max, pairs", [
    ([10.0], 512.0, 13),            # stop on the first pair of a block
    ([11.0], 512.0, 14),            # a middle pair, quiet across the edge
    ([13.0], 512.0, 16),            # the last pair of a block
    ([9.0, 14.0, 12.0], 512.0, 17),     # the last component to go quiet
    ([100.0], 10.0, 10),            # no stop, 2.5 blocks
    ([11.0], 14.0, 14),             # a stop in a partial last block
])
def test_block_sweep_equals_the_pairwise_sweep(loud, theta_max, pairs):
    # pairs a = 0, 1, ... of width 1: a pair is quiet from a = loud on
    # (and a > 8), so the third quiet pair in a row, a = loud + 2, stops
    # the sweep.  Blocks hold 4 pairs, so the stops above fall on each
    # place in a block.  A quiet pair still moves the value by about 1e-11
    # relative, so a stop one pair off, or a pair's panel dropped, is far
    # past the 1e-14 allowed
    f = _stepped(loud)
    want, swept = _pairwise_sweep(f, theta_max)
    assert swept == pairs
    got = _outward_theta_quad(f, theta_max)
    assert got.shape == want.shape == (len(loud),)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("method", ["epsilon-cutoff", "parts"])
def test_a_sweep_calls_its_theta_program_once_per_block(monkeypatch, method):
    # a block holds _SAMPLE_BUDGET // _PSI_NODES.size = 8 panels, 4 pairs:
    # the theta program (the amplitude's for the cutoff) runs once per
    # block, ceil(pairs swept / 4) times, not once per panel
    assert _SAMPLE_BUDGET // _PSI_NODES.size == 8
    calls = []
    program_call = ex.Program.__call__

    def counted(self, x, xi):
        calls.append(xi.shape)
        return program_call(self, x, xi)

    monkeypatch.setattr(ex.Program, "__call__", counted)
    seen = {}

    def sweep(f, theta_max):
        n = len(calls)
        value = _outward_theta_quad(f, theta_max)
        seen["blocks"] = calls[n:]
        seen["pairs"] = _pairwise_sweep(f, theta_max)[1]
        return value

    monkeypatch.setattr(quantize, "_outward_theta_quad", sweep)
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), ex.x(1), ex.x(1))))
    oscint_eval(ex.xi_norm(1), psi, method)
    assert 8 < seen["pairs"] < 512
    assert len(seen["blocks"]) == -(-seen["pairs"] // 4)
    assert set(seen["blocks"]) == {(1, 8, 16)}


def test_oscint_rejects_a_method_or_tolerance_before_any_work():
    # None in place of a and psi: any work would raise something else
    with pytest.raises(ValueError, match="unknown oscint method 'bogus'"):
        oscint_eval(None, None, "bogus")
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        for method in ("both", "epsilon-cutoff", "parts"):
            with pytest.raises(ValueError, match="finite and positive"):
                oscint_eval(None, None, method, tol)


@pytest.mark.parametrize("method", ["both", "epsilon-cutoff", "parts"])
def test_oscint_rejects_an_amplitude_that_is_not_a_symbol(method):
    # exp(theta)'s growth order reads 92 from theta = 64 to 128 and 185
    # from 128 to 256: parts would expand 94 steps of M^t and the cutoff
    # sweep overflow.  exp(-theta) grows so at negative theta, and
    # exp(theta^2) is not finite at 256
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), ex.x(1), ex.x(1))))
    t = ex.xi(1)
    for a in (ex.exp(t), ex.exp(ex.neg(t)), ex.exp(t * t)):
        with pytest.raises(ValidationError, match="is not a symbol"):
            oscint_eval(a, psi, method)


@pytest.mark.parametrize("method", ["both", "epsilon-cutoff", "parts"])
def test_oscint_rejects_a_variable_of_the_wrong_kind(monkeypatch, method):
    # the amplitude is read at x = 0 and psi at theta = 0, so x1 * xi1
    # integrated as 0 and a psi of xi1 as a constant; both raise before
    # any sweep
    monkeypatch.setattr(quantize, "_outward_theta_quad", None)
    x1, t = ex.x(1), ex.xi(1)
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), x1, x1)))
    for a, b, named in ((x1 * t, psi, "amplitude"),
                        (ex.ONE, ex.cos(t) * psi, "test function")):
        with pytest.raises(ValidationError, match=f"^{named} .* reads an? "):
            oscint_eval(a, b, method)


def test_circle_index_rejects_a_symbol_that_reads_xi():
    # a+ = 2 + xi1 was read at xi = 0, as the constant 2, and gave index 0
    x1, t = ex.x(1), ex.xi(1)
    good = ex.Const(2.0) + ex.cos(x1)
    for ap, am in ((ex.Const(2.0) + t, good), (good, good * ex.xi_norm(1))):
        with pytest.raises(ValidationError, match="reads a xi variable"):
            circle_index(ap, am)


@pytest.mark.parametrize("method", ["both", "parts"])
@pytest.mark.parametrize("m", [7, 8])
def test_parts_rejects_an_order_its_excision_cannot_absorb(monkeypatch,
                                                          method, m):
    # parts integrates floor(m) + 2 times against theta^8 / (1 + theta^8),
    # so from m = 7 on its integrand is not integrable at theta = 0: xi1^8
    # gave 168 807 for 2 pi 26 880 = 168 892 after minutes; it raises
    # before the epsilon-cutoff or the expansion runs
    monkeypatch.setattr(quantize, "_outward_theta_quad", None)
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), ex.x(1), ex.x(1))))
    with pytest.raises(ValidationError, match=f"by parts {m + 2} times"):
        oscint_eval(ex.pow_(ex.xi(1), m), psi, method)


@pytest.mark.parametrize("method", ["both", "epsilon-cutoff", "parts"])
def test_oscint_raises_when_a_value_is_not_finite(monkeypatch, method):
    # "both" averaged a NaN pair: abs(ve - vp) > bound is False for NaN
    def nan_quad(f, theta_max):
        # NaN in the shape of f's leading axes, which one panel shows
        return np.full(f(quantize._GL_NODES[None], np.zeros(1)).shape[:-2],
                       np.nan)

    monkeypatch.setattr(quantize, "_outward_theta_quad", nan_quad)
    psi = ex.exp(ex.neg(ex.mul(ex.Const(2.0), ex.x(1), ex.x(1))))
    with pytest.raises(NonConvergent, match="not finite"):
        oscint_eval(ex.ONE, psi, method)


def test_the_order_estimate_reads_symbols_and_passes_rapid_decay():
    t = ex.xi(1)
    assert _estimate_order(ex.ONE) == 0.0
    assert _estimate_order(ex.xi_norm(1)) == 1.0
    assert _estimate_order(ex.ONE + t * t) == pytest.approx(2.0, abs=1e-3)
    assert _estimate_order(ex.ONE / (ex.ONE + t * t)) == pytest.approx(
        -2.0, abs=1e-3)
    # order -infinity: its order falls with each doubling, and parts
    # needs no integration by parts for it
    assert _estimate_order(ex.exp(-(t * t) / 100)) < -100


@pytest.mark.parametrize("K", [0, -5])
def test_circle_index_rejects_a_truncation_below_one(K):
    with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
        circle_index(ex.Const(2.0) + ex.cos(ex.x(1)),
                     ex.Const(2.0) + ex.sin(ex.x(1)), K=K)


def test_circle_index_winding_one():
    rep = circle_index(ex.ONE, ex.exp(ex.mul(ex.I, ex.x(1))))
    assert rep.winding_plus == 0
    assert rep.winding_minus == 1
    assert rep.numerical_index == 1
    assert len(rep.near_zero_singular_values) == 1


def test_circle_index_trivial():
    rep = circle_index(ex.ONE + ex.mul(ex.Const(0.25), ex.sin(ex.x(1))),
                       ex.Const(2.0))
    assert rep.winding_plus == 0
    assert rep.winding_minus == 0
    assert rep.numerical_index == 0
    assert len(rep.near_zero_singular_values) == 0


def test_circle_index_negative():
    rep = circle_index(ex.exp(ex.mul(ex.Const(2j), ex.x(1))), ex.ONE)
    assert rep.numerical_index == -2


def test_circle_index_rejects_vanishing_symbol():
    with pytest.raises(SymbolVanishes):
        circle_index(ex.cos(ex.x(1)), ex.ONE)


# windings -2 and 1, so the index is 3, which the truncation at K <= 32
# misses (it reads 0 at K = 16 and 24, where K + 8 agrees)
_SLOW_PAIR = (
    ex.mul(ex.exp(ex.mul(ex.Const(-2j), ex.x(1))),
           ex.ONE + ex.mul(ex.Const(0.319), ex.cos(3 * ex.x(1) + 4.030))),
    ex.mul(ex.exp(ex.mul(ex.I, ex.x(1))),
           ex.ONE + ex.mul(ex.Const(0.376), ex.cos(3 * ex.x(1) + 0.136))))


@pytest.mark.parametrize("K, at_K_plus_8", [(16, 0), (24, 0), (32, 3)])
def test_circle_index_short_of_the_winding_index_is_unstable(K, at_K_plus_8):
    with pytest.raises(Unstable, match=(
            rf"matrix index 0 at K={K}, {at_K_plus_8} at K={K + 8}, "
            r"winding_minus - winding_plus = 1 - \(-2\)")):
        circle_index(*_SLOW_PAIR, K=K)


def test_circle_index_of_a_slowly_converging_pair():
    rep = circle_index(*_SLOW_PAIR, K=40)
    assert (rep.winding_plus, rep.winding_minus) == (-2, 1)
    assert rep.numerical_index == 3
