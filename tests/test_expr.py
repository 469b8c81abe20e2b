import copy
import gc
import operator
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psido import expr as ex
from psido.errors import DomainError
from psido.parser import parse_expr
from psido.symbols import sample_points


def _fold(binary, values):
    """Fold sums and products left and out of place, the arithmetic
    `Program` documents: numpy rounds `a *= b` on a length-1 batch apart
    from a longer one, but `a * b` alike on both."""
    out = values[0]
    for v in values[1:]:
        out = binary(out, v)
    return out


def _reference(e, x, xi, memo=None, jitter=None):
    """Plain recursion over the node kinds, kept apart from the program
    evaluator as the reference it must reproduce; memoized by identity
    only so that shared subtrees stay cheap.  Given a random generator
    `jitter`, it scales each node's value at each sample by 1 + u, u drawn
    from [-1e-10, 1e-10]: a model of rounding that shows how much the tree
    amplifies it at x, xi."""
    memo = {} if memo is None else memo
    if id(e) in memo:
        return memo[id(e)]

    def rec(c):
        return _reference(c, x, xi, memo, jitter)

    if isinstance(e, ex.Const):
        out = np.full(x.shape[1], e.value, dtype=complex)
    elif isinstance(e, ex.Var):
        out = (x if e.kind == "x" else xi)[e.j - 1].astype(complex)
    elif isinstance(e, ex.Add):
        out = _fold(operator.add, [rec(t) for t in e.terms])
    elif isinstance(e, ex.Mul):
        out = _fold(operator.mul, [rec(f) for f in e.factors])
    elif isinstance(e, ex.Pow):
        b, p = rec(e.base), e.expo
        if p == int(p):
            if p < 0 and np.any(np.abs(b) < 1e-14):
                raise DomainError("vanishing base")
            out = b ** int(p)
        else:
            scale = np.maximum(1.0, np.abs(b))
            if np.any(np.abs(b.imag) > 1e-9 * scale):
                raise DomainError("non-real base")
            if np.any(b.real < -1e-12 * scale):
                raise DomainError("negative base")
            br = np.maximum(b.real, 0.0)
            if p < 0 and np.any(br < 1e-14):
                raise DomainError("vanishing base")
            out = (br ** p).astype(complex)
    else:
        out = {ex.Sin: np.sin, ex.Cos: np.cos, ex.Exp: np.exp}[type(e)](
            rec(e.arg))
    if jitter is not None:
        out = out * (1.0 + jitter.uniform(-1e-10, 1e-10, out.shape))
    memo[id(e)] = out
    return out


def test_polynomial_evaluation():
    e = ex.add(ex.mul(ex.xi(1), ex.xi(1)), ex.mul(ex.xi(2), ex.xi(2)))
    assert ex.evaluate(e, [0.0, 0.0, 3.0, 4.0]) == 25.0


def test_singular_quotient_raises():
    e = ex.div(ex.ONE, ex.xi_norm_sq(2))
    with pytest.raises(DomainError):
        ex.evaluate(e, [0.0, 0.0, 0.0, 0.0])


def test_sums_and_products_fold_constants_in_the_order_met():
    # a spliced child's constant is folded where its sum or product is
    # met, not after the top-level constants: (1 + 1) + 1e16 is exact,
    # (1 + 1e16) + 1 loses both ones; (3 * 0.1) * 0.7 and (0.1 * 0.7) * 3
    # round apart
    s = ex.add(ex.add(ex.x(1), 1.0), ex.Const(1.0), ex.Const(1e16))
    assert s is ex.Add([ex.x(1), ex.Const((1.0 + 1.0) + 1e16)])
    assert s.terms[1].value != 1e16
    p = ex.mul(ex.mul(ex.x(1), 3.0), ex.Const(0.1), ex.Const(0.7))
    assert p is ex.Mul([ex.x(1), ex.Const((3.0 * 0.1) * 0.7)])
    assert p.factors[1].value != (0.1 * 0.7) * 3.0
    # the neutral and the absorbing constant, also when spliced in
    assert ex.add(ex.add(ex.x(1), 2.0), ex.Const(-2.0)) is ex.x(1)
    assert ex.mul(ex.mul(ex.x(1), 0.5), ex.Const(2.0)) is ex.x(1)
    assert ex.mul(ex.mul(ex.x(1), 2.0), ex.ZERO, ex.x(2)) is ex.ZERO
    assert ex.add() is ex.ZERO and ex.mul() is ex.ONE


def test_complex_constant():
    e = ex.mul(ex.I, ex.xi(1))
    assert ex.evaluate(e, [0.0, 2.0]) == 2.0j


def test_fractional_power_of_negative_base_raises():
    e = ex.pow_(ex.x(1), 0.5)
    with pytest.raises(DomainError):
        ex.evaluate(e, [-1.0, 0.0])


def test_fractional_power_verdict_does_not_depend_on_the_batch():
    e = ex.sqrt(ex.x(1))
    for x1 in ([-1e-9], [-1e-9, 1e4]):
        x = np.array([x1])
        with pytest.raises(DomainError):
            e.ev(x, np.zeros_like(x))


def test_sqrt_of_square_is_absolute_value():
    e = ex.sqrt(ex.pow_(ex.xi(1), 2))
    assert ex.evaluate(e, [0.0, -2.0]) == 2.0


def test_square_of_sqrt_keeps_its_domain():
    e = ex.pow_(ex.sqrt(ex.x(1)), 2)
    with pytest.raises(DomainError):
        ex.evaluate(e, [-1.0, 0.0])


def test_nested_powers_fold_only_where_both_forms_agree():
    a = ex.x(1)
    for p, q, folded in ((2, 3, 6.0), (0.5, 0.5, 0.25), (1.5, -1, -1.5)):
        e = ex.pow_(ex.pow_(a, p), q)
        assert e.base is a and e.expo == folded
    for p, q in ((2, 0.5), (0.5, 2), (-1, -1), (2, -1)):
        assert ex.pow_(ex.pow_(a, p), q).base.base is a


def test_derivatives_stay_in_node_set():
    # one of each node kind; differentiating twice must neither fail nor
    # leave the evaluable node set
    base = ex.add(
        ex.mul(ex.Const(2 + 1j), ex.sin(ex.x(1)), ex.xi(1)),
        ex.div(ex.cos(ex.x(1)), ex.ONE + ex.mul(ex.xi(1), ex.xi(1))),
        ex.exp(ex.neg(ex.mul(ex.x(1), ex.x(1)))),
        ex.sqrt(ex.ONE + ex.mul(ex.x(1), ex.x(1))),
        ex.pow_(ex.ONE + ex.mul(ex.xi(1), ex.xi(1)), 1.5),
    )
    d = base.diff("x", 1).diff("xi", 1)
    v = ex.evaluate(d, [0.3, 0.7])
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_evaluation_is_deterministic():
    e = ex.sqrt(ex.ONE + ex.mul(ex.sin(ex.x(1)), ex.sin(ex.x(1)),
                                ex.xi_norm_sq(2)))
    pt = [0.37, 1.21, 0.5, -1.25]
    assert ex.evaluate(e, pt) == ex.evaluate(e, pt)


def test_ev_cached_matches_plain_ev():
    rng = np.random.default_rng(7)
    e = ex.mul(ex.add(ex.ONE, ex.mul(ex.Const(0.5), ex.sin(ex.x(1)))),
               ex.xi_norm_sq(2))
    for _ in range(4):
        e = e.diff("x", 1)
    x = rng.uniform(0, 2 * np.pi, size=(2, 50))
    xi = rng.uniform(-3, 3, size=(2, 50))
    ref = _reference(e, x, xi)
    assert np.allclose(ex.ev_cached(e, x, xi), ref, rtol=0, atol=1e-12)
    assert np.allclose(e.ev(x, xi), ref, rtol=0, atol=1e-12)


def test_ev_cached_does_not_mutate_inputs():
    e = ex.add(ex.x(1), ex.x(1), ex.mul(ex.x(1), ex.xi(1)))
    x = np.linspace(0.0, 1.0, 8).reshape(1, -1)
    xi = np.ones_like(x)
    xc, xic = x.copy(), xi.copy()
    ex.ev_cached(e, x, xi)
    assert np.array_equal(x, xc) and np.array_equal(xi, xic)


def test_conj_and_render_round_trip():
    e = ex.mul(ex.Const(2 + 3j), ex.x(1), ex.xi_norm(2))
    c = e.conj()
    assert ex.evaluate(c, [0.5, 0.0, 3.0, 4.0]) == \
        np.conj(ex.evaluate(e, [0.5, 0.0, 3.0, 4.0]))
    assert isinstance(e.render(), str) and e.render()


def _nodes(e):
    """Distinct node objects reachable from e."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.args)
    return len(seen)


def _squaring_dag(leaf, unit):
    """12 levels of e <- e*(e + unit*xi1): each level reads the previous
    one twice, so the tree has 2^12 paths.  The DAG has 28 nodes: x1,
    xi1, the constant unit and unit*xi1, built once since nodes are
    interned, then a sum and a product per level."""
    e = leaf
    for _ in range(12):
        e = e * (e + unit * ex.xi(1))
    return e


def test_transforms_keep_the_sharing_of_a_dag():
    e = _squaring_dag(ex.x(1), 1j)
    assert _nodes(e) == 28
    calls = []
    ex._walk(e, lambda node, args: calls.append(node))
    assert len(calls) == 28
    c = e.conj()
    s = e.subst({("x", 1): ex.sin(ex.x(2))})
    assert _nodes(c) == 28 and _nodes(s) == 29
    rng = np.random.default_rng(5)
    x = np.vstack([rng.uniform(-0.5, 0.5, 20), rng.uniform(-0.3, 0.3, 20)])
    xi = rng.uniform(0.5, 1.5, (2, 20))
    np.testing.assert_array_equal(
        c.ev(x, xi), _squaring_dag(ex.x(1), -1j).ev(x, xi))
    np.testing.assert_array_equal(
        s.ev(x, xi), _squaring_dag(ex.sin(ex.x(2)), 1j).ev(x, xi))


def test_diff_of_a_dag_stays_linear_and_is_kept_on_the_node():
    e = _squaring_dag(ex.x(1), 1j)
    d = e.diff("x", 1)
    assert _nodes(d) <= 200     # the per-class recursion built 6 203
    assert e.diff("x", 1) is d


# constants that render in exponent notation come before the complex
# one, which the examples below take as _LEAVES[-1]
_LEAVES = (ex.x(1), ex.x(2), ex.xi(1), ex.xi(2), ex.ZERO, ex.Const(0.5),
           ex.Const(2.5e-07), ex.Const(1e16), ex.Const(-1.5 + 0.5j))
_EXPONENTS = (-3.0, -2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0, 4.0, 5.0)
_COORDS = (-2.0, -1.0, -0.25, -1e-9, 0.0, 0.5, 1.0, 2.5)


@st.composite
def _shared_dags(draw):
    """A random tree over every node kind and quotients, built bottom-up
    from a pool: children are drawn from the whole pool, so parents share
    subtrees.  A quotient is drawn through `ex.div`, which raises for the
    constant zero or a raw power of it as denominator.  Returns the last
    node, optionally differentiated, and one pool node."""
    pool = list(_LEAVES)
    for _ in range(draw(st.integers(1, 8))):
        pick = st.sampled_from(list(pool))
        kind = draw(st.sampled_from(
            (ex.Add, ex.Mul, ex.div, ex.Pow, ex.Sin, ex.Cos, ex.Exp)))
        if kind in (ex.Add, ex.Mul):
            node = kind(draw(st.lists(pick, min_size=2, max_size=3)))
        elif kind is ex.div:
            num, den = draw(pick), draw(pick)
            try:
                node = ex.div(num, den)
            except DomainError as err:
                assert den is ex.ZERO or "constant power 0^" in str(err)
                continue
        elif kind is ex.Pow:
            node = ex.Pow(draw(pick), draw(st.sampled_from(_EXPONENTS)))
        else:
            node = kind(draw(pick))
        pool.append(node)
    e = pool[-1]
    for kind, j in draw(st.lists(st.tuples(st.sampled_from(("x", "xi")),
                                           st.integers(1, 2)), max_size=2)):
        try:
            e = e.diff(kind, j)
        except DomainError:     # a raw power of the constant zero
            break
    return e, draw(st.sampled_from(pool))


@st.composite
def _samples(draw):
    """x, xi of shape (2, m); few points, so that a single bad point
    decides whether a domain check fires."""
    m = draw(st.integers(1, 4))
    coords = draw(st.lists(st.sampled_from(_COORDS), min_size=4 * m,
                           max_size=4 * m))
    pts = np.array(coords).reshape(4, m)
    return pts[:2], pts[2:]


def _outcome(fn):
    try:
        return fn()
    except DomainError:
        return DomainError


def _at(x1):
    return np.array([[x1], [1.0]]), np.ones((2, 1))


@settings(max_examples=200, deadline=None)
@given(_shared_dags(), _samples())
# the edges of the domain checks, which random draws rarely isolate
@example((ex.Pow(ex.x(1), 0.5), ex.x(1)), _at(-1e-9))
@example((ex.Pow(ex.x(1), 0.5), ex.x(1)), _at(-1e-13))
@example((ex.Pow(ex.x(1), -0.5), ex.x(1)), _at(0.0))
@example((ex.Pow(ex.x(1), -1.0), ex.x(1)), _at(1e-15))
@example((ex.Pow(ex.Add([ex.x(1), ex.Const(1e-10j)]), 0.5), ex.x(1)),
         _at(1.0))
@example((ex.Pow(ex.Add([ex.x(1), ex.Const(1e-8j)]), 0.5), ex.x(1)),
         _at(1.0))
@example((ex.div(ex.x(2), ex.x(1)), ex.x(1)), _at(1e-15))
# a large sample in the same batch must not excuse a negative base
@example((ex.Pow(ex.x(1), 0.5), ex.x(1)),
         (np.array([[-1e-9, 1e4], [1.0, 1.0]]), np.ones((2, 2))))
# a product on one sample, where numpy's a * b and a *= b round apart
@example((ex.Mul([_LEAVES[-1], ex.Cos(_LEAVES[-1])]), _LEAVES[-1]),
         (np.full((2, 1), -2.0), np.full((2, 1), -2.0)))
# real nodes run in float64, where exp and a ** -3 round apart from their
# complex forms at these samples, and a / c, which is a * c ** -1, apart
# from float64's a / c
@example((ex.Exp(ex.x(1)), ex.x(1)), _at(-1.986))
@example((ex.div(ex.x(1), ex.x(2)), ex.x(2)),
         (np.array([[0.7], [0.9]]), np.ones((2, 1))))
@example((ex.Pow(ex.x(1), -3.0), ex.x(1)), _at(1.3))
def test_program_matches_reference_recursion(dag, samples):
    e, shared = dag
    x, xi = samples
    with np.errstate(all="ignore"):
        want = [_outcome(lambda r=r: _reference(r, x, xi))
                for r in (e, shared)]
        got = _outcome(lambda: ex.Program([e, shared, e])(x, xi))
        single = _outcome(lambda: e.ev(x, xi))
    if any(w is DomainError for w in want):
        assert got is DomainError
    else:
        # a root that is also a child of another root keeps its own value
        for g, w in zip(got, want + want[:1]):
            np.testing.assert_array_equal(g, w)
    if want[0] is DomainError:
        assert single is DomainError
    else:
        np.testing.assert_array_equal(single, want[0])


@settings(max_examples=200, deadline=None)
@given(_shared_dags(), _samples())
def test_seeded_program_matches_a_fresh_one(dag, samples):
    e, shared = dag
    x, xi = samples
    values = {}
    with np.errstate(all="ignore"):
        if _outcome(lambda: ex.Program([shared], values)(x, xi)) \
                is DomainError:
            return
        seeds = {node: v.copy() for node, v in values.items()}
        want = _outcome(lambda: ex.Program([e, shared])(x, xi))
        got = _outcome(lambda: ex.Program([e, shared], values)(x, xi))
        # every array in the table, seeded or recorded, is its node's
        # value (a constant's is one sample, spread over the batch here)
        for node, v in values.items():
            np.testing.assert_array_equal(np.broadcast_to(v, x.shape[1:]),
                                          _reference(node, x, xi))
    if want is DomainError:
        assert got is DomainError
    else:
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    for node, v in seeds.items():
        np.testing.assert_array_equal(values[node], v)


@st.composite
def _grid_axes(draw):
    """x of shape (2, 1, P) and xi of shape (2, C, 1): the two axes of a
    product grid, P and C from 1 to 3."""
    p, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coords = draw(st.lists(st.sampled_from(_COORDS), min_size=2 * (p + c),
                           max_size=2 * (p + c)))
    return (np.array(coords[:2 * p]).reshape(2, 1, p),
            np.array(coords[2 * p:]).reshape(2, c, 1))


_C = _LEAVES[-1]


@settings(max_examples=200, deadline=None)
@given(_shared_dags(), _grid_axes())
# numpy rounds the complex product of a (1, 1) and a (1,) array apart
# from that of two (1,) arrays: here by 1 ulp of the real part
@example((ex.Mul([_C, ex.div(ex.x(1), ex.x(1)), _C]), ex.x(1)),
         (np.array([[[-1e-9]], [[1.0]]]), np.full((2, 1, 1), 0.5)))
def test_broadcast_samples_match_the_explicit_product_grid(dag, axes):
    x, xi = axes
    c, p = xi.shape[1], x.shape[2]
    roots = [*dag, ex.Const(0.5 - 2j), ex.Sin(ex.x(1))]
    # the same product set, every (direction, point) pair one column
    tiled = (np.tile(x[:, 0], c), np.repeat(xi[:, :, 0], p, axis=1))
    memo = {}
    with np.errstate(all="ignore"):
        got = _outcome(lambda: ex.Program(roots)(x, xi))
        want = _outcome(lambda: [_reference(e, *tiled, memo) for e in roots])
    if want is DomainError:
        assert got is DomainError
        return
    for e, g, w in zip(roots, got, want):
        assert g.shape == (c, p)
        # the layouts round apart by an ulp or so per node: compare where
        # the tree amplifies rounding at the samples by at most 100
        with np.errstate(all="ignore"):
            rough = _outcome(lambda: _reference(
                e, *tiled, jitter=np.random.default_rng(0)))
            if (rough is DomainError or not np.all(np.isfinite(w))
                    or np.max(np.abs(rough - w)) > 1e-8 * np.max(np.abs(w))):
                continue
        np.testing.assert_allclose(g, w.reshape(c, p), rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(w)))


@settings(max_examples=200, deadline=None)
@given(_shared_dags(), _samples())
# an in-place product on one sample rounds apart from one in a batch
@example((ex.Mul([_LEAVES[-1], ex.Cos(_LEAVES[-1])]), _LEAVES[-1]),
         (np.full((2, 2), -2.0), np.full((2, 2), -2.0)))
def test_a_point_has_the_same_value_alone_and_in_a_batch(dag, samples):
    x, xi = samples
    prog = ex.Program(list(dag))
    with np.errstate(all="ignore"):
        batch = _outcome(lambda: prog(x, xi))
        # each point twice: a program's first point call runs the array
        # loop, every later one its point function
        alone = [_outcome(lambda i=i: prog(x[:, i:i + 1], xi[:, i:i + 1]))
                 for i in range(x.shape[1]) for _ in range(2)]
    assert prog._point
    if batch is DomainError:
        assert any(point is DomainError for point in alone)
        return
    for i, point in enumerate(alone):
        assert point is not DomainError
        for b, v in zip(batch, point):
            np.testing.assert_array_equal(b[i // 2:i // 2 + 1], v)


def _at_points(prog, *points):
    """prog on the phase-space points (x1, x2, xi1, xi2) as one batch."""
    z = np.array(points, dtype=float).T
    return prog(z[:2], z[2:])


_Z = ex.x(1) + ex.I * ex.x(2)       # complex where x2 != 0


@pytest.mark.parametrize("e, bad, good, message", [
    (ex.sqrt(_Z), (1.0, 0.5, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0),
     "fractional power of non-real base"),
    (ex.sqrt(ex.x(1)), (-1.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0),
     "fractional power of negative base"),
    (ex.pow_(ex.x(1), -0.5), (0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0),
     "negative power of vanishing base"),
    (ex.pow_(ex.x(1), -1), (1e-15, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0),
     "negative power of vanishing base"),
    (ex.pow_(_Z, -2), (0.0, 1e-15, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0),
     "negative power of vanishing base"),
])
def test_a_domain_error_is_the_same_on_a_point_and_in_a_batch(
        e, bad, good, message):
    prog = ex.Program([e])
    errors = []
    # the bad point alone twice: on the array loop, then on the point
    # function
    for points in ((bad,), (bad,), (good, bad)):
        with pytest.raises(DomainError) as err:
            _at_points(prog, *points)
        errors.append((err.type, str(err.value)))
    assert prog._point
    assert errors[0] == errors[1] == errors[2]
    assert errors[0][1] == f"{message} {e.base.render()}"
    _at_points(prog, good)


def test_a_complex_modulus_at_the_threshold_gets_one_verdict():
    # |z| here is 1e-14 by Python's abs, 9.999999999999998e-15 by numpy's
    # (x86-64, numpy 2.4): a point must not escape the check its batch fails
    point = (6.0956934985716344e-15, 7.927327467152565e-15, 1.0, 1.0)
    prog = ex.Program([ex.pow_(_Z, -1)])
    # the point twice: on the array loop, then on the point function
    alone = [_outcome(lambda: _at_points(prog, point)) for _ in range(2)]
    batch = _outcome(lambda: _at_points(prog, point, (0.0, 1.0, 1.0, 1.0)))
    assert prog._point
    for v in alone:
        if batch is DomainError:
            assert v is DomainError
        else:
            assert v[0].tobytes() == batch[0][:1].tobytes()


# at each of these points but z^-1's, on an AVX-512 host with numpy 2.4,
# Python's own op rounds apart from numpy's loop: libm's pow for x1^-0.5,
# the unfused complex product, the complex square under the reciprocal of
# z^-2, and float64 exp (exp of a real argument is complex exp, on arrays
# too); z^-1 is numpy's reciprocal.  At x1 = -0.0, Python's max(x1, 0.0)
# is -0.0 and its sqrt -0.0, where numpy's maximum gives 0.0
@pytest.mark.parametrize("e, point", [
    (ex.pow_(ex.x(1), -0.5), (2.1, 0.0, 1.0, 1.0)),
    (_Z * (ex.xi(1) + ex.I * ex.xi(2)), (0.76, 0.13, 0.97, 1.59)),
    (ex.pow_(_Z, -1), (0.76, 0.13, 1.0, 1.0)),
    (ex.pow_(_Z, -2), (-0.17, -1.87, 1.0, 1.0)),
    (ex.exp(ex.x(1)), (-0.01, 0.0, 1.0, 1.0)),
    (ex.sqrt(ex.x(1)), (-0.0, 0.0, 1.0, 1.0)),
])
def test_a_point_alone_has_its_value_in_a_batch_bit_for_bit(e, point):
    prog = ex.Program([e])
    first, = _at_points(prog, point)    # the array loop
    alone, = _at_points(prog, point)    # the point function
    batch, = _at_points(prog, point, (0.5, 0.25, -1.0, 2.0))
    assert prog._point
    for v in (first, alone):
        assert v.shape == (1,) and v.dtype == batch.dtype
        assert v.tobytes() == batch[:1].tobytes()


@pytest.mark.parametrize("e, x1", [
    (ex.exp(ex.x(1)), 800.0),           # cmath.exp raises OverflowError
    (ex.sin(ex.x(1)), float("inf")),    # math.sin raises ValueError
    (ex.x(1) * ex.x(1), 1e200),         # inf in Python, without an error
])
def test_a_point_python_cannot_compute_is_computed_on_arrays(e, x1):
    prog = ex.Program([e])
    point = (x1, 0.0, 1.0, 1.0)

    def run(*points):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out, = _at_points(prog, *points)
        return out, [str(w.message) for w in caught
                     if w.category is RuntimeWarning]

    # the point twice: the first call runs the array loop, the second
    # builds the point function, which hands the point back to arrays
    alone = [run(point) for _ in range(2)]
    assert prog._point and prog._at_point([x1, 0.0], [1.0, 1.0]) is None
    batch, said_in_batch = run(point, (0.5, 0.25, -1.0, 2.0))
    for v, said in alone:
        assert v.shape == (1,) and v.dtype == batch.dtype
        assert v.tobytes() == batch[:1].tobytes()
        assert said and said == said_in_batch


def test_a_program_builds_its_point_function_on_its_second_point_call(
        monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return point_function(*args)

    point_function = ex._point_function
    monkeypatch.setattr(ex, "_point_function", counted)
    roots = [ex.sin(ex.x(1)) * ex.xi(2), ex.sqrt(ex.xi(1) * ex.xi(1))]
    x, xi = np.array([[0.5], [1.0]]), np.array([[2.0], [-1.0]])
    prog = ex.Program(roots)
    prog(np.ones((2, 3)), np.ones((2, 3)))      # a batch is no point call
    values = [prog(x, xi)]
    assert not built and not prog._point
    values += [prog(x, xi) for _ in range(3)]
    assert len(built) == 1 and callable(prog._point)
    assert all(v.tobytes() == values[0].tobytes() for v in values)
    # a program given a value table runs the array loop only
    tabled = ex.Program(roots, {})
    for _ in range(3):
        tabled(x, xi)
    assert len(built) == 1 and tabled._point is None


def test_integer_samples_at_a_point_have_the_float_samples_value():
    # 2^53 + 1 is no float: a variable is read as float(x_j), on the array
    # loop and in the point function, so the products below round as the
    # float samples' do and the values are float64
    roots = [ex.x(1) * ex.x(2), ex.x(2) * ex.x(2) + ex.xi(1),
             ex.sqrt(ex.x(1)) * ex.xi(2)]
    x, xi = np.array([[3], [2 ** 53 + 1]]), np.array([[-7], [2]])
    want = ex.Program(roots)(x.astype(float), xi.astype(float))
    prog = ex.Program(roots)
    for _ in range(2):      # the array loop, then the point function
        got = prog(x, xi)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert prog._point


def _reference_diff(e, kind, j, memo=None):
    """The per-class derivative recursion that the `_DIFF` table replaced,
    kept as the reference it must reproduce node for node; memoized by
    identity within one call only, so that shared subtrees stay cheap."""
    memo = {} if memo is None else memo
    if id(e) in memo:
        return memo[id(e)]

    def rec(c):
        return _reference_diff(c, kind, j, memo)

    if isinstance(e, ex.Const):
        out = ex.ZERO
    elif isinstance(e, ex.Var):
        out = ex.ONE if (kind, j) == (e.kind, e.j) else ex.ZERO
    elif isinstance(e, ex.Add):
        out = ex.add(*(rec(t) for t in e.terms))
    elif isinstance(e, ex.Mul):
        parts = []
        fs = e.factors
        for k in range(len(fs)):
            d = rec(fs[k])
            if d is ex.ZERO:
                continue
            parts.append(ex.mul(*fs[:k], d, *fs[k + 1:]))
        out = ex.add(*parts)
    else:
        d = rec(e.args[0])
        if d is ex.ZERO:
            out = ex.ZERO
        elif isinstance(e, ex.Pow):
            out = ex.Const(e.expo) * ex.pow_(e.base, e.expo - 1.0) * d
        elif isinstance(e, ex.Sin):
            out = ex.Cos(e.arg) * d
        elif isinstance(e, ex.Cos):
            out = ex.neg(ex.Sin(e.arg)) * d
        else:
            out = e * d
    memo[id(e)] = out
    return out


_VARIABLES = (("x", 1), ("x", 2), ("xi", 1), ("xi", 2))


@settings(max_examples=200, deadline=None)
@given(_shared_dags(), st.sampled_from(_VARIABLES),
       st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
# steps of 1e-4 on both sides of a pole 1e-12 away
@example((ex.Pow(ex.x(1), -2.0), ex.x(1)), ("x", 1), [1e-12, 1.0, 1.0, 1.0])
def test_diff_matches_reference_recursion_and_central_differences(
        dag, var, point):
    e, _ = dag
    d = _outcome(lambda: e.diff(*var))
    ref = _outcome(lambda: _reference_diff(e, *var))
    if d is DomainError:        # a raw power of the constant zero
        assert ref is DomainError
        return
    assert d.render() == ref.render()
    assert e.diff(*var) is d
    # the derivative at z against central differences of e at steps h
    # and h/2 along the variable; their gap bounds the truncation error
    h = 1e-4
    k = (0 if var[0] == "x" else 2) + var[1] - 1
    pts = np.repeat(np.array(point)[:, None], 5, axis=1)
    pts[k] += [0.0, h, -h, h / 2, -h / 2]
    with np.errstate(all="ignore"):
        f = _outcome(lambda: e.ev(pts[:2], pts[2:]))
        dv = _outcome(lambda: d.ev(pts[:2], pts[2:]))
    if f is DomainError or dv is DomainError:
        return                  # not evaluable at z or a step from it
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(dv))):
        return
    # the gap bounds the error only where the derivative is smooth across
    # the samples, not where they straddle or skirt a pole
    if np.max(np.abs(dv - dv[0])) > 0.01 * (1.0 + abs(dv[0])):
        return
    coarse, fine = (f[1] - f[2]) / (2 * h), (f[3] - f[4]) / h
    assert abs(fine - dv[0]) <= 10 * abs(coarse - fine) \
        + 1e-6 * (1.0 + abs(dv[0]) + np.max(np.abs(f)))


def test_equal_constructions_are_one_node():
    def build():
        s = ex.sin(ex.x(1) + 0.5)
        return ex.div(ex.mul(s, ex.xi(2)), ex.sqrt(ex.ONE + ex.mul(s, s)))

    assert build() is build()
    assert ex.Const(2.0) is ex.Const(2) and ex.Var("x", 1) is ex.x(1)
    assert ex.Add([ex.x(1), ex.xi(1)]) is not ex.Add([ex.xi(1), ex.x(1)])
    assert ex.Pow(ex.x(1), 2) is not ex.Pow(ex.x(1), 2.5)
    assert ex.Sin(ex.x(1)) is not ex.Cos(ex.x(1))
    text = "sin(x1)*xi1^2 + (1.5-0.25*i)/sqrt(1 + x2^2)"
    assert parse_expr(text, 2) is parse_expr(text, 2)


def test_constants_are_keyed_by_their_bits():
    assert ex.Const(0.0) is ex.ZERO
    assert ex.Const(-0.0) is not ex.Const(0.0)
    assert ex.Const(complex(0.0, -0.0)) is not ex.ZERO
    assert ex.Const(float("nan")) is ex.Const(float("nan"))
    assert ex.Pow(ex.x(1), -0.0) is not ex.Pow(ex.x(1), 0.0)


def test_a_dropped_node_leaves_the_table():
    gc.collect()
    size = len(ex._NODES)
    e = ex.exp(ex.sin(ex.x(7)) * ex.xi(7))
    e.diff("x", 7)      # the memo on exp(.) refers back to it: a cycle
    ref = ex._NODES[(ex.Var, "x", 7)]
    assert len(ex._NODES) > size
    del e
    gc.collect()
    assert ref() is None and len(ex._NODES) == size


def test_the_roots_come_back_in_one_fresh_array_the_caller_owns():
    c = ex.Const(0.5 - 2j)
    roots = [c, ex.x(1), c, ex.sin(ex.x(1)), ex.x(1)]
    for x in (np.array([[0.25], [1.0]]), np.array([[0.25, -1.0, 2.0],
                                                  [1.0, 2.0, 3.0]])):
        xi, x0 = np.ones_like(x), x.copy()
        want = [r.ev(x, xi) for r in roots]
        values = {}
        for prog in (ex.Program(roots), ex.Program(roots, values)):
            for _ in range(2):
                got = prog(x, xi)
                assert type(got) is np.ndarray
                assert got.shape == (len(roots), x.shape[1])
                # memory of its own, shared with no input or table entry
                assert (got if got.base is None else got.base).flags.owndata
                assert not any(np.shares_memory(got, v) for v in (
                    x, xi, *values.values()))
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
                # a repeated root and a repeated constant are rows of their
                # own: writing one leaves the other and x as they were
                got[0] = got[1] = 99.0
                np.testing.assert_array_equal(got[2], want[2])
                np.testing.assert_array_equal(got[4], x0[0])
                np.testing.assert_array_equal(x, x0)
        for node, v in values.items():
            np.testing.assert_array_equal(v, node.ev(x, xi))


def test_the_roots_come_back_in_one_dtype():
    x = np.array([[0.25, -1.0], [1.0, 2.0]])
    xi = np.ones_like(x)
    real = (ex.sin(ex.x(1)) * ex.xi(1) / ex.x(2) + ex.pow_(ex.x(2), -3)
            + ex.sqrt(ex.x(2)) + ex.Const(0.5))
    cplx = ex.Const(0.5 - 2j) * ex.x(1)
    for roots, dtype in (([real, ex.x(1), ex.Const(0.5)], np.float64),
                         ([real, cplx], np.complex128),
                         ([real, ex.exp(ex.x(1))], np.complex128),
                         ([ex.x(1), ex.x(1), ex.Const(0.5 - 2j)],
                          np.complex128)):
        prog = ex.Program(roots)
        batch = prog(x, xi)
        assert batch.dtype == dtype and batch.shape == (len(roots), 2)
        # a real root upcasts exactly: each row is its root's own value
        for r, row in zip(roots, batch):
            assert row.tobytes() == r.ev(x, xi).astype(dtype).tobytes()
        # one point, where the steps run on Python scalars: the same dtype
        # and the batch's first column, bit for bit
        for one in (x[:, :1], x[:, 0]):
            got = prog(one, xi[:, :1])
            assert got.dtype == dtype and got.shape == (len(roots), 1)
            assert got.tobytes() == batch[:, :1].tobytes()


@settings(max_examples=200, deadline=None)
@given(_shared_dags(), _grid_axes())
# one sample on (n, 1, 1) axes: numpy multiplies a (1, 1) complex array
# by a (1,) constant unfused, so a program with a value table, which runs
# the array loop, read 0.4218750000000001 where a batch reads ...06
@example((ex.pow_(ex.x(1) * ex.Const(-0.6 - 0.19999999999999998j), -4)
          * ex.Const(1.7999999999999998 + 0.6j), ex.x(1)),
         (np.full((2, 1, 1), -2.0), np.full((2, 1, 1), -2.0)))
def test_one_program_serves_every_sample_shape(dag, axes):
    x, xi = axes
    roots = [*dag, ex.Const(0.5 - 2j), ex.x(1)]
    prog = ex.Program(roots)
    one = (x[:, 0, 0], xi[:, 0, 0])
    for samples in (one, (x[:, 0, :1], xi[:, :1, 0]), (x, xi), one):
        with np.errstate(all="ignore"):
            want = _outcome(lambda: ex.Program(roots)(*samples))
            got = [_outcome(lambda: prog(*samples))]
            # and through a table of values, as the zero tests keep one
            values = {}
            if _outcome(lambda: ex.Program(dag[1:], values)(*samples)) \
                    is not DomainError:
                seeded = ex.Program(roots, values)
                got += [_outcome(lambda: seeded(*samples)) for _ in range(2)]
        for g in got:
            if want is DomainError:
                assert g is DomainError
                continue
            for a, b in zip(g, want):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)


_X1, _X2, _XI1, _XI2 = ex.x(1), ex.x(2), ex.xi(1), ex.xi(2)
_MIXED = ex.mul(_X1, _XI1)
# the roots of each case; every one has a sum or product that writes into
# a dying operand's array
_BUFFER_CASES = {
    # real operands of complex steps and complex operands of complex ones:
    # x1 x2 dies at a mixed sum, the real x1 x2 + xi1 at a complex product,
    # and x2 x1, first, at a sum with the complex exp(x1) of its own kind
    "real_complex": [
        ex.mul(ex.add(ex.mul(_X1, _X2), _XI1), ex.Const(0.5 - 2j))
        + ex.sin(ex.mul(_X1, _XI2)),
        ex.mul(ex.exp(_X1), _X2) + _XI1, ex.mul(_X2, _X1) + ex.exp(_X1)],
    # a * a: one operand read twice, written into once
    "square": [ex.Mul([_X1 + _XI1, _X1 + _XI1]),
               ex.Mul([_X2 + ex.I * _XI2, _X2 + ex.I * _XI2])],
    # x1 xi1 is a root and a later step's operand: it is never written
    "shared_root": [_MIXED, ex.mul(_MIXED, _XI2) + _X2],
}
_BUFFER_SAMPLES = {
    # x on P = 3 points against xi on C = 4 directions: x-only, xi-only and
    # mixed values have three sample shapes
    "grid": (np.linspace(-2.0, 2.5, 6).reshape(2, 1, 3),
             np.linspace(-1.0, 3.0, 8).reshape(2, 4, 1)),
    "same_shape": (np.linspace(-2.0, 2.5, 10).reshape(2, 5),
                   np.linspace(-1.0, 3.0, 10).reshape(2, 5)),
}


@pytest.mark.parametrize("samples", _BUFFER_SAMPLES)
@pytest.mark.parametrize("case", _BUFFER_CASES)
def test_array_calls_write_into_dying_operands_with_the_same_bits(
        case, samples):
    roots = _BUFFER_CASES[case]
    x, xi = _BUFFER_SAMPLES[samples]
    x0, xi0 = x.copy(), xi.copy()
    # a program given a table runs every step out of place
    want = ex.Program(roots, {})(x, xi).tobytes()
    prog = ex.Program(roots)
    assert any(step[-1] is not None for step in prog._steps)
    returned = []
    for _ in range(3):      # from the first call on
        returned.append(prog(x, xi))
        assert returned[-1].tobytes() == want
    # no input, and no array an earlier call returned, was written
    assert all(r.tobytes() == want for r in returned)
    assert x.tobytes() == x0.tobytes() and xi.tobytes() == xi0.tobytes()
    for r, row in zip(roots, returned[0]):
        np.testing.assert_array_equal(row, np.broadcast_to(
            _reference(r, x, xi), row.shape))


def test_a_program_with_a_value_table_writes_into_no_operand():
    # a table's arrays start slots of unknown sample shape: such a program
    # has no buffer plan, and every array its table records stays its own
    x, xi = _BUFFER_SAMPLES["grid"]
    roots = _BUFFER_CASES["real_complex"]
    want = ex.Program(roots)(x, xi)
    values = {}
    prog = ex.Program(roots, values)
    assert all(step[-1] is None for step in prog._steps)
    assert prog(x, xi).tobytes() == want.tobytes()
    first = dict(values)
    kept = {node: v.copy() for node, v in values.items()}
    for _ in range(2):
        assert prog(x, xi).tobytes() == want.tobytes()
    for node, v in first.items():
        assert v.tobytes() == kept[node].tobytes()
        assert values[node].tobytes() == v.tobytes()


def test_a_rebuilt_root_adds_no_program_steps():
    e = _squaring_dag(ex.x(1), 1j).diff("x", 1)
    again = _squaring_dag(ex.x(1), 1j).diff("x", 1)
    assert again is e
    assert len(ex.Program([e, again])._steps) == len(ex.Program([e])._steps)


def _construct(node, args):
    """`_walk` rule: node's own class constructor over the rebuilt
    children, without the smart constructors' folding."""
    if isinstance(node, (ex.Add, ex.Mul)):
        return type(node)(args)
    if isinstance(node, ex.Pow):
        return ex.Pow(args[0], node.expo)
    cls, fields = node.__reduce__()
    return cls(*(args or fields))


@settings(max_examples=200, deadline=None)
@given(_shared_dags())
def test_rebuilding_a_dag_returns_the_identical_root(dag):
    e, _ = dag
    assert ex._walk(e, _construct) is e
    # through the smart constructors: once their folds have run, a second
    # rebuild is the identical root
    rebuild = lambda node, args: node.rebuild(args)     # noqa: E731
    try:
        r = ex._walk(e, rebuild)
    except (DomainError, ZeroDivisionError):   # folds of constant zeros
        return
    assert ex._walk(r, rebuild) is r


def test_copy_and_pickle_return_the_interned_node():
    e = ex.div(ex.Const(1 - 2j) * ex.sin(ex.x(1)), ex.sqrt(ex.xi_norm_sq(2)))
    e.diff("xi", 1)
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert copy.deepcopy([e, e.args]) == [e, e.args]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(e, protocol)) is e


_Q = ex.Mul([ex.x(1), ex.div(ex.x(1), ex.x(2))])


@settings(max_examples=200, deadline=None)
@given(_shared_dags())
# the parser flattens the product, and the sine of the reassociated
# argument (up to 5e6 at the samples) rounds 1.7e-11 apart
@example((ex.Sin(ex.Mul([_Q, _Q])), _Q))
def test_render_parses_back_to_the_same_values(dag):
    x, xi = sample_points(2)
    for e in dag:
        with np.errstate(all="ignore"):
            want = _outcome(lambda: e.ev(x, xi))
            if want is DomainError or not np.all(np.isfinite(want)):
                continue
            # the parsed tree may group sums and products apart, which
            # moves the values by their rounding: compare only where the
            # tree amplifies rounding at the samples by at most 100
            rough = _outcome(lambda: _reference(
                e, x, xi, jitter=np.random.default_rng(0)))
            if rough is DomainError or np.max(np.abs(rough - want)) \
                    > 1e-8 * np.max(np.abs(want)):
                continue
            got = parse_expr(e.render(), 2).ev(x, xi)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
