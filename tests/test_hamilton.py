import gc
import warnings
import weakref

import numpy as np
import pytest

from psido import expr as ex
from psido import hamilton
from psido import symbols as sy
from psido.hamilton import (flow, hamiltonian_field, propagate_wavefront,
                            transport_solve)
from psido.errors import (DomainError, NotCharacteristic, NotReal,
                          StepFailure, ValidationError, ZeroCovector)


def test_field_of_laplacian():
    p = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    f = hamiltonian_field(p)
    assert np.allclose(f([0.0, 0.0, 1.0, 2.0]), [2.0, 4.0, 0.0, 0.0])


def test_field_of_xi1():
    p = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    f = hamiltonian_field(p)
    assert np.allclose(f([0.3, 0.7, 1.0, -2.0]), [1.0, 0.0, 0.0, 0.0])


def test_field_with_x_dependence():
    p = sy.HomogeneousTerm(ex.mul(ex.sin(ex.x(1)), ex.xi(2)), 1.0, 2)
    f = hamiltonian_field(p)
    x1, xi2 = 0.4, 1.5
    assert np.allclose(f([x1, 0.0, 2.0, xi2]),
                       [0.0, np.sin(x1), -np.cos(x1) * xi2, 0.0])
    # a (2n, rays) batch gives one column per ray
    batch = np.array([[0.4, -1.0, 2.5], [0.0, 0.3, 1.0],
                      [2.0, 0.5, -1.0], [1.5, -2.0, 0.25]])
    cols = f(batch)
    assert cols.shape == batch.shape
    for k in range(3):
        assert np.array_equal(cols[:, k], f(batch[:, k]))


def _speed_term(a=0.35, phi=1.3):
    # the oracles benchmark's speed symbol (1 + a sin(x1 + phi)) |xi|
    speed = ex.ONE + ex.mul(ex.Const(a), ex.sin(ex.x(1) + phi))
    return sy.HomogeneousTerm(ex.mul(speed, ex.xi_norm(2)), 1.0, 2)


def _variable_laplacian():
    # xi1^2 + (1 + 0.2 sin x1) xi2^2
    c = ex.ONE + ex.mul(ex.Const(0.2), ex.sin(ex.x(1)))
    return sy.HomogeneousTerm(
        ex.mul(ex.xi(1), ex.xi(1)) + ex.mul(c, ex.xi(2), ex.xi(2)), 2.0, 2)


def test_field_at_one_point_is_its_column_of_a_batch_bit_for_bit(
        monkeypatch):
    # a fresh flow plan: an equal symbol flowed earlier shares its plan,
    # whose program has built its point function
    monkeypatch.setattr(hamilton, "_PLANS", weakref.WeakKeyDictionary())
    f = hamiltonian_field(_speed_term())
    loops = []
    loop = ex.Program._loop
    monkeypatch.setattr(ex.Program, "_loop",
                        lambda *args: loops.append(1) or loop(*args))
    rng = np.random.default_rng(3)
    batch = np.vstack([rng.uniform(-4, 4, (2, 400)),
                       rng.uniform(-2, 2, (2, 400))])
    cols = f(batch)
    for k in range(batch.shape[1]):
        one = f(batch[:, k])
        assert one.shape == (4,) and one.dtype == np.float64
        assert one.tobytes() == cols[:, k].tobytes()
    # the batch and the first one-ray call ran the array loop, every later
    # ray the point function alone
    assert len(loops) == 2


def test_flow_fields_of_one_structure_compile_once_and_keep_their_values(
        monkeypatch):
    compiled = []
    monkeypatch.setattr(ex, "compile", lambda *args: compiled.append(
        args[0]) or compile(*args), raising=False)
    ex._compiled.cache_clear()
    rng = np.random.default_rng(5)
    batch = np.vstack([rng.uniform(-4, 4, (2, 3)),
                       rng.uniform(-2, 2, (2, 3))])
    for a, phi in rng.uniform(0.1, 0.5, (20, 2)):
        f = hamiltonian_field(_speed_term(a, phi))
        cols = f(batch)
        for k in range(batch.shape[1]):
            for _ in range(2):      # the array loop, then the point function
                assert f(batch[:, k]).tobytes() == cols[:, k].tobytes()
    assert len(compiled) == 1


@pytest.mark.parametrize("p, start", [
    (_speed_term(), [0.3, -1.2, 0.7, 0.4]),
    (_variable_laplacian(), [0.3, 0.2, 1.0, -0.5]),
])
def test_a_flow_is_the_same_when_its_point_function_hands_back_each_point(
        monkeypatch, p, start):
    want = flow(p, start, 10.0, tol=1e-10)
    # a point function that fails a domain check at every point: the array
    # loop computes every field call
    monkeypatch.setattr(ex, "_point_function",
                        lambda *args: lambda x, xi: None)
    got = flow(p, start, 10.0, tol=1e-10)
    for name in ("times", "points", "p_values"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("p, start", [
    (_speed_term(), [0.3, -1.2, 0.7, 0.4]),
    (_variable_laplacian(), [0.3, 0.2, 1.0, -0.5]),
])
def test_a_new_plan_whose_point_function_hands_back_each_point_flows_alike(
        monkeypatch, p, start):
    want = flow(p, start, 10.0, tol=1e-10)
    # a fresh plan, whose point function fails a domain check at every
    # point: the array loop computes every field call of the list form
    monkeypatch.setattr(hamilton, "_PLANS", weakref.WeakKeyDictionary())
    monkeypatch.setattr(ex, "_point_function",
                        lambda *args: lambda x, xi: None)
    got = flow(p, start, 10.0, tol=1e-10)
    for name in ("times", "points", "p_values"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_a_domain_error_of_one_ray_is_the_array_loops():
    # dp/dxi1 = sqrt(x1) needs x1 >= 0
    f = hamiltonian_field(sy.HomogeneousTerm(
        ex.mul(ex.sqrt(ex.x(1)), ex.xi(1)) + ex.xi(2), 1.0, 2))
    good, bad = np.array([1.0, 0.3, 1.0, 0.5]), np.array([-1.0, 0.3, 1.0, 0.5])
    for _ in range(2):      # the array loop, then the point function
        f(good)
    errors = []
    for z in (bad, np.stack([good, bad], axis=1)):
        with pytest.raises(DomainError) as err:
            f(z)
        errors.append(str(err.value))
    assert errors == ["fractional power of negative base x1"] * 2


def test_field_rejects_complex_symbol():
    p = sy.HomogeneousTerm(ex.mul(ex.I, ex.xi(1)), 1.0, 1)
    with pytest.raises(NotReal):
        hamiltonian_field(p)


def test_flow_of_laplacian_is_straight_line():
    p = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    b = flow(p, [0.0, 0.0, 1.0, 0.0], 1.0)
    end = b.endpoint()
    assert np.allclose(end.x, [2.0, 0.0], atol=1e-8)
    assert np.allclose(end.xi, [1.0, 0.0], atol=1e-8)


def test_flow_conserves_symbol():
    p = sy.HomogeneousTerm(ex.mul(ex.ONE + ex.mul(ex.Const(0.5),
                                                  ex.sin(ex.x(1))),
                                  ex.xi_norm_sq(2)), 2.0, 2)
    b = flow(p, [0.1, 0.2, 1.0, 0.5], 2.0)
    assert b.conservation_drift() < 1e-6


def test_flow_tolerance_halving_converges():
    p = sy.HomogeneousTerm(ex.mul(ex.ONE + ex.mul(ex.Const(0.5),
                                                  ex.sin(ex.x(1))),
                                  ex.xi_norm_sq(2)), 2.0, 2)
    start, T = [0.1, 0.2, 1.0, 0.5], 1.0
    ends = []
    for tol in (1e-6, 1e-8, 1e-10):
        e = flow(p, start, T, tol=tol).endpoint()
        ends.append(np.concatenate([e.x, e.xi]))
    # tighter tolerances agree better with each other
    assert np.linalg.norm(ends[2] - ends[1]) <= \
        np.linalg.norm(ends[1] - ends[0]) + 1e-12


def test_flow_group_law():
    p = sy.HomogeneousTerm(ex.mul(ex.ONE + ex.mul(ex.Const(0.5),
                                                  ex.sin(ex.x(1))),
                                  ex.xi_norm_sq(2)), 2.0, 2)
    start = [0.1, 0.2, 1.0, 0.5]
    e_full = flow(p, start, 1.0).endpoint()
    mid = flow(p, start, 0.5).endpoint()
    e_two = flow(p, list(mid.x) + list(mid.xi), 0.5).endpoint()
    assert np.allclose(e_full.x, e_two.x, atol=1e-6)
    assert np.allclose(e_full.xi, e_two.xi, atol=1e-6)


def test_flow_backward_then_forward_returns_to_start():
    # the variable-speed symbol of the group law; negative T integrates
    # in reversed time
    p = sy.HomogeneousTerm(ex.mul(ex.ONE + ex.mul(ex.Const(0.5),
                                                  ex.sin(ex.x(1))),
                                  ex.xi_norm_sq(2)), 2.0, 2)
    start = [0.1, 0.2, 1.0, 0.5]
    back = flow(p, start, -1.0)
    assert back.times[-1] == -1.0
    assert not np.allclose(back.points[-1], start, atol=1e-3)
    end = flow(p, back.points[-1], 1.0).endpoint()
    assert np.allclose(end.as_vector(), start, rtol=0.0, atol=1e-8)


def test_solve_ivp_follows_a_solution_that_blows_up_later():
    # y' = y^2, y(0) = 1: y = 1 / (1 - t)
    sol = hamilton.solve_ivp(lambda y: y * y, 0.5, np.array([1.0]),
                             1e-10, 1e-13)
    assert sol.t[0] == 0.0 and sol.t[-1] == 0.5
    assert sol.y.shape == (len(sol.t), 1)
    # two evaluations choose the first step, each attempt takes twelve more
    steps = len(sol.t) - 1
    assert (sol.nfev - 2) % 12 == 0 and sol.nfev >= 2 + 12 * steps
    assert sol.y[-1, 0] == pytest.approx(2.0, rel=0.0, abs=1e-8)


def _speed_symbol():
    # (1 + 0.3 sin(x1 + 0.4)) |xi|: a variable-speed flow on T^2
    c = ex.ONE + ex.mul(ex.Const(0.3), ex.sin(ex.x(1) + ex.Const(0.4)))
    return sy.HomogeneousTerm(ex.mul(c, ex.xi_norm(2)), 1.0, 2)


def test_solve_ivp_takes_scipys_dop853_steps():
    integrate = pytest.importorskip("scipy.integrate")
    field = hamiltonian_field(_speed_symbol())
    start = np.array([0.1, 0.2, 1.0, 0.5])
    for rhs, T, y0 in [(lambda y: y * y, 0.5, np.array([1.0])),
                       (field, 10.0, start), (field, -3.0, start)]:
        ours = hamilton.solve_ivp(rhs, T, y0, 1e-10, 1e-13)
        ref = integrate.solve_ivp(lambda t, y: rhs(y), (0.0, T), y0,
                                  method="DOP853", rtol=1e-10, atol=1e-13)
        assert np.array_equal(ours.t, ref.t)
        assert ours.nfev == ref.nfev
        assert np.allclose(ours.y[-1], ref.y[:, -1], rtol=1e-14, atol=0.0)


def _list_and_array_systems():
    # (list rhs, array rhs, T, start): one ray's field in both forms, and
    # y' = y^2
    cases = []
    for p, T, start in [(_speed_symbol(), 10.0, [0.1, 0.2, 1.0, 0.5]),
                        (_speed_symbol(), -3.0, [0.1, 0.2, 1.0, 0.5]),
                        (_variable_laplacian(), 10.0, [0.3, 0.2, 1.0, -0.5])]:
        listed = hamilton._list_field(hamilton._plan(p), p.dimension)
        cases.append((listed, hamiltonian_field(p), T, start))
    cases.append((lambda y: [y[0] * y[0]], lambda y: y * y, 0.5, [1.0]))
    return cases


@pytest.mark.parametrize("listed, arrayed, T, start",
                         _list_and_array_systems(),
                         ids=["speed", "speed_back", "laplacian", "square"])
def test_the_list_form_takes_the_array_forms_steps(listed, arrayed, T, start):
    ours = hamilton.solve_ivp(listed, T, list(start), 1e-10, 1e-13)
    ref = hamilton.solve_ivp(arrayed, T, np.array(start), 1e-10, 1e-13)
    assert ours.y.dtype == np.float64 and ours.y.shape == ref.y.shape
    assert ours.nfev == ref.nfev
    # the stage sums round apart (BLAS against Python's left-to-right sum),
    # so the states and, through the error norm, the times move at
    # round-off
    assert np.allclose(ours.t, ref.t, rtol=1e-6, atol=0.0)
    assert ours.t[-1] == T
    scale = np.max(np.abs(ref.y[-1]))
    assert np.max(np.abs(ours.y[-1] - ref.y[-1])) <= 1e-13 * scale


def test_the_list_form_takes_scipys_dop853_steps():
    integrate = pytest.importorskip("scipy.integrate")
    for listed, arrayed, T, start in _list_and_array_systems():
        ours = hamilton.solve_ivp(listed, T, list(start), 1e-10, 1e-13)
        ref = integrate.solve_ivp(lambda t, y: arrayed(y), (0.0, T),
                                  np.array(start), method="DOP853",
                                  rtol=1e-10, atol=1e-13)
        assert len(ours.t) == len(ref.t) and ours.nfev == ref.nfev
        assert np.allclose(ours.t, ref.t, rtol=1e-6, atol=0.0)
        assert np.allclose(ours.y[-1], ref.y[:, -1], rtol=1e-13, atol=0.0)


def test_a_repeat_flow_builds_no_program_and_compiles_no_step(monkeypatch):
    p, start = _speed_term(0.25, 0.9), [0.1, 0.2, 1.0, 0.5]
    wave, starts = _wave_symbol(), _wave_starts(4)
    first = flow(p, start, 10.0, tol=1e-10)
    ends = propagate_wavefront(wave, starts, 0.5)
    built = []
    init = ex.Program.__init__
    monkeypatch.setattr(ex.Program, "__init__", lambda *args, **kwargs: (
        built.append(1), init(*args, **kwargs))[1])
    steps = hamilton._list_attempt.cache_info().misses
    again = flow(p, start, 10.0, tol=1e-10)
    assert propagate_wavefront(wave, starts, 0.5) == ends
    assert built == [] and hamilton._list_attempt.cache_info().misses == steps
    # the first flow's first field call ran the array loop, the repeat's
    # the point function, with the same bits
    for name in ("times", "points", "p_values"):
        assert getattr(again, name).tobytes() == getattr(first, name).tobytes()


def test_a_flow_plan_dies_with_its_symbol(monkeypatch):
    monkeypatch.setattr(hamilton, "_PLANS", weakref.WeakKeyDictionary())
    p = _speed_term(0.15, 2.1)
    flow(p, [0.1, 0.2, 1.0, 0.5], 1.0)
    assert len(hamilton._PLANS) == 1 and p in hamilton._PLANS
    del p
    gc.collect()
    assert len(hamilton._PLANS) == 0


def test_a_step_whose_error_is_exactly_zero_is_accepted():
    # along p = xi1 the field is constant, so every error estimate is 0
    # up to round-off; at t ~ 1e154 the third-order one was 1e-323, whose
    # 0.01 s3 underflows, and the norm's 0/0 failed the flow
    assert hamilton._error_norm(0.0, 1e-323, 1e154, 4) == 0.0
    assert hamilton._error_norm(0.0, 0.0, 1.0, 4) == 0.0
    p = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    start = [0.0, 0.0, 1.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        curve = flow(p, start, 1e300)
        sol = hamilton.solve_ivp(hamiltonian_field(p), 1e300,
                                 np.array(start), 1e-9, 1e-12)
    assert curve.times[-1] == sol.t[-1] == 1e300
    for end in (curve.points[-1], sol.y[-1]):
        assert end[0] == pytest.approx(1e300, rel=1e-14)
        assert end[1:].tolist() == [0.0, 1.0, 0.0]


def test_flow_takes_few_steps_at_a_tight_tolerance():
    # the 8(5,3) pair takes 24 steps here, a 5(4) pair 96
    b = flow(_speed_symbol(), [0.1, 0.2, 1.0, 0.5], 10.0, tol=1e-10)
    assert len(b.times) - 1 < 40
    assert b.conservation_drift() < 1e-9


def test_solve_ivp_fails_at_blow_up():
    with pytest.raises(StepFailure, match="integrator failed"):
        hamilton.solve_ivp(lambda y: y * y, 2.0, np.array([1.0]),
                           1e-10, 1e-13)


def test_solve_ivp_fails_on_non_finite_right_hand_side():
    # a NaN field makes the initial step NaN; one that turns NaN on the way
    # makes the error estimate NaN; neither may loop forever
    with pytest.raises(StepFailure, match="integrator failed"):
        hamilton.solve_ivp(lambda y: y * np.nan, 1.0, np.array([1.0]),
                           1e-10, 1e-13)
    with pytest.raises(StepFailure, match="integrator failed"):
        hamilton.solve_ivp(lambda y: np.where(y > 1.5, np.nan, y), 1.0,
                           np.array([1.0]), 1e-10, 1e-13)



@pytest.mark.parametrize("T, rtol, atol", [
    (np.nan, 1e-9, 1e-12), (np.inf, 1e-9, 1e-12), (-np.inf, 1e-9, 1e-12),
    (1.0, 0.0, 1e-12), (1.0, -1e-9, 1e-12), (1.0, np.nan, 1e-12),
    (1.0, np.inf, 1e-12), (1.0, 1e-9, 0.0), (1.0, 1e-9, np.nan)])
def test_solve_ivp_needs_a_finite_time_and_positive_tolerances(T, rtol,
                                                               atol):
    # a NaN time ended the loop at once and returned the start point
    with pytest.raises(ValueError, match="finite"):
        hamilton.solve_ivp(lambda y: -y, T, np.array([1.0]), rtol, atol)


@pytest.mark.parametrize("T, tol", [(np.nan, 1e-9), (np.inf, 1e-9),
                                    (1.0, 0.0), (1.0, -1e-9)])
def test_flows_reject_a_time_or_tolerance_out_of_range(T, tol):
    p = sy.HomogeneousTerm(ex.xi(1) - ex.xi(2), 1.0, 2)
    start = [0.0, 0.0, 1.0, 1.0]        # on char(p)
    with pytest.raises(ValueError, match="finite"):
        flow(p, start, T, tol=tol)
    with pytest.raises(ValueError, match="finite"):
        propagate_wavefront(p, [start], T, tol=tol)
    with pytest.raises(ValueError, match="finite"):
        transport_solve(p, ex.x(1), T, start, tol=tol)


@pytest.mark.parametrize("k, bad", [(0, np.nan), (2, np.inf), (3, -np.inf)])
def test_flows_reject_a_phase_point_that_is_not_finite(k, bad):
    p = sy.HomogeneousTerm(ex.xi(1) - ex.xi(2), 1.0, 2)
    start = [0.0, 0.0, 1.0, 1.0]        # on char(p)
    bad_start = start[:k] + [bad] + start[k + 1:]
    with pytest.raises(ValueError, match="is not finite"):
        flow(p, bad_start, 1.0)
    with pytest.raises(ValueError, match="is not finite"):
        propagate_wavefront(p, [start, bad_start], 1.0)
    with pytest.raises(ValueError, match="is not finite"):
        transport_solve(p, ex.x(1), 1.0, bad_start)


@pytest.mark.parametrize("p", [
    sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2),
    _variable_laplacian(),
    _speed_term(),
])
@pytest.mark.parametrize("xi", [(0.0, 0.0), (3e-9, -4e-9)])
def test_flows_reject_a_start_with_a_zero_covector(p, xi):
    # a numerical error after one step before, or a domain error on |xi|;
    # the wavefront's start is characteristic, p = 0 there
    start = (0.3, 0.2, *xi)
    msg = fr"start \(0.3, 0.2, {xi[0]!r}, {xi[1]!r}\) has \|xi\| < 1e-08"
    assert issubclass(ZeroCovector, ValidationError)
    with pytest.raises(ZeroCovector, match=msg):
        flow(p, start, 1.0)
    with pytest.raises(ZeroCovector, match=msg):
        propagate_wavefront(p, [start], 1.0)


def test_flow_zero_time():
    p = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    b = flow(p, [0.3, 0.4, 1.0, 2.0], 0.0)
    end = b.endpoint()
    assert np.allclose(end.x, [0.3, 0.4])
    assert np.allclose(end.xi, [1.0, 2.0])


def test_flow_stops_when_xi_collapses():
    # along p = x1 xi1 the momentum decays like e^{-t} and crosses the
    # solver floor before T
    p = sy.HomogeneousTerm(ex.mul(ex.x(1), ex.xi(1)), 1.0, 1)
    with pytest.raises(StepFailure):
        flow(p, [1.0, 1.0], 25.0)


def test_wavefront_zero_time_is_identity():
    p = sy.HomogeneousTerm(ex.mul(ex.sin(ex.x(1)), ex.xi(2)), 1.0, 2)
    pts = [[0.0, 0.0, 1.0, 0.5]]
    out = propagate_wavefront(p, pts, 0.0)
    assert np.allclose(list(out[0].x) + list(out[0].xi), pts[0])


def test_wavefront_moves_along_flow():
    p = sy.HomogeneousTerm(ex.mul(ex.sin(ex.x(1)), ex.xi(2)), 1.0, 2)
    out = propagate_wavefront(p, [[0.0, 0.0, 1.0, 0.5]], 0.5)
    # dx/dt = (0, sin x1) = 0 at x1 = 0; dxi1/dt = -cos(x1) xi2
    assert np.allclose(out[0].x, [0.0, 0.0], atol=1e-8)
    assert np.allclose(out[0].xi, [0.75, 0.5], atol=1e-8)


def test_wavefront_rejects_non_characteristic_point():
    p = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    with pytest.raises(NotCharacteristic):
        propagate_wavefront(p, [[0.0, 0.0, 1.0, 0.0]], 0.5)


def test_wavefront_rejects_complex_symbol():
    # p vanishes at the start, so only the realness check can stop the ray
    p = sy.HomogeneousTerm(
        ex.add(ex.xi(1), ex.mul(ex.I, ex.sin(ex.x(1)), ex.xi(2))), 1.0, 2)
    start = [0.0, 0.0, 0.0, 1.0]
    with pytest.raises(NotReal):
        flow(p, start, 1.0)
    with pytest.raises(NotReal):
        propagate_wavefront(p, [start], 1.0)


def test_wavefront_rejects_point_of_wrong_length():
    p = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    with pytest.raises(ValueError, match="must have length 4"):
        propagate_wavefront(p, [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], 0.5)


def _wave_symbol():
    # xi1^2 - c(x1)^2 xi2^2 with c = 1 + 0.5 sin x1; char: xi1 = +-c xi2
    c = ex.ONE + ex.mul(ex.Const(0.5), ex.sin(ex.x(1)))
    return sy.HomogeneousTerm(
        ex.mul(ex.xi(1), ex.xi(1)) - ex.mul(c, c, ex.xi(2), ex.xi(2)),
        2.0, 2)


def _wave_starts(count):
    # characteristic rays with |xi2| in {0.5, 1, 3}, both signs of xi1, xi2
    rng = np.random.default_rng(7)
    starts = []
    for k in range(count):
        x1, x2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        s = (0.5, 1.0, 3.0)[k % 3] * (1 if k % 2 else -1)
        starts.append([x1, x2, (1 if k % 4 < 2 else -1)
                       * (1 + 0.5 * np.sin(x1)) * s, s])
    return starts


def test_a_wavefront_needs_a_point():
    # numpy's "cannot reshape array of size 0" before
    with pytest.raises(ValueError, match="no initial points"):
        propagate_wavefront(_wave_symbol(), [], 1.0)


def test_wavefront_is_one_integration(monkeypatch):
    calls = {"solve_ivp": 0, "field": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(hamilton, "solve_ivp",
                        counting("solve_ivp", hamilton.solve_ivp))
    monkeypatch.setattr(hamilton, "hamiltonian_field",
                        counting("field", hamilton.hamiltonian_field))
    ends = propagate_wavefront(_wave_symbol(), _wave_starts(16), 0.5)
    assert len(ends) == 16
    assert calls == {"solve_ivp": 1, "field": 1}


def test_wavefront_matches_flow_ray_by_ray():
    p = _wave_symbol()
    starts = _wave_starts(6)
    ends = propagate_wavefront(p, starts, 1.0, tol=1e-10)
    for start, end in zip(starts, ends):
        alone = flow(p, start, 1.0, tol=1e-10).endpoint()
        assert np.allclose(end.as_vector(), alone.as_vector(),
                           rtol=0.0, atol=1e-8)


def test_wavefront_stops_when_one_ray_collapses():
    # along x1 xi1 the first ray's xi decays like e^{-t}; the second ray
    # stands still at |xi| = 1
    p = sy.HomogeneousTerm(ex.mul(ex.x(1), ex.xi(1)), 1.0, 2)
    with pytest.raises(StepFailure):
        propagate_wavefront(p, [[0.0, 0.0, 1.0, 0.0],
                                [0.0, 0.0, 0.0, 1.0]], 25.0)


def test_transport_is_translation_for_xi1():
    p = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    q = ex.sin(ex.x(1))
    v = transport_solve(p, q, 1.0, [0.3, 0.0, 1.0, 0.0])
    assert v == pytest.approx(np.sin(1.3), abs=1e-8)


def test_transport_zero_time():
    p = sy.HomogeneousTerm(ex.xi(1), 1.0, 2)
    q = ex.sin(ex.x(1))
    v = transport_solve(p, q, 0.0, [0.3, 0.0, 1.0, 0.0])
    assert v == pytest.approx(np.sin(0.3), abs=1e-12)


def test_transport_matches_finite_difference_along_flow():
    # d/dt q(Phi_t(z)) = {p, q}(Phi_t(z)); check at t = 0 against a
    # centered difference of the solved values
    p = sy.HomogeneousTerm(ex.mul(ex.ONE + ex.mul(ex.Const(0.5),
                                                  ex.sin(ex.x(1))),
                                  ex.xi(1)), 1.0, 1)
    q = ex.sin(ex.x(1))
    z = [0.3, 1.0]
    h = 1e-4
    fd = (transport_solve(p, q, h, z) - transport_solve(p, q, -h, z)) / (2 * h)
    f = hamiltonian_field(p)
    dx = f(z)[0]
    exact = np.cos(0.3) * dx
    assert fd == pytest.approx(exact, abs=1e-6)


def test_bicharacteristic_csv(tmp_path):
    p = sy.HomogeneousTerm(ex.xi_norm_sq(2), 2.0, 2)
    b = flow(p, [0.0, 0.0, 1.0, 0.0], 1.0)
    path = tmp_path / "curve.csv"
    b.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + len(b.times)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(2.0, abs=1e-8)
