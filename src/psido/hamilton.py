"""Hamiltonian flow of principal symbols.

The Hamiltonian field of p is (dp/dxi, -dp/dx) on phase space; its
integral curves inside {p = 0} are the bicharacteristics along which
singularities propagate.  Integration uses the adaptive embedded
Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving
ODEs I, 2nd ed., II.10) under the step control of scipy's DOP853: twelve
field evaluations per step, an error norm that combines a fifth- and a
third-order estimate, and steps rescaled by norm^(-1/8).  p is conserved
along the flow, which serves as an independent accuracy certificate on
every trajectory.

`solve_ivp` has one step controller and two forms of an attempt.  A
wavefront is one integration on an array: its rays are stacked into one
system, the field runs once per stage for all of them, and they share
the step size, which the error norm over the whole stacked state
controls.  A flow, one ray, is integrated as a list of Python floats:
an attempt is one generated straight-line function of the state size,
and the field calls the field program's point function on lists.  The
list form is not the array form bit for bit: numpy sums the stages
through BLAS, in an order that Python's left-to-right sums do not
follow, so a flow's states differ at round-off.

Each symbol has one flow plan while it lives: its field program, the
program of p, whose samples have checked that p is real, and whether
the field is real at compilation.  A repeat flow or wavefront of the
symbol compiles nothing.  A start with |xi| < XI_FLOOR raises
ZeroCovector.

x-components are not wrapped into the periodic box during integration;
wrap only when reporting, if a torus interpretation is wanted.
"""

from __future__ import annotations

import csv
import functools
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .errors import NotCharacteristic, NotReal, StepFailure, ZeroCovector
from .symbols import HomogeneousTerm, sample_points

XI_FLOOR = 1e-8
_COLLAPSED = "trajectory entered |xi| < 1e-8 (symbol singularity)"


@dataclass(frozen=True)
class PhasePoint:
    x: tuple
    xi: tuple

    @classmethod
    def of(cls, x, xi):
        return cls(tuple(float(v) for v in x), tuple(float(v) for v in xi))

    def as_vector(self) -> np.ndarray:
        return np.array(self.x + self.xi, dtype=float)


@dataclass
class Bicharacteristic:
    """A sampled integral curve: times, phase points, symbol values."""

    times: np.ndarray
    points: np.ndarray          # shape (len(times), 2n)
    p_values: np.ndarray

    @property
    def dimension(self):
        return self.points.shape[1] // 2

    def endpoint(self) -> PhasePoint:
        n = self.dimension
        last = self.points[-1]
        return PhasePoint.of(last[:n], last[n:])

    def conservation_drift(self) -> float:
        return float(np.max(np.abs(self.p_values - self.p_values[0])))

    def write_csv(self, path):
        n = self.dimension
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            fh.write("# t, x1..xn, xi1..xin, p_value\n")
            for t, row, pv in zip(self.times, self.points, self.p_values):
                w.writerow([repr(float(t))] + [repr(float(v)) for v in row]
                           + [repr(float(pv))])


class _Plan(NamedTuple):
    """What a flow or a wavefront computes of a symbol alone: the program
    of its Hamiltonian field, the program of p, and whether every root of
    the field is real at compilation (`ex.Program`), so that the point
    function's values need no real part taken."""

    field: ex.Program
    p: ex.Program
    real: bool


# {symbol: its flow plan}: equal symbols share a plan, and a symbol's plan
# dies with it; a plan holds nodes, never its symbol
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(p: HomogeneousTerm) -> _Plan:
    """p's flow plan, built on its first flow: NotReal unless p is real on
    the fixed samples of `sample_points`, then the field assembled by
    symbolic differentiation, (dp/dxi_1..n, -dp/dx_1..n)."""
    plan = _PLANS.get(p)
    if plan is None:
        n = p.dimension
        prog = ex.Program([p.expr])
        vals = prog(*sample_points(n))[0]
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.max(np.abs(vals.imag)) > 1e-9 * scale:
            raise NotReal("Hamiltonian flow needs a real-valued symbol")
        js = range(1, n + 1)
        field = ex.Program([p.expr.diff("xi", j) for j in js]
                           + [ex.neg(p.expr.diff("x", j)) for j in js])
        real = all(field._real[k] for k in field._roots)
        plan = _PLANS[p] = _Plan(field, prog, real)
    return plan


def phase_vector(pt, n: int) -> np.ndarray:
    """A phase-space point of T^n, PhasePoint or sequence, as a flat
    (x, xi) vector; ValueError unless it has 2n entries, all finite."""
    z = pt.as_vector() if isinstance(pt, PhasePoint) \
        else np.asarray(pt, dtype=float)
    if z.size != 2 * n:
        raise ValueError(f"phase point must have length {2 * n}")
    if not np.isfinite(z).all():
        raise ValueError(f"phase point {z.tolist()} is not finite")
    return z


def _list_field(plan: _Plan, n: int):
    """The field of `plan` on one ray's state, a list of 2n floats, as a
    list: the point function's values, or, where it hands the point back,
    the array loop's on (n, 1) arrays, as on a batch's column."""
    field, real = plan.field, plan.real

    def field_at(v: list) -> list:
        out = field._at_point(v[:n], v[n:])
        if out is None:
            z = np.array(v)[:, None]
            return field._loop(z[:n], z[n:], (1,)).real.ravel().tolist()
        return out if real else [w.real for w in out]

    return field_at


def hamiltonian_field(p: HomogeneousTerm):
    """Evaluator of the field (dp/dxi_1..n, -dp/dx_1..n) of p's flow plan
    (NotReal unless p is real): a 2n-vector gives a 2n-vector, a (2n,
    rays) array one column per ray, and the flat (2n * rays) vector of
    that array, as `solve_ivp` integrates it, its flat field; one ray's
    (2n,) array goes to the point function as two lists (see
    `ex.Program`)."""
    plan, n = _plan(p), p.dimension
    field, at_point = plan.field, _list_field(plan, n)

    def field_at(z) -> np.ndarray:
        if type(z) is np.ndarray and z.shape == (2 * n,):
            return np.array(at_point(z.tolist()))
        z = np.asarray(z, dtype=float)
        cols = z.reshape(2 * n, -1)
        return field._loop(cols[:n], cols[n:], cols.shape[1:]).real.reshape(
            z.shape)

    return field_at


# The Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, II.10),
# the coefficients of Hairer's dop853.f rounded to doubles: stage matrix _A
# over twelve stages, eighth-order weights _B (a thirteenth stage, the
# derivative at the new point, is reused as the next step's first), and two
# error estimators over the twelve stages, _E5 of fifth order and _E3, the
# eighth- minus the embedded third-order weights.  The nodes are not needed:
# the Hamiltonian field does not depend on t.
_A = np.zeros((12, 12))
_A[1, :1] = [0.05260015195876773]
_A[2, :2] = [0.0197250569845379, 0.0591751709536137]
_A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
_A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
_A[5, [0, 3, 4]] = [
    0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
_A[6, [0, 3, 4, 5]] = [
    0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125]
_A[7, [0, 3, 4, 5, 6]] = [
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    0.6241109587160757, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.273310147516538, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636]
_B, _E5 = np.zeros(12), np.zeros(12)
_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259]
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294]
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118,
                     0.022058823529411766]
# step-size control of scipy's DOP853: safety factor, limits on the change
# of the step per attempt, and -1/(order of the error estimate + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1 / 8


@dataclass(frozen=True)
class Solution:
    """The accepted times `t`, the states `y` (one row per time) and the
    number `nfev` of right-hand-side evaluations of one `solve_ivp`."""

    t: np.ndarray
    y: np.ndarray
    nfev: int


def _rms(v: np.ndarray) -> float:
    return np.linalg.norm(v) / v.size ** 0.5


def _error_norm(s5: float, s3: float, h: float, m: int) -> float:
    """DOP853's error norm of a step of size h on m components, from the
    sums of squares s5 of K E5 / scale and s3 of K E3 / scale over the
    stages K: |h| s5 / sqrt((s5 + 0.01 s3) m).  That is about the RMS
    norm of the fifth-order estimate while it dominates; as h -> 0, s5 ~
    h^10 and s3 ~ h^6, so the norm goes as h^8, whence the step exponent
    -1/8.  It is 0 where s5 is, even where 0.01 s3 underflows to 0."""
    if s5 == 0:
        return 0.0
    return abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * m)


def _array_attempt(rhs, y, f, h, atol, rtol):
    """One DOP853 attempt of size h from (y, f = rhs(y)) on arrays:
    y_new, f_new = rhs(y_new), and the sums of squares s5, s3 of
    `_error_norm` over the scale atol + max(|y|, |y_new|) rtol."""
    K = np.empty((12, y.size))
    K[0] = f
    for s in range(1, 12):
        K[s] = rhs(y + np.dot(K[:s].T, _A[s, :s]) * h)
    y_new = y + h * np.dot(K.T, _B)
    f_new = rhs(y_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    s5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
    s3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
    return y_new, f_new, s5, s3


@functools.lru_cache(maxsize=16)
def _list_attempt(m: int):
    """`_array_attempt` on lists of m Python floats, as one generated
    straight-line function: stage s is k{s}_0..k{s}_{m-1}, each stage
    sum runs left to right over the nonzero coefficients of the tableau,
    written as float literals, and the scale and the sums of squares
    run on floats.  Generated on the first flow of each state size; the
    cache keeps the functions of 16 sizes (a flow of T^n has 2n)."""
    idx = range(m)

    def comb(coefs, i):
        return " + ".join(f"{float(c)!r} * k{j}_{i}"
                          for j, c in enumerate(coefs) if c)

    def stage(s):
        return "".join(f"k{s}_{i}, " for i in idx)

    body = [f"{''.join(f'y{i}, ' for i in idx)}= y", f"{stage(0)}= f"]
    for s in range(1, 12):
        args = ", ".join(f"y{i} + ({comb(_A[s, :s], i)}) * h" for i in idx)
        body.append(f"{stage(s)}= rhs([{args}])")
    body += [f"n{i} = y{i} + h * ({comb(_B, i)})" for i in idx]
    body.append(f"y_new = [{', '.join(f'n{i}' for i in idx)}]")
    body.append("f_new = rhs(y_new)")
    for i in idx:
        # as in np.maximum, a NaN |y_new| is the one taken
        body += [f"a, b = abs(y{i}), abs(n{i})",
                 "c = atol + (a if a > b else b) * rtol",
                 f"u{i} = ({comb(_E5, i)}) / c",
                 f"w{i} = ({comb(_E3, i)}) / c"]
    s5 = " + ".join(f"u{i} * u{i}" for i in idx)
    s3 = " + ".join(f"w{i} * w{i}" for i in idx)
    body.append(f"return y_new, f_new, {s5}, {s3}")
    source = "def attempt(rhs, y, f, h, atol, rtol):\n" + "".join(
        f"    {line}\n" for line in body)
    ns = {}
    exec(compile(source, f"<psido DOP853 attempt, m = {m}>", "exec"), ns)
    return ns["attempt"]


def _initial_step(rhs, y, f, T, rtol, atol):
    """scipy's starting step (Hairer, Norsett & Wanner, II.4): a trial
    Euler step sized from |y| and |f|, then the step at which its
    second-derivative estimate would meet the tolerance, to the power
    1/8 that DOP853's error estimate of order 7 calls for."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(T))
    d2 = _rms((rhs(y + h0 * math.copysign(1.0, T) * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, abs(T))


def solve_ivp(rhs, T: float, y0, rtol: float, atol: float,
              stop=None) -> Solution:
    """Integrate the autonomous system y' = rhs(y) from y(0) = y0 to t = T
    (backwards in time if T < 0) with the Dormand-Prince 8(5,3) pair,
    twelve evaluations of rhs per attempt.  y0 is a 1-D array, for an
    rhs of arrays, or a list of floats, for an rhs that maps a list to a
    list: the list form runs each attempt as `_list_attempt`'s generated
    function on floats, the array form as `_array_attempt` on arrays.
    Their stage sums round apart, so their states differ at round-off;
    the rest is one step controller, that of scipy's DOP853, with the
    same first step (chosen on arrays) and the same count of evaluations,
    2 + 12 per attempt: the two-estimator `_error_norm` over the scale
    atol + max(|y|, |y_new|) rtol must stay below 1, and each attempt
    rescales the step by 0.9 norm^(-1/8), within [0.2, 10], and by at
    most 1 right after a rejection.  `stop(y)`, if given, sees each
    accepted state, in the form of y0, and raises to end the integration.
    Raises ValueError unless T is finite and rtol and atol are finite and
    positive, and StepFailure if the step would fall below 10 ulp(t) or
    the initial step, the error estimate or a state is not finite."""
    if not (math.isfinite(T) and 0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError(f"need a finite time and finite, positive tolerances"
                         f" (T = {T!r}, rtol = {rtol!r}, atol = {atol!r})")
    listed = type(y0) is list
    y = [float(v) for v in y0] if listed else np.asarray(y0, dtype=float)
    m = len(y) if listed else y.size
    if T == 0.0 or m == 0:
        return Solution(np.array([0.0]), np.array([y]), 0)
    direction = math.copysign(1.0, T)
    f = rhs(y)
    if listed:
        h_abs = _initial_step(lambda v: np.array(rhs(v.tolist())),
                              np.array(y), np.array(f), T, rtol, atol)
        attempt = _list_attempt(m)
    else:
        h_abs = _initial_step(rhs, y, f, T, rtol, atol)
        attempt = _array_attempt
    nfev = 2
    if not math.isfinite(h_abs):
        raise StepFailure("integrator failed: the initial step is not finite")
    t, ts, ys = 0.0, [0.0], [y]
    while direction * (t - T) < 0:
        min_step = 10 * math.ulp(t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepFailure(f"integrator failed: the step fell below "
                                  f"10 ulp(t) at t = {float(t)!r}")
            t_new = t + h_abs * direction
            if direction * (t_new - T) > 0:
                t_new = T
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, s5, s3 = attempt(rhs, y, f, h, atol, rtol)
            nfev += 12
            err = _error_norm(s5, s3, h, m)
            if not math.isfinite(err):
                raise StepFailure(f"integrator failed: the error estimate "
                                  f"is not finite at t = {float(t)!r}")
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else \
                    min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        if not (all(map(math.isfinite, y)) if listed
                else np.isfinite(y).all()):
            raise StepFailure(f"integrator failed: the state is not finite "
                              f"at t = {float(t)!r}")
        if stop is not None:
            stop(y)
        ts.append(t)
        ys.append(y)
    return Solution(np.array(ts), np.array(ys), nfev)


def _starts(points, n: int) -> np.ndarray:
    """The (2n, rays) array of phase points, each checked by
    `phase_vector`; ValueError if there are none, ZeroCovector at one
    with |xi| < XI_FLOOR."""
    rows = [phase_vector(pt, n) for pt in points]
    if not rows:
        raise ValueError("nothing to flow: no initial points")
    z = np.reshape(rows, (-1, 2 * n)).T
    small = np.linalg.norm(z[n:], axis=0) < XI_FLOOR
    if small.any():
        raise ZeroCovector(f"start {tuple(z[:, small.argmax()].tolist())} "
                           f"has |xi| < {XI_FLOOR:g}: a flow needs xi != 0")
    return z


def flow(p: HomogeneousTerm, start, T: float,
         tol: float = 1e-9) -> Bicharacteristic:
    """Integrate the Hamiltonian flow from `start` over t in [0, T], the
    state a list of floats (`solve_ivp`'s list form) and the field p's
    flow plan's.  A bad start raises ValueError or ZeroCovector
    (`_starts`), a complex-valued p NotReal, and a ray that nears xi = 0
    (outside the symbol's phase space) or a failed step StepFailure."""
    n = p.dimension
    z0 = _starts([start], n)[:, 0].tolist()
    plan = _plan(p)

    def stop(z):
        if math.hypot(*z[n:]) < XI_FLOOR:
            raise StepFailure(_COLLAPSED)

    sol = solve_ivp(_list_field(plan, n), T, z0, tol, tol * 1e-3, stop)
    pv = plan.p(sol.y[:, :n].T, sol.y[:, n:].T)[0].real
    return Bicharacteristic(sol.t, sol.y, pv)


def propagate_wavefront(p: HomogeneousTerm, initial, T: float,
                        tol: float = 1e-9) -> list:
    """Flow a set of characteristic points for time T, all rays as one
    integration on the flat (2n * rays) array, with p's flow plan.  Every
    input must lie on char(p) (|p| <= 1e-6); conservation keeps the
    outputs there.  Raises as `flow` does, and ValueError if there are no
    points."""
    fld = hamiltonian_field(p)
    n = p.dimension
    z = _starts(initial, n)
    mods = np.abs(_plan(p).p(z[:n], z[n:])[0])
    if np.any(mods > 1e-6):
        k = int(np.argmax(mods > 1e-6))
        raise NotCharacteristic(
            f"initial point {tuple(z[:, k].tolist())} has |p| = "
            f"{mods[k]:.2e} > 1e-6")

    def stop(w):
        if np.min(np.linalg.norm(w.reshape(z.shape)[n:], axis=0)) < XI_FLOOR:
            raise StepFailure(_COLLAPSED)

    sol = solve_ivp(fld, T, z.reshape(-1), tol, tol * 1e-3, stop)
    return [PhasePoint.of(v[:n], v[n:])
            for v in sol.y[-1].reshape(z.shape).T]


def transport_solve(p1: HomogeneousTerm, q_init: ex.Expr, t: float,
                    z, tol: float = 1e-9) -> complex:
    """Value at (t, z) of the transport solution dq/dt - H_{p1} q = 0 with
    initial data q_init: constant along (1, H_{p1}) curves, so equals
    q_init evaluated at the time-t forward flow of z."""
    if abs(p1.degree - 1.0) > 1e-9:
        raise ValueError("transport equation needs a degree-1 symbol")
    curve = flow(p1, z, t, tol=tol)
    return ex.evaluate(q_init, curve.points[-1])
