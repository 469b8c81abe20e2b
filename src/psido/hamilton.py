"""Hamiltonian flow of principal symbols.

The Hamiltonian field of p is (dp/dxi, -dp/dx) on phase space; its
integral curves inside {p = 0} are the bicharacteristics along which
singularities propagate.  Integration uses an adaptive embedded
Runge-Kutta pair (scipy's RK45); p is conserved along the flow, which
serves as an independent accuracy certificate on every trajectory.
A wavefront is one integration: its rays are stacked into one system,
the field runs once per stage for all of them, and they share the step
size, which the error norm over the whole stacked state controls.

x-components are not wrapped into the periodic box during integration;
wrap only when reporting, if a torus interpretation is wanted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import expr as ex
from .errors import NotCharacteristic, NotReal, StepFailure
from .symbols import HomogeneousTerm, sample_points

XI_FLOOR = 1e-8
CONSERVATION_TOL = 1e-6


@dataclass(frozen=True)
class PhasePoint:
    x: tuple
    xi: tuple

    @classmethod
    def of(cls, x, xi):
        return cls(tuple(float(v) for v in x), tuple(float(v) for v in xi))

    def as_vector(self) -> np.ndarray:
        return np.array(self.x + self.xi, dtype=float)

    @property
    def dimension(self):
        return len(self.x)


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


def _check_real(p: HomogeneousTerm):
    xs, xis = sample_points(p.dimension)
    vals = p.expr.ev(xs, xis)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.max(np.abs(vals.imag)) > 1e-9 * scale:
        raise NotReal("Hamiltonian flow needs a real-valued symbol")


def _phase_vector(pt, n: int) -> np.ndarray:
    """A start point, PhasePoint or sequence, as a flat (x, xi) vector."""
    z = pt.as_vector() if isinstance(pt, PhasePoint) \
        else np.asarray(pt, dtype=float)
    if z.size != 2 * n:
        raise ValueError(f"start must have length {2 * n}")
    return z


def hamiltonian_field(p: HomogeneousTerm):
    """Evaluator of the field (dp/dxi_1..n, -dp/dx_1..n), assembled by
    symbolic differentiation: a PhasePoint or 2n-vector gives a 2n-vector,
    a (2n, rays) array one column per ray."""
    _check_real(p)
    n = p.dimension
    grad = ex.Program([p.expr.diff(kind, j) for kind in ("xi", "x")
                       for j in range(1, n + 1)])

    def field_at(z) -> np.ndarray:
        if isinstance(z, PhasePoint):
            z = z.as_vector()
        z = np.asarray(z, dtype=float)
        cols = z.reshape(2 * n, -1)
        out = np.array([v.real for v in grad(cols[:n], cols[n:])])
        out[n:] = -out[n:]
        return out.reshape(z.shape)

    return field_at


def _integrate(field, n: int, z0: np.ndarray, T: float, tol: float):
    """Integrate the (2n, rays) start z0 over t in [0, T] as one system:
    `field` runs once per stage for all rays.  Returns the times and the
    states, shape (len(times), 2n, rays).  Raises StepFailure if any ray
    nears xi = 0 (outside the symbol's phase space) or a step fails."""
    if T == 0.0 or z0.size == 0:
        return np.array([0.0]), z0[np.newaxis]
    shape = z0.shape

    def rhs(t, z):
        return field(z.reshape(shape)).reshape(-1)

    def xi_floor_event(t, z):
        xi = z.reshape(shape)[n:]
        return float(np.min(np.linalg.norm(xi, axis=0)) - XI_FLOOR)

    xi_floor_event.terminal = True
    sol = solve_ivp(rhs, (0.0, T), z0.reshape(-1), method="RK45",
                    rtol=tol, atol=tol * 1e-3,
                    events=[xi_floor_event])
    if sol.status < 0:
        raise StepFailure(f"integrator failed: {sol.message}")
    if sol.status == 1:
        raise StepFailure(
            "trajectory entered |xi| < 1e-8 (symbol singularity)")
    return sol.t, sol.y.T.reshape((-1,) + shape)


def flow(p: HomogeneousTerm, start, T: float,
         tol: float = 1e-9) -> Bicharacteristic:
    """Integrate the Hamiltonian flow from `start` over t in [0, T]: the
    one-ray case of `_integrate`, with its StepFailure."""
    n = p.dimension
    z0 = _phase_vector(start, n)
    times, states = _integrate(hamiltonian_field(p), n, z0.reshape(-1, 1),
                               T, tol)
    pts = states[:, :, 0]
    pv = p.expr.ev(pts[:, :n].T, pts[:, n:].T).real
    return Bicharacteristic(times, pts, pv)


def propagate_wavefront(p: HomogeneousTerm, initial, T: float,
                        tol: float = 1e-9) -> list:
    """Flow a set of characteristic points for time T, all rays as one
    integration.  Every input must lie on char(p) (|p| <= 1e-6);
    conservation keeps the outputs there.  A complex-valued p raises
    NotReal and a point of the wrong length ValueError, as in `flow`."""
    fld = hamiltonian_field(p)
    n = p.dimension
    z = np.reshape([_phase_vector(pt, n) for pt in initial], (-1, 2 * n)).T
    mods = np.abs(p.expr.ev(z[:n], z[n:]))
    if np.any(mods > 1e-6):
        k = int(np.argmax(mods > 1e-6))
        raise NotCharacteristic(
            f"initial point {tuple(z[:, k])} has |p| = {mods[k]:.2e} > 1e-6")
    _, states = _integrate(fld, n, z, T, tol)
    return [PhasePoint.of(v[:n], v[n:]) for v in states[-1].T]


def transport_solve(p1: HomogeneousTerm, q_init: ex.Expr, t: float,
                    z, tol: float = 1e-9) -> complex:
    """Value at (t, z) of the transport solution dq/dt - H_{p1} q = 0 with
    initial data q_init: constant along (1, H_{p1}) curves, so equals
    q_init evaluated at the time-t forward flow of z."""
    if abs(p1.degree - 1.0) > 1e-9:
        raise ValueError("transport equation needs a degree-1 symbol")
    curve = flow(p1, z, t, tol=tol)
    return ex.evaluate(q_init, curve.points[-1])
