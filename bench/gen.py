"""Seeded input generators for the benchmark workloads.

Every function takes a ``numpy.random.Generator`` and returns plain data:
numbers, numpy arrays and symbol-document text.  Nothing here imports
psido, so the inputs a workload hands to the program depend on the seed
alone.  Numbers that go into document text are written with fixed decimals
because the psido grammar has no exponent notation.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def r6(v) -> float:
    """Round to the six decimals that ``fmt`` writes, so a document and
    the numpy formula an oracle evaluates describe the same function."""
    return round(float(v), 6)


def fmt(v: float) -> str:
    """A real literal the psido grammar accepts, negative values in
    parentheses."""
    s = f"{abs(v):.6f}"
    return f"(-{s})" if v < 0 else s


def symbol_doc(name: str, dim: int, order: int, trunc: int,
               terms) -> str:
    """A symbol document; ``terms`` is a list of (degree, text)."""
    body = "\n".join(f'  term {d}: "{t}"' for d, t in terms)
    return (f"symbol {name} {{\n  dim={dim} order={order} trunc={trunc}\n"
            f"{body}\n}}\n")


# -- elliptic family on T^2 --------------------------------------------------

def elliptic_params(rng) -> dict:
    """Coefficients of (1 + a sin(x1 + phi)) xi1^2 + (1 + b cos x2) xi2^2."""
    return {"a": r6(rng.uniform(0.1, 0.5)), "b": r6(rng.uniform(0.1, 0.5)),
            "phi": r6(rng.uniform(0.0, TWO_PI))}


def elliptic_doc(p: dict, name: str = "P") -> str:
    text = (f"(1+{fmt(p['a'])}*sin(x1+{fmt(p['phi'])}))*xi1^2"
            f" + (1+{fmt(p['b'])}*cos(x2))*xi2^2")
    return symbol_doc(name, 2, 2, 4, [(2, text)])


def elliptic_value(p: dict, x, xi) -> np.ndarray:
    """The principal symbol in numpy; x, xi have shape (2, m)."""
    c1 = 1.0 + p["a"] * np.sin(x[0] + p["phi"])
    c2 = 1.0 + p["b"] * np.cos(x[1])
    return c1 * xi[0] ** 2 + c2 * xi[1] ** 2


# -- differential symbols on T^2 ---------------------------------------------

# monomials k1^i k2^j of a polynomial symbol, grouped by degree
MONOMIALS = {2: [(2, 0), (1, 1), (0, 2)], 1: [(1, 0), (0, 1)], 0: [(0, 0)]}


def differential_symbol(rng, max_degree: int = 2) -> dict:
    """Random differential symbol: for each monomial xi^alpha a coefficient
    c0 + c1 sin x1 + c2 cos x2 with c uniform in [-1, 1] (spectral band 1)."""
    return {alpha: tuple(r6(c) for c in rng.uniform(-1.0, 1.0, 3))
            for d in range(max_degree, -1, -1) for alpha in MONOMIALS[d]}


def differential_doc(sym: dict, name: str) -> str:
    """Symbol document for a differential symbol, one term per degree."""
    terms = []
    top = max(sum(a) for a in sym)
    for d in range(top, -1, -1):
        parts = []
        for alpha in MONOMIALS[d]:
            c0, c1, c2 = sym[alpha]
            mono = "*".join(f"xi{j + 1}" for j, e in enumerate(alpha)
                            for _ in range(e)) or "1"
            parts.append(f"({fmt(c0)}+{fmt(c1)}*sin(x1)+{fmt(c2)}*cos(x2))"
                         f"*{mono}")
        terms.append((d, " + ".join(parts)))
    return symbol_doc(name, 2, top, top + 1, terms)


def apply_differential(sym: dict, u: np.ndarray) -> np.ndarray:
    """Quantize a differential symbol on a periodic grid with numpy alone:
    sum over alpha of c_alpha(x) * F^-1[k^alpha u^(k)].  This is the
    reference the benchmark checks psido's op_apply against."""
    M = u.shape[0]
    ks = np.fft.fftfreq(M, d=1.0 / M)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    ax = TWO_PI * np.arange(M) / M
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    uhat = np.fft.fft2(u)
    out = np.zeros_like(u, dtype=complex)
    for (i, j), (c0, c1, c2) in sym.items():
        coef = c0 + c1 * np.sin(x1) + c2 * np.cos(x2)
        out += coef * np.fft.ifft2(k1 ** i * k2 ** j * uhat)
    return out


# -- grids -------------------------------------------------------------------

def band_limited_grid(rng, M: int, band: int) -> np.ndarray:
    """Values on the (2pi/M)^2 lattice of a field whose Fourier
    coefficients are complex normal for |k_j| <= band and zero beyond."""
    ks = np.fft.fftfreq(M, d=1.0 / M)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    mask = (np.abs(k1) <= band) & (np.abs(k2) <= band)
    coef = np.zeros((M, M), dtype=complex)
    cnt = int(mask.sum())
    coef[mask] = rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt)
    return np.fft.ifft2(coef) * M * M


# -- Hamiltonian flow --------------------------------------------------------

def speed_params(rng) -> dict:
    """Wave speed c(x) = 1 + a sin(x_j + phi)."""
    return {"a": r6(rng.uniform(0.15, 0.25)),
            "phi": r6(rng.uniform(0.0, TWO_PI))}


def ray_starts(rng, count: int) -> np.ndarray:
    """Phase points (x1, x2, cos t, sin t) with x uniform on T^2."""
    x = rng.uniform(0.0, TWO_PI, size=(count, 2))
    t = rng.uniform(0.0, TWO_PI, size=count)
    return np.column_stack([x, np.cos(t), np.sin(t)])


def speed_ray_value(p: dict, z: np.ndarray) -> np.ndarray:
    """(1 + a sin(x1 + phi)) |xi| at rows z = (x1, x2, xi1, xi2)."""
    z = np.atleast_2d(z)
    c = 1.0 + p["a"] * np.sin(z[:, 0] + p["phi"])
    return c * np.hypot(z[:, 2], z[:, 3])


def wave_starts(rng, p: dict, points: int, rays: int) -> np.ndarray:
    """Characteristic points of xi1^2 - c(x2)^2 (xi2^2 + xi3^2) on T^3:
    ``rays`` evenly spread directions from each of ``points`` seeded launch
    points."""
    out = []
    for _ in range(points):
        x0 = rng.uniform(0.0, TWO_PI, size=3)
        c = 1.0 + p["a"] * np.sin(x0[1] + p["phi"])
        th = TWO_PI * (np.arange(rays) + rng.uniform()) / rays
        pts = np.zeros((rays, 6))
        pts[:, :3] = x0
        pts[:, 3] = c
        pts[:, 4] = np.cos(th)
        pts[:, 5] = np.sin(th)
        out.append(pts)
    return np.vstack(out)


def wave_value(p: dict, z: np.ndarray) -> np.ndarray:
    """xi1^2 - c(x2)^2 (xi2^2 + xi3^2) at rows z = (x1..x3, xi1..xi3)."""
    z = np.atleast_2d(z)
    c = 1.0 + p["a"] * np.sin(z[:, 1] + p["phi"])
    return z[:, 3] ** 2 - c ** 2 * (z[:, 4] ** 2 + z[:, 5] ** 2)


# -- oscillatory integrals ---------------------------------------------------

def bump_params(rng) -> dict:
    """Gaussian bump exp(-w (x - c)^2), narrow enough that its tail at the
    support edge +-pi is below 1e-8."""
    return {"w": r6(rng.uniform(2.8, 3.2)), "c": r6(rng.uniform(-0.2, 0.2))}


def bump_text(b: dict) -> str:
    return f"exp(-{fmt(b['w'])}*(x1-{fmt(b['c'])})^2)"


def oscint_exact(b: dict, order: int) -> float:
    """Closed form of int a(theta) int e^{i x theta} psi(x) dx dtheta for
    the Gaussian bump: a = 1 gives 2 pi psi(0); a = |theta| gives
    4 sqrt(pi w) (1 - 2 z F(z)), z = c sqrt(w), F the Dawson function."""
    w, c = b["w"], b["c"]
    if order == 0:
        return float(TWO_PI * np.exp(-w * c * c))
    from scipy.special import dawsn
    z = c * np.sqrt(w)
    return float(4.0 * np.sqrt(np.pi * w) * (1.0 - 2.0 * z * dawsn(z)))


# -- circle index ------------------------------------------------------------

def winding_pair(rng) -> dict:
    """Windings in {-2..2} and phases of nonvanishing modulations, for
    a+ = (2 + cos(x1 + s)) e^{i w+ x1}, a- = (2 + sin(x1 + t)) e^{i w- x1}."""
    wp, wm = (int(v) for v in rng.integers(-2, 3, size=2))
    s, t = (r6(v) for v in rng.uniform(0.0, TWO_PI, size=2))
    return {"wp": wp, "wm": wm, "s": s, "t": t}


def winding_texts(wp: dict):
    """(a+, a-) in the psido grammar."""
    ap = f"(2+cos(x1+{fmt(wp['s'])}))*exp({wp['wp']}*i*x1)"
    am = f"(2+sin(x1+{fmt(wp['t'])}))*exp({wp['wm']}*i*x1)"
    return ap, am


# -- forms on T^3 ------------------------------------------------------------

def form_coefficients(rng, n: int, j: int, M: int, band: int) -> dict:
    """Band-limited coefficient fields of a random j-form on T^n."""
    from itertools import combinations
    ks = np.fft.fftfreq(M, d=1.0 / M)
    kg = np.meshgrid(*([ks] * n), indexing="ij")
    mask = np.ones_like(kg[0], dtype=bool)
    for K in kg:
        mask &= np.abs(K) <= band
    cnt = int(mask.sum())
    out = {}
    for alpha in combinations(range(1, n + 1), j):
        spec = np.zeros((M,) * n, dtype=complex)
        spec[mask] = rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt)
        out[alpha] = np.fft.ifftn(spec) * M ** n
    return out
