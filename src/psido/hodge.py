"""Exterior calculus on the flat torus T^n, n <= 3.

A j-form is stored as one complex grid field per strictly increasing
multi-index alpha with |alpha| = j.  Partials are spectral (exact on
band-limited fields), the metric is Euclidean, and the orientation is
dx_1 ^ ... ^ dx_n.  On this exactly-solvable geometry the Green operator
of the Hodge Laplacian is a genuine spectral pseudo-inverse, so the
"inverse modulo smoothing" statements of the continuous theory hold with
the harmonic projector as the entire remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BottomDegree, GridMismatch, TopDegree, ValidationError
from .quantize import (band_limited_samples, lattice, read_csv_header,
                       read_samples, wavenumbers, write_samples)


def basis_indices(n: int, j: int):
    """Strictly increasing multi-indices of length j over {1..n}."""
    return [tuple(c) for c in combinations(range(1, n + 1), j)]


def wedge_sign(j_var: int, alpha: tuple):
    """dx_j ^ dx_alpha = sign * dx_sorted(alpha+{j}), or (0, None)."""
    if j_var in alpha:
        return 0, None
    below = sum(1 for a in alpha if a < j_var)
    merged = tuple(sorted(alpha + (j_var,)))
    return (-1) ** below, merged


def complement_sign(alpha: tuple, n: int):
    """Sign of the permutation (alpha, alpha^c) of (1..n), and alpha^c."""
    comp = tuple(a for a in range(1, n + 1) if a not in alpha)
    perm = list(alpha + comp)
    sign = 1
    for i in range(len(perm)):
        for k in range(i + 1, len(perm)):
            if perm[i] > perm[k]:
                sign = -sign
    return sign, comp


@dataclass
class FormField:
    """Differential j-form on T^n with one grid field per basis form, of
    finite values (ValidationError for a sample that is not finite)."""

    dimension: int
    degree: int
    M: int
    coefficients: dict   # increasing multi-index tuple -> complex array

    def __post_init__(self):
        n, j = self.dimension, self.degree
        if not (1 <= n <= 3 and 0 <= j <= n):
            raise GridMismatch(f"need 1 <= dimension <= 3 and 0 <= degree "
                               f"<= dimension, got n={n}, j={j}")
        if self.M < 1:
            raise GridMismatch("points-per-axis must be positive")
        want = basis_indices(n, j)
        full = {}
        for alpha in want:
            v = self.coefficients.get(alpha)
            if v is None:
                v = np.zeros((self.M,) * n, dtype=complex)
            v = np.asarray(v, dtype=complex)
            if v.shape != (self.M,) * n:
                raise GridMismatch(f"coefficient {alpha} has shape {v.shape}")
            if not np.isfinite(v).all():
                raise ValidationError(
                    f"coefficient {alpha} values must be finite")
            full[alpha] = v
        extra = set(self.coefficients) - set(want)
        if extra:
            raise GridMismatch(f"unexpected multi-indices {sorted(extra)}")
        self.coefficients = full

    @classmethod
    def zero(cls, n: int, j: int, M: int) -> "FormField":
        return cls(n, j, M, {})

    @classmethod
    def from_callables(cls, n: int, j: int, M: int, table) -> "FormField":
        mesh = lattice(n, M).reshape((n,) + (M,) * n)
        return cls(n, j, M,
                   {alpha: f(*mesh) for alpha, f in table.items()})

    @classmethod
    def random_band_limited(cls, n: int, j: int, M: int, band: int = 4,
                            rng=None) -> "FormField":
        rng = rng or np.random.default_rng(0)
        # the zero form checks n, j and M before a sample is drawn
        return cls.zero(n, j, M).map_coefficients(
            lambda _: band_limited_samples(n, M, band, rng))

    def map_coefficients(self, f) -> "FormField":
        return FormField(self.dimension, self.degree, self.M,
                         {a: f(v) for a, v in self.coefficients.items()})

    def __add__(self, other: "FormField") -> "FormField":
        self._match(other)
        return FormField(self.dimension, self.degree, self.M,
                         {a: v + other.coefficients[a]
                          for a, v in self.coefficients.items()})

    def __sub__(self, other: "FormField") -> "FormField":
        return self + other.scale(-1.0)

    def scale(self, c) -> "FormField":
        return self.map_coefficients(lambda v: c * v)

    def _match(self, other):
        if (self.dimension, self.degree, self.M) != \
                (other.dimension, other.degree, other.M):
            raise GridMismatch("form fields are not compatible")

    def norm(self) -> float:
        return math.sqrt(max(inner(self, self).real, 0.0))

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(v)))
                   for v in self.coefficients.values())

    def write_csv(self, path):
        n, j, M = self.dimension, self.degree, self.M
        order = basis_indices(n, j)
        alphas = ";".join(".".join(map(str, a)) or "0" for a in order)
        with open(path, "w", newline="") as fh:
            write_samples(fh, f"formfield n={n} j={j} M={M} alphas={alphas}",
                          np.stack([self.coefficients[a] for a in order]))

    @classmethod
    def read_csv(cls, path) -> "FormField":
        """The form `write_csv` wrote: its basis coefficients stacked, one
        (M,)^n block per basis index, as one array of the lattice format."""
        with open(path) as fh:
            n, j, M = read_csv_header(fh, "form", ("n", "j", "M"), range(1, 4))
            order = basis_indices(n, j)
            stacked = read_samples(fh, "form", (len(order),) + (M,) * n)
        return cls(n, j, M, dict(zip(order, stacked)))


def _spectral_partial(v: np.ndarray, axis: int, M: int) -> np.ndarray:
    shape = [1] * v.ndim
    shape[axis] = M
    kf = wavenumbers(1, M)[0].reshape(shape)     # broadcast along axis
    return np.fft.ifftn(1j * kf * np.fft.fftn(v))


def inner(a: FormField, b: FormField) -> complex:
    """L^2 inner product: coefficient-wise mean of a conj(b)."""
    a._match(b)
    tot = 0.0 + 0.0j
    for alpha, v in a.coefficients.items():
        tot += np.sum(v * np.conj(b.coefficients[alpha]))
    return complex(tot / a.M ** a.dimension)


def ext_d(w: FormField) -> FormField:
    n, j, M = w.dimension, w.degree, w.M
    if j == n:
        raise TopDegree("d of a top-degree form")
    out = {}
    for alpha, v in w.coefficients.items():
        for p in range(1, n + 1):
            sign, merged = wedge_sign(p, alpha)
            if sign == 0:
                continue
            dv = sign * _spectral_partial(v, p - 1, M)
            out[merged] = out.get(merged, 0) + dv
    return FormField(n, j + 1, M, out)


def hodge_star(w: FormField) -> FormField:
    n, j, M = w.dimension, w.degree, w.M
    out = {}
    for alpha, v in w.coefficients.items():
        sign, comp = complement_sign(alpha, n)
        out[comp] = out.get(comp, 0) + sign * v
    return FormField(n, n - j, M, out)


def codifferential(w: FormField) -> FormField:
    """delta = (-1)^{n(j+1)+1} * d * on j-forms (formal adjoint of d)."""
    n, j = w.dimension, w.degree
    if j == 0:
        raise BottomDegree("codifferential of a 0-form")
    sign = (-1) ** (n * (j + 1) + 1)
    return hodge_star(ext_d(hodge_star(w))).scale(sign)


def laplacian(w: FormField) -> FormField:
    n, j = w.dimension, w.degree
    parts = []
    if j < n:
        parts.append(codifferential(ext_d(w)))
    if j > 0:
        parts.append(ext_d(codifferential(w)))
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


def green(w: FormField) -> FormField:
    """Spectral pseudo-inverse of the Hodge Laplacian: divide each nonzero
    Fourier mode by |k|^2, zero the k = 0 modes."""
    k2 = sum(K.astype(float) ** 2 for K in wavenumbers(w.dimension, w.M))
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0).reshape(
        (w.M,) * w.dimension)

    def per_field(v):
        return np.fft.ifftn(inv * np.fft.fftn(v))

    return w.map_coefficients(per_field)


def harmonic_projection(w: FormField) -> FormField:
    """k = 0 part of each coefficient — the harmonic forms of the flat
    torus are exactly the constant-coefficient forms."""
    def per_field(v):
        return np.full_like(v, np.mean(v))

    return w.map_coefficients(per_field)


def hodge_decompose(w: FormField):
    """w = harmonic + exact + coexact, mutually orthogonal."""
    h = harmonic_projection(w)
    g = green(w)
    n, j = w.dimension, w.degree
    if j > 0:
        exact = ext_d(codifferential(g))
    else:
        exact = FormField.zero(n, j, w.M)
    if j < n:
        coexact = codifferential(ext_d(g))
    else:
        coexact = FormField.zero(n, j, w.M)
    return h, exact, coexact


def betti(n: int, j: int) -> int:
    """Rank of the harmonic projector on degree-j forms, estimated by
    probing with 8 random fields on the 8^n lattice and cross-checked
    against C(n, j)."""
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(8):
        w = FormField.random_band_limited(n, j, 8, band=2, rng=rng)
        h = harmonic_projection(w)
        rows.append([complex(np.mean(h.coefficients[a]))
                     for a in basis_indices(n, j)])
    rank = int(np.linalg.matrix_rank(np.array(rows), tol=1e-10))
    comb = math.comb(n, j)
    if rank != comb:
        raise GridMismatch(
            f"harmonic projector rank {rank} != C({n},{j}) = {comb}")
    return rank


def complex_parametrix_check(n: int, j: int, trials: int = 50) -> dict:
    """Verify d Q_{j-1} + Q_j d = I - H on degree-j forms on the 8^n
    lattice, with Q_j = G delta acting on (j+1)-forms and H the harmonic
    projector, at `trials` random forms.  Returns {"max_residual": ...,
    "trials": ...}; ValueError for trials < 1, a check of no form."""
    if trials < 1:
        raise ValueError(f"parametrix check needs trials >= 1, got {trials}")
    M = 8
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(trials):
        w = FormField.random_band_limited(n, j, M, band=3, rng=rng)
        acc = FormField.zero(n, j, M)
        if j > 0:
            # Q_{j-1} w = G delta w, then d
            acc = acc + ext_d(green(codifferential(w)))
        if j < n:
            acc = acc + green(codifferential(ext_d(w)))
        target = w - harmonic_projection(w)
        res = (acc - target).max_abs()
        worst = max(worst, res / max(1.0, w.max_abs()))
    return {"max_residual": worst, "trials": trials}
