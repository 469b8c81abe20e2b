"""Numerical realization of the calculus on the torus [0, 2pi)^n, n <= 2.

Quantization is the finite Fourier sum (Pu)(x) = sum_k e^{ikx} p(x,k) u^(k)
over the modes of u above the fft noise floor.  The xi-singularity of a
homogeneous term meets the integer lattice only at k = 0, so excision is
one rule there: degree-0 terms are read at xi = e1, all other terms drop
k = 0.  `op_apply` applies it first, with one program of the degree-0
terms, and then runs its two routes on the nonzero modes alone.  The
terms that factor into at most _PAIR_CAP products c(x) h(xi) each are
applied as sum_h c F^-1[h u^], each h once with the sum c of its x
factors over all those terms.  One pass factors the symbol: each subtree
is counted and split once for all its terms, and a product's xi-only and
x-only children are one factor each, so only its mixed children are
multiplied out.  The other terms are summed on each mode before the
Fourier sum, since quantization is linear in the symbol: one program
holds all of them, and one e^{ikx} sum runs per group of modes.  The
split and the programs are the symbol's plan, made on its first call and
kept while it lives: on the first call of a separable task of the
benchmark's quantize workload (a composed pair of differential symbols
at M = 32) that is 306 products and 169 sums built and 5 programs
compiled, and on every call 2 inverse FFTs; a repeat builds and compiles
none.

Also here: Sobolev norms and the H^s/H^-s duality pairing, the two
regularized definitions of an oscillatory integral (mutual oracles), and
the winding-number/matrix-oracle index of a piecewise symbol on the
circle.  Each oscillatory-integral regularization is one sweep over theta
in full Gauss panels of one width, ended once every component of its
integrand is quiet: the epsilon-cutoff sweeps its whole epsilon sequence
as one vector integrand, and integration by parts keys its separable
terms by their theta factor, the near remainder one more of them.  The
sweep evaluates a block of 8 panels at a time: one call of the theta
program on the block's nodes, and one transform of the block for the x
integrals.  The transform's phase is factored at each panel centre,
e^{i theta x} = e^{i (theta - mid) x} e^{i mid x}: the first factor is
built once, so a block costs one exponential per x node and panel, and
one matrix product per transformed column.
"""

from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import expr as ex
from .errors import (GridMismatch, NonConvergent, Overflow, SymbolVanishes,
                     Unstable, ValidationError)
from .symbols import ClassicalSymbol

_MODE_EPS = 1e-12          # below the fft roundoff floor a mode is noise
_DEGREE_ZERO_TOL = 1e-9
_PAIR_CAP = 256            # a term with more (x, xi) pairs is summed by mode
_SAMPLE_BUDGET = 2 ** 14   # samples per array of a mode group, xi chunk
                           # or theta block (its phases on psi's nodes)
_X, _XI = 1, 2             # the variable kinds in a term, as bits
_QUIET_PANELS = 3          # empty theta panels in a row that end a quadrature


def lattice(n: int, M: int) -> np.ndarray:
    """The torus lattice points (2pi/M)(i1, ..., in), ij in 0..M-1, as
    one flat (n, M**n) array in the C order of a grid's samples."""
    ax = 2.0 * np.pi * np.arange(M) / M
    return ax[np.indices((M,) * n).reshape(n, -1)]


def wavenumbers(n: int, M: int) -> np.ndarray:
    """The integer wavenumbers in fft order, as one flat (n, M**n) array
    in the C order of `lattice` and of the fft's entries."""
    ks = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    return ks[np.indices((M,) * n).reshape(n, -1)]


def band_limited_samples(n: int, M: int, band: int, rng) -> np.ndarray:
    """Lattice samples of sum_k c_k e^{ikx} over the modes with every
    |k_j| <= band, each c_k drawn from rng as a standard normal real part,
    then all the imaginary parts."""
    mask = np.all(np.abs(wavenumbers(n, M)) <= band, axis=0).reshape(
        (M,) * n)
    cnt = int(mask.sum())
    coef = np.zeros((M,) * n, dtype=complex)
    coef[mask] = rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt)
    return np.fft.ifftn(coef) * M ** n


@dataclass
class GridFunction:
    """Complex samples on the periodic lattice (2pi/M)^n, n in {1, 2}:
    M^n finite values (GridMismatch for another count, ValidationError for
    a sample that is not finite)."""

    dimension: int
    M: int
    values: np.ndarray

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise GridMismatch("grid dimension must be 1 or 2")
        if self.M < 1 or self.M & (self.M - 1):
            raise GridMismatch("points-per-axis must be a power of two")
        values = np.asarray(self.values, dtype=complex)
        if values.size != self.M ** self.dimension:
            raise GridMismatch(f"{values.size} values for a grid of "
                               f"{self.M}^{self.dimension} points")
        if not np.isfinite(values).all():
            raise ValidationError("grid values must be finite")
        self.values = values.reshape((self.M,) * self.dimension)

    @classmethod
    def from_expr(cls, e: ex.Expr, n: int, M: int) -> "GridFunction":
        x = lattice(n, M)
        return cls(n, M, e.ev(x, np.zeros_like(x)))

    @classmethod
    def single_mode(cls, n: int, M: int, k) -> "GridFunction":
        x = lattice(n, M)
        k = np.atleast_1d(k)
        phase = sum(k[j] * x[j] for j in range(n))
        return cls(n, M, np.exp(1j * phase))

    @classmethod
    def random_band_limited(cls, n: int, M: int, band: int,
                            rng=None) -> "GridFunction":
        return cls(n, M, band_limited_samples(n, M, band,
                                              rng or np.random.default_rng(0)))

    def spectrum(self) -> np.ndarray:
        """Discrete Fourier coefficients u^(k) = M^-n sum_x u(x) e^{-ikx}
        in fft order: k ranges over {-M/2 .. M/2-1}^n."""
        return np.fft.fftn(self.values) / self.M ** self.dimension

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)
                             / self.M ** self.dimension))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            write_samples(fh, f"gridfunction n={self.dimension} M={self.M}",
                          self.values)

    @classmethod
    def read_csv(cls, path) -> "GridFunction":
        with open(path) as fh:
            n, M = read_csv_header(fh, "grid", ("n", "M"), (1, 2))
            return cls(n, M, read_samples(fh, "grid", (M,) * n))


def read_csv_header(fh, kind: str, keys: tuple, dims) -> list:
    """The integer fields `keys` of the `# <kind> k=v ...` first line of a
    grid or form CSV file; GridMismatch for a missing header or field, a
    non-integer value, M < 1 or a dimension n outside `dims`."""
    header = fh.readline().strip()
    if not header.startswith("#"):
        raise GridMismatch(f"missing {kind} CSV header")
    fields = dict(kv.split("=", 1) for kv in header[1:].split() if "=" in kv)
    try:
        vals = {k: int(fields[k]) for k in keys}
    except (KeyError, ValueError):
        raise GridMismatch(f"{kind} CSV header needs integer fields "
                           + ", ".join(k + "=" for k in keys)) from None
    if vals["M"] < 1:
        raise GridMismatch(f"{kind} CSV header needs M >= 1 (a power of two "
                           f"for a grid), got M={vals['M']}")
    if vals["n"] not in dims:
        raise GridMismatch(f"{kind} CSV dimension n={vals['n']} "
                           "is not supported")
    return [vals[k] for k in keys]


def write_samples(fh, header: str, values: np.ndarray):
    """The lattice CSV format of grids and forms: a `# header` line, then
    one row `i1, ..., id, re, im` per entry of values, in C order."""
    fh.write(f"# {header}\n")
    w = csv.writer(fh)
    for idx in np.ndindex(*values.shape):
        z = values[idx]
        w.writerow([*idx, repr(float(z.real)), repr(float(z.imag))])


def read_samples(fh, kind: str, shape: tuple) -> np.ndarray:
    """The complex array of `shape` whose entries the rows of fh after its
    header give, one row each, in the format of `write_samples`;
    GridMismatch for a row of other than d + 2 fields (d = len(shape)),
    an index off the array, or an entry given twice or not at all."""
    vals = np.zeros(shape, dtype=complex)
    given = np.zeros(shape, dtype=bool)
    d = len(shape)
    for row in csv.reader(fh):
        if not row:
            continue
        if len(row) != d + 2:
            raise GridMismatch(f"{kind} CSV row {row} has {len(row)} "
                               f"fields, not {d + 2}")
        idx = tuple(int(c) for c in row[:d])
        if not all(0 <= i < m for i, m in zip(idx, shape)):
            raise GridMismatch(f"{kind} CSV entry {idx} is off the grid")
        if given[idx]:
            raise GridMismatch(f"{kind} CSV entry {idx} is given twice")
        given[idx] = True
        vals[idx] = float(row[d]) + 1j * float(row[d + 1])
    if not given.all():
        idx = tuple(map(int, np.argwhere(~given)[0]))
        raise GridMismatch(f"{kind} CSV entry {idx} is missing")
    return vals


def _merge(pairs) -> dict:
    """{f: the sum of the x factors paired with f} of (f, x factor) pairs:
    a separable sum keyed by its frequency factor, one key per node."""
    sums = {}
    for f, c in pairs:
        sums.setdefault(f, []).append(c)
    return {f: ex.add(*cs) for f, cs in sums.items()}


def _separate(e: ex.Expr, shape=None, parts=None):
    """Try to write e as a sum of at most _PAIR_CAP products c(x) * h(xi).
    Returns {h: c}, each xi factor once with the sum of the x factors it
    multiplies, or None when the tree does not factor or its expansion
    has more products than the cap.  Only sums and products split: a
    quotient by an x-only or xi-only denominator is a product with one
    more factor, its power -1.  The products are counted before they
    are built, so a term that does not factor builds none.  A product's
    xi-only children are one xi factor and its other one-kind children
    one x factor, so only its mixed children pair up with what is built.
    shape and parts are the `_walk` memos of the counts and the splits,
    keyed by the nodes, which they keep alive: given the same two dicts,
    the terms of one symbol count and split a subtree they share once."""
    shape = {} if shape is None else shape
    if ex._walk(e, _pair_count, shape)[1] is None:
        return None

    def split(node, subs):
        if subs is None:
            return ({node: ex.ONE} if shape[node][0] == _XI
                    else {ex.ONE: node})
        if isinstance(node, ex.Add):
            return _merge(pair for sub in subs for pair in sub.items())
        kinds = [shape[f][0] for f in node.factors]     # a product
        acc = {ex.mul(*(f for f, k in zip(node.factors, kinds) if k == _XI)):
               ex.mul(*(f for f, k in zip(node.factors, kinds)
                        if not k & _XI))}
        for k, sub in zip(kinds, subs):
            if k == _X | _XI:
                acc = _merge((ex.mul(h, hs), ex.mul(c, cs))
                             for h, c in acc.items()
                             for hs, cs in sub.items())
        return acc

    return ex._walk(e, split, {} if parts is None else parts,
                    lambda c: shape[c][0] != _X | _XI)


def _pair_count(node, parts):
    """`_walk` rule of `_separate`: the variable kinds in node (bits _X,
    _XI) and the number of (x, xi) factor pairs it splits into, None when
    it does not split into at most _PAIR_CAP."""
    if isinstance(node, ex.Var):
        kinds = _X if node.kind == "x" else _XI
    else:
        kinds = 0
        for k, _ in parts:
            kinds |= k
    if kinds != _X | _XI:
        return kinds, 1
    counts = [c for _, c in parts]
    if None in counts:
        count = None
    elif isinstance(node, ex.Add):
        count = sum(counts)
    elif isinstance(node, ex.Mul):
        count = math.prod(counts)
    else:
        count = None
    if count is not None and count > _PAIR_CAP:
        count = None
    return kinds, count


def _reads(e: ex.Expr, kind: int) -> bool:
    """Whether e reads a variable of kind (_X or _XI)."""
    return bool(ex._walk(e, _pair_count)[0] & kind)


class _Plan(NamedTuple):
    """What op_apply computes of a symbol alone, for chunks of `group` xi
    factors: the program of the degree-0 terms, one (xi program, x
    program) per chunk of the {h: c} its factored terms merge into, and
    the program of the dense terms (None for a program without roots)."""

    deg0: ex.Program | None
    chunks: list
    dense: ex.Program | None


# {symbol: {group: its plan}}: equal symbols share their plans, and a
# symbol's plans die with it
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(P: ClassicalSymbol, group: int) -> _Plan:
    """P's plan: its terms split by `_separate` with one table of counts
    and splits for all of them, and each program compiled."""
    deg0 = [t.expr for t in P.terms if abs(t.degree) <= _DEGREE_ZERO_TOL]
    dense, pairs = [], []
    shape, parts = {}, {}           # one split of each subtree per plan
    for term in P.terms:
        sums = _separate(term.expr, shape, parts)
        if sums is None:
            dense.append(term.expr)
        else:
            pairs.extend(sums.items())
    items = list(_merge(pairs).items())
    return _Plan(ex.Program(deg0) if deg0 else None,
                 [tuple(map(ex.Program, zip(*items[g:g + group])))
                  for g in range(0, len(items), group)],
                 ex.Program(dense) if dense else None)


def op_apply(P: ClassicalSymbol, u: GridFunction) -> GridFunction:
    """Apply the quantization of P to u: sum_k e^{ikx} p(x, k) u^(k) over
    the modes k of u above the noise floor.  The k = 0 rule is applied
    first: one program of the degree-0 terms is read there at xi = e1,
    and every other term drops it.  On the nonzero modes, the terms that
    `_separate` factors into {h(xi): c(x)}, with one table of counts and
    splits for the symbol, are merged into one {h: c} applied as
    sum_h c(x) F^-1[h u^]: one FFT per distinct h, a chunk of h at a time,
    each chunk one program of its h, one of its c and one batched FFT.
    The other terms, the dense ones, are summed on each mode before the
    Fourier sum: their expressions are the roots of one program, evaluated
    on the lattice x a group of modes (at most _SAMPLE_BUDGET samples, one
    mode at least), added in term order and summed as one matrix product
    per group.  Exact for Fourier multipliers and for differential
    symbols on sufficiently band-limited input.

    The split and the programs depend on P and the group size alone: they
    are P's plan, made on P's first call at a grid size and kept in
    `_PLANS`, keyed by P (equal symbols, whose terms hold the same nodes,
    share it) and the group size.  A later call with P or an equal symbol
    runs the plan's programs and FFTs on u and builds and compiles none."""
    n, M = u.dimension, u.M
    if P.dimension != n:
        raise GridMismatch("symbol/grid dimension mismatch")
    group = max(1, _SAMPLE_BUDGET // M ** n)    # modes or xi factors
    plans = _PLANS.setdefault(P, {})
    plan = plans.get(group)
    if plan is None:
        plan = plans[group] = _plan(P, group)
    uhat = np.fft.fftn(u.values)
    active = (np.abs(uhat) > _MODE_EPS * np.abs(uhat).max()).ravel()
    x = lattice(n, M)
    k = wavenumbers(n, M).astype(float)
    out = np.zeros(M ** n, dtype=complex)
    # the k = 0 rule, on the first mode in fft order: the degree-0 terms
    # are read there at xi = e1, every other term drops it
    if plan.deg0 and active[0]:
        p = plan.deg0(x, np.eye(n)[0])
        out += uhat.flat[0] / M ** n * sum(p[1:], p[0])
    active[0] = False
    cols = np.flatnonzero(active)
    for h, c in plan.chunks:
        hk = h(np.zeros((n, 1)), k[:, cols])
        w = np.zeros((len(hk), M ** n), dtype=complex)
        w[:, cols] = hk
        spectral = np.fft.ifftn(w.reshape((-1,) + uhat.shape) * uhat,
                                axes=tuple(range(1, n + 1)))
        out += np.einsum("gi,gi->i", c(x, np.zeros((n, 1))),
                         spectral.reshape(len(hk), -1))
    if plan.dense:
        # one program of the dense terms on a group of modes at a time: its
        # x-only nodes run on the lattice, xi-only ones on the modes, mixed
        # ones on their product, by broadcasting
        for g in range(0, cols.size, group):
            js = cols[g:g + group]
            p = plan.dense(x[:, None], k[:, js, None])
            out += (uhat.flat[js] / M ** n) @ (
                np.exp(1j * (k[:, js].T @ x)) * sum(p[1:], p[0]))
    return GridFunction(n, M, out)


def sobolev_norm(u: GridFunction, s: float) -> float:
    """(sum_k (1+|k|^2)^s |u^(k)|^2)^(1/2).  ValidationError for an order
    s that is not finite, Overflow when the norm is past float64's range;
    a mode whose coefficient is zero adds nothing, whatever its weight."""
    if not math.isfinite(s):
        raise ValidationError(f"Sobolev order must be finite, got {s}")
    k2 = sum(K.astype(float) ** 2 for K in wavenumbers(u.dimension, u.M))
    a = np.abs(u.spectrum().ravel()) ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        norm = float(np.sqrt(np.sum(np.where(a > 0, (1.0 + k2) ** s * a,
                                             0.0))))
    if not math.isfinite(norm):
        raise Overflow(f"H^{s:g} norm overflows float64")
    return norm


def duality_pair(u: GridFunction, v: GridFunction) -> complex:
    """sum_k u^(k) conj(v^(k)); the H^s x H^-s pairing on the torus."""
    if (u.dimension, u.M) != (v.dimension, v.M):
        raise GridMismatch("duality pairing needs matching grids")
    return complex(np.sum(u.spectrum() * np.conj(v.spectrum())))


# ---------------------------------------------------------------------------
# oscillatory integrals, 1D phase x*theta
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(16)
_PANEL_WIDTH = 1.0         # of the theta panels; every theta_max is a multiple
# psi's quadrature on its support [-pi, pi]: 128 Gauss panels, dense enough
# that the discrete transform is machine accurate wherever it is above the
# noise floor of `_panel_transform`
_PSI_EDGES = np.linspace(-np.pi, np.pi, 129)
_PSI_HALF = 0.5 * (_PSI_EDGES[1:] - _PSI_EDGES[:-1])[:, None]
_PSI_NODES = (0.5 * (_PSI_EDGES[:-1] + _PSI_EDGES[1:])[:, None]
              + _PSI_HALF * _GL_NODES).ravel()
_PSI_WEIGHTS = (_PSI_HALF * _GL_WEIGHTS).ravel()


def _outward_theta_quad(f, theta_max: float):
    """Integrate f over |theta| <= theta_max symmetric outward, in pairs
    of 16-node Gauss panels [a, a + _PANEL_WIDTH], [-a - _PANEL_WIDTH, -a]
    swept a block of _SAMPLE_BUDGET // _PSI_NODES.size panels at a time.
    f(theta, mids) gets a block's nodes, shape (panels, 16), and their
    centres, shape (panels,), the pairs interleaved, and returns its
    values with those two axes last, so f may be vector valued: the
    result has the shape of f's leading axes.  The pairs are added in
    order, and the sweep stops once every component has been quiet
    (contributed nothing) for _QUIET_PANELS pairs in a row, counted across
    block edges; the block's pairs past the stop are dropped.  theta_max
    must be a whole number of widths: then every panel is full, and its
    nodes are mid + _PANEL_WIDTH/2 * _GL_NODES, the offsets
    `_panel_transform` is built on."""
    half = 0.5 * _PANEL_WIDTH
    block = _SAMPLE_BUDGET // _PSI_NODES.size // 2      # pairs
    starts = _PANEL_WIDTH * np.arange(math.ceil(theta_max / _PANEL_WIDTH))
    total = 0.0
    quiet = 0
    for b in range(0, starts.size, block):
        a = starts[b:b + block]
        mids = np.stack([a + half, -a - half], axis=1).ravel()
        c = half * np.sum(_GL_WEIGHTS * f(mids[:, None] + half * _GL_NODES,
                                          mids), axis=-1)
        for j, aj in enumerate(a):
            pair = c[..., 2 * j] + c[..., 2 * j + 1]
            total = total + pair
            scale = np.maximum(1.0, np.abs(total))
            if aj > 8.0 and np.all(np.abs(pair) < 1e-9 * scale):
                quiet += 1
                if quiet >= _QUIET_PANELS:
                    return total
            else:
                quiet = 0
    return total


def _panel_transform(W: np.ndarray):
    """The transforms sum_j e^{i theta x_j} W[j, c] of the columns of W,
    quadrature weights on psi's nodes x_j, as a function of a block of
    panel centres mids: its value has shape (columns, panels, 16), the
    last axis theta = mid + _PANEL_WIDTH/2 * _GL_NODES.  The phase factors
    as e^{i theta x} = e^{i (theta - mid) x} e^{i mid x}, and the first
    factor is the same for every panel, so it is built once here and a
    block costs one exponential per node and panel, and one matrix
    product per column of W."""
    E = np.exp(1j * np.outer(_PSI_NODES, 0.5 * _PANEL_WIDTH * _GL_NODES))
    # below this level the computed transform is dominated by support
    # truncation and quadrature noise; snapping it to an exact zero makes
    # tail integrals terminate instead of amplifying noise by |theta|^m
    floor = 1e-9 * np.maximum(1.0, np.sum(np.abs(W), axis=0))

    def transform(mids: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * mids[:, None] * _PSI_NODES)
        out = np.stack([(phase * w) @ E for w in W.T])
        out[np.abs(out) < floor[:, None, None]] = 0.0
        return out

    return transform


def _cutoff_profile(u: np.ndarray) -> np.ndarray:
    """Smooth chi with chi=1 for |u|<1 and chi=0 for |u|>2 (smoothstep)."""
    t = np.clip(np.abs(u) - 1.0, 0.0, 1.0)
    return 1.0 - t * t * t * (t * (6 * t - 15) + 10)


def _estimate_order(a: ex.Expr) -> float:
    """The growth order of the amplitude, log2 |a(128)| / |a(64)| (0 if
    either vanishes).  ValidationError unless a grows like a symbol: |a|
    finite at theta = +-64, +-128, +-256, and on neither side the order
    from 128 to 256 more than 1 above the order from 64 to 128, as it is
    for an exponential (exp(theta): 92, then 185)."""
    th = np.array([[64.0, 128.0, 256.0, -64.0, -128.0, -256.0]])
    with np.errstate(all="ignore"):     # an overflow is reported below
        v = np.abs(a.ev(np.zeros_like(th), th)).reshape(2, 3)
        orders = np.log2(v[:, 1:] / v[:, :-1])
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"amplitude {a.render()} is not a symbol: "
                              f"not finite at |theta| <= 256")
    jump = orders[:, 1] - orders[:, 0]
    if np.any(jump > 1.0):
        o = orders[np.nanargmax(jump)]
        raise ValidationError(
            f"amplitude {a.render()} is not a symbol: the order of its "
            f"growth reads {o[0]:.1f} from |theta| = 64 to 128 and "
            f"{o[1]:.1f} from 128 to 256")
    if v[0, 0] == 0.0 or v[0, 1] == 0.0:
        return 0.0
    return float(orders[0, 0])


def oscint_eval(a: ex.Expr, psi: ex.Expr, method: str = "both",
                tol: float = 1e-6):
    """Regularized oscillatory integral <u, psi> for phase x*theta.

    a is an amplitude in theta (variable xi1), psi a smooth test function
    in x (variable x1) supported in [-pi, pi].  The two regularizations
    (epsilon-cutoff limit, and integration by parts against M = chi^-1 L)
    define the same distribution; computing both gives a built-in oracle.
    Each makes one theta sweep in full panels of one width: the cutoff
    sweeps its whole epsilon sequence as one vector integrand, and parts
    sweeps a separable sum {F(theta): G(x)}, psi inside each G and the
    near remainder one more term.  The sweep runs a block of 8 panels at a
    time, one call of the amplitude's or the F's program per block, and
    ends once every component is quiet.  Every x integral is a column of
    one `_panel_transform` of weights on psi's nodes: the phase
    e^{i theta x} is factored at the panel centres, so a block costs one
    exponential per node and panel and one matrix product per column.
    ValueError for an unknown method or a tol that is not finite and
    positive, before any work; ValidationError for an amplitude that
    reads x or a psi that reads xi, and, before the expansion, when parts
    (or both) would integrate by parts more than the 8 times its excision
    absorbs, for an amplitude of order 7 or more; NonConvergent when a
    regularization's value is not finite.
    """
    if method not in ("both", "epsilon-cutoff", "parts"):
        raise ValueError(f"unknown oscint method {method!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"oscint tolerance must be finite and positive, "
                         f"got {tol}")
    if _reads(a, _X):
        raise ValidationError(f"amplitude {a.render()} reads an x variable: "
                              f"it is a function of theta (xi1) alone")
    if _reads(psi, _XI):
        raise ValidationError(f"test function {psi.render()} reads a xi "
                              f"variable: it is a function of x1 alone")
    m = _estimate_order(a)
    r = max(0, math.floor(m) + 2)   # the integrations by parts
    if method != "epsilon-cutoff" and r > 8:
        raise ValidationError(
            f"amplitude {a.render()} has order {m:.3g}: parts would "
            f"integrate by parts {r} times, more than the 8 that its "
            f"excision theta^8/(1 + theta^8) absorbs (order below 7)")
    if method == "both":
        ve = oscint_eval(a, psi, "epsilon-cutoff", tol)
        vp = oscint_eval(a, psi, "parts", tol)
        scale = max(1.0, abs(ve), abs(vp))
        if abs(ve - vp) > 100 * tol * scale:
            raise NonConvergent(
                f"regularizations disagree: {ve} vs {vp}")
        return 0.5 * (ve + vp)
    xrow = _PSI_NODES.reshape(1, -1)
    zrow = np.zeros_like(xrow)

    if method == "epsilon-cutoff":
        amp_prog = ex.Program([a])
        psi_hat = _panel_transform(
            (_PSI_WEIGHTS * psi.ev(xrow, zrow))[:, None])
        eps = 2.0 ** -np.arange(4.0, 11.0)[:, None, None]

        def f(th, mids):
            return (amp_prog(np.zeros((1, 1)), th[None])[0]
                    * _cutoff_profile(eps * th) * psi_hat(mids)[0])

        # chi(eps theta) = 0 beyond 2/eps, so one sweep to 2/eps_min
        # gives every eps its own integral
        vals = _outward_theta_quad(f, 2.0 / eps[-1, 0, 0]).tolist()
        if not np.all(np.isfinite(vals)):
            raise NonConvergent("epsilon-cutoff: a value in the epsilon "
                                "sequence is not finite")
        diffs = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
        scale = max(1.0, abs(vals[-1]))
        if diffs[-1] > tol * scale:
            raise NonConvergent(
                f"epsilon sequence not Cauchy at {tol:g}: "
                f"last diff {diffs[-1]:.2e}")
        # one Richardson step when the ratio looks geometric
        if diffs[-2] > 0 and diffs[-1] > 0:
            r = diffs[-1] / diffs[-2]
            if r < 0.9:
                step = vals[-1] - vals[-2]
                return complex(vals[-1] + step * r / (1.0 - r))
        return complex(vals[-1])

    theta = ex.xi(1)
    xv = ex.x(1)
    sigma = ex.div(ex.pow_(theta, 8), ex.add(ex.ONE, ex.pow_(theta, 8)))
    # M = chi^-1 L = -i(b dx + c dtheta) fixes e^{ix theta}, so
    # M^t = i(dx(b .) + dtheta(c .)).  Both coefficients split into a
    # theta factor times an x factor (b = theta^-1 g, c = h), and the
    # amplitude depends on theta alone, so (M^t)^r (a sigma psi) stays a
    # separable sum {F(theta): G(x)}, psi inside G.  Each G's x integral
    # is then a column of one panel transform, so the theta quadrature
    # never re-walks expression trees.
    g = ex.div(ex.ONE, ex.ONE + xv * xv)
    h = ex.div(xv, ex.ONE + xv * xv)
    inv_theta = ex.pow_(theta, -1.0)
    sums = {ex.mul(a, sigma): psi}
    for _ in range(r):
        sums = _merge(pair for F, G in sums.items() for pair in (
            (ex.mul(ex.I, F, inv_theta), ex.mul(g, G).diff("x", 1)),
            (ex.mul(ex.I, F.diff("xi", 1)), ex.mul(h, G))))
    # the non-excised remainder a (1 - sigma) = a / (1 + theta^8) is one
    # more term, not integrated by parts
    sums = _merge([(ex.div(a, 1 + ex.pow_(theta, 8)), psi), *sums.items()])
    x_prog = ex.Program(list(sums.values()))
    theta_prog = ex.Program(list(sums))
    psi_hat = _panel_transform((_PSI_WEIGHTS * x_prog(xrow, zrow)).T)

    def f(th, mids):
        return sum(fv * hv for fv, hv in
                   zip(theta_prog(np.zeros((1, 1)), th[None]), psi_hat(mids)))

    value = complex(_outward_theta_quad(f, 512.0))
    if not np.isfinite(value):
        raise NonConvergent(f"parts value is not finite: {value}")
    return value


# ---------------------------------------------------------------------------
# circle index (piecewise symbol a+ for xi>0, a- for xi<0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexReport:
    winding_plus: int
    winding_minus: int
    numerical_index: int
    truncation: int
    near_zero_singular_values: tuple = field(default=())


def _winding(values: np.ndarray) -> int:
    ratios = values / np.roll(values, 1)
    total = float(np.sum(np.angle(ratios))) / (2.0 * np.pi)
    w = int(round(total))
    if abs(total - w) > 1e-6:
        raise SymbolVanishes(
            f"winding number {total} is not close to an integer")
    return w


def _fourier_coefs(e: ex.Expr) -> tuple:
    """The fft coefficients and the values of e at 256 circle samples."""
    xv = 2.0 * np.pi * np.arange(256) / 256
    vals = e.ev(xv.reshape(1, -1), np.zeros((1, 256)))
    if np.min(np.abs(vals)) < 1e-8:
        raise SymbolVanishes("symbol modulus < 1e-8 at a circle sample")
    return np.fft.fft(vals) / 256, vals


def _kernel_dim(A: np.ndarray) -> tuple:
    """Numerical kernel dimension of A, with its singular values at most
    1e-8 relative to the largest."""
    sv = np.linalg.svd(A, compute_uv=False)
    smax = sv[0] if sv.size else 1.0
    rank = int(np.sum(sv > 1e-8 * max(smax, 1e-300)))
    near = tuple(float(s) for s in sv[sv <= 1e-8 * max(smax, 1e-300)])
    return A.shape[1] - rank, near


def circle_index(aplus: ex.Expr, aminus: ex.Expr, K: int = 32) -> IndexReport:
    """Winding numbers of a+/- plus a matrix oracle for the Fredholm index
    of the operator with symbol a+(x) for xi>0, a-(x) for xi<0 (the a+
    branch also takes the xi = 0 mode).  Unstable unless the truncations
    at K and K + 8 both give winding_minus - winding_plus; ValueError for
    K < 1, a window with no columns; ValidationError for a+ or a- that
    reads a xi variable, since each is a function of x1 alone."""
    if K < 1:
        raise ValueError(f"index truncation K must be >= 1, got {K}")
    for e in (aplus, aminus):
        if _reads(e, _XI):
            raise ValidationError(f"symbol {e.render()} reads a xi variable: "
                                  f"a branch of a circle symbol is a "
                                  f"function of x1 alone")
    cp, vp = _fourier_coefs(aplus)
    cm, vm = _fourier_coefs(aminus)
    wp = _winding(vp)
    wm = _winding(vm)
    S = cp.size
    mx = max(np.max(np.abs(cp)), np.max(np.abs(cm)))
    ls = np.arange(1 - S // 2, S // 2)
    sig = (np.abs(cp[ls]) > 1e-10 * mx) | (np.abs(cm[ls]) > 1e-10 * mx)
    B = max(8, int(np.max(np.abs(ls[sig]), initial=0)))

    def window(rows, cols):
        # entry (k, j) of the bi-infinite matrix: coefficient k - j of a+
        # for j >= 0, of a- for j < 0, inside the band |k - j| <= B < S/2
        lag = rows[:, np.newaxis] - cols
        entries = np.where(cols >= 0, cp[lag % S], cm[lag % S])
        return np.where(np.abs(lag) <= B, entries, 0.0)

    def index_at(KK):
        # columns [-KK, KK] with all reachable rows [-KK-B, KK+B] retained:
        # a kernel vector of this rectangle extends by zero to an exact
        # kernel vector of the infinite matrix
        cols = np.arange(-KK, KK + 1)
        rows = np.arange(-KK - B, KK + B + 1)
        dk, near_k = _kernel_dim(window(rows, cols))
        dc, near_c = _kernel_dim(window(cols, rows).conj().T)
        return dk - dc, near_k + near_c

    idx, near = index_at(K)
    idx2, _ = index_at(K + 8)
    if not idx == idx2 == wm - wp:
        raise Unstable(f"matrix index {idx} at K={K}, {idx2} at K={K + 8}, "
                       f"winding_minus - winding_plus = {wm} - ({wp})")
    return IndexReport(wp, wm, idx, K, near)
