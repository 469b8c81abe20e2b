"""The four benchmark workloads: inputs, timed tasks and their oracles.

Each ``build_*`` function is the workload's set-up: it imports psido,
generates the seeded inputs (``gen``) and builds what the tasks share.  A
task's ``run`` is the timed call into psido; its ``check`` is the
correctness oracle, run outside the timer.  Every round of a run repeats
the same batch, so an oracle runs in full on a task's first output and
later rounds must reproduce that verified output (``verified``).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen

# Fixed task mixes.  The tail percentile of each workload sits inside one
# group of similar tasks (quantize: the dense fallback, oracles: the
# wavefront batches), so it does not jump between groups as the number of
# rounds in a run changes.  At 20 s a run prints 7 to 11 tasks beyond each
# tail on the 2-core host the benchmark was built on.
SYMBOLIC_SYMBOLS = 4
QUANTIZE_PAIRS, QUANTIZE_DENSE = 16, 3
PLANE_WAVES = (4, 8, 16, 32)
ORACLE_RAYS, ORACLE_WAVEFRONTS = 20, 6
WAVEFRONT_POINTS, WAVEFRONT_RAYS = 4, 4   # rays per wavefront: 16
ORACLE_WINDINGS, ORACLE_FORMS = 4, 3
TAIL_PERCENTILE = {"symbolic": 60, "quantize": 90, "oracles": 90, "cli": 55}


class OracleFailure(Exception):
    """A task's output failed its correctness oracle."""


def require(cond, message):
    if not cond:
        raise OracleFailure(message)


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Batch:
    tasks: list
    sizes: dict = field(default_factory=dict)
    in_process: bool = True     # False: each task is a child process


@dataclass
class Context:
    root: Path               # checkout root, holds src/psido
    work: Path               # scratch directory for this run's files
    env: dict                # environment for child processes
    tracer: object = None    # tracing.Tracer in a traced run


def verified(full, fingerprint):
    """Oracle that runs ``full`` on the first output and afterwards
    requires each output's fingerprint to reproduce the verified one."""
    ref = []

    def check(out):
        fp = fingerprint(out)
        if not ref:
            full(out)
            ref.append(fp)
            return
        err = rel_err(fp, ref[0])
        require(err <= 1e-12, f"output differs from the verified round "
                              f"by {err:.2e}")

    return check


def probe_points(rng, n: int, count: int):
    """Seeded (x, xi) sample points, xi on the unit sphere."""
    x = rng.uniform(0.0, gen.TWO_PI, size=(n, count))
    g = rng.standard_normal((n, count))
    return x, g / np.linalg.norm(g, axis=0, keepdims=True)


# -- symbolic ----------------------------------------------------------------

def build_symbolic(seed: int, ctx: Context) -> Batch:
    from psido import calculus, parser

    rng = np.random.default_rng(seed)
    batch = Batch([], {"order_parametrix": 4, "order_sqrt": 3,
                       "parametrix_term_nodes": [], "sqrt_term_nodes": []})
    for _ in range(SYMBOLIC_SYMBOLS):
        p = gen.elliptic_params(rng)
        doc = gen.elliptic_doc(p)
        pts = probe_points(rng, 2, 16)

        def run(doc=doc):
            P = parser.parse_symbol_text(doc)
            return P, calculus.parametrix(P, 4), calculus.sqrt_approx(P, 3)

        batch.tasks.append(Task("construct", run, verified(
            lambda out, p=p, pts=pts: _check_constructions(out, p, pts,
                                                           batch.sizes),
            lambda out, pts=pts: _term_values(out[1:], pts))))
    return batch


def _term_values(symbols, pts):
    from psido import expr as ex
    vals = [np.array([t.degree for S in symbols for t in S.terms])]
    for S in symbols:
        vals += [ex.ev_cached(t.expr, *pts) for t in S.terms]
    return np.concatenate(vals)


def _check_constructions(out, p, pts, sizes):
    from psido import calculus, quantize
    from psido.symbols import ClassicalSymbol, is_zero
    from tracing import dag_nodes

    P, Q, S = out
    pv = gen.elliptic_value(p, *pts)
    # principal terms against the closed forms 1/p and sqrt(p)
    require(rel_err(Q.terms[0].expr.ev(*pts), 1.0 / pv) <= 1e-12,
            "parametrix principal term is not 1/p")
    require(rel_err(S.terms[0].expr.ev(*pts), np.sqrt(pv)) <= 1e-12,
            "square-root principal term is not sqrt(p)")
    # every residual level above the truncation vanishes, by the zero test
    # and by quantization: (PQ - 1) e^{ikx1} is roundoff
    R = calculus.compose(P, Q, truncation=4) - ClassicalSymbol.identity(2, 4)
    for t in R.terms:
        require(is_zero(t, tol=1e-9),
                f"PQ - 1 keeps a level of degree {t.degree}")
    for k in (4, 8):
        u = quantize.GridFunction.single_mode(2, 32, [k, 0])
        r = quantize.sobolev_norm(quantize.op_apply(R, u), 0.0)
        require(r <= 1e-10, f"quantized PQ - 1 is {r:.2e} at k={k}")
    for t in (P - calculus.compose(S, S, truncation=3)).terms:
        require(t.degree <= -1 or is_zero(t, tol=1e-9),
                f"P - SS keeps a level of degree {t.degree}")
    sizes["parametrix_term_nodes"].append([dag_nodes([t.expr])
                                           for t in Q.terms])
    sizes["sqrt_term_nodes"].append([dag_nodes([t.expr]) for t in S.terms])


# -- quantize ----------------------------------------------------------------

def _differential(sym: dict):
    """psido symbol of a generated differential symbol (truncation 6, as
    in the acceptance tests, so compose keeps every level)."""
    from psido import expr as ex
    from psido.symbols import ClassicalSymbol, HomogeneousTerm

    terms = []
    for d in (2, 1, 0):
        parts = []
        for alpha in gen.MONOMIALS[d]:
            c0, c1, c2 = sym[alpha]
            coef = ex.add(ex.Const(c0), ex.mul(ex.Const(c1), ex.sin(ex.x(1))),
                          ex.mul(ex.Const(c2), ex.cos(ex.x(2))))
            mono = [ex.xi(j + 1) for j, e in enumerate(alpha)
                    for _ in range(e)]
            parts.append(ex.mul(coef, *mono))
        terms.append(HomogeneousTerm(ex.add(*parts), float(d), 2))
    return ClassicalSymbol.from_terms(terms, truncation_order=6)


def _elliptic(p: dict):
    from psido import expr as ex
    from psido.symbols import ClassicalSymbol

    e = ex.add(
        ex.mul(ex.ONE + ex.mul(ex.Const(p["a"]),
                               ex.sin(ex.x(1) + p["phi"])),
               ex.xi(1), ex.xi(1)),
        ex.mul(ex.ONE + ex.mul(ex.Const(p["b"]), ex.cos(ex.x(2))),
               ex.xi(2), ex.xi(2)))
    return ClassicalSymbol.single(e, 2.0, 2, truncation_order=4)


def build_quantize(seed: int, ctx: Context) -> Batch:
    from psido import calculus, quantize
    from psido.symbols import ClassicalSymbol

    rng = np.random.default_rng(seed)
    Grid = quantize.GridFunction
    batch = Batch([], {"separable": {"M": 32, "band": 8,
                                     "tasks": QUANTIZE_PAIRS},
                       "sparse": {"M": 128, "k": list(PLANE_WAVES)},
                       "dense": {"M": 32, "band": 8, "tasks": QUANTIZE_DENSE},
                       "residual_order": 2})
    # (a) composition of random differential pairs: separable FFT path
    for _ in range(QUANTIZE_PAIRS):
        sp, sq = gen.differential_symbol(rng), gen.differential_symbol(rng)
        R = calculus.compose(_differential(sp), _differential(sq))
        u = Grid(2, 32, gen.band_limited_grid(rng, 32, 8))

        def check(v, sp=sp, sq=sq, u=u):
            want = gen.apply_differential(
                sp, gen.apply_differential(sq, u.values))
            err = rel_err(v, want)
            require(err <= 1e-10, f"op(PQ)u != P(Qu): {err:.2e}")

        batch.tasks.append(Task(
            "separable", lambda R=R, u=u: quantize.op_apply(R, u).values,
            verified(check, lambda v: v)))
    # residual (Q_2 L - 1) of the order-2 parametrix of a variable Laplacian
    L = _elliptic(gen.elliptic_params(rng))
    RS = (calculus.compose(calculus.parametrix(L, 2), L, truncation=3)
          - ClassicalSymbol.identity(2, 3))
    # (b) plane waves: the few-mode path
    for k in PLANE_WAVES:
        kv = [k, 0] if rng.integers(2) == 0 else [0, k]
        u = Grid.single_mode(2, 128, kv)
        pts = rng.integers(0, 128, size=(8, 2))

        def run(u=u):
            v = quantize.op_apply(RS, u)
            return v.values, quantize.sobolev_norm(v, 0.0)

        def check(out, u=u, pts=pts):
            v, norm = out
            err = rel_err(v[pts[:, 0], pts[:, 1]],
                          quantize_at(RS, u.values, pts))
            require(err <= 1e-9, f"plane-wave residual off by {err:.2e}")
            rms = float(np.sqrt(np.mean(np.abs(v) ** 2)))
            require(abs(norm - rms) <= 1e-10 * max(rms, 1e-300),
                    "H^0 norm differs from the grid l2 norm")

        batch.tasks.append(Task("sparse", run, verified(
            check, lambda out: np.append(out[0].ravel(), out[1]))))
    # (c) dense band-limited input: the mode-by-mode fallback
    for _ in range(QUANTIZE_DENSE):
        u = Grid(2, 32, gen.band_limited_grid(rng, 32, 8))
        pts = rng.integers(0, 32, size=(4, 2))

        def check(v, u=u, pts=pts):
            err = rel_err(v, chunked_apply(RS, u.values))
            require(err <= 1e-9, f"dense path is not linear: {err:.2e}")
            err = rel_err(v[pts[:, 0], pts[:, 1]],
                          quantize_at(RS, u.values, pts))
            require(err <= 1e-9, f"dense path off by {err:.2e}")

        batch.tasks.append(Task(
            "dense", lambda u=u: quantize.op_apply(RS, u).values,
            verified(check, lambda v: v)))
    batch.sizes["residual_terms"] = len(RS.terms)
    return batch


def _active(uhat):
    return np.argwhere(np.abs(uhat) > 1e-12 * np.max(np.abs(uhat)))


def quantize_at(S, u, pts) -> np.ndarray:
    """(Op(S) u)(x) = sum_k e^{ikx} s(x, k) u^(k) summed directly at the
    grid points ``pts`` (index pairs), with psido's k = 0 convention: a
    degree-0 term takes its value at xi = e1, other terms drop k = 0."""
    M = u.shape[0]
    uhat = np.fft.fft2(u) / (M * M)
    act = _active(uhat)
    ks = np.fft.fftfreq(M, d=1.0 / M)
    K = ks[act].T                      # (2, modes)
    coef = uhat[act[:, 0], act[:, 1]]
    zero = np.all(K == 0.0, axis=0)
    out = np.zeros(len(pts), dtype=complex)
    for n, (i, j) in enumerate(pts):
        x = gen.TWO_PI * np.array([[i], [j]]) / M
        sym = np.zeros(K.shape[1], dtype=complex)
        for t in S.terms:
            sym[~zero] += t.expr.ev(np.repeat(x, (~zero).sum(), axis=1),
                                    K[:, ~zero])
            if zero.any() and abs(t.degree) <= 1e-9:
                sym[zero] += t.expr.ev(x, np.array([[1.0], [0.0]]))[0]
        out[n] = np.sum(sym * coef * np.exp(1j * (x.T @ K)[0]))
    return out


def chunked_apply(S, u) -> np.ndarray:
    """Op(S) u as the sum of Op(S) over chunks of at most 8 Fourier modes of
    u; each chunk takes op_apply's few-mode path."""
    from psido import quantize

    M = u.shape[0]
    uhat = np.fft.fft2(u)
    act = _active(uhat)
    total = np.zeros_like(u, dtype=complex)
    for start in range(0, len(act), 8):
        idx = tuple(act[start:start + 8].T)
        spec = np.zeros_like(uhat)
        spec[idx] = uhat[idx]
        chunk = quantize.GridFunction(2, M, np.fft.ifft2(spec))
        total += quantize.op_apply(S, chunk).values
    return total


# -- oracles -----------------------------------------------------------------

def build_oracles(seed: int, ctx: Context) -> Batch:
    from psido import expr as ex
    from psido import hamilton, hodge, quantize
    from psido.symbols import HomogeneousTerm

    rng = np.random.default_rng(seed)
    batch = Batch([], {"flow": {"T": 10.0, "tol": 1e-10, "steps": []},
                       "wavefront": {"T": 0.5, "tol": 1e-10,
                                     "launch_points": WAVEFRONT_POINTS,
                                     "rays_per_point": WAVEFRONT_RAYS},
                       "oscint": {}, "hodge": {"n": 3, "M": 16}})
    # bicharacteristics of (1 + a sin(x1 + phi)) |xi| on T^2, one speed per
    # ray, so that a run's cost does not hang on one draw of a
    for z0 in gen.ray_starts(rng, ORACLE_RAYS):
        sp = gen.speed_params(rng)
        speed = ex.ONE + ex.mul(ex.Const(sp["a"]),
                                ex.sin(ex.x(1) + sp["phi"]))
        p_ray = HomogeneousTerm(ex.mul(speed, ex.xi_norm(2)), 1.0, 2)

        def check(curve, z0=z0, sp=sp):
            pv = gen.speed_ray_value(sp, curve.points)
            drift = float(np.max(np.abs(pv - pv[0])))
            require(abs(pv[0] - gen.speed_ray_value(sp, z0)[0]) <= 1e-12,
                    "flow does not start at the given point")
            require(drift <= 1e-6 * max(1.0, abs(pv[0])),
                    f"symbol drifts by {drift:.2e} along the flow")
            batch.sizes["flow"]["steps"].append(len(curve.times) - 1)

        batch.tasks.append(Task(
            "flow",
            lambda p=p_ray, z0=z0: hamilton.flow(p, z0, 10.0, tol=1e-10),
            verified(check, lambda c: c.points[-1])))
    # wavefronts of xi1^2 - c(x2)^2 (xi2^2 + xi3^2) on T^3, one speed per
    # task, rays from several launch points
    for _ in range(ORACLE_WAVEFRONTS):
        wp = gen.speed_params(rng)
        c2 = ex.ONE + ex.mul(ex.Const(wp["a"]), ex.sin(ex.x(2) + wp["phi"]))
        p_wave = HomogeneousTerm(
            ex.mul(ex.xi(1), ex.xi(1))
            - ex.mul(c2, c2, ex.add(ex.mul(ex.xi(2), ex.xi(2)),
                                    ex.mul(ex.xi(3), ex.xi(3)))), 2.0, 3)
        starts = gen.wave_starts(rng, wp, WAVEFRONT_POINTS, WAVEFRONT_RAYS)

        def check(ends, starts=starts, wp=wp):
            z = np.array([e.as_vector() for e in ends])
            require(z.shape == starts.shape, "wrong number of rays")
            resid = float(np.max(np.abs(gen.wave_value(wp, z))))
            require(resid <= 1e-6, f"ray left the characteristic set by "
                                   f"{resid:.2e}")
            # p does not depend on x1, so xi1 is constant and x1 moves at
            # speed 2 xi1
            x1 = starts[:, 0] + 2.0 * starts[:, 3] * 0.5
            require(rel_err(z[:, 0], x1) <= 1e-6, "x1(T) != x1 + 2 xi1 T")
            require(rel_err(z[:, 3], starts[:, 3]) <= 1e-9, "xi1 changed")

        batch.tasks.append(Task(
            "wavefront",
            lambda p=p_wave, s=starts: hamilton.propagate_wavefront(
                p, list(s), 0.5, tol=1e-10),
            verified(check, lambda ends: np.concatenate(
                [e.as_vector() for e in ends]))))
    # oscillatory integrals, amplitude orders 0 and 1, both regularizations
    bump = gen.bump_params(rng)
    batch.sizes["oscint"] = {"bump": bump, "orders": [0, 1],
                             "methods": ["epsilon-cutoff", "parts"]}
    x1 = ex.x(1)
    psi = ex.exp(ex.neg(ex.mul(ex.Const(bump["w"]), x1 - bump["c"],
                               x1 - bump["c"])))
    for method, kind in (("epsilon-cutoff", "oscint_epsilon"),
                         ("parts", "oscint_parts")):
        for order, amp in ((0, ex.ONE), (1, ex.xi_norm(1))):
            want = gen.oscint_exact(bump, order)

            def check(v, want=want, method=method):
                err = abs(v - want) / max(1.0, abs(want))
                require(err <= 1e-6, f"{method} is {err:.2e} from the "
                                     f"closed form")

            batch.tasks.append(Task(
                kind, lambda a=amp, m=method: quantize.oscint_eval(a, psi, m),
                verified(check, lambda v: v)))
    # Fredholm index of piecewise symbols on the circle
    for _ in range(ORACLE_WINDINGS):
        w = gen.winding_pair(rng)
        ap = ex.mul(ex.Const(2.0) + ex.cos(x1 + w["s"]),
                    ex.exp(ex.mul(ex.Const(1j * w["wp"]), x1)))
        am = ex.mul(ex.Const(2.0) + ex.sin(x1 + w["t"]),
                    ex.exp(ex.mul(ex.Const(1j * w["wm"]), x1)))

        def check(rep, w=w):
            require((rep.winding_plus, rep.winding_minus)
                    == (w["wp"], w["wm"]), "wrong winding numbers")
            require(rep.numerical_index == w["wm"] - w["wp"],
                    f"index {rep.numerical_index} != "
                    f"wind(a-) - wind(a+) = {w['wm'] - w['wp']}")

        batch.tasks.append(Task(
            "circle_index",
            lambda ap=ap, am=am: quantize.circle_index(ap, am),
            verified(check, lambda r: np.array([r.numerical_index]))))
    # Hodge decomposition of random forms on T^3 (touches no Expr)
    for _ in range(ORACLE_FORMS):
        j = int(rng.integers(0, 4))
        form = hodge.FormField(3, j, 16, gen.form_coefficients(rng, 3, j,
                                                               16, 4))

        def check(parts, form=form):
            h, e, c = parts
            scale = max(1.0, form.max_abs())
            total = {a: h.coefficients[a] + e.coefficients[a]
                     + c.coefficients[a] for a in form.coefficients}
            require(max(float(np.max(np.abs(total[a] - v)))
                        for a, v in form.coefficients.items())
                    <= 1e-10 * scale, "h + e + c != w")
            for u, v in ((h, e), (h, c), (e, c)):
                ip = sum(np.mean(np.conj(v.coefficients[a])
                                 * u.coefficients[a])
                         for a in form.coefficients)
                require(abs(ip) <= 1e-10 * scale ** 2,
                        "parts are not orthogonal")
            for v in h.coefficients.values():
                require(float(np.max(np.abs(v - v.flat[0])))
                        <= 1e-10 * scale, "harmonic part is not constant")

        batch.tasks.append(Task(
            "hodge_decompose", lambda f=form: hodge.hodge_decompose(f),
            verified(check, lambda parts: np.concatenate(
                [v.ravel() for f in parts for v in f.coefficients.values()]
                or [np.zeros(1)]))))
    j = int(rng.integers(0, 4))

    def check_complex(rep):
        require(rep["trials"] == 10, "wrong trial count")
        require(rep["max_residual"] <= 1e-10,
                f"dQ + Qd != 1 - H: {rep['max_residual']:.2e}")

    batch.tasks.append(Task(
        "parametrix_check",
        lambda: hodge.complex_parametrix_check(3, j, trials=10),
        verified(check_complex, lambda r: np.array([r["max_residual"]]))))
    return batch


# -- cli ---------------------------------------------------------------------

def build_cli(seed: int, ctx: Context) -> Batch:
    from psido import quantize

    rng = np.random.default_rng(seed)
    w = ctx.work
    ell = gen.elliptic_params(rng)
    (w / "P.sym").write_text(gen.elliptic_doc(ell))
    dsym = gen.differential_symbol(rng)
    (w / "D.sym").write_text(gen.differential_doc(dsym, "D"))
    sp = gen.speed_params(rng)
    (w / "F.sym").write_text(gen.symbol_doc(
        "F", 2, 1, 2,
        [(1, f"(1+{gen.fmt(sp['a'])}*sin(x1+{gen.fmt(sp['phi'])}))*|xi|")]))
    u = quantize.GridFunction(2, 32, gen.band_limited_grid(rng, 32, 8))
    u.write_csv(w / "u.csv")
    start = gen.ray_starts(rng, 1)[0]
    bump = gen.bump_params(rng)
    wind = gen.winding_pair(rng)
    ap, am = gen.winding_texts(wind)
    n = int(rng.integers(1, 4))
    j = int(rng.integers(0, n + 1))
    pts = probe_points(rng, 2, 8)

    calls = [
        ("compose", ["compose", str(w / "P.sym"), str(w / "D.sym")],
         _symbol_check(lambda: _cli_reference("compose", w), pts)),
        ("parametrix", ["parametrix", str(w / "P.sym"), "--order", "3"],
         _symbol_check(lambda: _cli_reference("parametrix", w), pts)),
        ("ellipticity", ["ellipticity", str(w / "P.sym")],
         _ellipticity_check(w)),
        ("flow", ["flow", str(w / "F.sym"), "--start",
                  ",".join(repr(float(v)) for v in start),
                  "--time", "10", "--tol", "1e-10"],
         _flow_check(sp, start)),
        ("oscint", ["oscint", "--amp", "|xi|", "--test", gen.bump_text(bump),
                    "--method", "epsilon-cutoff"],
         _oscint_check(gen.oscint_exact(bump, 1))),
        ("index", ["index", "--aplus", ap, "--aminus", am],
         _index_check(wind)),
        ("hodge_betti", ["hodge", "betti", "--n", str(n), "--j", str(j)],
         _betti_check(math.comb(n, j))),
        ("apply", ["apply", str(w / "D.sym"), "--grid", str(w / "u.csv")],
         _apply_check(dsym, u.values)),
    ]
    batch = Batch([], {"calls_per_round": len(calls),
                       "subcommands": [c[0] for c in calls]},
                  in_process=False)
    for name, argv, check in calls:
        label = "separable" if name == "apply" else ""
        batch.tasks.append(Task(name, _cli_runner(ctx, argv, label),
                                _checked_exit(check)))
    return batch


def _cli_runner(ctx: Context, argv, label):
    """One CLI call in a fresh interpreter.  A traced run goes through
    cli_child.py, which records spans and hands them back in a file."""
    def run():
        tr = ctx.tracer
        spans = ctx.work / "child_spans.json"
        spans.unlink(missing_ok=True)
        if tr is not None and tr.active:
            cmd = [sys.executable, str(Path(__file__).with_name(
                "cli_child.py")), str(spans), label, *argv]
        else:
            cmd = [sys.executable, "-m", "psido.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=ctx.env, cwd=ctx.root, timeout=150)
        if tr is not None and tr.active and spans.exists():
            data = json.loads(spans.read_text())
            tr.adopt(data["spans"], tr.current())
            for key, v in data["counts"].items():
                tr.count(key, v)
            for key, v in data["maxima"].items():
                tr.peak(key, v)
        return proc
    return run


def _checked_exit(check):
    def run_check(proc):
        require(proc.returncode == 0,
                f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        check(proc.stdout)
    return run_check


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(":")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _cli_reference(cmd, w):
    """In-process result of the same CLI command, built once."""
    from psido import calculus, parser

    P = parser.parse_symbol_text((w / "P.sym").read_text())
    if cmd == "parametrix":
        return calculus.parametrix(P, 3)
    D = parser.parse_symbol_text((w / "D.sym").read_text())
    return calculus.compose(P, D)


def _symbol_check(reference, pts):
    """The printed `degree d: expr` lines re-parse to the in-process
    result, term by term, at seeded points."""
    from psido import parser
    ref = []

    def check(stdout):
        if not ref:
            ref.append(reference())
        want = ref[0].terms
        lines = [ln for ln in stdout.splitlines() if ln.startswith("degree")]
        require(len(lines) == len(want),
                f"{len(lines)} terms printed, {len(want)} expected")
        for ln, t in zip(lines, want):
            deg, _, text = ln[len("degree"):].partition(":")
            require(abs(float(deg) - t.degree) <= 1e-9, "wrong degree")
            got = parser.parse_expr(text.strip(), 2).ev(*pts)
            err = rel_err(got, t.expr.ev(*pts))
            require(err <= 1e-9, f"degree {t.degree} term off by {err:.2e}")
    return check


def _ellipticity_check(w):
    ref = []

    def check(stdout):
        from psido import calculus, parser
        if not ref:
            P = parser.parse_symbol_text((w / "P.sym").read_text())
            ref.append(calculus.is_elliptic(P).min_modulus)
        f = _fields(stdout)
        require(f.get("verdict") == "elliptic", "not reported elliptic")
        require(abs(float(f["min_modulus"]) - ref[0]) <= 1e-12 * ref[0],
                "min_modulus differs from the in-process value")
    return check


def _flow_check(sp, start):
    def check(stdout):
        f = _fields(stdout)
        end = np.array([float(v) for v in f["endpoint"].split(",")])
        p0 = gen.speed_ray_value(sp, start)[0]
        drift = abs(gen.speed_ray_value(sp, end)[0] - p0)
        require(int(f["steps"]) > 0, "no steps")
        require(drift <= 1e-6 * max(1.0, p0),
                f"endpoint symbol drifts by {drift:.2e}")
        require(float(f["conservation_drift"]) <= 1e-6 * max(1.0, p0),
                "reported drift above 1e-6")
    return check


def _oscint_check(want):
    def check(stdout):
        re_, im = (float(v) for v in _fields(stdout)["value"].split(","))
        err = abs(complex(re_, im) - want) / max(1.0, abs(want))
        require(err <= 1e-6, f"oscint is {err:.2e} from the closed form")
    return check


def _index_check(wind):
    def check(stdout):
        f = _fields(stdout)
        require((int(f["winding_plus"]), int(f["winding_minus"]))
                == (wind["wp"], wind["wm"]), "wrong winding numbers")
        require(int(f["numerical_index"]) == wind["wm"] - wind["wp"],
                "index != wind(a-) - wind(a+)")
    return check


def _betti_check(want):
    def check(stdout):
        require(int(_fields(stdout)["betti"]) == want,
                f"betti number != {want}")
    return check


def _apply_check(dsym, u):
    want = []

    def check(stdout):
        if not want:
            v = gen.apply_differential(dsym, u)
            want.append(float(np.sqrt(np.mean(np.abs(v) ** 2))))
        got = float(_fields(stdout)["l2_norm"])
        require(abs(got - want[0]) <= 1e-9 * want[0],
                f"l2 norm {got!r} != numpy reference {want[0]!r}")
    return check


WORKLOADS = {"symbolic": build_symbolic, "quantize": build_quantize,
             "oracles": build_oracles, "cli": build_cli}
