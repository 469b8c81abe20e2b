"""Command-line entry point.

Batch-oriented: parse symbol files, run one calculus / flow / grid /
hodge command, print a degree-tagged report or write CSV artifacts.
Exit codes: 0 success, 1 validation failure (bad input, parse error,
failed precondition), 2 numerical failure (non-convergence, step
failure, unstable truncation).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import calculus, hamilton, hodge, quantize
from .errors import NumericalError, ValidationError
from .parser import parse_expr, parse_map_text, parse_symbol_text

_HODGE_OPS = ("d", "star", "delta", "laplacian", "decompose", "betti",
              "parametrix-check")


def _load_symbol(path: str):
    with open(path) as fh:
        return parse_symbol_text(fh.read())


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _ellipticity_report(P) -> str:
    rep = calculus.is_elliptic(P)
    argmin = ",".join(repr(float(v)) for pair in rep.argmin for v in pair)
    return "\n".join([
        f"verdict: {'elliptic' if rep.verdict else 'not elliptic'}",
        f"min_modulus: {rep.min_modulus!r}",
        f"argmin: {argmin}",
        f"threshold: {rep.threshold!r}",
    ])


def _pullback_report(P, map_file: str) -> str:
    with open(map_file) as fh:
        phi = parse_map_text(fh.read())
    term = calculus.pullback_principal(calculus.principal(P), phi)
    return f"degree {term.degree:g}: {term.expr.render()}"


# the commands on symbol files: name -> (how many files, the report of
# the parsed symbols and the command's arguments)
_SYMBOLIC = {
    "compose": (2, lambda a, P, Q: calculus.compose(P, Q).render()),
    "commutator": (2, lambda a, P, Q: calculus.commutator(P, Q).render()),
    "adjoint": (1, lambda a, P: calculus.adjoint(P).render()),
    "ellipticity": (1, lambda a, P: _ellipticity_report(P)),
    "convert": (1, lambda a, P: calculus.convert_left_right(
        P, "left-to-right" if a.to == "right" else "right-to-left").render()),
    "parametrix": (1, lambda a, P: calculus.parametrix(P, a.order).render()),
    "sqrt": (1, lambda a, P: calculus.sqrt_approx(P, a.order).render()),
    "pullback": (1, lambda a, P: _pullback_report(P, a.map_file)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psido",
        description="Classical pseudo-differential symbol calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, files=None):
        sp = sub.add_parser(name)
        sp.set_defaults(run=run)
        if files:
            sp.add_argument("symbols", nargs=files, metavar="SYMBOL_FILE")
        return sp

    for name, (files, _) in _SYMBOLIC.items():
        command(name, _cmd_symbolic, files)
    sub.choices["convert"].add_argument("--to", choices=("left", "right"),
                                        required=True)
    for name in ("parametrix", "sqrt"):
        sub.choices[name].add_argument("--order", type=int, required=True)
    sub.choices["pullback"].add_argument("--map", required=True,
                                         dest="map_file")

    sp = command("flow", _cmd_flow, 1)
    sp.add_argument("--start", required=True,
                    help="comma-separated x1..xn,xi1..xin")
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = command("wavefront", _cmd_wavefront, 1)
    sp.add_argument("--init", required=True,
                    help="CSV of initial phase points, one per row")
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)

    command("apply", _cmd_apply, 1).add_argument("--grid", required=True)

    sp = command("sobolev", _cmd_sobolev)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--s", type=float, required=True)

    sp = command("oscint", _cmd_oscint)
    sp.add_argument("--amp", required=True, help="amplitude in xi1")
    sp.add_argument("--test", required=True, help="test function in x1")
    sp.add_argument("--method", default="both",
                    choices=("both", "epsilon-cutoff", "parts"))
    sp.add_argument("--tol", type=float, default=1e-6)

    sp = command("index", _cmd_index)
    sp.add_argument("--aplus", required=True)
    sp.add_argument("--aminus", required=True)
    sp.add_argument("--K", type=int, default=32)

    sp = command("hodge", _cmd_hodge)
    sp.add_argument("op", choices=_HODGE_OPS)
    sp.add_argument("--form", help="form-field CSV (for d/star/...)")
    sp.add_argument("--n", type=int, help="dimension (betti/parametrix-check)")
    sp.add_argument("--j", type=int, help="degree (betti/parametrix-check)")
    sp.add_argument("--trials", type=int, default=50)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="write the report/CSV here as well")
    return ap


def _cmd_symbolic(args):
    report = _SYMBOLIC[args.command][1]
    _emit(report(args, *map(_load_symbol, args.symbols)), args.out)


def _cmd_flow(args):
    P = _load_symbol(args.symbols[0])
    start = np.array([float(v) for v in args.start.split(",")])
    curve = hamilton.flow(calculus.principal(P), start, args.time,
                          tol=args.tol)
    if args.out:
        curve.write_csv(args.out)
    drift = curve.conservation_drift()
    print(f"steps: {len(curve.times) - 1}")
    print(f"endpoint: {','.join(repr(float(v)) for v in curve.points[-1])}")
    print(f"conservation_drift: {drift!r}")


def _cmd_wavefront(args):
    P = _load_symbol(args.symbols[0])
    pts = []
    with open(args.init) as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            pts.append(np.array([float(v) for v in row]))
    moved = hamilton.propagate_wavefront(calculus.principal(P), pts,
                                         args.time, tol=args.tol)
    n = P.dimension
    lines = ["# " + ", ".join([f"x{j}" for j in range(1, n + 1)]
                              + [f"xi{j}" for j in range(1, n + 1)])]
    for pt in moved:
        v = pt.as_vector()
        lines.append(",".join(repr(float(c)) for c in v))
    _emit("\n".join(lines), args.out)


def _cmd_apply(args):
    P = _load_symbol(args.symbols[0])
    u = quantize.GridFunction.read_csv(args.grid)
    v = quantize.op_apply(P, u)
    if args.out:
        v.write_csv(args.out)
    print(f"l2_norm: {v.l2_norm()!r}")


def _cmd_sobolev(args):
    u = quantize.GridFunction.read_csv(args.grid)
    val = quantize.sobolev_norm(u, args.s)
    _emit(f"sobolev_norm: {val!r}", args.out)


def _cmd_oscint(args):
    a = parse_expr(args.amp, 1)
    psi = parse_expr(args.test, 1)
    val = quantize.oscint_eval(a, psi, args.method, tol=args.tol)
    _emit(f"value: {val.real!r},{val.imag!r}", args.out)


def _cmd_index(args):
    ap_ = parse_expr(args.aplus, 1)
    am = parse_expr(args.aminus, 1)
    rep = quantize.circle_index(ap_, am, K=args.K)
    lines = [
        f"winding_plus: {rep.winding_plus}",
        f"winding_minus: {rep.winding_minus}",
        f"numerical_index: {rep.numerical_index}",
        f"truncation: {rep.truncation}",
    ]
    _emit("\n".join(lines), args.out)


def _cmd_hodge(args):
    op = args.op
    if op in ("betti", "parametrix-check"):
        if args.n is None or args.j is None:
            raise ValidationError(f"{op} needs --n and --j")
        if op == "betti":
            _emit(f"betti: {hodge.betti(args.n, args.j)}", args.out)
        else:
            rep = hodge.complex_parametrix_check(args.n, args.j, args.trials)
            _emit(f"max_residual: {rep['max_residual']!r}\n"
                  f"trials: {rep['trials']}", args.out)
        return
    if not args.form:
        raise ValidationError(f"hodge {op} needs --form FILE")
    w = hodge.FormField.read_csv(args.form)
    if op == "decompose":
        h, e, c = hodge.hodge_decompose(w)
        if args.out:
            h.write_csv(args.out + ".harmonic")
            e.write_csv(args.out + ".exact")
            c.write_csv(args.out + ".coexact")
        print(f"harmonic_norm: {h.norm()!r}")
        print(f"exact_norm: {e.norm()!r}")
        print(f"coexact_norm: {c.norm()!r}")
        return
    result = {"d": hodge.ext_d, "star": hodge.hodge_star,
              "delta": hodge.codifferential,
              "laplacian": hodge.laplacian}[op](w)
    if args.out:
        result.write_csv(args.out)
    print(f"degree: {result.degree}")
    print(f"max_abs: {result.max_abs()!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except (ValidationError, SyntaxError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
