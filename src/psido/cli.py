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
from . import expr as ex
from .errors import NumericalError, ValidationError
from .parser import parse_expr, parse_symbol_text
from .symbols import Diffeo

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


def _parse_map_file(path: str) -> Diffeo:
    """Map files list `dim=n`, then `forward j: "expr"` and
    `inverse j: "expr"` lines (expressions in x1..xn)."""
    import re
    with open(path) as fh:
        text = fh.read()
    m = re.search(r"dim\s*=\s*(\d+)", text)
    if m is None:
        raise SyntaxError("map file must declare dim=n")
    n = int(m.group(1))
    fwd, inv = [None] * n, [None] * n
    for kind, j, body in re.findall(
            r"(forward|inverse)\s+(\d)\s*:\s*\"([^\"]*)\"", text):
        (fwd if kind == "forward" else inv)[int(j) - 1] = \
            parse_expr(body, n)
    if any(e is None for e in fwd + inv):
        raise SyntaxError("map file must give all forward/inverse components")
    return Diffeo(fwd, inv)


def _add_common(sp):
    sp.add_argument("--out", help="write the report/CSV here as well")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psido",
        description="Classical pseudo-differential symbol calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, nargs in (("compose", 2), ("commutator", 2), ("adjoint", 1),
                        ("ellipticity", 1)):
        sp = sub.add_parser(name)
        sp.add_argument("symbols", nargs=nargs, metavar="SYMBOL_FILE")
        _add_common(sp)

    sp = sub.add_parser("convert")
    sp.add_argument("symbols", nargs=1, metavar="SYMBOL_FILE")
    sp.add_argument("--to", choices=("left", "right"), required=True)
    _add_common(sp)

    for name in ("parametrix", "sqrt"):
        sp = sub.add_parser(name)
        sp.add_argument("symbols", nargs=1, metavar="SYMBOL_FILE")
        sp.add_argument("--order", type=int, required=True)
        _add_common(sp)

    sp = sub.add_parser("pullback")
    sp.add_argument("symbols", nargs=1, metavar="SYMBOL_FILE")
    sp.add_argument("--map", required=True, dest="map_file")
    _add_common(sp)

    sp = sub.add_parser("flow")
    sp.add_argument("symbols", nargs=1, metavar="SYMBOL_FILE")
    sp.add_argument("--start", required=True,
                    help="comma-separated x1..xn,xi1..xin")
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    _add_common(sp)

    sp = sub.add_parser("wavefront")
    sp.add_argument("symbols", nargs=1, metavar="SYMBOL_FILE")
    sp.add_argument("--init", required=True,
                    help="CSV of initial phase points, one per row")
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    _add_common(sp)

    sp = sub.add_parser("apply")
    sp.add_argument("symbols", nargs=1, metavar="SYMBOL_FILE")
    sp.add_argument("--grid", required=True)
    _add_common(sp)

    sp = sub.add_parser("sobolev")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--s", type=float, required=True)
    _add_common(sp)

    sp = sub.add_parser("oscint")
    sp.add_argument("--amp", required=True, help="amplitude in xi1")
    sp.add_argument("--test", required=True, help="test function in x1")
    sp.add_argument("--method", default="both",
                    choices=("both", "epsilon-cutoff", "parts"))
    sp.add_argument("--tol", type=float, default=1e-6)
    _add_common(sp)

    sp = sub.add_parser("index")
    sp.add_argument("--aplus", required=True)
    sp.add_argument("--aminus", required=True)
    sp.add_argument("--K", type=int, default=32)
    _add_common(sp)

    sp = sub.add_parser("hodge")
    sp.add_argument("op", choices=_HODGE_OPS)
    sp.add_argument("--form", help="form-field CSV (for d/star/...)")
    sp.add_argument("--n", type=int, help="dimension (betti/parametrix-check)")
    sp.add_argument("--j", type=int, help="degree (betti/parametrix-check)")
    sp.add_argument("--trials", type=int, default=50)
    _add_common(sp)

    return ap


def _cmd_symbolic(args) -> int:
    syms = [_load_symbol(p) for p in args.symbols]
    cmd = args.command
    if cmd == "compose":
        out = calculus.compose(*syms)
    elif cmd == "commutator":
        out = calculus.commutator(*syms)
    elif cmd == "adjoint":
        out = calculus.adjoint(syms[0])
    elif cmd == "convert":
        direction = ("left-to-right" if args.to == "right"
                     else "right-to-left")
        out = calculus.convert_left_right(syms[0], direction)
    elif cmd == "parametrix":
        out = calculus.parametrix(syms[0], args.order)
    elif cmd == "sqrt":
        out = calculus.sqrt_approx(syms[0], args.order)
    elif cmd == "pullback":
        phi = _parse_map_file(args.map_file)
        term = calculus.pullback_principal(calculus.principal(syms[0]), phi)
        _emit(f"degree {term.degree:g}: {term.expr.render()}", args.out)
        return 0
    else:
        raise ValueError(cmd)
    _emit(out.render(), args.out)
    return 0


def _cmd_ellipticity(args) -> int:
    P = _load_symbol(args.symbols[0])
    rep = calculus.is_elliptic(P)
    lines = [
        f"verdict: {'elliptic' if rep.verdict else 'not elliptic'}",
        f"min_modulus: {rep.min_modulus!r}",
        f"argmin: {','.join(repr(float(v)) for pair in rep.argmin for v in pair)}",
        f"threshold: {rep.threshold!r}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_flow(args) -> int:
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
    return 0


def _cmd_wavefront(args) -> int:
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
    return 0


def _cmd_apply(args) -> int:
    P = _load_symbol(args.symbols[0])
    u = quantize.GridFunction.read_csv(args.grid)
    v = quantize.op_apply(P, u)
    if args.out:
        v.write_csv(args.out)
    print(f"l2_norm: {v.l2_norm()!r}")
    return 0


def _cmd_sobolev(args) -> int:
    u = quantize.GridFunction.read_csv(args.grid)
    val = quantize.sobolev_norm(u, args.s)
    _emit(f"sobolev_norm: {val!r}", args.out)
    return 0


def _cmd_oscint(args) -> int:
    a = parse_expr(args.amp, 1)
    psi = parse_expr(args.test, 1)
    val = quantize.oscint_eval(a, psi, args.method, tol=args.tol)
    _emit(f"value: {val.real!r},{val.imag!r}", args.out)
    return 0


def _cmd_index(args) -> int:
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
    return 0


def _cmd_hodge(args) -> int:
    op = args.op
    if op == "betti":
        if args.n is None or args.j is None:
            raise ValidationError("betti needs --n and --j")
        _emit(f"betti: {hodge.betti(args.n, args.j)}", args.out)
        return 0
    if op == "parametrix-check":
        if args.n is None or args.j is None:
            raise ValidationError("parametrix-check needs --n and --j")
        rep = hodge.complex_parametrix_check(args.n, args.j, args.trials)
        _emit(f"max_residual: {rep['max_residual']!r}\n"
              f"trials: {rep['trials']}", args.out)
        return 0
    if not args.form:
        raise ValidationError(f"hodge {op} needs --form FILE")
    w = hodge.FormField.read_csv(args.form)
    if op == "d":
        result = hodge.ext_d(w)
    elif op == "star":
        result = hodge.hodge_star(w)
    elif op == "delta":
        result = hodge.codifferential(w)
    elif op == "laplacian":
        result = hodge.laplacian(w)
    else:   # decompose
        h, e, c = hodge.hodge_decompose(w)
        if args.out:
            h.write_csv(args.out + ".harmonic")
            e.write_csv(args.out + ".exact")
            c.write_csv(args.out + ".coexact")
        print(f"harmonic_norm: {h.norm()!r}")
        print(f"exact_norm: {e.norm()!r}")
        print(f"coexact_norm: {c.norm()!r}")
        return 0
    if args.out:
        result.write_csv(args.out)
    print(f"degree: {result.degree}")
    print(f"max_abs: {result.max_abs()!r}")
    return 0


_DISPATCH = {
    "compose": _cmd_symbolic, "commutator": _cmd_symbolic,
    "adjoint": _cmd_symbolic, "convert": _cmd_symbolic,
    "parametrix": _cmd_symbolic, "sqrt": _cmd_symbolic,
    "pullback": _cmd_symbolic,
    "ellipticity": _cmd_ellipticity,
    "flow": _cmd_flow, "wavefront": _cmd_wavefront,
    "apply": _cmd_apply, "sobolev": _cmd_sobolev,
    "oscint": _cmd_oscint, "index": _cmd_index,
    "hodge": _cmd_hodge,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValidationError, SyntaxError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
