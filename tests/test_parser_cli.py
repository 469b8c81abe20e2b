import argparse
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from psido import calculus, hamilton, hodge, quantize
from psido import expr as ex
from psido.cli import build_parser, main
from psido.errors import DegreeOrderError, DomainError, HomogeneityError
from psido.parser import (parse_expr, parse_map_text, parse_symbol_document,
                          parse_symbol_text)
from psido.quantize import GridFunction
from psido.symbols import Diffeo

LAPLACIAN_DOC = """symbol P {
  dim=2 order=2 trunc=4
  term 2: "xi1^2 + xi2^2"
}
"""

VARIABLE_DOC = """symbol P {
  dim=2 order=2 trunc=4
  term 2: "(1 + 0.5*sin(x1)) * (xi1^2 + xi2^2)"
}
"""

FIRST_ORDER_DOC = """symbol Q {
  dim=1 order=1 trunc=3
  term 1: "xi1"
  term 0: "x1"
}
"""


def test_parse_expr_precedence():
    e = parse_expr("1 + 2*xi1^2", 1)
    assert ex.evaluate(e, [0.0, 3.0]) == pytest.approx(19.0)


def test_parse_expr_power_right_associative():
    e = parse_expr("xi1^2^3", 1)
    assert ex.evaluate(e, [0.0, 2.0]) == pytest.approx(256.0)


def test_parse_expr_xi_norm_sugar():
    e = parse_expr("|xi|", 2)
    assert ex.evaluate(e, [0.0, 0.0, 3.0, 4.0]) == pytest.approx(5.0)


def test_parse_expr_imaginary_unit():
    e = parse_expr("i*xi1", 1)
    assert ex.evaluate(e, [0.0, 2.0]) == pytest.approx(2.0j)


def test_parse_expr_reports_position():
    with pytest.raises(SyntaxError, match="position 6"):
        parse_expr("xi1 + @", 1)


def test_parse_expr_rejects_out_of_range_variable():
    with pytest.raises(SyntaxError):
        parse_expr("xi3", 2)


@pytest.mark.parametrize("text", ["0^(-1)", "0^(-0.5)", "10^400"])
def test_parse_expr_rejects_a_constant_power_that_is_not_finite(text):
    with pytest.raises(DomainError, match="not finite"):
        parse_expr(text, 1)



_HUGE = "9" * 400       # overflows a float to inf
_BIG = "9" * 200        # finite, but its square folds to inf
_BIG_SQUARE = f"{_BIG}*{_BIG}"


@pytest.mark.parametrize("text", [f"x1^({_HUGE})", f"2^({_HUGE})",
                                  f"sqrt(x1)^({_HUGE})"])
def test_parse_expr_rejects_an_exponent_that_is_not_finite(text):
    # an overflowing literal is rejected where it stands, and an exponent
    # that overflows where its product folds; pow_ checks its own exponent
    pos = text.index(_HUGE)
    with pytest.raises(SyntaxError,
                       match=f"number at position {pos} is not finite"):
        parse_expr(text, 1)
    with pytest.raises(DomainError, match="constant product is not finite"):
        parse_expr(text.replace(_HUGE, _BIG_SQUARE), 1)
    for expo in ("inf", "nan"):
        with pytest.raises(DomainError,
                           match=f"exponent {expo} is not finite"):
            ex.pow_(ex.x(1), float(expo))


def test_constant_folds_that_overflow_raise():
    with pytest.raises(DomainError, match="constant product is not finite"):
        parse_expr(f"({_BIG_SQUARE})*xi1", 1)
    with pytest.raises(DomainError, match="constant sum is not finite"):
        ex.add(ex.Const(1e308), ex.Const(1e308))
    with pytest.raises(DomainError, match="constant quotient is not finite"):
        ex.div(ex.x(1), ex.Const(1e-320))


@pytest.mark.parametrize("text", [f"xi1*{_HUGE}", f"{_HUGE}.5", f"-{_HUGE}"])
def test_parse_expr_rejects_a_number_that_is_not_finite(text):
    pos = text.index(_HUGE)
    with pytest.raises(SyntaxError,
                       match=f"number at position {pos} is not finite"):
        parse_expr(text, 1)


def test_parse_expr_reads_numbers_in_exponent_notation():
    # render prints constants by repr, so small and large ones come out
    # as 2.5e-07 or 1e+16; the parser rejected their exponent before
    assert parse_expr("(x1*2.5e-07)", 1) is ex.mul(ex.x(1), 2.5e-07)
    for text, value in (("1E16", 1e16), ("2.e+3", 2e3), (".5e-1", 0.05)):
        assert parse_expr(text, 1) is ex.Const(value)
    with pytest.raises(SyntaxError, match="number at position 3 is not "
                                          "finite"):
        parse_expr("x1*1e400", 1)
    with pytest.raises(SyntaxError, match="unexpected character 'e'"):
        parse_expr("2e", 1)


def test_parse_symbol_document():
    doc = parse_symbol_document(VARIABLE_DOC)
    assert doc.name == "P"
    assert doc.dimension == 2
    assert doc.leading_order == 2.0
    assert doc.truncation_order == 4


_BAD_DOCS = {
    # each of these parsed before: the term line was dropped, the field
    # truncated to an integer, or the last of two fields kept
    "misspelt_term": ('dim=1 order=1 trunc=3\n  term 1: "xi1"\n'
                      '  tern 0: "x1"', r"line 4: 'tern 0: \"x1\"' is "
                      "neither fields nor a term line"),
    "unquoted_term": ('dim=1 order=1 trunc=3\n  term 1: xi1',
                      r"line 3: 'term 1: xi1' is neither"),
    "text_after_term": ('dim=1 order=1 trunc=3\n  term 1: "xi1" x1',
                        "line 3: .* is neither"),
    "fractional_dim": ('dim=2.7 order=2 trunc=4\n  term 2: "xi1^2"',
                       "line 2: dim= must be an integer in 1..9, got '2.7'"),
    # the grammar's variables stop at x9; before, dim=12 reached the
    # ellipticity sampler, which asked numpy for 24 PiB
    "dim_past_nine": ('dim=12 order=2 trunc=4\n  term 2: "xi1^2"',
                      "line 2: dim= must be an integer in 1..9, got '12'"),
    "fractional_trunc": ('dim=1 order=1 trunc=4.9\n  term 1: "xi1"',
                         "line 2: trunc= must be an integer, got '4.9'"),
    "order_not_a_number": ('dim=1 order=one trunc=3\n  term 1: "xi1"',
                           "line 2: order= must be a number"),
    "repeated_field": ('dim=2 order=1 trunc=3\n  dim=1\n  term 1: "xi1"',
                       "line 3: field dim= is given twice"),
}


@pytest.mark.parametrize("name", sorted(_BAD_DOCS))
def test_symbol_document_rejects_what_it_cannot_read(name):
    body, message = _BAD_DOCS[name]
    with pytest.raises(SyntaxError, match=message):
        parse_symbol_document(f"symbol P {{\n  {body}\n}}\n")


def test_symbol_document_reads_fields_and_terms_line_by_line():
    doc = parse_symbol_document(
        'symbol P {\r\n  dim = 1   order=1.5\r\n\r\n  trunc=3\r\n'
        '  term 1.5: "xi1*sqrt(xi1)"\r\n  term 0: "x1"\r\n}\r\n')
    assert (doc.dimension, doc.leading_order, doc.truncation_order) == (
        1, 1.5, 3)
    assert doc.terms == ((1.5, "xi1*sqrt(xi1)", 5), (0.0, "x1", 6))


def test_cli_misspelt_term_line_exits_one(tmp_path, capsys):
    doc = FIRST_ORDER_DOC.replace('term 0: "x1"', 'tern 0: "x1"')
    assert main(["adjoint", _write(tmp_path / "q.sym", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 4: ")
    assert captured.out == ""


def test_parse_symbol_text_validates_homogeneity():
    bad = 'symbol P {\n  dim=1 order=1 trunc=2\n  term 1: "xi1 + 1"\n}\n'
    with pytest.raises(HomogeneityError):
        parse_symbol_text(bad)


def test_parse_symbol_text_requires_decreasing_degrees():
    bad = ('symbol P {\n  dim=1 order=1 trunc=3\n'
           '  term 0: "x1"\n  term 1: "xi1"\n}\n')
    with pytest.raises(DegreeOrderError):
        parse_symbol_text(bad)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_cli_compose(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    q = _write(tmp_path / "q.sym", FIRST_ORDER_DOC.replace("dim=1", "dim=2")
               .replace('term 1: "xi1"', 'term 1: "xi1"')
               .replace('term 0: "x1"', 'term 0: "x1"'))
    rc = main(["compose", p, q])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def test_cli_adjoint_and_commutator(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", VARIABLE_DOC)
    assert main(["adjoint", p]) == 0
    assert main(["commutator", p, p]) == 0
    capsys.readouterr()


def test_cli_ellipticity(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    assert main(["ellipticity", p]) == 0
    out = capsys.readouterr().out
    assert "verdict: elliptic" in out


def test_cli_rereads_a_printed_level_in_exponent_notation(tmp_path, capsys):
    doc = ('symbol P {\n  dim=1 order=2 trunc=8\n'
           '  term 2: "(1+0.01*sin(x1))*xi1^2"\n}\n')
    assert main(["parametrix", _write(tmp_path / "p.sym", doc),
                 "--order", "4"]) == 0
    level = next(line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("degree -5: "))
    body = level.removeprefix("degree -5: ")
    assert "e-0" in body
    r = _write(tmp_path / "r.sym", 'symbol R {\n  dim=1 order=-5 trunc=2\n'
               f'  term -5: "{body}"\n}}\n')
    assert main(["adjoint", r]) == 0
    assert capsys.readouterr().out.startswith("degree -5: ")


def test_cli_ellipticity_rejects_a_dimension_past_nine(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC.replace("dim=2", "dim=12"))
    assert main(["ellipticity", p]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: line 2: dim= must be an integer in "
                            "1..9, got '12'\n")
    assert captured.out == ""


def test_cli_ellipticity_refuses_dimension_five(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", 'symbol P {\n  dim=5 order=2 trunc=4\n'
               '  term 2: "xi1^2 + xi5^2"\n}\n')
    assert main(["ellipticity", p]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sampling the principal symbol "
                                   "on T^5 ")
    assert captured.out == ""


_BAD_EXPRESSIONS = {
    # an expression error names its line, as a field error does, and
    # keeps its class; before, only the position within the expression
    "symbol_syntax": ("symbol", 'term 0: "x3"', SyntaxError,
                      "line 4: variable x3 exceeds dimension 1 at "
                      "position 0"),
    "symbol_domain": ("symbol", 'term 0: "1e200*1e200*x1"', DomainError,
                      "line 4: constant product is not finite"),
    "map_syntax": ("map", 'forward 1: "x3"', SyntaxError,
                   "line 2: variable x3 exceeds dimension 1 at position 0"),
    "map_domain": ("map", 'forward 1: "x1 + 1e308 + 1e308"', DomainError,
                   "line 2: constant sum is not finite"),
}


@pytest.mark.parametrize("name", sorted(_BAD_EXPRESSIONS))
def test_an_expression_error_names_its_line(tmp_path, capsys, name):
    kind, line, cls, message = _BAD_EXPRESSIONS[name]
    if kind == "symbol":
        text = FIRST_ORDER_DOC.replace('term 0: "x1"', line)
        with pytest.raises(cls, match=f"^{message}$"):
            parse_symbol_text(text)
        argv = ["adjoint", _write(tmp_path / "q.sym", text)]
    else:
        text = f'dim=1\n{line}\ninverse 1: "x1"\n'
        with pytest.raises(cls, match=f"^{message}$"):
            parse_map_text(text)
        argv = ["pullback", _write(tmp_path / "p.sym", FIRST_ORDER_DOC),
                "--map", _write(tmp_path / "phi.map", text)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_parametrix_not_elliptic_exits_one(tmp_path, capsys):
    wave = ('symbol W {\n  dim=2 order=2 trunc=4\n'
            '  term 2: "xi1^2 - xi2^2"\n}\n')
    p = _write(tmp_path / "w.sym", wave)
    assert main(["parametrix", p, "--order", "2"]) == 1


def test_cli_error_points_print_as_plain_floats(tmp_path, capsys):
    # both messages printed np.float64(...) reprs of the point before
    wave = ('symbol W {\n  dim=2 order=2 trunc=4\n'
            '  term 2: "xi1^2 - xi2^2"\n}\n')
    p = _write(tmp_path / "w.sym", wave)
    assert main(["parametrix", p, "--order", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: principal symbol has modulus ")
    assert " at ((0.0, 0.0), (0.70710678" in err and "np.float64" not in err
    init = _write(tmp_path / "init.csv", "0,0,1,0\n")
    assert main(["wavefront", p, "--init", init, "--time", "1.0"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: initial point (0.0, 0.0, 1.0, 0.0) has |p| = 1.00e+00")


def test_cli_parse_error_exits_one(tmp_path):
    p = _write(tmp_path / "bad.sym", "symbol P { this is not valid }")
    assert main(["adjoint", p]) == 1


@pytest.mark.parametrize("term", ["xi1 + 0^(-1)*xi1", "10^400*xi1"])
def test_cli_constant_power_that_is_not_finite_exits_one(tmp_path, capsys,
                                                        term):
    doc = f'symbol P {{\n  dim=1 order=1 trunc=3\n  term 1: "{term}"\n}}\n'
    assert main(["adjoint", _write(tmp_path / "p.sym", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err



def _adjoint_of_term(tmp_path, capsys, term):
    """Exit code and stderr of `psido adjoint` on a one-term symbol."""
    doc = f'symbol P {{\n  dim=1 order=1 trunc=3\n  term 1: "{term}"\n}}\n'
    rc = main(["adjoint", _write(tmp_path / "p.sym", doc)])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("term", [f"xi1*x1^({_HUGE})", f"xi1*2^({_HUGE})"])
def test_cli_exponent_that_is_not_finite_exits_one(tmp_path, capsys, term):
    rc, err = _adjoint_of_term(tmp_path, capsys, term)
    assert rc == 1
    assert err.startswith("error:")
    assert f"number at position {term.index(_HUGE)} is not finite" in err
    rc, err = _adjoint_of_term(tmp_path, capsys,
                               term.replace(_HUGE, _BIG_SQUARE))
    assert rc == 1
    assert err.startswith("error:") and "product is not finite" in err


def test_cli_constant_fold_that_overflows_exits_one(tmp_path, capsys):
    # the fold raises before numpy sees inf, so there is no overflow
    # warning, which "error" would turn into an exception here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _adjoint_of_term(tmp_path, capsys, f"xi1*{_BIG_SQUARE}")
    assert rc == 1
    assert err == "error: line 3: constant product is not finite\n"


def test_cli_number_that_is_not_finite_exits_one(tmp_path, capsys):
    rc, err = _adjoint_of_term(tmp_path, capsys, f"xi1*{_HUGE}")
    assert rc == 1
    assert err.startswith("error:") and "position 4 is not finite" in err


@pytest.mark.parametrize("args", [["--time", "nan"], ["--time", "inf"],
                                  ["--time", "1", "--tol", "0"]])
def test_cli_flow_time_or_tolerance_out_of_range_exits_one(tmp_path, capsys,
                                                           args):
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    assert main(["flow", p, "--start", "0,0,1,0", *args]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")

@pytest.mark.parametrize("start", ["nan,0,1,0", "0,0,inf,0"])
def test_cli_flow_start_that_is_not_finite_exits_one(tmp_path, capsys,
                                                     start):
    # a NaN start was a numerical error (exit 2) before
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    assert main(["flow", p, "--start", start, "--time", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: phase point ")
    assert out.err.endswith(" is not finite\n")


@pytest.mark.parametrize("doc", [LAPLACIAN_DOC, VARIABLE_DOC, """symbol P {
  dim=2 order=1 trunc=3
  term 1: "sqrt(xi1^2 + xi2^2)"
}
"""])
@pytest.mark.parametrize("command, args", [
    ("flow", ["--start", "0.3,0.2,0,0"]), ("wavefront", ["--init", None])])
def test_cli_flow_from_a_zero_covector_exits_one(tmp_path, capsys, doc,
                                                 command, args):
    # a start with xi = 0 was a numerical error (exit 2) after one step on
    # a polynomial symbol and a domain error on |xi|
    p = _write(tmp_path / "p.sym", doc)
    if command == "wavefront":
        args = ["--init", _write(tmp_path / "init.csv", "0.3,0.2,0,0\n")]
    assert main([command, p, *args, "--time", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: start (0.3, 0.2, 0.0, 0.0) has |xi|")


def test_cli_flow_writes_csv(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    out = tmp_path / "curve.csv"
    rc = main(["flow", p, "--start", "0,0,1,0", "--time", "1.0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(2.0, abs=1e-8)
    capsys.readouterr()


def test_cli_wavefront_of_complex_symbol_exits_one(tmp_path, capsys):
    doc = ('symbol P {\n  dim=2 order=1 trunc=3\n'
           '  term 1: "xi1 + i*sin(x1)*xi2"\n}\n')
    p = _write(tmp_path / "p.sym", doc)
    init = _write(tmp_path / "init.csv", "0,0,0,1\n")
    assert main(["wavefront", p, "--init", init, "--time", "1.0"]) == 1
    assert "real-valued" in capsys.readouterr().err


def test_cli_wavefront_rejects_point_of_wrong_length(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    init = _write(tmp_path / "init.csv", "0.0,0.0,1.0\n")
    assert main(["wavefront", p, "--init", init, "--time", "1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must have length 4" in err


def test_cli_sobolev_rejects_zero_points_per_axis(tmp_path, capsys):
    grid = _write(tmp_path / "u.csv", "# gridfunction n=1 M=0\n")
    assert main(["sobolev", "--grid", grid, "--s", "1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "power of two" in err


def test_cli_apply_and_sobolev(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    grid = tmp_path / "u.csv"
    GridFunction.single_mode(2, 16, [3, 4]).write_csv(grid)
    out = tmp_path / "v.csv"
    assert main(["apply", p, "--grid", str(grid), "--out", str(out)]) == 0
    v = GridFunction.read_csv(out)
    u = GridFunction.single_mode(2, 16, [3, 4])
    assert np.allclose(v.values, 25.0 * u.values, atol=1e-8)
    capsys.readouterr()
    assert main(["sobolev", "--grid", str(grid), "--s", "1.0"]) == 0
    outtext = capsys.readouterr().out
    val = float(outtext.split("sobolev_norm: ")[1])
    assert val == pytest.approx(np.sqrt(26.0))


@pytest.mark.parametrize("command", [["apply", "p.sym"],
                                     ["sobolev", "--s", "1.0"]])
def test_cli_grid_with_a_sample_that_is_not_finite_exits_one(
        tmp_path, capsys, command):
    # apply printed l2_norm: 0.0 and sobolev printed nan, both exiting 0
    _write(tmp_path / "p.sym", LAPLACIAN_DOC)
    grid = tmp_path / "u.csv"
    GridFunction.single_mode(2, 4, [1, 0]).write_csv(grid)
    lines = grid.read_text().splitlines()
    lines[3] = "0,2,nan,0.0"
    grid.write_text("\n".join(lines) + "\n")
    args = [str(tmp_path / c) if c.endswith(".sym") else c for c in command]
    assert main(args + ["--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("s, code, message", [
    ("nan", 1, "error: Sobolev order must be finite"),
    ("inf", 1, "error: Sobolev order must be finite"),
    ("400", 2, "numerical error: H^400 norm overflows")])
def test_cli_sobolev_order_out_of_range(tmp_path, capsys, s, code, message):
    # each printed a norm (nan, inf, inf after a RuntimeWarning), exiting 0
    grid = tmp_path / "u.csv"
    GridFunction.random_band_limited(2, 8, 3).write_csv(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sobolev", "--grid", str(grid), "--s", s]) == code
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(message)


def test_cli_oscint(tmp_path, capsys):
    rc = main(["oscint", "--amp", "1", "--test", "exp(0 - 2*x1^2)",
               "--method", "parts"])
    assert rc == 0
    val = float(capsys.readouterr().out.split("value: ")[1].split(",")[0])
    assert val == pytest.approx(2.0 * np.pi, abs=1e-4)


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_cli_oscint_tolerance_out_of_range_exits_one(capsys, tol):
    # at nan every Cauchy and agreement check would pass untested
    assert main(["oscint", "--amp", "|xi|", "--test", "exp(0 - 2*x1^2)",
                 "--tol", tol]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")
    assert "finite and positive" in out.err


@pytest.mark.parametrize("method", ["both", "epsilon-cutoff", "parts"])
def test_cli_oscint_amplitude_that_is_not_a_symbol_exits_one(capsys, method):
    # parts would otherwise expand 94 steps of M^t, and the cutoff sweep
    # overflow in an uncaught OverflowError
    assert main(["oscint", "--amp", "exp(xi1)", "--test", "exp(0 - 2*x1^2)",
                 "--method", method]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")
    assert out.err.count("\n") == 1 and "is not a symbol" in out.err


@pytest.mark.parametrize("amp", ["xi1^7", "xi1^8"])
def test_cli_oscint_parts_past_its_excision_exits_one(capsys, amp):
    # xi1^8 took minutes and printed 168 807, not 2 pi 26 880 = 168 892
    assert main(["oscint", "--amp", amp, "--test", "exp(0 - 2*x1^2)",
                 "--method", "parts"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: amplitude")
    assert "excision" in out.err


@pytest.mark.parametrize("method", ["both", "epsilon-cutoff", "parts"])
def test_cli_oscint_value_that_is_not_finite_exits_two(monkeypatch, capsys,
                                                       method):
    # a NaN theta sweep, in the shape of f's leading axes; "both" printed
    # "value: nan,nan" and exited 0
    monkeypatch.setattr(quantize, "_outward_theta_quad", lambda f, _: np.full(
        f(quantize._GL_NODES[None], np.zeros(1)).shape[:-2], np.nan))
    assert main(["oscint", "--amp", "1", "--test", "exp(0 - 2*x1^2)",
                 "--method", method]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("numerical error:")
    assert "not finite" in out.err


@pytest.mark.parametrize("argv, named", [
    (["oscint", "--amp", "x1", "--test", "exp(0-x1^2)"], "amplitude x1"),
    (["oscint", "--amp", "1", "--test", "xi1"], "test function xi1"),
    (["index", "--aplus", "2+xi1", "--aminus", "2+cos(x1)"],
     "symbol (xi1 + 2)"),
])
def test_cli_variable_of_the_wrong_kind_exits_one(capsys, argv, named):
    # each was evaluated with the other kind's variables at 0: oscint
    # printed "value: 0.0,0.0" and index printed index 0, both exit 0
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {named} reads a")


@pytest.mark.parametrize("K", ["0", "-5"])
def test_cli_index_truncation_below_one_exits_one(capsys, K):
    assert main(["index", "--aplus", "2+cos(x1)", "--aminus", "2+sin(x1)",
                 "--K", K]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")
    assert f"K must be >= 1, got {K}" in out.err


def test_cli_index(capsys):
    assert main(["index", "--aplus", "1", "--aminus",
                 "cos(x1) + i*sin(x1)"]) == 0
    out = capsys.readouterr().out
    assert "numerical_index: 1" in out


def test_cli_index_short_of_the_winding_index_is_a_numerical_error(capsys):
    # windings -2 and 1: the truncation at K = 16 reads index 0, not 3
    assert main(["index", "--aplus", "exp(-2*i*x1)*(1+0.319*cos(3*x1+4.03))",
                 "--aminus", "exp(i*x1)*(1+0.376*cos(3*x1+0.136))",
                 "--K", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: matrix index 0 at K=16, 0 at "
                          "K=24, winding_minus - winding_plus = 1 - (-2)")


def test_cli_hodge_betti(capsys):
    assert main(["hodge", "betti", "--n", "2", "--j", "1"]) == 0
    assert "betti: 2" in capsys.readouterr().out


def test_cli_hodge_parametrix_check(capsys):
    assert main(["hodge", "parametrix-check", "--n", "2", "--j", "1",
                 "--trials", "5"]) == 0
    assert "max_residual" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_hodge_parametrix_check_needs_a_trial(capsys, trials):
    assert main(["hodge", "parametrix-check", "--n", "2", "--j", "1",
                 "--trials", trials]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


_COMMANDS = {"compose", "commutator", "adjoint", "ellipticity", "convert",
             "parametrix", "sqrt", "pullback", "flow", "wavefront", "apply",
             "sobolev", "oscint", "index", "hodge"}


def test_every_subcommand_has_help(capsys):
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == _COMMANDS
    for name in _COMMANDS:
        with pytest.raises(SystemExit) as done:
            main([name, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: psido {name} ")


def test_cli_convert_writes_what_it_prints(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", VARIABLE_DOC)
    out = tmp_path / "r.txt"
    assert main(["convert", p, "--to", "right", "--out", str(out)]) == 0
    want = calculus.convert_left_right(parse_symbol_text(VARIABLE_DOC),
                                       "left-to-right").render()
    assert capsys.readouterr().out == want + "\n"
    assert out.read_text() == want + "\n"


def test_cli_sqrt(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", VARIABLE_DOC)
    assert main(["sqrt", p, "--order", "2"]) == 0
    want = calculus.sqrt_approx(parse_symbol_text(VARIABLE_DOC), 2).render()
    assert capsys.readouterr().out == want + "\n"


def test_cli_pullback(tmp_path, capsys):
    p = _write(tmp_path / "p.sym", VARIABLE_DOC)
    m = _write(tmp_path / "phi.map",
               'dim=2\nforward 1: "x1 + 0.5"\nforward 2: "2*x2"\n'
               'inverse 1: "x1 - 0.5"\ninverse 2: "0.5*x2"\n')
    assert main(["pullback", p, "--map", m]) == 0
    phi = Diffeo([parse_expr("x1 + 0.5", 2), parse_expr("2*x2", 2)],
                 [parse_expr("x1 - 0.5", 2), parse_expr("0.5*x2", 2)])
    term = calculus.pullback_principal(
        calculus.principal(parse_symbol_text(VARIABLE_DOC)), phi)
    assert capsys.readouterr().out == (f"degree {term.degree:g}: "
                                       f"{term.expr.render()}\n")


_MAP = ('dim=2\nforward 1: "x1 + 0.5"\nforward 2: "2*x2"\n'
        'inverse 1: "x1 - 0.5"\ninverse 2: "0.5*x2"\n')

_BAD_MAPS = {
    # before, the first was an IndexError traceback, the second kept the
    # last copy, the third wrote component n, the fourth read dim=2, the
    # fifth was ignored and the sixth failed inside numpy
    "component_past_dim": (_MAP + 'forward 3: "x1"\n',
                           "line 6: component forward 3 is outside 1..2"),
    "repeated_component": (_MAP + 'forward 1: "x1"\n',
                           "line 6: component forward 1 is given twice"),
    "component_zero": (_MAP.replace("inverse 1", "inverse 0"),
                       "line 4: component inverse 0 is outside 1..2"),
    "fractional_dim": (_MAP.replace("dim=2", "dim=2.7"),
                       "line 1: dim= must be an integer in 1..9, got '2.7'"),
    "junk_line": (_MAP + "junk\n", "line 6: 'junk' is neither fields nor "
                                   "a component line"),
    "zero_dim": ('dim=0\nforward 1: "x1"\ninverse 1: "x1"\n',
                 "line 1: dim= must be an integer in 1..9, got '0'"),
    "missing_component": (_MAP.replace('inverse 2: "0.5*x2"\n', ""),
                          "map file gives no component inverse 2"),
    "repeated_dim": ("dim=2\n" + _MAP, "line 2: field dim= is given twice"),
    "missing_dim": (_MAP.replace("dim=2\n", ""), "missing field dim="),
}


@pytest.mark.parametrize("name", sorted(_BAD_MAPS))
def test_cli_pullback_rejects_malformed_map(tmp_path, capsys, name):
    text, message = _BAD_MAPS[name]
    p = _write(tmp_path / "p.sym", VARIABLE_DOC)
    m = _write(tmp_path / "phi.map", text)
    assert main(["pullback", p, "--map", m]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


def test_map_file_reads_fields_and_components_line_by_line():
    lines = _MAP.splitlines()
    text = "\r\n\r\n".join(["  " + lines[0]] + lines[:0:-1]) + "\r\n"
    got, want = parse_map_text(text), parse_map_text(_MAP)
    assert (got.forward, got.inverse) == (want.forward, want.inverse)
    assert want.inverse == (parse_expr("x1 - 0.5", 2),
                            parse_expr("0.5*x2", 2))


def test_cli_wavefront(tmp_path, capsys):
    doc = ('symbol P {\n  dim=2 order=2 trunc=4\n'
           '  term 2: "xi1^2 - (1 + 0.5*sin(x1))^2*xi2^2"\n}\n')
    p = _write(tmp_path / "p.sym", doc)
    init = _write(tmp_path / "init.csv", "# x1, x2, xi1, xi2\n"
                  "0,0,1,1\n0,1,-1,1\n")
    assert main(["wavefront", p, "--init", init, "--time", "0.5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    moved = hamilton.propagate_wavefront(
        calculus.principal(parse_symbol_text(doc)),
        [np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, -1.0, 1.0])],
        0.5, tol=1e-9)
    assert rows[0] == "# x1, x2, xi1, xi2"
    assert [[float(v) for v in r.split(",")] for r in rows[1:]] == [
        pt.as_vector().tolist() for pt in moved]


@pytest.mark.parametrize("op", ["d", "star", "delta", "laplacian",
                                "decompose"])
def test_cli_hodge_on_a_form(tmp_path, capsys, op):
    # the --out files read back as the library's forms, bit for bit
    path, out = tmp_path / "w.csv", str(tmp_path / "r.csv")
    hodge.FormField.random_band_limited(
        2, 1, 8, 2, np.random.default_rng(4)).write_csv(path)
    w = hodge.FormField.read_csv(path)
    assert main(["hodge", op, "--form", str(path), "--out", out]) == 0
    fields = dict(line.split(": ") for line in
                  capsys.readouterr().out.strip().splitlines())
    if op == "decompose":
        h, e, c = hodge.hodge_decompose(w)
        assert float(fields["exact_norm"]) == e.norm()
        assert float(fields["coexact_norm"]) == c.norm()
        result, out = e, out + ".exact"
    else:
        result = {"d": hodge.ext_d, "star": hodge.hodge_star,
                  "delta": hodge.codifferential,
                  "laplacian": hodge.laplacian}[op](w)
        assert int(fields["degree"]) == result.degree
        assert float(fields["max_abs"]) == result.max_abs()
    written = hodge.FormField.read_csv(out)
    for alpha, v in result.coefficients.items():
        assert np.array_equal(written.coefficients[alpha], v)


def test_cli_form_with_a_sample_that_is_not_finite_exits_one(tmp_path,
                                                            capsys):
    # laplacian printed max_abs: nan and exited 0
    form = _write(tmp_path / "w.csv", "# formfield n=1 j=1 M=4\n"
                  "0,0,1.0,0.0\n0,1,nan,0.0\n0,2,1.0,0.0\n0,3,1.0,0.0\n")
    assert main(["hodge", "laplacian", "--form", form]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "finite" in captured.err
    assert captured.out == ""


def test_cli_missing_file_exits_one(tmp_path):
    assert main(["adjoint", str(tmp_path / "missing.sym")]) == 1


_BAD_GRIDS = {
    "missing_M": "# gridfunction n=1\n0,1.0,0.0\n",
    "index_off_grid": "# gridfunction n=1 M=4\n4,1.0,0.0\n",
    "negative_index": "# gridfunction n=1 M=4\n-1,1.0,0.0\n",
    "short_row": "# gridfunction n=1 M=4\n0,1.0\n",
    "negative_M": "# gridfunction n=1 M=-4\n0,1.0,0.0\n",
    # read as [2, 0, 0, 0] before: a missing entry was zero, a repeated
    # one the last row's
    "missing_row": "# gridfunction n=1 M=4\n0,1.0,0.0\n1,2.0,0.0\n"
                   "3,1.0,0.0\n",
    "repeated_row": "# gridfunction n=1 M=4\n0,1.0,0.0\n1,2.0,0.0\n"
                    "2,0.5,0.0\n3,1.0,0.0\n0,2.0,0.0\n",
    # read as [1, 0.5] before: fields past the value were ignored
    "extra_field": "# gridfunction n=1 M=2\n0,1.0,0.0,7.5\n"
                   "1,0.5,0.0,junk\n",
}


@pytest.mark.parametrize("name", sorted(_BAD_GRIDS))
def test_cli_apply_rejects_malformed_grid(tmp_path, capsys, name):
    p = _write(tmp_path / "q.sym", FIRST_ORDER_DOC)
    grid = _write(tmp_path / "u.csv", _BAD_GRIDS[name])
    assert main(["apply", p, "--grid", grid]) == 1
    assert capsys.readouterr().err.startswith("error: grid CSV ")


_BAD_FORMS = {
    "missing_j": "# formfield n=1 M=4\n0,0,1.0,0.0\n",
    "alpha_off_basis": "# formfield n=1 j=1 M=4\n1,0,1.0,0.0\n",
    "index_off_grid": "# formfield n=1 j=1 M=4\n0,4,1.0,0.0\n",
    "short_row": "# formfield n=1 j=1 M=4\n0,0,1.0\n",
    "zero_M": "# formfield n=2 j=1 M=0\n",
    "negative_M": "# formfield n=2 j=1 M=-4\n0,0,0,1.0,0.0\n",
    "missing_row": "# formfield n=1 j=1 M=4\n0,0,1.0,0.0\n0,1,2.0,0.0\n"
                   "0,2,0.5,0.0\n",
    "repeated_row": "# formfield n=1 j=1 M=4\n0,0,1.0,0.0\n0,1,2.0,0.0\n"
                    "0,2,0.5,0.0\n0,3,1.0,0.0\n0,1,2.0,0.0\n",
    "extra_field": "# formfield n=1 j=1 M=2\n0,0,1.0,0.0,7.5\n"
                   "0,1,0.5,0.0\n",
}


@pytest.mark.parametrize("name", sorted(_BAD_FORMS))
def test_cli_hodge_rejects_malformed_form(tmp_path, capsys, name):
    # laplacian, not d: d rejects every 1-form on T^1 as top-degree, so it
    # exits 1 whether or not the reader does
    form = _write(tmp_path / "w.csv", _BAD_FORMS[name])
    assert main(["hodge", "laplacian", "--form", form]) == 1
    assert capsys.readouterr().err.startswith("error: form CSV ")


def test_cli_import_loads_no_scipy():
    # scipy's import cost every CLI call about 0.8 s; psido needs numpy only
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, psido.cli; print(sorted(m for m "
         "in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
