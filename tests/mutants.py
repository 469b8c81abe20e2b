"""Mutation gate: each row of MUTANTS is a small wrong edit to the program
that the row's test selection must catch.

Usage, from the root of a checkout:

    python tests/mutants.py             # every row
    python tests/mutants.py NAME ...    # the named rows

For each row, src/, tests/ and pyproject.toml are copied to a temporary
directory and the row's old text, which must occur exactly once in its
file, is replaced by the new text.  `pytest -x` then runs the row's
selection in the copy, with the copy's src/ first on the path.  The
mutant is killed when a test of the selection fails (pytest exit status
1; a collection or usage error does not count).  The script exits 1 if
any row's old text does not occur exactly once or any mutant survives.
Put the test that kills a row first in its selection, so that -x stops
early: --keep-duplicates keeps it first when a file of the selection
holds it too.  pytest does not collect this file: its name has no test_ prefix.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CALCULUS = ["tests/test_calculus.py", "tests/test_acceptance.py"]
POINT = ["tests/test_expr.py", "tests/test_hamilton.py"]

# name, file, old text, new text, test selection
MUTANTS = [
    ("compose without 1/alpha!", "src/psido/calculus.py",
     "contrib = dp.mul(dq).scale(1.0 / factorial(alpha))",
     "contrib = dp.mul(dq)",
     ["tests/test_acceptance.py::"
      "test_composition_matches_operator_application", *CALCULUS]),
    ("compose with (-1)^|alpha|", "src/psido/calculus.py",
     "contrib = dp.mul(dq).scale(1.0 / factorial(alpha))",
     "contrib = dp.mul(dq).scale((-1.0) ** sum(alpha) / factorial(alpha))",
     ["tests/test_calculus.py::test_compose_xi_with_x", *CALCULUS]),
    ("convert_left_right without 1/alpha!", "src/psido/calculus.py",
     "c = 1.0 / factorial(alpha)",
     "c = 1.0",
     ["tests/test_calculus.py::test_adjoint_involution", *CALCULUS]),
    ("convert_left_right without its sign", "src/psido/calculus.py",
     "c *= (-1.0) ** sum(alpha)",
     "c *= 1.0",
     ["tests/test_calculus.py::test_convert_left_right_x_xi", *CALCULUS]),
    ("sqrt's residual change without q o q", "src/psido/calculus.py",
     "compose(q, Q + q, truncation=N)",
     "compose(q, Q, truncation=N)",
     ["tests/test_calculus.py::test_sqrt_squares_back", *CALCULUS]),
    ("parametrix's residual change composed as q o P",
     "src/psido/calculus.py",
     "if q is None else compose(P, q, truncation=N), N)",
     "if q is None else compose(q, P, truncation=N), N)",
     ["tests/test_calculus.py::test_parametrix_is_a_right_inverse",
      *CALCULUS]),
    ("theta sweep resets its quiet count at each block",
     "src/psido/quantize.py",
     "        for j, aj in enumerate(a):\n",
     "        quiet = 0\n        for j, aj in enumerate(a):\n",
     ["tests/test_quantize.py::test_block_sweep_equals_the_pairwise_sweep",
      "tests/test_quantize.py"]),
    ("theta sweep drops the negative panel of each pair",
     "src/psido/quantize.py",
     "pair = c[..., 2 * j] + c[..., 2 * j + 1]",
     "pair = c[..., 2 * j]",
     ["tests/test_quantize.py::test_block_sweep_equals_the_pairwise_sweep",
      "tests/test_quantize.py"]),
    ("buffer plan without its realness test", "src/psido/expr.py",
     "kinds[d] == kinds[k] and real[d] == real[k]",
     "kinds[d] == kinds[k]",
     ["tests/test_expr.py::test_array_calls_write_into_dying_"
      "operands_with_the_same_bits", "tests/test_expr.py"]),
    ("buffer plan without its kinds test", "src/psido/expr.py",
     "kinds[d] == kinds[k] and real[d] == real[k]",
     "real[d] == real[k]",
     ["tests/test_expr.py::test_array_calls_write_into_dying_"
      "operands_with_the_same_bits", "tests/test_expr.py"]),
    ("compile-time realness counts exp as real", "src/psido/expr.py",
     "real[a] and real[b] and type(node) is not Exp",
     "real[a] and real[b]",
     ["tests/test_expr.py::test_array_calls_write_into_dying_"
      "operands_with_the_same_bits", "tests/test_expr.py"]),
    ("mode-by-mode phase table conjugated", "src/psido/quantize.py",
     "roots = np.exp(2j * np.pi * np.arange(M) / M)",
     "roots = np.exp(-2j * np.pi * np.arange(M) / M)",
     ["tests/test_quantize.py::test_the_mode_by_mode_phase_is_a_root_of_unity",
      "tests/test_quantize.py"]),
    ("op_apply looks its plan up by the symbol's dimension",
     "src/psido/quantize.py",
     "plans = _PLANS.setdefault(P, {})",
     "plans = vars(_PLANS).setdefault(P.dimension, {})",
     ["tests/test_quantize.py::test_each_symbol_is_applied_by_its_own_plan",
      "tests/test_quantize.py"]),
    ("point function without its fractional-power domain check",
     "src/psido/expr.py",
     'f"if v{a} < -1e-12 * max(abs(v{a}), 1.0): return",',
     "",
     ["tests/test_expr.py::"
      "test_a_domain_error_is_the_same_on_a_point_and_in_a_batch", *POINT]),
    ("point function without its non-finite fallback", "src/psido/expr.py",
     "if roots is None or not cmath.isfinite(sum(roots)):",
     "if roots is None:",
     ["tests/test_expr.py::"
      "test_a_point_python_cannot_compute_is_computed_on_arrays", *POINT]),
    ("point function reads a variable without float()", "src/psido/expr.py",
     'f"v{k} = float(v{a}[{node.j - 1}])"',
     'f"v{k} = v{a}[{node.j - 1}]"',
     ["tests/test_expr.py::"
      "test_integer_samples_at_a_point_have_the_float_samples_value",
      *POINT]),
    ("point function takes a real exp through math.exp", "src/psido/expr.py",
     '("exp", float): cmath.exp',
     '("exp", float): math.exp',
     ["tests/test_expr.py::"
      "test_a_point_alone_has_its_value_in_a_batch_bit_for_bit", *POINT]),
    ("point-function cache shares the first program's namespace",
     "src/psido/expr.py",
     '    exec(_compiled(source), ns)\n    return ns.pop("point")',
     "    fns = _compiled.__dict__      # built functions, by source\n"
     "    if source not in fns:\n"
     "        exec(_compiled(source), ns)\n"
     '        fns[source] = ns.pop("point")\n'
     "    return fns[source]",
     ["tests/test_hamilton.py::"
      "test_flow_fields_of_one_structure_compile_once_and_keep_their_values",
      *POINT]),
    ("flow stop skips the one-ray xi floor", "src/psido/hamilton.py",
     "if math.hypot(*z[n:]) < XI_FLOOR:",
     "if math.inf < XI_FLOOR:",
     ["tests/test_hamilton.py::test_flow_stops_when_xi_collapses",
      "tests/test_hamilton.py"]),
    ("flow plan rebuilt on every flow", "src/psido/hamilton.py",
     "    plan = _PLANS.get(p)\n",
     "    plan = None\n",
     ["tests/test_hamilton.py::"
      "test_a_repeat_flow_builds_no_program_and_compiles_no_step",
      "tests/test_hamilton.py"]),
    ("one-ray step reads E3 as E5", "src/psido/hamilton.py",
     'f"u{i} = ({comb(_E5, i)}) / c",',
     'f"u{i} = ({comb(_E3, i)}) / c",',
     ["tests/test_hamilton.py::test_the_list_form_takes_the_array_forms_steps",
      "tests/test_hamilton.py"]),
    ("add folds its top-level constants before the spliced ones",
     "src/psido/expr.py",
     "merged, const = _spliced(Add, terms, 0.0 + 0.0j, operator.add)",
     "merged, const = _spliced(\n"
     "        Add, [t for t in terms if type(t) is not Const],\n"
     "        sum((t.value for t in terms if type(t) is Const), 0.0 + 0.0j),\n"
     "        operator.add)",
     ["tests/test_expr.py::"
      "test_sums_and_products_fold_constants_in_the_order_met",
      "tests/test_expr.py",
      "tests/test_symbols.py::test_each_level_is_the_pairwise_sum_of_its_terms"]),
]


def run(row) -> tuple:
    """(killed, detail) for one row, its mutant built in a fresh copy."""
    _, path, old, new, selection = row
    with tempfile.TemporaryDirectory(prefix="psido-mutant-") as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, tmp / d, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        text = (tmp / path).read_text()
        if text.count(old) != 1:
            return False, f"old text occurs {text.count(old)} times in {path}"
        (tmp / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "--keep-duplicates",
             "-p", "no:cacheprovider", *selection],
            cwd=tmp, env=env, capture_output=True, text=True)
    failed = re.findall(r"^FAILED (\S+)", done.stdout, re.M)
    if done.returncode == 1 and failed:
        return True, f"killed by {failed[0]}"
    return False, f"survived: pytest exit status {done.returncode}"


def main(names) -> int:
    rows = [r for r in MUTANTS if not names or r[0] in names]
    unknown = set(names) - {r[0] for r in rows}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}")
        return 1
    bad = 0
    for row in rows:
        start = time.perf_counter()
        killed, detail = run(row)
        bad += not killed
        print(f"{'ok  ' if killed else 'FAIL'} {row[0]}: {detail} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
