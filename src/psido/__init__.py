"""Symbolic-numeric calculus of classical pseudo-differential operators.

Symbols are truncated series of xi-homogeneous terms; the package layers
exact symbolic manipulation (composition, adjoints, parametrices,
approximate square roots), Hamiltonian flow of principal symbols,
discrete Fourier quantization on the torus as a numerical oracle, and
the exterior/Hodge calculus of the flat torus.
"""

from . import expr
from .calculus import (EllipticityReport, adjoint, commutator, compose,
                       convert_left_right, is_elliptic, micro_elliptic_at,
                       parametrix, poisson_bracket, principal,
                       pullback_principal, sqrt_approx)
from .errors import (BottomDegree, DegreeOrderError, DimensionMismatch,
                     DomainError, GridMismatch, HomogeneityError,
                     NonConvergent, NotCharacteristic, NotElliptic,
                     NotPositive, NotReal, NumericalError, Overflow,
                     PsidoError, StepFailure, SymbolVanishes, TopDegree,
                     Unstable, ValidationError, ZeroCovector)
from .hamilton import (Bicharacteristic, PhasePoint, flow,
                       hamiltonian_field, propagate_wavefront,
                       transport_solve)
from .hodge import (FormField, betti, codifferential,
                    complex_parametrix_check, ext_d, green,
                    harmonic_projection, hodge_decompose, hodge_star,
                    inner, laplacian)
from .parser import (SymbolDocument, parse_expr, parse_symbol_document,
                     parse_symbol_text)
from .quantize import (GridFunction, IndexReport, circle_index,
                       duality_pair, op_apply, oscint_eval, sobolev_norm)
from .symbols import (ClassicalSymbol, Diffeo, HomogeneousTerm,
                      check_homogeneity, conjugate, differentiate, is_zero,
                      make_lambda_s, multi_indices, zero_margin)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
