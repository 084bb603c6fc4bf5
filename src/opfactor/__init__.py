"""Symbolic factorization engine for second order differential operators.

The slot calculus indexes the k-th order derivatives of a function of
n variables by h in 1..n^k, so an operator is a sparse map from slots
(k, h) to coefficient expressions.  On top of that sit exact product
expansion through jet coordinates, the eight factorization condition
templates, search strategies for two-factor splits, and cascade
construction of particular solutions.
"""

from .cascade import (CascadeOptions, CascadeSolution, ResidualReport,
                      SolutionPiece, Trajectory, antiderivative, cascade_ode,
                      cascade_system_numeric, verify_solution)
from .conditions import (TEMPLATES, CheckOptions, CheckReport,
                         ConditionSystem, Equation, FactorizationCandidate,
                         check_candidate, condition_residuals,
                         derive_conditions, discriminant,
                         render_condition_system, render_equation,
                         symbolic_factors, template_traits)
from .errors import (ArityMismatch, CapacityExceeded, DomainError,
                     EngineError, NonPolynomialCoefficients,
                     NonPolynomialSqrtDelta, NoRealFactorization, NotConstant,
                     NotQuasiLinear, OrderOverflow, ParseError,
                     QuadratureFailure, ShapeMismatch,
                     SingularLeadingCoefficient, StepCountTooSmall,
                     UnboundVariable, UnsupportedTemplate, ValidationError)
from .expr import (Const, DepVar, Div, Expr, Fun, FuncSym, IndepVar, JetVar,
                   Power, Product, Sum, Var, ZERO, ONE, const, diff, evaluate,
                   expr_to_poly, expr_variables, is_constant, is_zero,
                   poly_sqrt, render, simplify, substitute,
                   total_derivative, u_, x_)
from .factor import (ObligationCheck, PdeBranch, PdeFactorResult,
                     PdeObligation, RiccatiProblem, SearchConfig,
                     factor_constant, factor_ode, factor_pde_second_order,
                     riccati_candidate, riccati_from_operator,
                     solve_riccati_ansatz)
from .jet import (DerivIndex, axes_to_index, canonical_slot, compose_index,
                  decompose_index, index_to_axes, index_to_multiindex,
                  jet_size, multiindex_to_index, slot_count)
from .operator import (DEFAULT_ORDER_CAP, DiffOperator, JetPolynomial,
                       MatrixOperator, apply_operator, apply_to_expr,
                       expand_product, jet_polynomial, make_operator,
                       matrix_apply, matrix_expand_product,
                       operator_from_jet, render_jet, render_mono)
from .parse import parse_expr
from .problemfile import ProblemFile, parse_problem, print_problem

__version__ = "0.1.0"
