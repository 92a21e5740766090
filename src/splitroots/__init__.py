"""Closed-form root solving for real polynomials of degree 2-4.

The solvers write a candidate root as ``x + omega*y`` for a root of unity
``omega``, separate real and imaginary parts, and solve the resulting real
systems; an independent simultaneous-iteration oracle cross-checks every
result.

``import splitroots`` loads the solver only (``poly_core`` and
``split_solver``).  The oracle's and the parser's names, and the
``oracle`` and ``parser`` submodules themselves, load on first use.
"""

from .poly_core import (
    DepressedCubic,
    DepressedQuartic,
    RealPolynomial,
    RootSet,
    depress_cubic,
    depress_quartic,
    evaluate,
    reconstruct_cubic,
    reconstruct_quartic,
)
from .split_solver import (
    OMEGA,
    OMEGA_ANSATZ,
    ONE_MINUS_OMEGA,
    SplitAnsatz,
    UnsupportedDegreeError,
    cubic_naive_split_residual,
    cubic_omega_split_residual,
    naive_cubic_reduction,
    omega_decompose,
    quadratic_split_residual,
    quartic_resolvent_coefficients,
    quartic_split_residual,
    solve,
    solve_quadratic,
)

__all__ = [
    "OMEGA",
    "OMEGA_ANSATZ",
    "ONE_MINUS_OMEGA",
    "DepressedCubic",
    "DepressedQuartic",
    "OracleResult",
    "ParseError",
    "RealPolynomial",
    "RootSet",
    "SplitAnsatz",
    "UnsupportedDegreeError",
    "cubic_naive_split_residual",
    "cubic_omega_split_residual",
    "depress_cubic",
    "depress_quartic",
    "evaluate",
    "find_roots",
    "format_polynomial",
    "max_pairing_distance",
    "naive_cubic_reduction",
    "omega_decompose",
    "pair_roots",
    "parse_polynomial",
    "quadratic_split_residual",
    "quartic_resolvent_coefficients",
    "quartic_split_residual",
    "reconstruct_cubic",
    "reconstruct_quartic",
    "solve",
    "solve_quadratic",
]

__version__ = "0.1.0"

# Loaded on first use by __getattr__: name -> the submodule that defines it.
_LAZY = {
    "oracle": "oracle",
    "OracleResult": "oracle",
    "find_roots": "oracle",
    "max_pairing_distance": "oracle",
    "pair_roots": "oracle",
    "parser": "parser",
    "ParseError": "parser",
    "format_polynomial": "parser",
    "parse_polynomial": "parser",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    submodule = import_module(f".{module}", __name__)
    value = submodule if name == module else getattr(submodule, name)
    globals()[name] = value  # later lookups find it without coming here
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
