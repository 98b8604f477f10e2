"""Dynamical-Lamb-effect amplitudes and tunable three-qubit entanglement.

Closed-form transition amplitudes, excitation probabilities, conditional
residual tangle and conditional concurrence for three qubits in a cavity
whose boundary switches suddenly between two mode frequencies, plus an
exact-diagonalization oracle that verifies the perturbative layer.
"""
from .amplitudes import amplitude_closed_form, amplitude_table
from .entangle import (ClosedForms, SectorMeasures, concurrence_mixed,
                       concurrence_pair_general, entanglement_report,
                       monogamy_residual, normalized_sectors,
                       residual_tangle_general, sector_measures,
                       symmetric_sector)
from .errors import (DegeneracyAmbiguityError, NormalizationError,
                     ParameterDomainError, SingularityError,
                     SolverDiagnosticsError, TruncationHeadroomError)
from .params import SystemParams, ValidityReport, guard_detuning, validate_params

__version__ = "0.1.0"

__all__ = [
    "ClosedForms", "DegeneracyAmbiguityError", "DressedState",
    "NormalizationError", "ParameterDomainError", "SectorMeasures",
    "SingularityError", "SolverDiagnosticsError", "SystemParams",
    "TruncationHeadroomError", "ValidityReport", "amplitude_closed_form",
    "amplitude_table", "compare_with_closed_forms", "concurrence_mixed",
    "concurrence_pair_general", "dressed_state",
    "entanglement_report", "guard_detuning", "monogamy_residual",
    "normalized_sectors", "residual_tangle_general", "sector_measures",
    "shrink_factors", "sudden_overlap", "symmetric_sector", "validate_params",
]

#: Names served from ``oracle``, which is imported on first access: only
#: ``validate`` runs it, and ``python -m dle3q.cli`` always runs this file.
_ORACLE_NAMES = frozenset({"DressedState", "compare_with_closed_forms", "dressed_state",
                           "shrink_factors", "sudden_overlap"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
