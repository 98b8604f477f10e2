"""Dynamical-Lamb-effect amplitudes and tunable three-qubit entanglement.

Closed-form transition amplitudes, excitation probabilities, conditional
residual tangle and conditional concurrence for three qubits in a cavity
whose boundary switches suddenly between two mode frequencies, plus an
exact-diagonalization oracle that verifies the perturbative layer.

Every public name loads its home module on first access, so ``import dle3q``
alone imports no submodule and not numpy, and each CLI command loads only
the layers it runs.
"""
import importlib

__version__ = "0.1.0"

#: The home module of each public name.
_HOME = {
    "amplitude_table": "amplitudes",
    "ClosedForms": "entangle", "SectorMeasures": "entangle",
    "concurrence_mixed": "entangle", "concurrence_pair_general": "entangle",
    "entanglement_report": "entangle", "monogamy_residual": "entangle",
    "residual_tangle_general": "entangle", "sector_measures": "entangle",
    "DegeneracyAmbiguityError": "errors", "NormalizationError": "errors",
    "ParameterDomainError": "errors", "SingularityError": "errors",
    "SolverDiagnosticsError": "errors", "TruncationHeadroomError": "errors",
    "DressedState": "oracle", "compare_with_closed_forms": "oracle",
    "dressed_state": "oracle", "shrink_factors": "oracle", "sudden_overlap": "oracle",
    "SystemParams": "params", "ValidityReport": "params",
    "guard_detuning": "params", "validate_params": "params",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not cached here: each access reads the home module's current binding.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
