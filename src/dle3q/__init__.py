"""Dynamical-Lamb-effect amplitudes and tunable three-qubit entanglement.

Closed-form transition amplitudes, excitation probabilities, conditional
residual tangle and conditional concurrence for three qubits in a cavity
whose boundary switches suddenly between two mode frequencies, plus an
exact-diagonalization oracle that verifies the perturbative layer.
"""
from .amplitudes import amplitude_closed_form, amplitude_table, amplitude_via_overlap
from .entangle import (ClosedForms, SectorMeasures, concurrence_mixed,
                       concurrence_pair_general, entanglement_report,
                       monogamy_residual, normalized_sectors,
                       residual_tangle_general, sector_measures,
                       symmetric_sector)
from .errors import (DegeneracyAmbiguityError, NormalizationError,
                     ParameterDomainError, SingularityError,
                     SolverDiagnosticsError, TruncationHeadroomError)
from .hilbert import (BasisState, build_basis, dimension,
                      hamiltonian_h0, hamiltonian_total, hamiltonian_v,
                      hamiltonian_v_rwa, index_of, state_at)
from .oracle import (DressedState, compare_with_closed_forms,
                     convergence_study, diagonalize_total, dressed_state,
                     shrink_factors, sudden_overlap, symmetric_class_shift,
                     symmetrizer)
from .params import SystemParams, ValidityReport, guard_detuning, validate_params
from .perturb import (LambShift, energy_second_order, energy_unperturbed,
                      lamb_shift, perturbed_state)

__version__ = "0.1.0"

__all__ = [
    "BasisState", "ClosedForms", "DegeneracyAmbiguityError", "DressedState",
    "LambShift", "NormalizationError", "ParameterDomainError", "SectorMeasures",
    "SingularityError", "SolverDiagnosticsError", "SystemParams",
    "TruncationHeadroomError", "ValidityReport", "amplitude_closed_form",
    "amplitude_table", "amplitude_via_overlap", "build_basis",
    "compare_with_closed_forms", "concurrence_mixed", "concurrence_pair_general",
    "convergence_study", "diagonalize_total", "dimension", "dressed_state",
    "energy_second_order", "energy_unperturbed", "entanglement_report",
    "guard_detuning", "hamiltonian_h0", "hamiltonian_total", "hamiltonian_v",
    "hamiltonian_v_rwa", "index_of", "lamb_shift", "monogamy_residual",
    "normalized_sectors", "perturbed_state", "residual_tangle_general",
    "sector_measures", "shrink_factors", "state_at", "sudden_overlap",
    "symmetric_class_shift", "symmetric_sector", "symmetrizer", "validate_params",
]
