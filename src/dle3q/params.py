"""Physical parameter set and perturbation-validity diagnostics.

All frequencies are linear frequencies in GHz.  Every quantity the package
reports (amplitudes, probabilities, tangles, concurrences) is a ratio of
frequencies, so the 2*pi factors of angular-frequency conventions cancel
and plain-GHz inputs are the natural unit.

_integer is the one integer rule, for nmax and for the (n, m) labels that
_channel checks: a numpy integer passes as the Python int it holds; a bool,
a float or a string does not.  _positive is the one rule for a frequency or
a coupling, for the four SystemParams fields and dressed_state's omega: an
int or a float, not a bool, finite and > 0, kept as a float.
"""
from __future__ import annotations

import functools
import operator
import sys
from dataclasses import astuple, dataclass

from .errors import ParameterDomainError, SingularityError

#: Keys of the flat JSON parameter document, in SystemParams field order; the
#: CLI's parameter flags are these keys with dashes.
JSON_KEYS = ("omega1_ghz", "omega2_ghz", "e0_ghz", "lambda_ghz", "nmax")

#: Relative guard band around omega = E0 below which closed forms refuse to
#: evaluate (denominators omega - E0 and omega^2 - E0^2).
SINGULARITY_GUARD = 1e-12

#: Largest lambda/(omega +- E0) ratio that validate_params calls perturbative.
#: The paper states no quantitative smallness criterion, so this is a
#: tool-level choice.
PERTURBATIVE_THRESHOLD = 0.5


def _integer(value) -> int | None:
    """value as a Python int, or None if it is not an integer (a bool is not)."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _positive(name: str, value) -> float:
    """value as a float, checked to be a real number (a bool is not), finite and > 0."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterDomainError(f"{name} must be a real number, got {value!r}")
    # compared exactly, so an int past the double range fails here, not in float()
    if not 0.0 < value <= sys.float_info.max:
        raise ParameterDomainError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)  # an int prints as the float it means


def _channel(n: int, m: int) -> tuple[int, int]:
    """(n, m) as Python ints, checked to name a channel: n >= 0 and 0 <= m <= 3."""
    n_int, m_int = _integer(n), _integer(m)
    if n_int is None or m_int is None:
        raise ParameterDomainError(
            f"invalid channel (n={n!r}, m={m!r}): n and m must be integers")
    if n_int < 0 or not 0 <= m_int <= 3:
        raise ParameterDomainError(f"invalid channel (n={n_int}, m={m_int})")
    return n_int, m_int


@dataclass(frozen=True)
class SystemParams:
    """Cavity / qubit frequencies, coupling and photon truncation.

    omega1, omega2 : cavity mode frequency before / after the boundary switch
    e0             : qubit transition frequency
    lambda_        : qubit-photon coupling strength
    nmax           : photon cutoff of the exact-diagonalization oracle, a Python int
    """

    omega1: float
    omega2: float
    e0: float
    lambda_: float
    nmax: int = 20

    def __post_init__(self):
        for name in ("omega1", "omega2", "e0", "lambda_"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        nmax = _integer(self.nmax)
        if nmax is None:
            raise ParameterDomainError(f"nmax must be an integer, got {self.nmax!r}")
        if nmax < 2:
            raise ParameterDomainError(f"nmax must be >= 2, got {nmax}")
        object.__setattr__(self, "nmax", nmax)
        # Exact resonance makes the closed forms singular; near-resonance is
        # allowed (the paper tunes omega2 close to E0 on purpose) and is
        # flagged through ValidityReport instead.
        if self.omega1 == self.e0:
            raise ParameterDomainError("omega1 must differ from e0 (resonant singularity)")
        if self.omega2 == self.e0:
            raise ParameterDomainError("omega2 must differ from e0 (resonant singularity)")

    @classmethod
    def from_flat_dict(cls, d: dict) -> "SystemParams":
        """Build from the flat JSON document {"omega1_ghz": ..., "nmax": ...}.

        Values are passed through unconverted, so a non-integer nmax (20.7,
        "20", true) is rejected by the constructor rather than truncated.
        """
        unknown = set(d) - set(JSON_KEYS)
        if unknown:
            raise ParameterDomainError(f"unknown parameter keys: {sorted(unknown)}")
        missing = [k for k in JSON_KEYS[:4] if k not in d]
        if missing:
            raise ParameterDomainError(f"missing parameter keys: {missing}")
        # positional in field order; an absent nmax keeps its default
        return cls(*(d[k] for k in JSON_KEYS if k in d))

    def to_flat_dict(self) -> dict:
        return dict(zip(JSON_KEYS, astuple(self)))


@dataclass(frozen=True)
class ValidityReport:
    """Dimensionless coupling-over-detuning ratios controlling perturbation theory.

    Fields are floats for a SystemParams.  For array parameters a ratio is
    an array if a parameter it reads is one, and so is the flag if any
    ratio is.
    """

    eta_sum1: float
    eta_sum2: float
    eta_diff1: float
    eta_diff2: float
    perturbative_ok: bool


def validate_params(p: SystemParams) -> ValidityReport:
    """Report lambda/(omega +- E0) ratios; perturbative_ok iff all are below threshold.

    The threshold is PERTURBATIVE_THRESHOLD.  p may also be any object whose
    omega1, omega2, e0 and lambda_ are numpy arrays or floats that broadcast
    together; the ratios and the flag are then elementwise.

    Note the paper's own omega2 choice sits 0.029 GHz from E0 and fails any
    reasonable threshold through eta_diff2; that is deliberate near-resonant
    tuning, reported rather than rejected.
    """
    ratios = (
        p.lambda_ / (p.omega1 + p.e0),
        p.lambda_ / (p.omega2 + p.e0),
        p.lambda_ / abs(p.omega1 - p.e0),
        p.lambda_ / abs(p.omega2 - p.e0),
    )
    ok = functools.reduce(operator.and_, (r < PERTURBATIVE_THRESHOLD for r in ratios))
    return ValidityReport(*ratios, perturbative_ok=ok)


def guard_detuning(omega: float, e0: float) -> None:
    """Raise SingularityError when |omega - E0| is below the machine-scale guard."""
    if abs(omega - e0) < SINGULARITY_GUARD * e0:
        raise SingularityError(
            f"omega = {omega} within {SINGULARITY_GUARD:.0e}*E0 of the qubit "
            f"frequency E0 = {e0}; closed form is singular there"
        )
