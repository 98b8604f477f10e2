import numpy as np
import pytest

from dle3q import SystemParams


def pytest_report_header():
    """The numpy build every run rests on: the validate golden digits carry its round-off."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return [f"numpy {np.__version__}, BLAS: "
            f"{blas.get('openblas configuration', blas.get('name'))}"]


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header, so a quiet run records the build at its end
    if config.get_verbosity() < 0:
        for line in pytest_report_header():
            terminalreporter.write_line(line)

# Parameter set used for every published number: omega1 = 5, omega2 = 3.75,
# E0 = 3.721, lambda = 0.2, all linear-frequency GHz.
PAPER = dict(omega1=5.0, omega2=3.75, e0=3.721, lambda_=0.2)


@pytest.fixture
def paper_params() -> SystemParams:
    return SystemParams(**PAPER)


@pytest.fixture
def weak_params() -> SystemParams:
    """Well-separated, weakly coupled point where the oracle is sharpest."""
    return SystemParams(omega1=5.0, omega2=4.5, e0=3.721, lambda_=0.005)
