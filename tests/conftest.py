import tokenize
from pathlib import Path

import numpy as np
import pytest

import dle3q
from dle3q import SystemParams


def _token_count(path: Path) -> int:
    """Tokens of a module's source, comments and non-logical newlines not counted."""
    with tokenize.open(path) as fh:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL)
                   for t in tokenize.generate_tokens(fh.readline))


def pytest_report_header():
    """The numpy build every run rests on, and the size of each package module.

    The validate golden digits carry the build's round-off.  The token counts
    show the margin under a parser step: with no bytecode cached, compiling a
    module past about 2049 tokens (counted as here) costs about 115 KB more
    peak memory, which the validate benchmark's peak RSS sees for oracle.py.
    They are printed only, so a module may cross the step on purpose.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    tokens = ", ".join(f"{path.stem} {_token_count(path)}"
                       for path in sorted(Path(dle3q.__file__).parent.glob("*.py")))
    return [f"numpy {np.__version__}, BLAS: "
            f"{blas.get('openblas configuration', blas.get('name'))}",
            f"dle3q tokens (compile step near 2049): {tokens}"]


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
