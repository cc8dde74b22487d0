"""cogaccess: stable-throughput optimization and Monte Carlo validation of
sensing-based random spectrum access for a primary/secondary user pair.

The command-line front end, `cogaccess.cli`, is imported on its own, so
that `python -m cogaccess.cli` runs it as a fresh module."""

from . import estimator, mathcore, optimizer, phy, schemes, sim
from .errors import (
    CogAccessError,
    ConfigError,
    DomainError,
    InfeasibleError,
    PrimaryUnstableError,
)

__version__ = "0.1.0"

__all__ = [
    "estimator",
    "mathcore",
    "optimizer",
    "phy",
    "schemes",
    "sim",
    "CogAccessError",
    "ConfigError",
    "DomainError",
    "InfeasibleError",
    "PrimaryUnstableError",
    "__version__",
]
