"""cogaccess: stable-throughput optimization and Monte Carlo validation of
sensing-based random spectrum access for a primary/secondary user pair.

`import cogaccess` loads no submodule: each one, and each exception class
of `errors`, is imported on first access (PEP 562), so a command pays only
for the modules it uses.  The command-line front end, `cogaccess.cli`, is
not among them, so that `python -m cogaccess.cli` runs it as a fresh
module."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("estimator", "mathcore", "optimizer", "phy", "schemes", "sim")
_ERRORS = ("CogAccessError", "ConfigError", "DomainError", "InfeasibleError", "PrimaryUnstableError")

__all__ = [*_SUBMODULES, *_ERRORS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ERRORS:
        return getattr(importlib.import_module(".errors", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
