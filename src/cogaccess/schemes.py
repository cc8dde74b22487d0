"""Closed-form service rates of the four access schemes.

Variants:

* Sc -- sense, then transmit with probability one when the channel is
  declared idle (conventional sensing).
* S1 -- sense, then transmit with probability a_s when declared idle.
* S2 -- as S1, plus transmit with probability b_s when declared busy
  (hedges against false alarms).
* S0 -- no sensing at all; transmit with probability a_s every slot.

The primary queue is served when its link is not in outage and the
secondary does not collide with it; the secondary queue is served when
the primary queue is empty, its access coin fires and its own link is not
in outage.  A queue is Loynes-stable when its arrival rate is strictly
below its service rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, PrimaryUnstableError
from .phy import LinkSuccess, SensingPoint

__all__ = [
    "Variant",
    "SimMode",
    "EstimatorMode",
    "NO_SENSING",
    "SchemeConfig",
    "ServiceRates",
    "effective_sensing",
    "service_rates",
]


class Variant(str, Enum):
    SC = "Sc"
    S1 = "S1"
    S2 = "S2"
    S0 = "S0"


# sim's and estimator's modes, here so that a config names them without importing either
class SimMode(str, Enum):
    ORIGINAL = "original"
    DOMINANT = "dominant"


class EstimatorMode(str, Enum):
    PAPER = "paper"
    UNBIASED = "unbiased"


# S0's sensing point: no sensing time, and a detector that always declares
# the channel idle (see effective_sensing).
NO_SENSING = SensingPoint(tau=0.0, p_fa=0.0, p_md=1.0)


def _check_prob(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0):
        raise DomainError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme variant together with its access probabilities.

    a_s applies after an idle sensing outcome (or unconditionally for S0);
    b_s applies after a busy outcome and is meaningful for S2 only.
    """

    variant: Variant
    a_s: float
    b_s: float
    sensing: SensingPoint

    def __post_init__(self) -> None:
        _check_prob("SchemeConfig.a_s", self.a_s)
        _check_prob("SchemeConfig.b_s", self.b_s)
        if self.variant is Variant.SC and (self.a_s != 1.0 or self.b_s != 0.0):
            raise DomainError("Sc transmits with probability one on idle and never on busy")
        if self.variant is Variant.S1 and self.b_s != 0.0:
            raise DomainError("S1 never transmits on a busy sensing outcome (b_s must be 0)")
        if self.variant is Variant.S0 and self.sensing.tau != 0.0:
            raise DomainError("S0 performs no sensing; its SensingPoint must have tau = 0")


class ServiceRates(NamedTuple):
    """Per-slot service rates and the primary queue-empty probability."""

    mu_p: float
    mu_s: float
    p_empty: float


def effective_sensing(cfg: SchemeConfig) -> tuple[float, float]:
    """(p_fa, p_md) as the scheme actually experiences them.

    S0 never senses, which is equivalent to a detector that always
    declares the channel idle: p_fa = 0, p_md = 1.  With those values the
    S2 event algebra collapses to the S0 one, which both the service-rate
    formulas and the simulator rely on.
    """
    if cfg.variant is Variant.S0:
        return NO_SENSING.p_fa, NO_SENSING.p_md
    return cfg.sensing.p_fa, cfg.sensing.p_md


def service_rates(cfg: SchemeConfig, links: LinkSuccess, lambda_p: float) -> ServiceRates:
    """Average service rates of both queues for a backlogged secondary.

        Sc: mu_p = Pp*(1 - p_md)            mu_s = Ps*(1 - p_fa)*E
        S1: mu_p = Pp*(1 - a_s*p_md)        mu_s = a_s*Ps*(1 - p_fa)*E
        S2: mu_p = Pp*(p_md*(1 - a_s)       mu_s = (a_s*(1 - p_fa)
                      + (1 - p_md)*(1 - b_s))         + b_s*p_fa)*Ps*E
        S0: mu_p = Pp*(1 - a_s)             mu_s = a_s*Ps*E

    with Pp/Ps the link success probabilities and E = 1 - lambda_p/mu_p
    the probability that the primary queue is empty.

    lambda_p > mu_p leaves the secondary with no service at all and raises
    PrimaryUnstableError; exact equality reports mu_s = p_empty = 0 so
    that boundary tracing stays continuous.
    """
    _check_prob("lambda_p", lambda_p)
    p_fa, p_md = effective_sensing(cfg)
    pp, ps = links.p_bar_p_pd, links.p_bar_s_sd

    if cfg.variant is Variant.SC:
        mu_p = pp * (1.0 - p_md)
        access_rate = ps * (1.0 - p_fa)
    elif cfg.variant is Variant.S1:
        mu_p = pp * (1.0 - cfg.a_s * p_md)
        access_rate = cfg.a_s * ps * (1.0 - p_fa)
    elif cfg.variant is Variant.S2:
        mu_p = pp * (p_md * (1.0 - cfg.a_s) + (1.0 - p_md) * (1.0 - cfg.b_s))
        access_rate = ps * (cfg.a_s * (1.0 - p_fa) + cfg.b_s * p_fa)
    else:  # S0
        mu_p = pp * (1.0 - cfg.a_s)
        access_rate = cfg.a_s * ps

    if lambda_p == 0.0:
        p_empty = 1.0
    elif lambda_p < mu_p:
        p_empty = 1.0 - lambda_p / mu_p
    elif lambda_p == mu_p:
        p_empty = 0.0
    else:
        raise PrimaryUnstableError(
            f"primary queue unstable: lambda_p={lambda_p!r} exceeds mu_p={mu_p!r}"
        )
    return ServiceRates(mu_p=mu_p, mu_s=access_rate * p_empty, p_empty=p_empty)
