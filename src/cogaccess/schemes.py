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

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, PrimaryUnstableError, real
from .phy import LinkSuccess, SensingPoint

__all__ = [
    "Variant",
    "SimMode",
    "EstimatorMode",
    "NO_SENSING",
    "SchemeConfig",
    "ServiceRates",
    "rates",
    "service_rates",
]


class Variant(str, Enum):
    SC = "Sc"
    S1 = "S1"
    S2 = "S2"
    S0 = "S0"

    @classmethod
    def _missing_(cls, value):  # Variant(name) on an unknown name
        raise DomainError(f"unknown variant {value!r}; expected {'|'.join(cls)}")


# sim's and estimator's modes, here so that a config names them without importing either
class SimMode(str, Enum):
    ORIGINAL = "original"
    DOMINANT = "dominant"


class EstimatorMode(str, Enum):
    PAPER = "paper"
    UNBIASED = "unbiased"


# S0's sensing point, the only one SchemeConfig lets an S0 scheme have: no
# sensing time, and a detector that always declares the channel idle, at
# which S1's events and rates are S0's.
NO_SENSING = SensingPoint(tau=0.0, p_fa=0.0, p_md=1.0)


@dataclass(frozen=True)
class SchemeConfig:
    """A scheme variant together with its access probabilities.

    a_s applies after an idle sensing outcome (or unconditionally for S0);
    b_s applies after a busy outcome and is meaningful for S2 only.  The
    variant may be given by name: it is coerced with Variant(...).
    """

    variant: Variant
    a_s: float
    b_s: float
    sensing: SensingPoint

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        for name in ("a_s", "b_s"):
            object.__setattr__(self, name, real(getattr(self, name), f"SchemeConfig.{name}", 0.0, 1.0))
        if self.variant is Variant.SC and (self.a_s != 1.0 or self.b_s != 0.0):
            raise DomainError("Sc transmits with probability one on idle and never on busy")
        if self.variant is Variant.S1 and self.b_s != 0.0:
            raise DomainError("S1 never transmits on a busy sensing outcome (b_s must be 0)")
        if self.variant is Variant.S0 and self.sensing != NO_SENSING:
            raise DomainError(f"S0 performs no sensing; its SensingPoint must be {NO_SENSING!r}")


class ServiceRates(NamedTuple):
    """Per-slot service rates and the primary queue-empty probability."""

    mu_p: float
    mu_s: float
    p_empty: float


def rates(variant: Variant, a_s, b_s, p_fa, p_md, pp, ps):
    """(mu_p, access_rate) of `variant`, on floats or arrays:

        S2:         mu_p = pp*(p_md*(1 - a_s) + (1 - p_md)*(1 - b_s))
                    access_rate = ps*(a_s*(1 - p_fa) + b_s*p_fa)
        Sc, S1, S0: mu_p = pp*(1 - a_s*p_md)
                    access_rate = a_s*ps*(1 - p_fa)

    with pp/ps the link success probabilities; the secondary is served at
    access_rate times Pr{primary queue empty}.  Sc is S1 at a_s = 1 and S0
    is S1 at NO_SENSING, both exact in floating point; S1 is not S2 at
    b_s = 0, because p_md + (1 - p_md) need not round to 1.  service_rates
    and the optimizer's scan kernel agree bit for bit because both
    evaluate these products here, in this order.
    """
    if variant is Variant.S2:
        return pp * (p_md * (1.0 - a_s) + (1.0 - p_md) * (1.0 - b_s)), ps * (a_s * (1.0 - p_fa) + b_s * p_fa)
    return pp * (1.0 - a_s * p_md), a_s * ps * (1.0 - p_fa)


def service_rates(cfg: SchemeConfig, links: LinkSuccess, lambda_p: float) -> ServiceRates:
    """Average service rates of both queues for a backlogged secondary:
    mu_p and mu_s = access_rate*E from `rates`, with E = 1 - lambda_p/mu_p
    the probability that the primary queue is empty.

    lambda_p > mu_p leaves the secondary with no service at all and raises
    PrimaryUnstableError; exact equality reports mu_s = p_empty = 0 so
    that boundary tracing stays continuous.
    """
    lambda_p = real(lambda_p, "lambda_p", 0.0, 1.0)
    point = cfg.sensing
    mu_p, access_rate = rates(cfg.variant, cfg.a_s, cfg.b_s, point.p_fa, point.p_md, links.p_bar_p_pd, links.p_bar_s_sd)

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
