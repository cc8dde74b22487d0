"""Physical-layer closed forms.

Covers the two ingredients the access schemes consume:

* Rayleigh block-fading success probabilities for the primary and
  secondary links (complement of the outage probability), the secondary's
  at the rate left when a slot of length T loses tau seconds to sensing, and
* the energy-detector ROC relating sensing time, false-alarm probability
  and misdetection probability, in threshold form and in both target
  forms (fixed P_FA or fixed P_MD).

A Channel, PhyParams or LinkSuccess, answers `slot` (T, or 1.0), `links(tau)`
(its LinkSuccess with tau spent sensing) and `detector()` (the PhyParams a
ROC reads; a LinkSuccess has none and raises DomainError).

All SNRs are linear here; dB conversion happens at the CLI boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, real
from .mathcore import q_func, q_inv

__all__ = [
    "PhyParams",
    "SensingPoint",
    "LinkSuccess",
    "Channel",
    "secondary_success_prob",
    "primary_success_prob",
    "roc_from_threshold",
    "pfa_for_target_pmd",
    "pmd_for_target_pfa",
]

# tau/T is kept out of [1 - TAU_EDGE, 1]: at tau = T there is no
# transmission time left and every objective is identically zero.
TAU_EDGE = 1e-3


@dataclass(frozen=True)
class PhyParams:
    """Slot, detector and link parameters of the physical layer.

    b: bits per packet
    T: slot duration, seconds
    W: channel bandwidth, Hz
    f_s: detector sampling frequency, Hz
    gamma_sense: received primary SNR at the detector (linear)
    sigma_u2: detector noise variance
    gamma_s_sd: secondary-link SNR at unit channel gain (linear)
    sigma2_s_sd: mean secondary-link channel gain
    gamma_p_pd: primary-link SNR at unit channel gain (linear)
    sigma2_p_pd: mean primary-link channel gain
    """

    b: float
    T: float
    W: float
    f_s: float
    gamma_sense: float
    sigma_u2: float
    gamma_s_sd: float
    sigma2_s_sd: float
    gamma_p_pd: float
    sigma2_p_pd: float

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, real(getattr(self, name), f"PhyParams.{name}", above=0.0))
        if not math.isfinite(self.b / (self.T * self.W)):
            raise DomainError("PhyParams requires finite b/(T*W)")

    @property
    def slot(self) -> float:
        return self.T

    def links(self, tau: float) -> LinkSuccess:
        return LinkSuccess(p_bar_p_pd=primary_success_prob(self), p_bar_s_sd=secondary_success_prob(self, tau))

    def detector(self) -> PhyParams:
        return self


@dataclass(frozen=True)
class SensingPoint:
    """One operating point of the detector: sensing time and its ROC pair.

    tau = 0 is the degenerate no-sensing point used by the S0 scheme; the
    scheme layer, not this module, fixes its probabilities (NO_SENSING).
    """

    tau: float
    p_fa: float
    p_md: float

    def __post_init__(self) -> None:
        for name, hi in (("tau", None), ("p_fa", 1.0), ("p_md", 1.0)):
            object.__setattr__(self, name, real(getattr(self, name), f"SensingPoint.{name}", 0.0, hi))


@dataclass(frozen=True)
class LinkSuccess:
    """Success probabilities of the two links: Pr{no outage} per attempt.

    Doubles as a channel model in its own right: benchmark-style inputs
    give these probabilities directly instead of deriving them from
    PhyParams, in which case the secondary value is independent of tau.
    """

    p_bar_p_pd: float
    p_bar_s_sd: float
    slot = 1.0

    def __post_init__(self) -> None:
        for name in ("p_bar_p_pd", "p_bar_s_sd"):
            object.__setattr__(self, name, real(getattr(self, name), f"LinkSuccess.{name}", 0.0, 1.0))

    def links(self, tau: float) -> LinkSuccess:
        return self

    def detector(self) -> PhyParams:
        raise DomainError("tau-dependent target modes need full PhyParams; "
                          "fixed link probabilities only support FixedSensing")


Channel = PhyParams | LinkSuccess


def secondary_success_prob(params: PhyParams, tau: float) -> float:
    """Pr{secondary packet survives Rayleigh outage} with tau spent sensing.

    exp(-(2^(b/(T*W*(1 - tau/T))) - 1) / (gamma_s_sd * sigma2_s_sd));
    non-increasing in tau.  tau >= T leaves no transmission time and
    returns 0 (degenerate limit rather than an error, for sweep code).
    """
    tau = real(tau, "sensing time", lo=0.0)
    if tau >= params.T:
        return 0.0
    rate_ratio = params.b / (params.T * params.W * (1.0 - tau / params.T))
    if rate_ratio >= 1024.0:  # 2**rate_ratio overflows float64; outage is certain
        return 0.0
    return math.exp(-(2.0**rate_ratio - 1.0) / (params.gamma_s_sd * params.sigma2_s_sd))


def primary_success_prob(params: PhyParams) -> float:
    """Pr{primary packet survives Rayleigh outage}; full-slot transmission."""
    rate_ratio = params.b / (params.T * params.W)
    if rate_ratio >= 1024.0:  # 2**rate_ratio overflows float64; outage is certain
        return 0.0
    return math.exp(-(2.0**rate_ratio - 1.0) / (params.gamma_p_pd * params.sigma2_p_pd))


def roc_from_threshold(params: PhyParams, epsilon: float, tau: float) -> SensingPoint:
    """ROC point of the energy detector at detection threshold epsilon.

    p_fa = Q((eps/sigma_u2 - 1) * sqrt(tau*f_s))
    p_md = 1 - Q((eps/sigma_u2 - gamma - 1) * sqrt(tau*f_s / (2*gamma + 1)))
    """
    tau, epsilon = real(tau, "sensing time", above=0.0), real(epsilon, "detection threshold", above=0.0)
    samples = tau * params.f_s
    gamma = params.gamma_sense
    p_fa = q_func((epsilon / params.sigma_u2 - 1.0) * math.sqrt(samples))
    p_md = 1.0 - q_func((epsilon / params.sigma_u2 - gamma - 1.0) * math.sqrt(samples / (2.0 * gamma + 1.0)))
    return SensingPoint(tau=tau, p_fa=p_fa, p_md=p_md)


@lru_cache(maxsize=64)
def _target_q_inv(p: float) -> float:
    """q_inv of a ROC target, a 20 us bisection, once per target rather than once per tau.

    It is the package's one ROC cache because it pays: without it, perfbench's `run_s` rose 0.0267 -> 0.0293 s
    on `sweep-tau` and 0.0104 -> 0.0118 s on `region-union` (2-CPU Intel Xeon)."""
    return q_inv(p)


def pfa_for_target_pmd(params: PhyParams, p_md_target: float, tau: float) -> SensingPoint:
    """ROC point with the misdetection probability pinned to a target.

    p_fa = Q(sqrt(2*gamma + 1) * Qinv(1 - p_md) + sqrt(tau*f_s) * gamma);
    decreasing in tau, so longer sensing buys a lower false-alarm rate.
    """
    tau, p_md_target = real(tau, "sensing time", above=0.0), real(p_md_target, "target p_md", above=0.0, below=1.0)
    gamma = params.gamma_sense
    arg = math.sqrt(2.0 * gamma + 1.0) * _target_q_inv(1.0 - p_md_target) + math.sqrt(tau * params.f_s) * gamma
    return SensingPoint(tau=tau, p_fa=q_func(arg), p_md=p_md_target)


def pmd_for_target_pfa(params: PhyParams, p_fa_target: float, tau: float) -> SensingPoint:
    """ROC point with the false-alarm probability pinned to a target.

    p_md = 1 - Q((Qinv(p_fa) - sqrt(tau*f_s) * gamma) / sqrt(2*gamma + 1)).
    """
    tau, p_fa_target = real(tau, "sensing time", above=0.0), real(p_fa_target, "target p_fa", above=0.0, below=1.0)
    gamma = params.gamma_sense
    arg = (_target_q_inv(p_fa_target) - math.sqrt(tau * params.f_s) * gamma) / math.sqrt(2.0 * gamma + 1.0)
    return SensingPoint(tau=tau, p_fa=p_fa_target, p_md=1.0 - q_func(arg))
