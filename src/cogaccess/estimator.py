"""Inference of primary-side parameters from overheard ACK/NACK feedback.

A silent secondary can learn everything its access policy needs by
counting: with N listening slots, M feedback messages heard and A of them
ACKs, the ACK rate identifies the primary arrival rate (departure rate
equals arrival rate while the primary queue is stable), and A/M
identifies the primary link's success probability regardless of feedback
decoding errors (both counts are thinned by the same factor).

Two arrival-rate corrections for feedback erasures are provided under the
mode names "paper" and "unbiased": the former scales the heard-ACK rate
down by (1 - P_e), the latter divides it by (1 - P_e).  Dividing is the
consistent correction when A counts *heard* ACKs thinned independently
with probability P_e, so the unbiased mode is the default and is what the
consistency checks and the end-to-end flow use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, InfeasibleError
from .optimizer import FixedSensing, OptimizationRequest, scan
from .phy import LinkSuccess
from .schemes import NO_SENSING, EstimatorMode, SchemeConfig, Variant
from .sim import SimConfig, SimMode, SimResult, run

__all__ = [
    "EstimatorMode",
    "FeedbackLog",
    "EstimationReport",
    "TwoPhaseReport",
    "MARGIN_SE_MULTIPLIER",
    "estimate",
    "learning_then_regular",
    "feedback_log_from_result",
]

# The recommended protection margin is this many binomial standard errors
# of the arrival-rate estimate: the same envelope the consistency checks
# use as "maximum positive estimation error".
MARGIN_SE_MULTIPLIER = 4.0


@dataclass(frozen=True)
class FeedbackLog:
    """Counting summary of a learning phase: A ACKs heard out of M
    feedback messages heard over N slots."""

    N: int
    M: int
    A: int
    p_e_assumed: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.A <= self.M <= self.N):
            raise DomainError(
                f"feedback counts must satisfy 0 <= A <= M <= N, got A={self.A!r} M={self.M!r} N={self.N!r}"
            )
        if not (0.0 <= self.p_e_assumed < 1.0):
            raise DomainError(f"p_e_assumed must be in [0, 1), got {self.p_e_assumed!r}")


@dataclass(frozen=True)
class EstimationReport:
    lambda_p_est: float
    p_bar_p_pd_est: float | None
    mu_p_est: float | None
    p_nonempty_est: float
    lambda_p_se: float
    recommended_mu_pe: float
    estimator_mode: EstimatorMode
    link_estimate_available: bool


def estimate(log: FeedbackLog, mode: EstimatorMode = EstimatorMode.UNBIASED) -> EstimationReport:
    """Point estimates of (lambda_p, p_bar_p_pd, mu_p, Pr{Q_p > 0}).

    M = 0 leaves the link-quality estimate unavailable (flagged None, not
    fabricated); the arrival-rate estimate is still produced.
    """
    if log.N <= 0:
        raise DomainError("estimation needs at least one learning slot")
    mode = EstimatorMode(mode)
    pe = log.p_e_assumed
    ack_rate = log.A / log.N
    if mode is EstimatorMode.UNBIASED:
        lam = ack_rate / (1.0 - pe)
        lam_se = math.sqrt(ack_rate * (1.0 - ack_rate) / log.N) / (1.0 - pe)
    else:
        lam = ack_rate * (1.0 - pe)
        lam_se = math.sqrt(ack_rate * (1.0 - ack_rate) / log.N) * (1.0 - pe)
    lam = min(lam, 1.0)

    if log.M > 0:
        p_bar = log.A / log.M
        mu = p_bar
        available = True
    else:
        p_bar = None
        mu = None
        available = False

    if mu is not None and mu > 0.0:
        p_nonempty = min(lam / mu, 1.0)
    else:
        heard_rate = log.M / log.N
        if mode is EstimatorMode.UNBIASED:
            p_nonempty = min(heard_rate / (1.0 - pe), 1.0)
        else:
            p_nonempty = heard_rate * (1.0 - pe)

    return EstimationReport(
        lambda_p_est=lam,
        p_bar_p_pd_est=p_bar,
        mu_p_est=mu,
        p_nonempty_est=p_nonempty,
        lambda_p_se=lam_se,
        recommended_mu_pe=MARGIN_SE_MULTIPLIER * lam_se,
        estimator_mode=mode,
        link_estimate_available=available,
    )


def feedback_log_from_result(result: SimResult, p_e_assumed: float = 0.0) -> FeedbackLog:
    counts = result.feedback_counts
    return FeedbackLog(N=counts.N, M=counts.M, A=counts.A, p_e_assumed=p_e_assumed)


_SILENT = SchemeConfig(variant=Variant.S0, a_s=0.0, b_s=0.0, sensing=NO_SENSING)


@dataclass(frozen=True)
class TwoPhaseReport:
    estimates: EstimationReport
    margin: float
    policy: SchemeConfig
    fallback_silent: bool
    rp_result: SimResult


def _policy_from_estimates(
    template_scheme: SchemeConfig,
    lam_est: float,
    p_bar_est: float,
    margin: float,
    b_s_grid: tuple[float, ...],
) -> SchemeConfig:
    """Access probabilities the secondary would deploy given its estimates:
    the optimum at the template's sensing point on a primary link of
    success probability p_bar_est (the secondary's own link scales the
    objective, not its argmax)."""
    variant = template_scheme.variant
    lam_est = min(max(lam_est, 0.0), 1.0)
    req = OptimizationRequest(variant, lam_est, FixedSensing(template_scheme.sensing), b_s_grid=b_s_grid, margin=margin)
    cell = scan(variant, (lam_est,), req, LinkSuccess(p_bar_est, 1.0))
    if not cell.feasible[0, 0]:
        raise InfeasibleError("no feasible access policy under the estimated load")
    return replace(template_scheme, a_s=float(cell.a_s[0, 0]), b_s=float(cell.b_s[0, 0]))


def learning_then_regular(
    lp_slots: int,
    rp_slots: int,
    template: SimConfig,
    mode: EstimatorMode = EstimatorMode.UNBIASED,
    margin: float | None = None,
    b_s_grid: tuple[float, ...] = (),
) -> TwoPhaseReport:
    """Listen-only learning phase, then a regular phase run with the
    estimated access policy.

    The learning phase runs the template system with a silent secondary
    for lp_slots; the regular phase (which must be at least 10x longer)
    deploys the policy computed from the estimates, tightened by `margin`
    (defaulting to the estimator's recommended protection).  An infeasible
    estimated problem falls back to the silent policy and is flagged.
    """
    if lp_slots < 1:
        raise DomainError("learning phase needs at least one slot")
    if rp_slots < 10 * lp_slots:
        raise DomainError("regular phase must be at least 10x the learning phase")
    if margin is not None and not (math.isfinite(margin) and margin >= 0.0):
        raise DomainError(f"margin must be >= 0, got {margin!r}")

    lp_result = run(replace(template, slots=lp_slots, scheme=_SILENT, mode=SimMode.ORIGINAL))
    log = feedback_log_from_result(lp_result, p_e_assumed=template.feedback_error)
    report = estimate(log, mode=mode)
    mu_pe = report.recommended_mu_pe if margin is None else float(margin)

    fallback = False
    if report.link_estimate_available and report.p_bar_p_pd_est > 0.0:
        try:
            policy = _policy_from_estimates(
                template.scheme,
                report.lambda_p_est,
                report.p_bar_p_pd_est,
                mu_pe,
                b_s_grid,
            )
        except InfeasibleError:
            policy = _SILENT
            fallback = True
    else:
        policy = _SILENT
        fallback = True

    rp_result = run(replace(template, slots=rp_slots, scheme=policy, seed=template.seed + 1))
    return TwoPhaseReport(estimates=report, margin=mu_pe, policy=policy, fallback_silent=fallback, rp_result=rp_result)
