"""Inference of primary-side parameters from overheard ACK/NACK feedback.

A silent secondary can learn everything its access policy needs by
counting the simulator's FeedbackCounts: with N listening slots, M
feedback messages heard and A of them ACKs, the ACK rate identifies the
primary arrival rate (departure rate equals arrival rate while the
primary queue is stable), and A/M identifies the primary link's success
probability regardless of feedback decoding errors (both counts are
thinned by the same factor).

The arrival rate is corrected for a feedback erasure probability P_e in
one of two modes: "paper" multiplies the heard-ACK rate by (1 - P_e),
"unbiased" divides it by (1 - P_e).  Dividing is the consistent
correction when A counts *heard* ACKs thinned independently with
probability P_e, so the unbiased mode is the default and is what the
consistency checks and the end-to-end flow use.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace

from .errors import DomainError, InfeasibleError, integer, real
from .optimizer import FixedSensing, OptimizationRequest, scan
from .phy import LinkSuccess
from .schemes import NO_SENSING, EstimatorMode, SchemeConfig, Variant
from .sim import FeedbackCounts, SimConfig, SimMode, SimResult, run

__all__ = [
    "EstimatorMode",
    "EstimationReport",
    "TwoPhaseReport",
    "MARGIN_SE_MULTIPLIER",
    "estimate",
    "learning_then_regular",
]

# The recommended protection margin is this many binomial standard errors
# of the arrival-rate estimate: the same envelope the consistency checks
# use as "maximum positive estimation error".
MARGIN_SE_MULTIPLIER = 4.0


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


def estimate(
    counts: FeedbackCounts, p_e: float = 0.0, mode: EstimatorMode = EstimatorMode.UNBIASED
) -> EstimationReport:
    """Point estimates of (lambda_p, p_bar_p_pd, mu_p, Pr{Q_p > 0}) from a
    learning phase's counts, heard through feedback erased with probability p_e.

    M = 0 leaves the link-quality estimate unavailable (flagged None, not
    fabricated); the arrival-rate estimate is still produced.
    """
    A, M, N = (integer(count, f"feedback count {name}", lo=0) for count, name in zip(counts, "AMN"))
    if not A <= M <= N:
        raise DomainError(f"feedback counts must satisfy 0 <= A <= M <= N, got A={A!r} M={M!r} N={N!r}")
    p_e = real(p_e, "p_e", 0.0, below=1.0)
    if N == 0:
        raise DomainError("estimation needs at least one learning slot")
    mode = EstimatorMode(mode)

    def corrected(rate: float) -> float:
        """A heard rate corrected for erasures: divided by 1 - p_e (unbiased) or multiplied by it (paper)."""
        return rate / (1.0 - p_e) if mode is EstimatorMode.UNBIASED else rate * (1.0 - p_e)

    ack_rate = A / N
    lam = min(corrected(ack_rate), 1.0)
    lam_se = corrected(math.sqrt(ack_rate * (1.0 - ack_rate) / N))
    p_bar = A / M if M > 0 else None
    return EstimationReport(
        lambda_p_est=lam,
        p_bar_p_pd_est=p_bar,
        mu_p_est=p_bar,
        p_nonempty_est=min(lam / p_bar if p_bar else corrected(M / N), 1.0),
        lambda_p_se=lam_se,
        recommended_mu_pe=MARGIN_SE_MULTIPLIER * lam_se,
        estimator_mode=mode,
        link_estimate_available=p_bar is not None,
    )


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
    req = OptimizationRequest(template_scheme.variant, FixedSensing(template_scheme.sensing), (), b_s_grid, margin)
    cell = scan(req, (lam_est,), LinkSuccess(p_bar_est, 1.0))
    if not cell.feasible[0, 0]:
        raise InfeasibleError("no feasible access policy under the estimated load")
    return replace(template_scheme, a_s=float(cell.a_s[0, 0]), b_s=float(cell.b_s[0, 0]))


def learning_then_regular(
    lp_slots: int,
    template: SimConfig,
    mode: EstimatorMode = EstimatorMode.UNBIASED,
    margin: float | None = None,
    b_s_grid: tuple[float, ...] = (),
) -> TwoPhaseReport:
    """Listen-only learning phase, then the template's run with the
    estimated access policy.

    The learning phase runs the template system with a silent secondary
    for lp_slots; the regular phase, the template's own run (at least 10x
    longer), deploys the policy computed at the template scheme's variant
    and sensing point from the estimates, tightened by `margin` (defaulting
    to the estimator's recommended protection).  An estimated problem
    without a link estimate or without a feasible policy falls back to the
    silent policy and is flagged.
    """
    lp_slots = integer(lp_slots, "lp_slots", lo=1)
    if template.slots < 10 * lp_slots:
        raise DomainError("regular phase must be at least 10x the learning phase")
    margin = None if margin is None else real(margin, "margin", lo=0.0)

    lp_result = run(replace(template, slots=lp_slots, scheme=_SILENT, mode=SimMode.ORIGINAL))
    report = estimate(lp_result.feedback_counts, template.feedback_error, mode)
    mu_pe = report.recommended_mu_pe if margin is None else margin
    policy = _SILENT
    if report.p_bar_p_pd_est:  # a link estimate, and a primary link that ever succeeds
        with suppress(InfeasibleError):
            policy = _policy_from_estimates(template.scheme, report.lambda_p_est, report.p_bar_p_pd_est, mu_pe,
                                            b_s_grid)
    rp_result = run(replace(template, scheme=policy, seed=template.seed + 1))
    return TwoPhaseReport(report, mu_pe, policy, fallback_silent=policy is _SILENT, rp_result=rp_result)
