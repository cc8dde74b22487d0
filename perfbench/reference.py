"""Independent reference formulas for checking cogaccess outputs.

Everything here is written from the paper's closed forms and imports
nothing from cogaccess, so a check that compares the program with these
functions compares two implementations, not one with itself.

Conventions: Pp and Ps are the primary and secondary link success
probabilities, E = 1 - lambda_p/mu_p is the probability that the primary
queue is empty, and S0 senses nothing, which is the S2 algebra with
p_fa = 0 and p_md = 1.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_STD_NORMAL = NormalDist()


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def q_func(z: float) -> float:
    """Gaussian tail Pr{N(0,1) > z}."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def q_inv(p: float) -> float:
    """Inverse Gaussian tail, from the stdlib normal quantile."""
    return -_STD_NORMAL.inv_cdf(p)


# --- Rayleigh link success ----------------------------------------------------

def secondary_success(phy: dict, tau: float) -> float:
    """Pr{no outage} on the secondary link when tau of the slot is spent sensing."""
    T = phy["slot_seconds"]
    ratio = phy["bits_per_packet"] / (T * phy["bandwidth_hz"] * (1.0 - tau / T))
    snr = db_to_linear(phy["secondary_snr_db"]) * phy.get("secondary_mean_gain", 1.0)
    return math.exp(-(2.0**ratio - 1.0) / snr)


def primary_success(phy: dict) -> float:
    """Pr{no outage} on the primary link, which transmits for the whole slot."""
    ratio = phy["bits_per_packet"] / (phy["slot_seconds"] * phy["bandwidth_hz"])
    snr = db_to_linear(phy["primary_snr_db"]) * phy.get("primary_mean_gain", 1.0)
    return math.exp(-(2.0**ratio - 1.0) / snr)


# --- energy-detector ROC ------------------------------------------------------

def pmd_for_target_pfa(phy: dict, p_fa: float, tau: float) -> float:
    """p_md = 1 - Q((Qinv(p_fa) - sqrt(tau*f_s)*gamma) / sqrt(2*gamma + 1))."""
    gamma = db_to_linear(phy["sense_snr_db"])
    arg = (q_inv(p_fa) - math.sqrt(tau * phy["sampling_hz"]) * gamma) / math.sqrt(2.0 * gamma + 1.0)
    return 1.0 - q_func(arg)


# --- service rates and boundaries ---------------------------------------------

def service_rates(scheme: str, a_s: float, b_s: float, p_fa: float, p_md: float,
                  pp: float, ps: float, lambda_p: float) -> tuple[float, float, float]:
    """(mu_p, mu_s, p_empty) of a scheme for a backlogged secondary.

    Sc: mu_p = Pp(1 - p_md),              mu_s = Ps(1 - p_fa) E
    S1: mu_p = Pp(1 - a p_md),            mu_s = a Ps(1 - p_fa) E
    S2: mu_p = Pp(p_md(1 - a) + (1 - p_md)(1 - b)),  mu_s = (a(1 - p_fa) + b p_fa) Ps E
    S0: mu_p = Pp(1 - a),                 mu_s = a Ps E
    p_empty is 0 when lambda_p >= mu_p (no service is left for the secondary).
    """
    if scheme == "Sc":
        mu_p, access = pp * (1.0 - p_md), ps * (1.0 - p_fa)
    elif scheme == "S1":
        mu_p, access = pp * (1.0 - a_s * p_md), a_s * ps * (1.0 - p_fa)
    elif scheme == "S2":
        mu_p = pp * (p_md * (1.0 - a_s) + (1.0 - p_md) * (1.0 - b_s))
        access = ps * (a_s * (1.0 - p_fa) + b_s * p_fa)
    elif scheme == "S0":
        mu_p, access = pp * (1.0 - a_s), a_s * ps
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if lambda_p == 0.0:
        p_empty = 1.0
    elif lambda_p < mu_p:
        p_empty = 1.0 - lambda_p / mu_p
    else:
        p_empty = 0.0
    return mu_p, access * p_empty, p_empty


def s0_boundary(lambda_p: float, pp: float, ps: float) -> float:
    """Ps (1 - sqrt(lambda_p/Pp))^2: the S0 boundary, already maximised over a_s."""
    if pp == 0.0 or lambda_p > pp:
        return 0.0
    return ps * (1.0 - math.sqrt(lambda_p / pp)) ** 2


def s1_access(lambda_p: float, p_md: float, pp: float, margin: float = 0.0) -> float:
    """Closed-form S1 a_s: (1 - sqrt(lambda_p/Pp))/p_md, clipped to [0, 1] and to
    the margin-tightened primary cap (1 - (lambda_p + margin)/Pp)/p_md."""
    if p_md == 0.0:
        return 1.0
    cap = (1.0 - (lambda_p + margin) / pp) / p_md
    root = (1.0 - math.sqrt(lambda_p / pp)) / p_md
    return min(max(root, 0.0), min(1.0, cap))


def best_on_grid(scheme: str, a_grid: np.ndarray, b_grid: np.ndarray, p_fa: float, p_md: float,
                 pp: float, ps: float, lambda_p: float) -> float:
    """Largest mu_s over the (a_s, b_s) grid points that keep mu_p >= lambda_p (0 if none)."""
    if scheme == "S0":
        p_fa, p_md = 0.0, 1.0
    a = a_grid[:, None]
    b = b_grid[None, :]
    mu_p = pp * (p_md * (1.0 - a) + (1.0 - p_md) * (1.0 - b))
    access = ps * (a * (1.0 - p_fa) + b * p_fa)
    if lambda_p == 0.0:
        empty = np.ones_like(mu_p)
    else:
        empty = np.where(mu_p > lambda_p, 1.0 - lambda_p / np.where(mu_p > 0.0, mu_p, 1.0), 0.0)
    value = np.where(mu_p >= lambda_p, access * empty, -np.inf)
    best = float(value.max())
    return max(best, 0.0)


# --- queues and batch means ---------------------------------------------------

def replay_queue(q: np.ndarray, departures: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
    """Q[t+1] = max(Q[t] - D[t], 0) + A[t], one step from every recorded row."""
    return np.maximum(q - departures, 0) + arrivals


def batch_ratio_se(num: np.ndarray, den: np.ndarray, batches: int = 50) -> float:
    """Standard error of sum(num)/sum(den) from the ratios of contiguous batches."""
    edges = np.linspace(0, len(num), batches + 1).astype(np.int64)
    ratios = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        d = float(den[lo:hi].sum())
        if d > 0.0:
            ratios.append(float(num[lo:hi].sum()) / d)
    if len(ratios) < 2:
        return math.nan
    return float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))
