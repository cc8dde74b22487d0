"""Brute-force oracles for the closed-form results under test.

Everything here evaluates objectives from first principles (plain grid
search over the feasible interval) and never calls the closed-form code
paths it is used to check.
"""

from __future__ import annotations

import csv

import numpy as np


def grid_max_fractional(a, f, c, d, K, w, step=1e-6):
    """Grid-search maximizer of (a*x+f)/(c*x-d) + K*x on [0, min(1,(d-w)/c)].

    The grid contains both interval endpoints exactly, so clipped optima
    are found with zero error.
    """
    cap = min(1.0, (d - w) / c)
    if cap < 0.0:
        raise ValueError("infeasible program handed to the grid oracle")
    xs = np.arange(0.0, cap, step)
    xs = np.append(xs, cap)
    vals = (a * xs + f) / (c * xs - d) + K * xs
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])


def s2_rate_objective(a_s, b_s, lam, p_md, p_fa, p_bar_p_pd):
    """Secondary service rate (up to the p_bar_s_sd scale) of the S2 scheme."""
    a_s = np.asarray(a_s, dtype=float)
    mu_p = p_bar_p_pd * (p_md * (1.0 - a_s) + (1.0 - p_md) * (1.0 - b_s))
    if lam == 0.0:
        factor = np.ones_like(a_s)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = 1.0 - lam / mu_p
        factor = np.where(mu_p > 0.0, factor, -np.inf)
    return (a_s * (1.0 - p_fa) + b_s * p_fa) * factor


def grid_max_access(lam, p_md, p_fa, p_bar_p_pd, b_s, step=1e-6, margin=0.0):
    """Grid-search argmax of the S2 rate objective over feasible a_s.

    b_s = 0 degenerates to the S1 problem.  Returns None when even a_s = 0
    cannot satisfy the (margin-tightened) primary constraint.
    """
    d = p_md + (1.0 - p_md) * (1.0 - b_s)
    w = (lam + margin) / p_bar_p_pd
    if d < w:
        return None
    cap = 1.0 if p_md == 0.0 else min(1.0, (d - w) / p_md)
    xs = np.arange(0.0, cap, step)
    xs = np.append(xs, cap)
    vals = s2_rate_objective(xs, b_s, lam, p_md, p_fa, p_bar_p_pd)
    return float(xs[int(np.argmax(vals))])


def replay_queue(q0, departures, arrivals):
    """Queue recursion Q[t+1] = max(Q[t] - U[t], 0) + A[t] from a trace."""
    out = np.empty(len(departures) + 1, dtype=np.int64)
    out[0] = q0
    q = q0
    for t in range(len(departures)):
        q = max(q - int(departures[t]), 0) + int(arrivals[t])
        out[t + 1] = q
    return out


def write_trace_csv_rowwise(trace, path):
    """Trace CSV written one csv.writerow per slot, the reference the
    chunked writer must match byte for byte."""
    names = {0: "none", 1: "ack", 2: "nack", 3: "ack-missed", 4: "nack-missed"}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "qp", "qs", "events", "feedback"])
        for t in range(len(trace.qp)):
            writer.writerow(
                [t, int(trace.qp[t]), int(trace.qs[t]), int(trace.events[t]),
                 names[int(trace.feedback[t])]]
            )


def random_feasible_program(rng):
    """Six constants in (0.01, 5] with d >= w and c <= d."""
    a, f, c, d, K, w = rng.uniform(0.01, 5.0, size=6)
    if w > d:
        d, w = w, d
    c = min(c, d)
    return a, f, c, d, K, w
