"""The four benchmark workloads: config documents made from a seed, the
work each operation asks for, and the checks of each operation's outputs.

A seed moves parameter values (link qualities, loads, sensing point,
SNRs, grid ranges) inside ranges where every scheme is feasible over most
of the grid, and never moves sizes (slots, grid lengths), so the work per
operation is the same for every seed.  Checks compare the program's
outputs with reference.py or with properties the method must have; none
compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

SIM_SLOTS = 1_000_000
LP_SLOTS = 100_000
RP_SLOTS = 2_000_000
REGION_TAUS = 32
REGION_LAMBDAS = 64
SWEEP_TAUS = 24
SWEEP_LAMBDAS = 48
B_S_COUNT = 33
SE_LIMIT = 4.0   # checks on Monte Carlo estimates allow this many standard errors
TOL = 1e-12      # rounding allowance on orderings of closed-form values
RATE_TOL = 1e-9  # reproduction of a reported rate under the reference formulas
BRUTE_STEP = 1e-3
BRUTE_SAMPLES = 48

# trace CSV event bits (schema trace/1)
EV_ARRIVAL_P, EV_ARRIVAL_S, EV_PRIMARY_TX = 1, 2, 4
EV_PRIMARY_SUCCESS, EV_SECONDARY_SUCCESS = 32, 64
FEEDBACK_CODES = [(b"nack-missed", b"4"), (b"ack-missed", b"3"), (b"nack", b"2"), (b"ack", b"1"), (b"none", b"0")]


@dataclass
class Op:
    """One cogaccess CLI call: subcommand, config document, requested work."""

    label: str
    command: str
    doc: dict
    work: int
    files: list = field(default_factory=list)  # output files to digest, relative to the output dir
    known_fault: tuple = ()  # prefixes of the only check messages a known program fault gives this operation


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _channel(rng: random.Random) -> dict:
    return {"p_bar_p_pd": round(rng.uniform(0.85, 0.95), 4), "p_bar_s_sd": round(rng.uniform(0.75, 0.85), 4)}


def _fixed_sensing(rng: random.Random) -> dict:
    return {
        "mode": "fixed_point",
        "tau": round(rng.uniform(0.03, 0.08), 4),
        "p_fa": round(rng.uniform(0.15, 0.25), 4),
        "p_md": round(rng.uniform(0.25, 0.35), 4),
    }


def _phy(rng: random.Random) -> dict:
    return {
        "bits_per_packet": 10000.0,
        "slot_seconds": 1.0,
        "bandwidth_hz": 10000.0,
        "sampling_hz": 10000.0,
        "sense_snr_db": round(rng.uniform(-14.0, -12.0), 4),
        "noise_variance": 1.0,
        "secondary_snr_db": round(rng.uniform(12.0, 14.0), 4),
        "secondary_mean_gain": 1.0,
        "primary_snr_db": round(rng.uniform(3.5, 4.5), 4),
        "primary_mean_gain": 1.0,
    }


def _tau_list(rng: random.Random, count: int) -> list:
    lo, hi = rng.uniform(1e-3, 2e-3), rng.uniform(0.6, 0.9)
    return [float(t) for t in np.geomspace(lo, hi, count)]


# --- output readers --------------------------------------------------------------

def read_trace(path: Path) -> tuple[str, np.ndarray]:
    """Header and an (N, 5) int array of the trace CSV, feedback names as codes 0-4."""
    data = path.read_bytes()
    header, _, body = data.partition(b"\r\n")
    for name, code in FEEDBACK_CODES:
        body = body.replace(name, code)
    values = np.fromstring(body.replace(b"\r\n", b","), dtype=np.int64, sep=",")
    return header.decode(), values.reshape(-1, 5)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- simulate-dominant -----------------------------------------------------------

def simulate_ops(seed: int) -> list[Op]:
    rng = _rng("simulate-dominant", seed)
    doc = {
        "channel": _channel(rng),
        "sensing": _fixed_sensing(rng),
        "scheme": "S2",
        "lambda_p": round(rng.uniform(0.25, 0.35), 4),
        "lambda_s": round(rng.uniform(0.05, 0.1), 4),
        "access": {"optimal": True},
        "sim": {
            "slots": SIM_SLOTS,
            "seed": rng.randrange(2**31),
            "mode": "dominant",
            "feedback_error": round(rng.uniform(0.0, 0.1), 4),
            "record_traces": True,
        },
    }
    return [Op("simulate", "simulate", doc, SIM_SLOTS, ["trace.csv"])]


def check_simulate(op: Op, out_dir: Path, stdout: str) -> list[str]:
    doc, res = op.doc, json.loads(stdout)
    fails = []
    header, tr = read_trace(out_dir / "trace.csv")
    n = doc["sim"]["slots"]
    if header != "slot,qp,qs,events,feedback" or tr.shape[0] != n:
        return [f"trace CSV has header {header!r} and {tr.shape[0]} rows, expected {n}"]
    slot, qp, qs, ev, fb = tr.T
    if not np.array_equal(slot, np.arange(n)):
        fails.append("trace slot column is not 0..N-1")
    bit = lambda mask: ((ev & mask) != 0).astype(np.int64)  # noqa: E731
    ptx, psucc, ssucc = bit(EV_PRIMARY_TX), bit(EV_PRIMARY_SUCCESS), bit(EV_SECONDARY_SUCCESS)
    if qp[0] != 0 or qs[0] != 0:
        fails.append("queues do not start empty")
    if not np.array_equal(ptx, (qp > 0).astype(np.int64)):
        fails.append("primary transmits exactly when its queue is non-empty: violated")
    for name, q, dep, arr in (("qp", qp, psucc, bit(EV_ARRIVAL_P)), ("qs", qs, ssucc, bit(EV_ARRIVAL_S))):
        bad = np.flatnonzero(ref.replay_queue(q[:-1], dep[:-1], arr[:-1]) != q[1:])
        if bad.size:
            fails.append(f"{name} row {int(bad[0])} does not replay through Q[t+1] = max(Q[t] - D[t], 0) + A[t]")

    acks, nacks = int(np.sum(fb == 1)), int(np.sum(fb == 2))
    counts = res["feedback_counts"]
    if [acks, acks + nacks, n] != list(counts):
        fails.append(f"CSV feedback (A, M, N) = {(acks, acks + nacks, n)} but JSON says {counts}")
    if not (0 <= counts[0] <= counts[1] <= counts[2]):
        fails.append(f"feedback counts violate A <= M <= N: {counts}")

    sch, ch = res["scheme"], doc["channel"]
    mu_p, mu_s, p_empty = ref.service_rates(
        "S2", sch["a_s"], sch["b_s"], sch["p_fa"], sch["p_md"], ch["p_bar_p_pd"], ch["p_bar_s_sd"], doc["lambda_p"]
    )
    ones = np.ones(n, dtype=np.int64)
    empirical = {
        "mu_p": (psucc.sum() / ptx.sum(), ref.batch_ratio_se(psucc, ptx), mu_p),
        "mu_s": (ssucc.mean(), ref.batch_ratio_se(ssucc, ones), mu_s),
        "p_empty": (1.0 - ptx.mean(), ref.batch_ratio_se(1 - ptx, ones), p_empty),
    }
    for name, (value, se, closed) in empirical.items():
        if not abs(value - closed) <= SE_LIMIT * se:
            fails.append(f"empirical {name} {value:.6f} is {abs(value - closed) / se:.1f} SEs from closed form {closed:.6f}")
        if abs(value - res["empirical"][name]) > TOL:
            fails.append(f"JSON empirical {name} {res['empirical'][name]} differs from the trace's {value}")
    return fails


# --- estimate-two-phase ----------------------------------------------------------

def estimate_ops(seed: int) -> list[Op]:
    rng = _rng("estimate-two-phase", seed)
    channel, sensing = _channel(rng), _fixed_sensing(rng)
    lambda_p = round(rng.uniform(0.25, 0.35), 4)
    pp, ps = channel["p_bar_p_pd"], channel["p_bar_s_sd"]
    a_s = ref.s1_access(lambda_p, sensing["p_md"], pp)
    _, mu_s, _ = ref.service_rates("S1", a_s, 0.0, sensing["p_fa"], sensing["p_md"], pp, ps, lambda_p)
    doc = {
        "channel": channel,
        "sensing": sensing,
        "scheme": "S1",
        "lambda_p": lambda_p,
        # well inside the dominant system's secondary rate, so the secondary is stable too
        "lambda_s": round(rng.uniform(0.3, 0.5) * mu_s, 4),
        "access": {"a_s": 1.0},
        "sim": {"seed": rng.randrange(2**31), "mode": "original", "feedback_error": round(rng.uniform(0.05, 0.15), 4)},
        "estimate": {"lp_slots": LP_SLOTS, "rp_slots": RP_SLOTS, "estimator_mode": "unbiased", "margin": None},
    }
    return [Op("estimate", "estimate", doc, LP_SLOTS + RP_SLOTS)]


def check_estimate(op: Op, out_dir: Path, stdout: str) -> list[str]:
    doc, res = op.doc, json.loads(stdout)
    est, pol, rp = res["estimates"], res["policy"], res["regular_phase"]
    pp, pe, n = doc["channel"]["p_bar_p_pd"], doc["sim"]["feedback_error"], doc["estimate"]["lp_slots"]
    if res["fallback_silent"]:
        return ["estimated problem fell back to the silent policy"]
    fails = []
    lam_hat, se = est["lambda_p_est"], est["lambda_p_se"]
    if not abs(lam_hat - doc["lambda_p"]) <= SE_LIMIT * se:
        fails.append(f"lambda_p estimate {lam_hat} is more than {SE_LIMIT} SEs ({se}) from {doc['lambda_p']}")
    # recover the heard counts: A = lambda_hat (1 - P_e) N and M = A / p_hat
    p_hat = est["p_bar_p_pd_est"]
    heard = round(lam_hat * (1.0 - pe) * n) / p_hat
    p_se = math.sqrt(pp * (1.0 - pp) / heard)
    if not abs(p_hat - pp) <= SE_LIMIT * p_se:
        fails.append(f"link estimate {p_hat} is more than {SE_LIMIT} binomial SEs ({p_se:.2e}) from {pp}")
    a_ref = ref.s1_access(lam_hat, doc["sensing"]["p_md"], p_hat, res["margin"])
    if abs(pol["a_s"] - a_ref) > TOL or pol["b_s"] != 0.0 or pol["variant"] != "S1":
        fails.append(f"deployed policy {pol} is not the S1 closed form a_s = {a_ref}")
    if not rp["primary_stable"]:
        fails.append("regular phase reports the primary unstable")
    if rp["slots"] != doc["estimate"]["rp_slots"]:
        fails.append(f"regular phase ran {rp['slots']} slots")
    lam_s, m = doc["lambda_s"], doc["estimate"]["rp_slots"]
    s_se = math.sqrt(lam_s * (1.0 - lam_s) / m)
    if not abs(rp["secondary_throughput"] - lam_s) <= SE_LIMIT * s_se:
        fails.append(f"secondary throughput {rp['secondary_throughput']} is more than {SE_LIMIT} SEs from {lam_s}")
    return fails


# --- region-union ----------------------------------------------------------------

REGION_SCHEMES = ["Sc", "S1", "S2", "S0", "UNION"]

# The shipped region_fixed_roc document with a b_s grid that omits 0.  UNION
# takes the maximum of S0 and S2 only, and S2 scans only this grid, so UNION
# and S2 fall below S1: the operation fails its UNION >= S1 check until the
# program puts b_s = 0 into the S2 scan.  It does not depend on the seed.
UNION_FAULT_DOC = {
    "channel": {"p_bar_p_pd": 0.9, "p_bar_s_sd": 0.8},
    "sensing": {"mode": "fixed_point", "tau": 0.05, "p_fa": 0.2, "p_md": 0.3},
    "schemes": REGION_SCHEMES,
    "grids": {"lambda_p": {"start": 0.0, "stop": 0.63, "count": 64}, "b_s": [0.5, 1.0]},
}


def region_cells(doc: dict) -> int:
    """(curve, sensing target, tau, lambda_p) points: S0 has one tau, UNION scans S0 and S2."""
    n_tau = 1 if doc["sensing"]["mode"] == "fixed_point" else len(doc["grids"]["tau"])
    n_lam = doc["grids"]["lambda_p"]["count"]
    per_curve = {"Sc": n_tau, "S1": n_tau, "S2": n_tau, "S0": 1, "UNION": n_tau + 1}
    return sum(per_curve[s] for s in doc["schemes"]) * n_lam


def region_ops(seed: int) -> list[Op]:
    rng = _rng("region-union", seed)
    doc = {
        "phy": _phy(rng),
        "sensing": {"mode": "target_pfa", "value": round(rng.uniform(0.1, 0.3), 4)},
        "schemes": REGION_SCHEMES,
        "grids": {
            "lambda_p": {"start": 0.0, "stop": round(rng.uniform(0.55, 0.65), 4), "count": REGION_LAMBDAS},
            "tau": _tau_list(rng, REGION_TAUS),
            "b_s": {"count": B_S_COUNT},
        },
    }
    files = [f"region_{s}.csv" for s in REGION_SCHEMES]
    return [
        Op("region", "region", doc, region_cells(doc), files),
        Op("region-b_s-without-0", "region", UNION_FAULT_DOC, region_cells(UNION_FAULT_DOC), files,
           known_fault=("UNION < S1 ", "UNION < Sc ", "S2 < S1 ")),
    ]


def _links(doc: dict, tau: float) -> tuple[float, float]:
    if "channel" in doc:
        return doc["channel"]["p_bar_p_pd"], doc["channel"]["p_bar_s_sd"]
    return ref.primary_success(doc["phy"]), ref.secondary_success(doc["phy"], tau)


def _sensing_at(doc: dict, scheme: str, tau: float, target: float | None = None) -> tuple[float, float]:
    """Reference (p_fa, p_md) a scheme experiences at tau."""
    if scheme == "S0":
        return 0.0, 1.0
    sensing = doc["sensing"]
    if sensing["mode"] == "fixed_point":
        return sensing["p_fa"], sensing["p_md"]
    p_fa = sensing["value"] if target is None else target
    return p_fa, ref.pmd_for_target_pfa(doc["phy"], p_fa, tau)


def _check_rate_row(doc, scheme, tau, a_s, b_s, lam, lam_s, where, target=None) -> list[str]:
    p_fa, p_md = _sensing_at(doc, scheme, tau, target)
    pp, ps = _links(doc, tau)
    mu_p, mu_s, _ = ref.service_rates(scheme, a_s, b_s, p_fa, p_md, pp, ps, lam)
    fails = []
    if abs(mu_s - lam_s) > RATE_TOL:
        fails.append(f"{where}: reported lambda_s {lam_s} but the reference rate is {mu_s}")
    if mu_p < lam - TOL:
        fails.append(f"{where}: mu_p {mu_p} < lambda_p {lam}")
    return fails


def check_region(op: Op, out_dir: Path, stdout: str) -> list[str]:
    doc, res = op.doc, json.loads(stdout)
    fails = []
    curves = {s: _read_csv(out_dir / f"region_{s}.csv") for s in doc["schemes"]}
    lams = [float(r["lambda_p"]) for r in curves["UNION"]]
    n_lam = doc["grids"]["lambda_p"]["count"]
    if any(len(rows) != n_lam for rows in curves.values()) or res["points_per_curve"] != n_lam:
        return [f"curves do not all have {n_lam} points"]
    value = {s: [float(r["lambda_s"]) for r in rows] for s, rows in curves.items()}
    pp0, ps0 = _links(doc, 0.0)
    for i, lam in enumerate(lams):
        if abs(value["S0"][i] - ref.s0_boundary(lam, pp0, ps0)) > TOL:
            fails.append(f"S0 at lambda_p={lam}: {value['S0'][i]} is not the S0 boundary {ref.s0_boundary(lam, pp0, ps0)}")
    orders = [("UNION", s) for s in ("Sc", "S1", "S2", "S0")] + [("S2", "S1"), ("S1", "Sc")]
    for hi, lo in orders:
        bad = [lam for i, lam in enumerate(lams) if value[hi][i] < value[lo][i] - TOL]
        if bad:
            fails.append(f"{hi} < {lo} at {len(bad)} of {n_lam} lambda_p (first {bad[0]})")
    for s, vals in value.items():
        rises = [lams[i + 1] for i in range(n_lam - 1) if vals[i + 1] > vals[i] + TOL]
        if rises:
            fails.append(f"{s} curve increases in lambda_p at {len(rises)} points (first {rises[0]})")
        if abs(res["max_boundary"][s] - max(vals)) > 0.0:
            fails.append(f"summary max_boundary[{s}] is not the curve maximum")
    for s, rows in curves.items():
        for r in rows:
            tau, a_s, b_s, lam_s = (float(r[k]) for k in ("tau", "a_s", "b_s", "lambda_s"))
            if tau == 0.0 and a_s == 0.0 and b_s == 0.0 and lam_s == 0.0:
                continue  # infeasible point: zero boundary with a silent policy
            fails += _check_rate_row(doc, r["scheme"], tau, a_s, b_s, float(r["lambda_p"]), lam_s,
                                     f"{s} row lambda_p={r['lambda_p']}")
    return fails


# --- sweep-tau -------------------------------------------------------------------

SWEEP_SCHEMES = ["S2", "S1", "Sc", "S0"]


def sweep_cells(doc: dict) -> int:
    sensing = [s for s in doc["schemes"] if s != "S0"]
    n = len(sensing) * len(doc["grids"]["p_fa"]) * len(doc["grids"]["tau"]) * doc["grids"]["lambda_p"]["count"]
    return n + (doc["grids"]["lambda_p"]["count"] if "S0" in doc["schemes"] else 0)


def sweep_ops(seed: int) -> list[Op]:
    rng = _rng("sweep-tau", seed)
    targets = [round(rng.uniform(lo, lo + 0.05), 4) for lo in (0.05, 0.15, 0.3)]
    doc = {
        "phy": _phy(rng),
        "sensing": {"mode": "target_pfa", "value": targets[0]},
        "schemes": SWEEP_SCHEMES,
        "grids": {
            "lambda_p": {"start": 0.0, "stop": round(rng.uniform(0.55, 0.65), 4), "count": SWEEP_LAMBDAS},
            "tau": _tau_list(rng, SWEEP_TAUS),
            "b_s": {"count": B_S_COUNT},
            "p_fa": targets,
        },
    }
    return [Op("sweep", "sweep", doc, sweep_cells(doc), ["sweep.csv"])]


def check_sweep(op: Op, out_dir: Path, stdout: str) -> list[str]:
    doc, res = op.doc, json.loads(stdout)
    rows = _read_csv(out_dir / "sweep.csv")
    cells = sweep_cells(doc)
    if res["rows"] != cells or res["cells"] != cells or len(rows) != cells:
        return [f"sweep wrote {len(rows)} rows (JSON rows {res['rows']}, cells {res['cells']}), expected {cells}"]
    fails = []
    b_grid = np.linspace(0.0, 1.0, doc["grids"]["b_s"]["count"])
    a_grid = np.linspace(0.0, 1.0, round(1.0 / BRUTE_STEP) + 1)
    step = max(1, len(rows) // BRUTE_SAMPLES)
    for i, r in enumerate(rows):
        scheme, tau, lam = r["scheme"], float(r["tau"]), float(r["lambda_p"])
        target = float(r["target_value"]) if r["target_kind"] == "p_fa" else None
        where = f"row {i + 2} ({scheme}, p_fa={r['target_value']}, tau={r['tau']}, lambda_p={r['lambda_p']})"
        p_fa, p_md = _sensing_at(doc, scheme, tau, target)
        if r["feasible"] == "1":
            if abs(float(r["p_md"]) - p_md) > RATE_TOL or float(r["p_fa"]) != p_fa:
                fails.append(f"{where}: (p_fa, p_md) = ({r['p_fa']}, {r['p_md']}), reference ({p_fa}, {p_md})")
            fails += _check_rate_row(doc, scheme, tau, float(r["a_s"]), float(r["b_s"]), lam,
                                     float(r["lambda_s"]), where, target)
        if i % step == 0:
            pp, ps = _links(doc, tau)
            grid_b = b_grid if scheme == "S2" else np.zeros(1)
            grid_a = np.ones(1) if scheme == "Sc" else a_grid
            best = ref.best_on_grid(scheme, grid_a, grid_b, p_fa, p_md, pp, ps, lam)
            if best > float(r["lambda_s"]) + BRUTE_STEP:
                fails.append(f"{where}: a brute-force grid point reaches {best}, above the reported {r['lambda_s']}")
    return fails


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], list]               # seed -> the operations of one round
    check: Callable[[Op, Path, str], list]   # (operation, output dir, stdout) -> failure messages
    unit: str                                # what one unit of Op.work is
    simulates: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-dominant", simulate_ops, check_simulate, "slots", True),
        Workload("estimate-two-phase", estimate_ops, check_estimate, "slots", True),
        Workload("region-union", region_ops, check_region, "cells", False),
        Workload("sweep-tau", sweep_ops, check_sweep, "cells", False),
    )
}
