"""Command-line front end.

Five subcommands over one validated config document (YAML or JSON):

    region    trace stability-region boundary curves to CSV
    optimize  solve one access-probability problem, JSON to stdout
    simulate  Monte Carlo run with empirical-vs-analytic comparison
    estimate  learning-phase -> regular-phase end-to-end run
    sweep     long-format CSV over (tau, sensing target, lambda_p) cells

load_config is the one path from a command line to a RunConfig, and it
builds the library's own types: the sensing section becomes a TargetMode.
The flags --seed, --mode, --margin and --output-dir replace the keys
sim.seed, sim.mode, margin and output_dir before validation, so a flag is
checked exactly as the key it overrides.  A `.json` document is read as
JSON, without NaN or Infinity; any other as YAML 1.1, whose `1e-5` is a
string (write `1.0e-5`).

Only the CLI converts units: SNRs are given in dB here and become linear
inside PhyParams.  Outputs are deterministic functions of the config
(seeds included): no timestamps, fixed row order, shortest-roundtrip
float formatting.  Exit codes: 0 success (an infeasible optimization is
still a success), 1 standard output closed before it was written (say, by
`| head`; output files are complete), 2 config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from .errors import CogAccessError, ConfigError, DomainError, PrimaryUnstableError
from .optimizer import (
    Channel,
    FixedFalseAlarm,
    FixedMisdetection,
    FixedSensing,
    FixedThreshold,
    OptimizationRequest,
    OptimizationResult,
    TargetMode,
    UNION,
    default_b_s_grid,
    default_tau_grid,
    operating_points,
    optimize_with_margin,
    primary_delay,
    scan,
    trace_region,
    union_curve,
)
from .phy import LinkSuccess, PhyParams, SensingPoint, link_success
from .schemes import NO_SENSING, EstimatorMode, SchemeConfig, SimMode, Variant, service_rates

__all__ = ["main", "load_config", "RunConfig"]

REGION_CSV_SCHEMA = "region/1"
SWEEP_CSV_SCHEMA = "sweep/1"
OPTIMIZE_JSON_SCHEMA = "optimize/1"
SIMULATE_JSON_SCHEMA = "simulate/1"
ESTIMATE_JSON_SCHEMA = "estimate/1"
REGION_JSON_SCHEMA = "region-summary/1"

# A sweep evaluates every cell before it writes its CSV, so a bad document
# fails before any row is written.  It holds 34 B per cell (four float64
# result arrays and a feasibility mask per scan) and takes 1.2 us per cell
# with all four schemes, 1.8-2.1 us with S2 alone, most of it CSV formatting
# (2-CPU AMD EPYC, Python 3.11.7, numpy 2.4.6): peak RSS grew 0.6 MiB for
# 10,416 cells in 0.018 s and 34 MiB for 1,041,600 cells in 1.2 s.  At the
# cap a sweep holds about 330 MiB and runs for 12-18 s; its CSV (107 B per
# row, about 1 GiB) is what sets the cap.
MAX_SWEEP_CELLS = 10_000_000

# sim.run holds no per-slot memory but the FIFO delay's arrival bits while an
# overloaded primary's queue grows (at most 1/8 B a slot).  What grows is run
# time, 35-150 ns a slot (2-CPU AMD EPYC, Python 3.11.7, numpy 2.4.6), and the
# trace CSV, 19-25 B a row.  The slot cap bounds a run at about five minutes and
# keeps its queues below 2**31, so the stability sums stay in int64; a traced
# run is capped at about 4 GiB of CSV (25 B a row with 9-digit slot numbers).
MAX_SIM_SLOTS = 2**31 - 1
MAX_TRACED_SLOTS = 4 * 2**30 // 25

_SCHEME_NAMES = [v.value for v in Variant]
_CURVE_NAMES = _SCHEME_NAMES + [UNION]

# sim and estimator are imported when simulate or estimate first runs.  Their
# names are then bound here, as cli.<name>, keeping a name already set (patched).
_LAZY = {"sim": ("SimConfig", "TRACE_CSV_HEADER", "run", "write_trace_rows"),
         "estimator": ("learning_then_regular",)}


def _bind(module: str) -> None:
    source = importlib.import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(source, name))


def __getattr__(name: str) -> Any:
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- config validation helpers -----------------------------------------------

def _as_mapping(obj: Any, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(section: dict, allowed: Sequence[str], name: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}; allowed: {', '.join(sorted(allowed))}")


def _number(section: dict, key: str, name: str, *, lo: float | None = None,
            hi: float | None = None, default: float | None = None, required: bool = False) -> float | None:
    if key not in section:
        if required:
            raise ConfigError(f"{name}.{key} is required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}.{key} must be a number, got {value!r}")
    value = _as_float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name}.{key} must be finite")
    if lo is not None and value < lo:
        raise ConfigError(f"{name}.{key} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{name}.{key} must be <= {hi}, got {value}")
    return value


def _integer(section: dict, key: str, name: str, *, lo: int = 0,
             default: int | None = None, required: bool = False) -> int | None:
    if key not in section:
        if required:
            raise ConfigError(f"{name}.{key} is required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}.{key} must be an integer, got {value!r}")
    if value < lo:
        raise ConfigError(f"{name}.{key} must be >= {lo}, got {value}")
    return value


def _as_float(value: int | float) -> float:
    """float(value), with an integer past the float range as an infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _grid_values(spec: Any, name: str, *, lo: float, hi: float) -> tuple[float, ...]:
    """A grid is either an explicit list or {start, stop, count}."""
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{name} grid must be non-empty")
        values = []
        for v in spec:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{name} grid entries must be numbers")
            values.append(_as_float(v))
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{name} grid entries must be finite")
        if values != sorted(set(values)):
            raise ConfigError(f"{name} grid must be strictly increasing")
        if values[0] < lo or values[-1] > hi:
            raise ConfigError(f"{name} grid entries must lie in [{lo}, {hi}]")
        return tuple(values)
    spec = _as_mapping(spec, name)
    _reject_unknown(spec, ["start", "stop", "count"], name)
    start = _number(spec, "start", name, lo=lo, hi=hi, required=True)
    stop = _number(spec, "stop", name, lo=lo, hi=hi, required=True)
    count = _integer(spec, "count", name, lo=2, required=True)
    if stop <= start:
        raise ConfigError(f"{name}.stop must exceed {name}.start")
    # the points of np.linspace: start + i*step, the last one exactly stop
    step = (stop - start) / (count - 1)
    values = tuple(start + i * step for i in range(count - 1)) + (stop,)
    if values != tuple(sorted(set(values))):  # a step below the spacing of floats repeats values
        raise ConfigError(f"{name} grid must be strictly increasing")
    return values


def _axis(grids: dict, key: str, default: Callable[..., tuple[float, ...]], hi: float) -> tuple[float, ...]:
    """grids[key] as a grid on [0, hi]; absent, the default grid, and {count}
    alone, the default grid with that many points."""
    name = f"grids.{key}"
    if key not in grids:
        return default()
    spec = grids[key]
    if isinstance(spec, dict) and set(spec) == {"count"}:
        return default(_integer(spec, "count", name, lo=2, required=True))
    return _grid_values(spec, name, lo=0.0, hi=hi)


# --- parsed configuration ------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated, unit-converted view of a config document."""

    channel: Channel
    target: TargetMode
    sensing_tau: float | None  # pins a tau-dependent target to one point (simulate/estimate)
    scheme: Variant | None
    schemes: tuple[str, ...]
    access: dict | None
    lambda_p: float
    lambda_s: float
    margin: float
    lambda_p_grid: tuple[float, ...] | None
    tau_grid: tuple[float, ...]
    b_s_grid: tuple[float, ...]
    p_fa_values: tuple[float, ...]
    p_md_values: tuple[float, ...]
    sim: dict
    estimate: dict
    output_dir: Path

    def request(self, variant: Variant, target: TargetMode | None = None) -> OptimizationRequest:
        """The config's problem for `variant`, at `target` in place of the config's own."""
        target = self.target if target is None else target
        tau_grid = () if isinstance(target, FixedSensing) else self.tau_grid
        return OptimizationRequest(variant, self.lambda_p, target, tau_grid, self.b_s_grid, self.margin)

    def sensing_point(self) -> SensingPoint:
        """Resolve the config to one detector operating point (simulate/estimate)."""
        if isinstance(self.target, FixedSensing):
            return self.target.point
        if not isinstance(self.channel, PhyParams):
            raise ConfigError("tau-dependent sensing modes need the `phy` section, not `channel`")
        if self.sensing_tau is None:
            mode = _TARGET_MODES[type(self.target)][0]
            raise ConfigError(f"sensing.tau is required to pin a single operating point in mode {mode}")
        (pt,) = operating_points(self.target, (self.sensing_tau,), self.channel)
        return SensingPoint(tau=pt.tau, p_fa=pt.p_fa, p_md=pt.p_md)


_TOP_KEYS = [
    "phy", "channel", "sensing", "scheme", "schemes", "access",
    "lambda_p", "lambda_s", "margin", "grids", "sim", "estimate", "output_dir",
]
_PHY_KEYS = [
    "bits_per_packet", "slot_seconds", "bandwidth_hz", "sampling_hz",
    "sense_snr_db", "noise_variance", "secondary_snr_db", "secondary_mean_gain",
    "primary_snr_db", "primary_mean_gain",
]


def _parse_channel(doc: dict) -> Channel:
    if ("phy" in doc) == ("channel" in doc):
        raise ConfigError("exactly one of `phy` (detector + link physics) or `channel` (direct probabilities) is required")
    if "channel" in doc:
        section = _as_mapping(doc["channel"], "channel")
        _reject_unknown(section, ["p_bar_p_pd", "p_bar_s_sd"], "channel")
        return LinkSuccess(
            p_bar_p_pd=_number(section, "p_bar_p_pd", "channel", lo=0.0, hi=1.0, required=True),
            p_bar_s_sd=_number(section, "p_bar_s_sd", "channel", lo=0.0, hi=1.0, required=True),
        )
    section = _as_mapping(doc["phy"], "phy")
    _reject_unknown(section, _PHY_KEYS, "phy")
    return PhyParams(
        b=_number(section, "bits_per_packet", "phy", lo=1e-12, required=True),
        T=_number(section, "slot_seconds", "phy", lo=1e-12, required=True),
        W=_number(section, "bandwidth_hz", "phy", lo=1e-12, required=True),
        f_s=_number(section, "sampling_hz", "phy", lo=1e-12, required=True),
        gamma_sense=_db_to_linear(_number(section, "sense_snr_db", "phy", required=True)),
        sigma_u2=_number(section, "noise_variance", "phy", lo=1e-12, default=1.0),
        gamma_s_sd=_db_to_linear(_number(section, "secondary_snr_db", "phy", required=True)),
        sigma2_s_sd=_number(section, "secondary_mean_gain", "phy", lo=1e-12, default=1.0),
        gamma_p_pd=_db_to_linear(_number(section, "primary_snr_db", "phy", required=True)),
        sigma2_p_pd=_number(section, "primary_mean_gain", "phy", lo=1e-12, default=1.0),
    )


# the tau-dependent target modes: sensing.mode, its parameter's key and the parameter's upper bound
_TARGET_MODES = {
    FixedFalseAlarm: ("target_pfa", "value", 1.0 - 1e-12),
    FixedMisdetection: ("target_pmd", "value", 1.0 - 1e-12),
    FixedThreshold: ("threshold", "epsilon", None),
}


def _parse_sensing(doc: dict, slot: float) -> tuple[TargetMode, float | None]:
    """The target mode and the tau that pins it, if any; tau lies in [0, slot], as on grids.tau."""
    section = _as_mapping(doc.get("sensing", {"mode": "fixed_point", **vars(NO_SENSING)}), "sensing")
    mode = section.get("mode")
    if mode == "fixed_point":
        _reject_unknown(section, ["mode", "tau", "p_fa", "p_md"], "sensing")
        return FixedSensing(SensingPoint(
            tau=_number(section, "tau", "sensing", lo=0.0, hi=slot, required=True),
            p_fa=_number(section, "p_fa", "sensing", lo=0.0, hi=1.0, required=True),
            p_md=_number(section, "p_md", "sensing", lo=0.0, hi=1.0, required=True),
        )), None
    for target, (name, key, hi) in _TARGET_MODES.items():
        if mode == name:
            _reject_unknown(section, ["mode", key, "tau"], "sensing")
            value = _number(section, key, "sensing", lo=1e-12, hi=hi, required=True)
            return target(value), _number(section, "tau", "sensing", lo=1e-12, hi=slot)
    raise ConfigError(f"sensing.mode must be one of fixed_point|target_pfa|target_pmd|threshold, got {mode!r}")


def parse_config(doc: dict) -> RunConfig:
    doc = _as_mapping(doc, "config")
    _reject_unknown(doc, _TOP_KEYS, "config")
    channel = _parse_channel(doc)
    slot = channel.T if isinstance(channel, PhyParams) else 1.0
    target, sensing_tau = _parse_sensing(doc, slot)

    scheme = None
    if "scheme" in doc:
        if doc["scheme"] not in _SCHEME_NAMES:
            raise ConfigError(f"scheme must be one of {_SCHEME_NAMES}, got {doc['scheme']!r}")
        scheme = Variant(doc["scheme"])

    schemes = doc.get("schemes", _CURVE_NAMES)
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("schemes must be a non-empty list")
    for name in schemes:
        if name not in _CURVE_NAMES:
            raise ConfigError(f"schemes entries must be in {_CURVE_NAMES}, got {name!r}")

    access = None
    if "access" in doc:
        section = _as_mapping(doc["access"], "access")
        _reject_unknown(section, ["a_s", "b_s", "optimal"], "access")
        optimal = section.get("optimal", False)
        if not isinstance(optimal, bool):
            raise ConfigError("access.optimal must be a boolean")
        if optimal:
            access = {"optimal": True}
        else:
            access = {
                "optimal": False,
                "a_s": _number(section, "a_s", "access", lo=0.0, hi=1.0, required=True),
                "b_s": _number(section, "b_s", "access", lo=0.0, hi=1.0, default=0.0),
            }

    grids = _as_mapping(doc.get("grids", {}), "grids")
    _reject_unknown(grids, ["lambda_p", "tau", "b_s", "p_fa", "p_md"], "grids")

    lambda_p_grid = None
    if "lambda_p" in grids:
        lambda_p_grid = _grid_values(grids["lambda_p"], "grids.lambda_p", lo=0.0, hi=1.0)
    tau_grid = _axis(grids, "tau", partial(default_tau_grid, slot), slot)
    b_s_grid = _axis(grids, "b_s", default_b_s_grid, 1.0)
    p_fa_values = _grid_values(grids["p_fa"], "grids.p_fa", lo=0.0, hi=1.0) if "p_fa" in grids else ()
    p_md_values = _grid_values(grids["p_md"], "grids.p_md", lo=0.0, hi=1.0) if "p_md" in grids else ()

    sim_section = _as_mapping(doc.get("sim", {}), "sim")
    _reject_unknown(sim_section, ["slots", "seed", "mode", "feedback_error", "record_traces"], "sim")
    sim_mode = sim_section.get("mode", "original")
    if sim_mode not in ("original", "dominant"):
        raise ConfigError(f"sim.mode must be original|dominant, got {sim_mode!r}")
    record = sim_section.get("record_traces", False)
    if not isinstance(record, bool):
        raise ConfigError("sim.record_traces must be a boolean")
    sim = {
        "slots": _integer(sim_section, "slots", "sim", lo=1, default=100_000),
        "seed": _integer(sim_section, "seed", "sim", lo=0, default=0),
        "mode": SimMode(sim_mode),
        "feedback_error": _number(sim_section, "feedback_error", "sim", lo=0.0, hi=0.999999, default=0.0),
        "record_traces": record,
    }

    est_section = _as_mapping(doc.get("estimate", {}), "estimate")
    _reject_unknown(est_section, ["lp_slots", "rp_slots", "estimator_mode", "margin"], "estimate")
    est_mode = est_section.get("estimator_mode", "unbiased")
    if est_mode not in ("paper", "unbiased"):
        raise ConfigError(f"estimate.estimator_mode must be paper|unbiased, got {est_mode!r}")
    est_margin = None
    if est_section.get("margin") is not None:
        est_margin = _number(est_section, "margin", "estimate", lo=0.0)
    estimate_cfg = {
        "lp_slots": _integer(est_section, "lp_slots", "estimate", lo=1, default=10_000),
        "rp_slots": _integer(est_section, "rp_slots", "estimate", lo=10, default=100_000),
        "estimator_mode": EstimatorMode(est_mode),
        "margin": est_margin,
    }

    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")

    return RunConfig(
        channel=channel,
        target=target,
        sensing_tau=sensing_tau,
        scheme=scheme,
        schemes=tuple(schemes),
        access=access,
        lambda_p=_number(doc, "lambda_p", "config", lo=0.0, hi=1.0, default=0.0),
        lambda_s=_number(doc, "lambda_s", "config", lo=0.0, hi=1.0, default=0.0),
        margin=_number(doc, "margin", "config", lo=0.0, default=0.0),
        lambda_p_grid=lambda_p_grid,
        tau_grid=tau_grid,
        b_s_grid=b_s_grid,
        p_fa_values=p_fa_values,
        p_md_values=p_md_values,
        sim=sim,
        estimate=estimate_cfg,
        output_dir=Path(output_dir),
    )


def _not_a_number(constant: str) -> float:
    raise ValueError(f"{constant} is not a JSON number")


def _read_document(path: Path) -> Any:
    """A `.json` file as JSON, any other as YAML; either in UTF-8."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            return json.loads(text.removeprefix("\ufeff"), parse_constant=_not_a_number)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    import yaml

    try:
        return yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # ValueError: an int past the digit limit
        raise ConfigError(f"cannot parse {path}: {exc}") from exc


def load_config(path: str | Path, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Parse the document at `path`, with each dotted key of `overrides`
    (such as "sim.seed") set to its value before validation."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    doc = _read_document(path)
    doc = doc if doc is not None else {}
    for key, value in (overrides or {}).items():
        *sections, leaf = key.split(".")
        section = _as_mapping(doc, "config")
        for name in sections:  # a copy: a YAML alias may share the section with another key
            section[name] = dict(_as_mapping(section.get(name, {}), name))
            section = section[name]
        section[leaf] = value
    return parse_config(doc)


# --- output helpers ------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _jsonable(obj: Any) -> Any:
    """JSON-safe copy: nan becomes null and infinities strings; str-enums
    serialise as their value, tuples (NamedTuples too) as lists."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _make_output_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, say
        raise ConfigError(f"cannot create output_dir {str(path)!r}: {exc.strerror}") from exc


def _emit_json(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))


def _scheme_payload(scheme: SchemeConfig) -> dict:
    return {"variant": scheme.variant, "a_s": scheme.a_s, "b_s": scheme.b_s, **vars(scheme.sensing)}


def _result_payload(result: OptimizationResult) -> dict:
    return {
        "feasible": result.feasible,
        "lambda_s_max": result.lambda_s_max,
        "best": None if result.best is None else _scheme_payload(result.best),
        "designed_delay_bound": result.designed_delay_bound,
        "per_tau": [
            {"tau": r.tau, "a_s": r.a_s, "b_s": r.b_s, "lambda_s": r.lambda_s, "feasible": r.feasible}
            for r in result.per_tau
        ],
    }


# --- subcommands -----------------------------------------------------------------

def cmd_region(cfg: RunConfig) -> int:
    if cfg.lambda_p_grid is None:
        raise ConfigError("region needs grids.lambda_p")
    summary: dict[str, Any] = {"schema": REGION_JSON_SCHEMA, "files": {}, "max_boundary": {}}
    base = cfg.request(Variant.S2)
    union = UNION in cfg.schemes  # UNION reuses the S0 and S2 curves
    curves = {name: trace_region(Variant(name), cfg.lambda_p_grid, base, cfg.channel)
              for name in _SCHEME_NAMES if name in cfg.schemes or (union and name in ("S0", "S2"))}
    if union:
        curves[UNION] = union_curve(curves["S0"], curves["S2"])
    _make_output_dir(cfg.output_dir)
    for name in cfg.schemes:
        curve = curves[name]
        path = cfg.output_dir / f"region_{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("lambda_p,lambda_s,scheme,tau,a_s,b_s\r\n")
            fh.writelines(f"{_fmt(p.lambda_p)},{_fmt(p.lambda_s)},{p.scheme},{_fmt(p.tau)},"
                          f"{_fmt(p.a_s)},{_fmt(p.b_s)}\r\n" for p in curve.points)
        summary["files"][name] = str(path)
        summary["max_boundary"][name] = max(p.lambda_s for p in curve.points)
    summary["csv_schema"] = REGION_CSV_SCHEMA
    summary["points_per_curve"] = len(cfg.lambda_p_grid)
    _emit_json(summary)
    return 0


def _check_load(lambda_p: float, margin: float) -> None:
    if lambda_p + margin > 1.0:
        raise ConfigError(f"lambda_p + margin = {lambda_p + margin!r} exceeds one packet per slot")


def cmd_optimize(cfg: RunConfig) -> int:
    if cfg.scheme is None:
        raise ConfigError("optimize needs a `scheme`")
    _check_load(cfg.lambda_p, cfg.margin)
    req = cfg.request(cfg.scheme)
    result = optimize_with_margin(req, cfg.channel)
    payload = _result_payload(result)
    payload["schema"] = OPTIMIZE_JSON_SCHEMA
    payload["lambda_p"] = cfg.lambda_p
    payload["margin"] = cfg.margin
    _emit_json(payload)
    return 0


def _resolve_scheme_config(cfg: RunConfig) -> tuple[SchemeConfig, dict]:
    """Scheme + access probabilities for a single simulation run."""
    if cfg.scheme is None:
        raise ConfigError("simulate/estimate need a `scheme`")
    if cfg.scheme is Variant.S0:
        point = NO_SENSING
    else:
        point = cfg.sensing_point()
        if point.tau == 0.0:
            raise ConfigError("sensing.tau must be > 0 for sensing schemes (use scheme S0 for no sensing)")
    note: dict[str, Any] = {}
    if cfg.scheme is Variant.SC:
        return SchemeConfig(variant=cfg.scheme, a_s=1.0, b_s=0.0, sensing=point), note
    if cfg.access is None:
        raise ConfigError("simulate needs an `access` section (fixed a_s/b_s or optimal: true)")
    if cfg.access["optimal"]:
        _check_load(cfg.lambda_p, cfg.margin)
        result = optimize_with_margin(cfg.request(cfg.scheme, FixedSensing(point)), cfg.channel)
        if not result.feasible:
            raise ConfigError("optimal access requested but the problem is infeasible at this lambda_p")
        note["optimized"] = _result_payload(result)
        best = result.best
        return SchemeConfig(variant=cfg.scheme, a_s=best.a_s, b_s=best.b_s, sensing=point), note
    b_s = cfg.access["b_s"] if cfg.scheme is Variant.S2 else 0.0
    return SchemeConfig(variant=cfg.scheme, a_s=cfg.access["a_s"], b_s=b_s, sensing=point), note


def _sim_config(cfg: RunConfig, scheme: SchemeConfig, slots: int) -> SimConfig:
    return SimConfig(slots=slots, seed=cfg.sim["seed"], lambda_p=cfg.lambda_p, lambda_s=cfg.lambda_s, scheme=scheme,
                     phy=cfg.channel, mode=cfg.sim["mode"], feedback_error=cfg.sim["feedback_error"])


def _check_sim_slots(slots: int, limit: int, keys: str) -> None:
    """Reject a run of more than `limit` slots, with a sizing hint."""
    if slots > limit:
        raise ConfigError(f"{slots} slots exceed the cap of {limit}; shrink {keys} to at most {limit} slots")


def cmd_simulate(cfg: RunConfig) -> int:
    _bind("sim")
    traced = cfg.sim["record_traces"]
    _check_sim_slots(cfg.sim["slots"], MAX_TRACED_SLOTS if traced else MAX_SIM_SLOTS, "sim.slots")
    scheme, note = _resolve_scheme_config(cfg)
    sim_cfg = _sim_config(cfg, scheme, cfg.sim["slots"])
    if traced:
        _make_output_dir(cfg.output_dir)
        trace_path = cfg.output_dir / "trace.csv"
        try:
            with open(trace_path, "wb") as fh:
                fh.write(TRACE_CSV_HEADER)
                result = run(sim_cfg, sink=lambda lo, chunk: write_trace_rows(fh, lo, chunk))
        except BaseException:
            trace_path.unlink(missing_ok=True)  # leave no partial trace
            raise
    else:
        result = run(sim_cfg)

    links = link_success(cfg.channel, scheme.sensing.tau)
    analytic: dict[str, Any] = {}
    try:
        rates = service_rates(scheme, links, cfg.lambda_p)
        analytic = {
            "mu_p": rates.mu_p,
            "mu_s": rates.mu_s,
            "p_empty": rates.p_empty,
            "primary_delay": primary_delay(cfg.lambda_p, rates.mu_p),
            "abs_diff_mu_p": abs(result.empirical_mu_p - rates.mu_p),
            "abs_diff_mu_s": (
                abs(result.empirical_mu_s - rates.mu_s)
                if cfg.sim["mode"] is SimMode.DOMINANT else None
            ),
            "abs_diff_p_empty": abs(result.empirical_p_empty - rates.p_empty),
        }
    except PrimaryUnstableError:
        analytic = {"note": "primary unstable at this lambda_p: closed-form rates undefined"}

    payload: dict[str, Any] = {
        "schema": SIMULATE_JSON_SCHEMA,
        "mode": sim_cfg.mode,
        "slots": sim_cfg.slots,
        "seed": sim_cfg.seed,
        "scheme": _scheme_payload(scheme),
        "empirical": {
            "mu_p": result.empirical_mu_p,
            "mu_p_se": result.empirical_mu_p_se,
            "mu_s": result.empirical_mu_s,
            "mu_s_se": result.empirical_mu_s_se,
            "p_empty": result.empirical_p_empty,
            "mean_primary_delay": result.mean_primary_delay,
            "secondary_throughput": result.secondary_departures / result.slots,
        },
        "analytic": analytic,
        "feedback_counts": result.feedback_counts,
    }
    payload.update(note)

    if sim_cfg.slots >= 10_000:
        probe = result.stability
        payload["stability"] = {"stable": probe.stable, "drift": probe.drift, "terminal_queue": probe.terminal_queue}
    else:
        payload["stability"] = {"note": "slots < 1e4: stability window too short"}

    if traced:
        payload["trace_file"] = str(trace_path)
    _emit_json(payload)
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    _bind("sim")
    _bind("estimator")
    _check_sim_slots(cfg.estimate["lp_slots"] + cfg.estimate["rp_slots"], MAX_SIM_SLOTS,
                     "estimate.lp_slots + estimate.rp_slots")
    scheme, _ = _resolve_scheme_config(cfg)
    template = _sim_config(cfg, scheme, cfg.estimate["rp_slots"])
    report = learning_then_regular(
        cfg.estimate["lp_slots"],
        cfg.estimate["rp_slots"],
        template,
        mode=cfg.estimate["estimator_mode"],
        margin=cfg.estimate["margin"],
        b_s_grid=cfg.b_s_grid,
    )
    rp = report.rp_result
    payload = {
        "schema": ESTIMATE_JSON_SCHEMA,
        "estimates": asdict(report.estimates),
        "margin": report.margin,
        "policy": {
            "variant": report.policy.variant,
            "a_s": report.policy.a_s,
            "b_s": report.policy.b_s,
            "tau": report.policy.sensing.tau,
        },
        "fallback_silent": report.fallback_silent,
        "regular_phase": {
            "slots": rp.slots,
            "primary_stable": rp.stability.stable,
            "primary_drift": rp.stability.drift,
            "secondary_throughput": rp.secondary_departures / rp.slots,
            "empirical_mu_p": rp.empirical_mu_p,
        },
    }
    _emit_json(payload)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.lambda_p_grid is None:
        raise ConfigError("sweep needs grids.lambda_p")

    target = cfg.target
    if isinstance(target, FixedFalseAlarm):
        targets = [("p_fa", v, FixedFalseAlarm(v)) for v in (cfg.p_fa_values or (target.p_fa,))]
    elif isinstance(target, FixedMisdetection):
        targets = [("p_md", v, FixedMisdetection(v)) for v in (cfg.p_md_values or (target.p_md,))]
    elif isinstance(target, FixedThreshold):
        targets = [("epsilon", target.epsilon, target)]
    else:
        targets = [("fixed", 0.0, target)]

    sweep_schemes = [s for s in cfg.schemes if s != UNION] or ["S2", "S0"]
    sensing_schemes = [s for s in sweep_schemes if s != "S0"]
    n_tau = 1 if isinstance(target, FixedSensing) else len(cfg.tau_grid)
    cells = len(sensing_schemes) * len(targets) * n_tau * len(cfg.lambda_p_grid)
    if "S0" in sweep_schemes:
        cells += len(cfg.lambda_p_grid)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(
            f"sweep would evaluate {cells} cells (> {MAX_SWEEP_CELLS}); "
            "shrink grids.lambda_p, grids.tau, or the target value lists"
        )
    _check_load(max(cfg.lambda_p_grid), cfg.margin)

    blocks = []  # (scheme, target kind, target value, per-(lambda_p, tau) scan), in row order
    for scheme_name in sensing_schemes:
        for kind, value, mode in targets:
            variant = Variant(scheme_name)
            blocks.append((scheme_name, kind, value,
                           scan(variant, cfg.lambda_p_grid, cfg.request(variant, mode), cfg.channel)))
    if "S0" in sweep_schemes:
        blocks.append(("S0", "none", 0.0, scan(Variant.S0, cfg.lambda_p_grid, cfg.request(Variant.S0), cfg.channel)))

    _make_output_dir(cfg.output_dir)
    path = cfg.output_dir / "sweep.csv"
    lams = [_fmt(lam) for lam in cfg.lambda_p_grid]
    # the rows csv.writer would write (no field needs quoting), formatted a column at a time
    with open(path, "w", newline="") as fh:
        fh.write("scheme,target_kind,target_value,tau,p_fa,p_md,lambda_p,lambda_s,a_s,b_s,feasible\r\n")
        for scheme_name, kind, value, grid in blocks:
            for j, pt in enumerate(grid.points):
                head = f"{scheme_name},{kind},{_fmt(value)},{_fmt(pt.tau)},"
                shown = f"{head}{_fmt(pt.p_fa)},{_fmt(pt.p_md)},"
                hidden = shown if kind == "none" else f"{head},,"  # S0 rows always name (0, 1)
                fh.writelines(
                    f"{shown if ok else hidden}{lam},{lam_s!r},{a_s!r},{b_s!r},{ok:d}\r\n"
                    for lam, a_s, b_s, lam_s, ok in zip(lams, *(x[:, j].tolist() for x in grid[1:]))
                )
    rows = sum(grid.lambda_s.size for *_, grid in blocks)
    _emit_json({"schema": SWEEP_CSV_SCHEMA, "file": str(path), "rows": rows, "cells": cells})
    return 0


# --- entry point -----------------------------------------------------------------

_COMMANDS = {
    "region": cmd_region,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogaccess",
        description="Spectrum-access policies, stability regions and Monte Carlo validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("-c", "--config", required=True, help="JSON (.json) or YAML config document")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        p.add_argument("--output-dir", default=None, help="override output_dir")
        p.add_argument("--mode", choices=["original", "dominant"], default=None, help="override sim.mode")
        p.add_argument("--margin", type=float, default=None, help="override the protection margin")
    return parser


# each flag and the document key it overrides
_FLAG_KEYS = {"seed": "sim.seed", "mode": "sim.mode", "margin": "margin", "output_dir": "output_dir"}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, flag) for flag, key in _FLAG_KEYS.items() if getattr(args, flag) is not None}
    try:
        code = _COMMANDS[args.command](load_config(args.config, overrides))
        sys.stdout.flush()  # a closed stdout shows here rather than at exit
        return code
    except BrokenPipeError:  # end quietly, with stdout on devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CogAccessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
