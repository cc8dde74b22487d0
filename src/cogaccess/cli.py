"""Command-line front end.

Five commands over one validated config document (YAML or JSON):

    region    trace stability-region boundary curves to CSV
    optimize  solve one access-probability problem, JSON to stdout
    simulate  Monte Carlo run with empirical-vs-analytic comparison
    estimate  learning-phase -> regular-phase end-to-end run
    sweep     long-format CSV over (tau, sensing target, lambda_p) cells

load_config is the one path from a command line to a RunConfig.  The schema
is one table per section of the document, giving each key its kind, bounds
and default (a key without a default is required); one walker checks each
section against its table, so every key present is checked.  The result holds
the library's own types: sensing becomes a TargetMode, and sim, estimate and
access become records whose fields are their tables' keys.  The flags --seed,
--mode, --margin and --output-dir replace the keys sim.seed, sim.mode, margin
and output_dir before validation, so a flag is checked exactly as the key it
overrides.  A `.json` document is read as JSON, without NaN or Infinity; any
other as YAML 1.1, whose `1e-5` is a string (write `1.0e-5`).

Only the CLI converts units: SNRs are given in dB here and become linear
inside PhyParams.  Outputs are deterministic functions of the config
(seeds included): no timestamps, fixed row order, shortest-roundtrip
float formatting.  Exit codes: 0 success (an infeasible optimization is
still a success), 1 standard output closed before it was written (say, by
`| head`; output files are complete), 2 config error (an output file that
cannot be created or written included), 3 internal error.  Output files
appear whole or not at all.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import pickle
import sys
import threading
from collections import namedtuple
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain, cycle, repeat, starmap
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

from .errors import CogAccessError, ConfigError, DomainError, PrimaryUnstableError, increasing, integer, real
from .optimizer import (
    FixedFalseAlarm,
    FixedMisdetection,
    FixedSensing,
    FixedThreshold,
    GridScan,
    OptimizationRequest,
    OptimizationResult,
    TargetMode,
    UNION,
    b_s_scan_grid,
    default_b_s_grid,
    default_tau_grid,
    optimize,
    primary_delay,
    scan,
    trace_region,
    union_curve,
)
from .phy import Channel, LinkSuccess, PhyParams, SensingPoint
from .schemes import NO_SENSING, EstimatorMode, SchemeConfig, SimMode, Variant, service_rates

__all__ = ["main", "load_config", "RunConfig", "AccessSection", "SimSection", "EstimateSection"]

REGION_CSV_SCHEMA = "region/1"
SWEEP_CSV_SCHEMA = "sweep/1"
OPTIMIZE_JSON_SCHEMA = "optimize/1"
SIMULATE_JSON_SCHEMA = "simulate/1"
ESTIMATE_JSON_SCHEMA = "estimate/1"
REGION_JSON_SCHEMA = "region-summary/1"

# A sweep scans and writes a slab of cells at a time, so its memory does not grow with its cells.  What
# grows is its CSV, about 107 B a row, and its run time, about 2 us a cell (README): at the cap, a CSV of
# about 1 GiB and about 20 s.  A grid's count and a region curve's (lambda_p, tau) cells have the same cap.
MAX_SWEEP_CELLS = 10_000_000
# region holds its curves whole, about 0.29 KiB a lambda_p point for all five (README): its lambda_p grid is
# capped lower, at about 0.3 GiB held, since a fixed point's curves have one tau and so one cell a point.
MAX_REGION_POINTS = 1_000_000
# An S2 scan holds about 90 B a b_s point in each (lambda_p, tau) cell of a kernel pass, and a pass holds at
# least one cell: grids.b_s is capped at about 5.6 MiB a cell.
MAX_B_S_POINTS = 65_536

# sim.run holds no per-slot memory but the FIFO delay's arrival bits while an
# overloaded primary's queue grows (at most 1/8 B a slot).  What grows is run
# time, 35-150 ns a slot (2-CPU AMD EPYC, Python 3.11.7, numpy 2.4.6), and the
# trace CSV, 19-25 B a row.  The slot cap bounds a run at about five minutes and
# keeps its queues below 2**31, so the stability sums stay in int64; a traced
# run is capped at about 4 GiB of CSV (25 B a row with 9-digit slot numbers).
MAX_SIM_SLOTS = 2**31 - 1
MAX_TRACED_SLOTS = 4 * 2**30 // 25

_SCHEME_NAMES = tuple(v.value for v in Variant)
_CURVE_NAMES = (*_SCHEME_NAMES, UNION)


# --- config schema: kinds -----------------------------------------------------
# A kind parses the value of one key, named by its dotted path, within the bounds lo and hi of the key's schema
# entry; it raises ConfigError, or DomainError from errors.real and errors.integer, which _walk makes a ConfigError.

def _as_mapping(obj: Any, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(obj).__name__}")
    return obj


def _decibels(value: Any, name: str, **bounds: Any) -> float:
    """A number in dB, as a linear ratio, which must be positive and finite."""
    try:
        ratio = 10.0 ** (real(value, name, **bounds) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ConfigError(f"{name} must be a dB value whose linear ratio is a positive finite number, got {value!r}")
    return ratio


def _boolean(value: Any, name: str, **_: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean, got {value!r}")
    return value


def _one_of(choices: Iterable[str], value: Any, name: str, **_: Any) -> str:
    """The choice equal to `value`: a member, where `choices` is a str enum."""
    for choice in choices:
        if value == choice:
            return choice
    raise ConfigError(f"{name} must be {'|'.join(choices)}, got {value!r}")


def _list_of(kind: Callable[..., Any], value: Any, name: str, **bounds: Any) -> tuple:
    """A non-empty list of distinct values of `kind`."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    items = tuple(kind(item, f"{name}[{i}]", **bounds) for i, item in enumerate(value))
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{name}[{i}] repeats {item!r}")
    return items


def _or_null(kind: Callable[..., Any], value: Any, name: str, **bounds: Any) -> Any:
    return None if value is None else kind(value, name, **bounds)


def _path(value: Any, name: str, **_: Any) -> Path:
    try:  # no file name holds a NUL or a lone surrogate
        if isinstance(value, str) and b"\0" not in os.fsencode(value):
            return Path(value)
    except UnicodeEncodeError:
        pass
    raise ConfigError(f"{name} must be a string path, got {value!r}")


def _grid_values(spec: Any, name: str, *, lo: float, hi: float, default: Callable | None = None,
                 most: int | None = None) -> tuple[float, ...]:
    """A grid is either an explicit list or {start, stop, count}; where the axis
    has a `default` grid on [0, hi], {count} alone is that grid with count points.
    A grid of more than `most` points, where that is given, is rejected before it is built."""
    if default and isinstance(spec, dict) and spec.keys() == _COUNT.keys():
        return default(hi, _points(_walk(spec, _COUNT, name)["count"], name, most))
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{name} grid must be non-empty")
        _points(len(spec), name, most)
        return increasing(tuple(real(v, f"{name} grid entries", lo, hi) for v in spec), name)
    span = {"start": _Key(real, lo, hi), "stop": _Key(real, lo, hi), **_COUNT}
    start, stop, count = _walk(spec, span, name).values()
    _points(count, name, most)
    if stop <= start:
        raise ConfigError(f"{name}.stop must exceed {name}.start")
    # the points of np.linspace: start + i*step, the last one exactly stop
    step = (stop - start) / (count - 1)
    values = tuple(start + i * step for i in range(count - 1)) + (stop,)
    return increasing(values, name)  # a step below the spacing of floats repeats values


def _points(count: int, name: str, most: int | None) -> int:
    """count, the points of a grid, checked against `most` (set on grids.b_s only, whence the hint)."""
    if most is not None and count > most:
        raise ConfigError(f"{name} has {count} points (> {most}); an S2 scan holds about 90 B a point in each"
                          f" (lambda_p, tau) cell it works on: shrink {name} to at most {most} points")
    return count


# --- config schema: tables and the walker ---------------------------------------

_REQUIRED = object()
_SLOT = object()  # a bound: the slot length, T on phy and 1.0 on channel

# A key's schema entry: its kind, a parse function or, for a section of the
# document, the section's table; its bounds; and its default, without which it is required.
_Key = namedtuple("_Key", "kind lo hi default", defaults=(None, None, _REQUIRED))

_COUNT = {"count": _Key(integer, 2, MAX_SWEEP_CELLS)}  # the size of a {start, stop, count} grid

_PHY = {  # in PhyParams' field order
    "bits_per_packet": _Key(real, 1e-12),
    "slot_seconds": _Key(real, 1e-12),
    "bandwidth_hz": _Key(real, 1e-12),
    "sampling_hz": _Key(real, 1e-12),
    "sense_snr_db": _Key(_decibels),
    "noise_variance": _Key(real, 1e-12, default=1.0),
    "secondary_snr_db": _Key(_decibels),
    "secondary_mean_gain": _Key(real, 1e-12, default=1.0),
    "primary_snr_db": _Key(_decibels),
    "primary_mean_gain": _Key(real, 1e-12, default=1.0),
}
_CHANNEL = {
    "p_bar_p_pd": _Key(real, 0.0, 1.0),
    "p_bar_s_sd": _Key(real, 0.0, 1.0),
}
_PINNED_TAU = _Key(real, 1e-12, _SLOT, None)  # pins a tau-dependent target to one point (simulate/estimate)
_SENSING = {  # each sensing.mode: the target it sets, and the table of the keys beside mode
    "fixed_point": (FixedSensing, {
        "tau": _Key(real, 0.0, _SLOT),
        "p_fa": _Key(real, 0.0, 1.0),
        "p_md": _Key(real, 0.0, 1.0),
    }),
    "target_pfa": (FixedFalseAlarm, {
        "value": _Key(real, 1e-12, 1.0 - 1e-12),
        "tau": _PINNED_TAU,
    }),
    "target_pmd": (FixedMisdetection, {
        "value": _Key(real, 1e-12, 1.0 - 1e-12),
        "tau": _PINNED_TAU,
    }),
    "threshold": (FixedThreshold, {
        "epsilon": _Key(real, 1e-12),
        "tau": _PINNED_TAU,
    }),
}
# the keys a mode's ROC reads besides phy.sampling_hz, phy.sense_snr_db and its tau
_ROC_KEYS = {"threshold": ", phy.noise_variance, sensing.epsilon"}
_MODE = _Key(partial(_one_of, _SENSING))  # sensing.mode, which picks the table of the other sensing keys
_ACCESS = {
    "optimal": _Key(_boolean, default=False),
    "a_s": _Key(real, 0.0, 1.0, None),  # required unless optimal
    "b_s": _Key(real, 0.0, 1.0, 0.0),
}
_GRIDS = {  # tau and b_s absent: their default grids
    "lambda_p": _Key(_grid_values, 0.0, 1.0, None),
    "tau": _Key(partial(_grid_values, default=default_tau_grid), 1e-12, _SLOT, None),
    "b_s": _Key(partial(_grid_values, default=lambda _, count: default_b_s_grid(count), most=MAX_B_S_POINTS), 0.0,
                1.0, None),
    "p_fa": _Key(_grid_values, 1e-12, 1.0 - 1e-12, ()),
    "p_md": _Key(_grid_values, 1e-12, 1.0 - 1e-12, ()),
}
_SIM = {
    "slots": _Key(integer, 1, default=100_000),
    "seed": _Key(integer, 0, default=0),
    "mode": _Key(partial(_one_of, SimMode), default=SimMode.ORIGINAL),
    "feedback_error": _Key(real, 0.0, 0.999999, 0.0),
    "record_traces": _Key(_boolean, default=False),
}
_ESTIMATE = {
    "lp_slots": _Key(integer, 1, default=10_000),
    "rp_slots": _Key(integer, 10, default=100_000),
    "estimator_mode": _Key(partial(_one_of, EstimatorMode), default=EstimatorMode.UNBIASED),
    "margin": _Key(partial(_or_null, real), 0.0, default=None),  # null: the recommended margin
}
_CONFIG = {
    "phy": _Key(_PHY, default=None),
    "channel": _Key(_CHANNEL, default=None),
    "sensing": _Key(_SENSING, default={"mode": "fixed_point", **vars(NO_SENSING)}),
    "scheme": _Key(partial(_one_of, Variant), default=None),
    "schemes": _Key(partial(_list_of, partial(_one_of, _CURVE_NAMES)), default=_CURVE_NAMES),
    "access": _Key(_ACCESS, default=None),
    "lambda_p": _Key(real, 0.0, 1.0, 0.0),
    "lambda_s": _Key(real, 0.0, 1.0, 0.0),
    "margin": _Key(real, 0.0, default=0.0),
    "grids": _Key(_GRIDS, default={}),
    "sim": _Key(_SIM, default={}),
    "estimate": _Key(_ESTIMATE, default={}),
    "output_dir": _Key(_path, default=Path("out")),
}


def _walk(section: Any, table: dict[str, _Key], name: str, slot: float = 1.0) -> dict[str, Any]:
    """Check `section` against its table: no unknown key, every required key, each value of its kind within
    its bounds.  Returns each key's value or default in table order; a section of the document stays as given."""
    section = _as_mapping(section, name)
    unknown = sorted(map(str, section.keys() - table.keys()))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}; allowed: {', '.join(sorted(table))}")
    values = {}
    for key, (kind, lo, hi, default) in table.items():
        if key not in section:
            if default is _REQUIRED:
                raise ConfigError(f"{name}.{key} is required")
            values[key] = default
        elif isinstance(kind, dict):
            values[key] = _as_mapping(section[key], key)
        else:
            try:
                values[key] = kind(section[key], f"{name}.{key}", lo=lo, hi=slot if hi is _SLOT else hi)
            except DomainError as exc:  # a number's check, in the document's terms
                raise ConfigError(str(exc)) from exc
    return values


# --- parsed configuration ------------------------------------------------------

# the sections that commands read key by key, as records of their tables' keys
AccessSection = namedtuple("AccessSection", _ACCESS)
SimSection = namedtuple("SimSection", _SIM)
EstimateSection = namedtuple("EstimateSection", _ESTIMATE)


@dataclass(frozen=True)
class RunConfig:
    """Validated, unit-converted view of a config document."""

    channel: Channel
    sensing_mode: str
    target: TargetMode
    sensing_tau: float | None  # pins a tau-dependent target to one point (simulate/estimate)
    scheme: Variant | None
    schemes: tuple[str, ...]
    access: AccessSection | None
    lambda_p: float
    lambda_s: float
    margin: float
    lambda_p_grid: tuple[float, ...] | None
    tau_grid: tuple[float, ...]
    b_s_grid: tuple[float, ...]
    p_fa_values: tuple[float, ...]
    p_md_values: tuple[float, ...]
    sim: SimSection
    estimate: EstimateSection
    output_dir: Path

    def request(self, variant: Variant | str, target: TargetMode | None = None) -> OptimizationRequest:
        """The config's problem for `variant`, at `target` in place of the config's own."""
        target = self.target if target is None else target
        one_point = target.pinned or Variant(variant) is Variant.S0  # S0 senses nothing: it has no tau grid
        req = OptimizationRequest(variant, target, () if one_point else self.tau_grid, self.b_s_grid, self.margin)
        if req.tau_grid:  # the ROC's arguments grow with tau: finite at the grid's last, finite at all
            self._roc(target, req.tau_grid[-1], "grids.tau")
        return req

    def _roc(self, target: TargetMode, tau: float, tau_key: str) -> SensingPoint:
        """`target`'s point at `tau`; a ROC past the float range is a config error naming its keys."""
        params = self.channel.detector()
        try:
            return target.at(params, tau)
        except DomainError as exc:
            raise ConfigError(f"phy.sampling_hz, phy.sense_snr_db{_ROC_KEYS.get(self.sensing_mode, '')} and "
                              f"{tau_key} = {tau!r} put the detector's ROC past the float range ({exc})") from exc

    def sensing_point(self) -> SensingPoint:
        """The one sensing point of a simulate or estimate run: NO_SENSING for S0, else the config's, with tau > 0."""
        if self.scheme is None:
            raise ConfigError("simulate/estimate need a `scheme`")
        if self.scheme is Variant.S0:
            return NO_SENSING
        if self.target.pinned:
            if self.target.point.tau == 0.0:
                raise ConfigError("sensing.tau must be > 0 for sensing schemes (use scheme S0 for no sensing)")
            return self.target.point
        if not isinstance(self.channel, PhyParams):
            raise ConfigError("tau-dependent sensing modes need the `phy` section, not `channel`")
        if self.sensing_tau is None:
            raise ConfigError(f"sensing.tau is required to pin a single operating point in mode {self.sensing_mode}")
        return self._roc(self.target, self.sensing_tau, "sensing.tau")


def parse_config(doc: dict) -> RunConfig:
    top = _walk(doc, _CONFIG, "config")
    if (top["phy"] is None) == (top["channel"] is None):
        raise ConfigError("exactly one of `phy` (detector + link physics) or `channel` (direct probabilities) "
                          "is required")
    if top["phy"] is None:
        channel = LinkSuccess(**_walk(top["channel"], _CHANNEL, "channel"))
    else:
        phy = _walk(top["phy"], _PHY, "phy")
        try:  # each key is positive and finite: what PhyParams may still reject is b/(T*W)
            channel = PhyParams(*phy.values())
        except DomainError as exc:
            raise ConfigError("phy.bits_per_packet / (phy.slot_seconds * phy.bandwidth_hz) must be finite") from exc
    mode = _MODE.kind(top["sensing"].get("mode"), "sensing.mode")
    target, table = _SENSING[mode]
    sensing = _walk(top["sensing"], {"mode": _MODE, **table}, "sensing", channel.slot)
    del sensing["mode"]
    sensing_tau = None if target.pinned else sensing.pop("tau")
    target = FixedSensing(SensingPoint(**sensing)) if target.pinned else target(*sensing.values())
    access = None if top["access"] is None else AccessSection(**_walk(top["access"], _ACCESS, "access"))
    if access and not access.optimal and access.a_s is None:
        raise ConfigError("access.a_s is required")
    grids = _walk(top["grids"], _GRIDS, "grids", channel.slot)
    return RunConfig(
        channel=channel, sensing_mode=mode, target=target, sensing_tau=sensing_tau, scheme=top["scheme"],
        schemes=top["schemes"], access=access, lambda_p=top["lambda_p"], lambda_s=top["lambda_s"],
        margin=top["margin"], lambda_p_grid=grids["lambda_p"], tau_grid=grids["tau"] or default_tau_grid(channel.slot),
        b_s_grid=grids["b_s"] or default_b_s_grid(), p_fa_values=grids["p_fa"], p_md_values=grids["p_md"],
        sim=SimSection(**_walk(top["sim"], _SIM, "sim")), output_dir=top["output_dir"],
        estimate=EstimateSection(**_walk(top["estimate"], _ESTIMATE, "estimate")),
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

# region and sweep CSV rows formatted to one string (for sweep, whole points where a point has fewer rows).
# A few hundred rows keep the batch's strings within memory the run has already touched: batches of 4,096
# raised a 10,416-cell sweep's peak RSS by about 0.5 MiB, and 128 rows by 0.04.
_SWEEP_ROWS = 128


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


@contextmanager
def _outputs() -> Iterator[Callable[..., IO]]:
    """Output files that appear whole or not at all.  The block gets `create(path, mode)`, which makes
    output_dir and opens the file under a temporary name beside `path`.  Leaving the block without error
    moves each file to its path; leaving it any other way removes them, and the directories it made that
    are left empty.  A file in the way of output_dir, a directory in the way of a file, and an OS error
    while a file is written are config errors."""
    temporaries, made, path = {}, [], None

    def create(final: Path, mode: str = "w") -> IO:
        nonlocal path
        path = final
        made.extend(reversed([d for d in path.parents if not d.exists()]))  # outermost first
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output_dir {str(path.parent)!r}: {exc.strerror}") from exc
        if path.is_dir():  # the one target os.replace refuses a file
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        temporaries[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        return open(temporaries[path], mode, newline=None if "b" in mode else "")

    try:
        yield create
        for path, temporary in temporaries.items():
            os.replace(temporary, path)
    except OSError as exc:
        if exc.errno is None:  # not the system's answer about a file
            raise
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        for temporary in temporaries.values():
            temporary.unlink(missing_ok=True)
        for directory in reversed(made):  # innermost first; one that holds anything stays
            with suppress(OSError):
                directory.rmdir()


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
        "per_tau": [r._asdict() for r in result.per_tau],
    }


# --- subcommands -----------------------------------------------------------------

def _check_cells(cells: int, command: str, keys: str) -> None:
    """Reject a document of more than MAX_SWEEP_CELLS cells, with a sizing hint."""
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(f"{command} would evaluate {cells} cells (> {MAX_SWEEP_CELLS}); shrink {keys}")


def cmd_region(cfg: RunConfig) -> int:
    if cfg.lambda_p_grid is None:
        raise ConfigError("region needs grids.lambda_p")
    if len(cfg.lambda_p_grid) > MAX_REGION_POINTS:
        raise ConfigError(f"region would hold {len(cfg.lambda_p_grid)} lambda_p points a curve (> {MAX_REGION_POINTS}),"
                          " about 0.29 KiB each for all five curves; shrink grids.lambda_p")
    n_tau = 1 if cfg.target.pinned or cfg.schemes == ("S0",) else len(cfg.tau_grid)
    _check_cells(len(cfg.lambda_p_grid) * n_tau, "region", "grids.lambda_p or grids.tau")
    summary: dict[str, Any] = {"schema": REGION_JSON_SCHEMA, "csv_schema": REGION_CSV_SCHEMA, "files": {},
                               "max_boundary": {}, "points_per_curve": len(cfg.lambda_p_grid)}
    union = UNION in cfg.schemes  # UNION reuses the S0 and S2 curves
    curves = {name: trace_region(cfg.request(name), cfg.lambda_p_grid, cfg.channel)
              for name in _SCHEME_NAMES if name in cfg.schemes or (union and name in ("S0", "S2"))}
    if union:
        curves[UNION] = union_curve(curves["S0"], curves["S2"])
    with _outputs() as create:
        for name in cfg.schemes:
            curve = curves[name]
            path = cfg.output_dir / f"region_{name}.csv"
            with create(path) as fh:
                fh.write("lambda_p,lambda_s,scheme,tau,a_s,b_s\r\n")
                for i in range(0, len(curve.lambda_p), _SWEEP_ROWS):
                    rows = zip(*(column[i : i + _SWEEP_ROWS].tolist() for column in curve[1:]))
                    fh.write("".join([f"{p!r},{s!r},{v},{t!r},{a!r},{b!r}\r\n" for p, s, v, t, a, b in rows]))
            summary["files"][name] = str(path)
            summary["max_boundary"][name] = float(curve.lambda_s.max())
    _emit_json(summary)
    return 0


def _check_load(lambda_p: float, margin: float) -> None:
    if lambda_p + margin > 1.0:
        raise ConfigError(f"lambda_p + margin = {lambda_p + margin!r} exceeds one packet per slot")


def cmd_optimize(cfg: RunConfig) -> int:
    if cfg.scheme is None:
        raise ConfigError("optimize needs a `scheme`")
    _check_load(cfg.lambda_p, cfg.margin)
    result = optimize(cfg.request(cfg.scheme), cfg.lambda_p, cfg.channel)
    _emit_json({**_result_payload(result), "schema": OPTIMIZE_JSON_SCHEMA, "lambda_p": cfg.lambda_p,
                "margin": cfg.margin})
    return 0


def _resolve_scheme_config(cfg: RunConfig) -> tuple[SchemeConfig, dict]:
    """Scheme + access probabilities for a simulate run, and the payload of the optimization behind them.  A
    fixed access is run as given: one the scheme cannot take is a config error, not replaced."""
    point, access = cfg.sensing_point(), cfg.access
    if access is not None and not access.optimal:
        if access.b_s != 0.0 and cfg.scheme is not Variant.S2:
            raise ConfigError(f"access.b_s must be 0 under scheme {cfg.scheme.value} (only S2 transmits on a busy "
                              f"sensing outcome), got {access.b_s}")
        if access.a_s != 1.0 and cfg.scheme is Variant.SC:
            raise ConfigError(f"access.a_s must be 1 under scheme Sc (it always transmits on an idle sensing "
                              f"outcome), got {access.a_s}")
    if cfg.scheme is Variant.SC:
        return SchemeConfig(variant=cfg.scheme, a_s=1.0, b_s=0.0, sensing=point), {}
    if access is None:
        raise ConfigError("simulate needs an `access` section (fixed a_s/b_s or optimal: true)")
    if not access.optimal:
        return SchemeConfig(variant=cfg.scheme, a_s=access.a_s, b_s=access.b_s, sensing=point), {}
    _check_load(cfg.lambda_p, cfg.margin)
    result = optimize(cfg.request(cfg.scheme, FixedSensing(point)), cfg.lambda_p, cfg.channel)
    if not result.feasible:
        raise ConfigError("optimal access requested but the problem is infeasible at this lambda_p")
    return result.best, {"optimized": _result_payload(result)}  # at the one point given, `point`


def _sim_config(cfg: RunConfig, scheme: SchemeConfig, slots: int) -> SimConfig:
    from .sim import SimConfig

    return SimConfig(slots=slots, seed=cfg.sim.seed, lambda_p=cfg.lambda_p, lambda_s=cfg.lambda_s, scheme=scheme,
                     phy=cfg.channel, mode=cfg.sim.mode, feedback_error=cfg.sim.feedback_error)


def _check_sim_slots(slots: int, limit: int, keys: str) -> None:
    """Reject a run of more than `limit` slots, with a sizing hint."""
    if slots > limit:
        raise ConfigError(f"{slots} slots exceed the cap of {limit}; shrink {keys} to at most {limit} slots")


@contextmanager
def _trace_csv(fh: IO) -> Iterator[Callable]:
    """Write the trace CSV's header to fh, and give a `sim.run` sink that appends each chunk's rows: itself,
    or where the platform can fork and no other thread runs, through a pipe to a writer process forked here,
    as (lo, n) and the raw bytes of qp, qs, events and feedback.  However the block ends, leaving it ends the
    pipe, reaps the writer, and raises its exception (a copy, by pickle) or an error naming how it ended."""
    import signal

    import numpy as np

    from .sim import TRACE_CSV_HEADER, SimTrace, write_trace_rows

    fh.write(TRACE_CSV_HEADER)
    if not hasattr(os, "fork") or threading.active_count() > 1:  # a forked child has only the forking thread
        yield partial(write_trace_rows, fh)
        return
    fh.flush()  # else both processes would write what fh holds
    (rows_r, rows_w), (errors_r, errors_w) = os.pipe(), os.pipe()
    with suppress(AttributeError, OSError):  # a platform or a limit that refuses keeps the default size
        import fcntl
        fcntl.fcntl(rows_w, fcntl.F_SETPIPE_SZ, 2**20)  # about two chunks of trace columns (18 B a slot)
    # SIGINT stays blocked in the writer, so an interrupt is the parent's to handle
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    pid = os.fork()
    if pid == 0:  # the writer: it ends with os._exit, so nothing of the parent's runs or is flushed twice
        try:
            os.close(rows_w)  # else the pipe would never end
            with os.fdopen(rows_r, "rb") as pipe:
                while head := pipe.read(16):
                    lo, n = np.frombuffer(head, np.int64).tolist()
                    body = pipe.read(18 * n)
                    queues, codes = np.frombuffer(body, np.int64, 2 * n), np.frombuffer(body, np.uint8, 2 * n, 16 * n)
                    write_trace_rows(fh, lo, SimTrace(*queues.reshape(2, n), *codes.reshape(2, n)))
            fh.flush()
            os._exit(0)
        except BaseException as exc:  # noqa: BLE001 - sent to the parent, which raises it
            with suppress(Exception):
                os.write(errors_w, pickle.dumps(exc))
        finally:
            os._exit(1)
    os.close(rows_r)
    os.close(errors_w)

    def send(lo: int, trace: SimTrace) -> None:
        for column in (np.array([lo, len(trace.qp)], np.int64), trace.qp, trace.qs, trace.events, trace.feedback):
            view = memoryview(column).cast("B")
            while view:
                view = view[os.write(rows_w, view):]

    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # an interrupt since the fork is raised here
        with suppress(BrokenPipeError):  # the writer has ended early: what it sent, or how it ended, is raised below
            yield send
    finally:
        os.close(rows_w)  # the end of the writer's input
        with os.fdopen(errors_r, "rb") as report:
            error = report.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if error:
        raise pickle.loads(error)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise CogAccessError(f"the trace writer process {how} before it wrote the trace")


def cmd_simulate(cfg: RunConfig) -> int:
    from .sim import run

    traced = cfg.sim.record_traces
    _check_sim_slots(cfg.sim.slots, MAX_TRACED_SLOTS if traced else MAX_SIM_SLOTS, "sim.slots")
    scheme, note = _resolve_scheme_config(cfg)
    sim_cfg = _sim_config(cfg, scheme, cfg.sim.slots)
    if traced:
        trace_path = cfg.output_dir / "trace.csv"
        with _outputs() as create, create(trace_path, "wb") as fh, _trace_csv(fh) as sink:
            result = run(sim_cfg, sink=sink)
    else:
        result = run(sim_cfg)

    try:
        rates = service_rates(scheme, cfg.channel.links(scheme.sensing.tau), cfg.lambda_p)
        analytic = {
            "mu_p": rates.mu_p,
            "mu_s": rates.mu_s,
            "p_empty": rates.p_empty,
            "primary_delay": primary_delay(cfg.lambda_p, rates.mu_p),
            "abs_diff_mu_p": abs(result.empirical_mu_p - rates.mu_p),
            "abs_diff_mu_s": abs(result.empirical_mu_s - rates.mu_s) if cfg.sim.mode is SimMode.DOMINANT else None,
            "abs_diff_p_empty": abs(result.empirical_p_empty - rates.p_empty),
        }
    except PrimaryUnstableError:
        analytic = {"note": "primary unstable at this lambda_p: closed-form rates undefined"}

    probe = result.stability
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
        "stability": ({"stable": probe.stable, "drift": probe.drift, "terminal_queue": probe.terminal_queue}
                      if sim_cfg.slots >= 10_000 else {"note": "slots < 1e4: stability window too short"}),
        **note,
    }

    if traced:
        payload["trace_file"] = str(trace_path)
    _emit_json(payload)
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    from .estimator import learning_then_regular

    _check_sim_slots(cfg.estimate.lp_slots + cfg.estimate.rp_slots, MAX_SIM_SLOTS,
                     "estimate.lp_slots + estimate.rp_slots")
    if cfg.estimate.rp_slots < 10 * cfg.estimate.lp_slots:
        raise ConfigError(f"estimate.rp_slots must be at least 10 x estimate.lp_slots = "
                          f"{10 * cfg.estimate.lp_slots}, got {cfg.estimate.rp_slots}")
    # the estimator picks the access probabilities: the template's scheme gives only the variant and point
    template = _sim_config(cfg, SchemeConfig(cfg.scheme, 1.0, 0.0, cfg.sensing_point()), cfg.estimate.rp_slots)
    report = learning_then_regular(cfg.estimate.lp_slots, template, mode=cfg.estimate.estimator_mode,
                                   margin=cfg.estimate.margin, b_s_grid=cfg.b_s_grid)
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


# (lambda_p, tau) cells a sweep scans, writes and drops at a time: whole tau points, at least one.  A scan
# holds 33 B a cell: with 4,096-cell slabs, a 1,041,600-cell sweep peaked 0.2-0.35 MiB above a 10,416-cell
# one (VmHWM), and with 16,384-cell slabs 1.0 MiB above.
_SWEEP_SLAB = 4096


def _sweep_rows(blocks: Iterable[tuple[str, str, float, GridScan]], lambda_p_grid: Sequence[float],
                b_s_grid: Sequence[float]) -> Iterator[str]:
    """The CSV rows of each (scheme, target kind, target value, scan) block, point-major, as csv.writer
    would write them (no field needs quoting), in batches of at most _SWEEP_ROWS rows built a column
    at a time.  A point's head shows its (p_fa, p_md) on feasible rows and on every S0 row, which names
    (0, 1).  b_s and the feasible flag come from the strings of `b_s_grid`, S2's scan grid, looked up
    by value: a feasible S2 cell's b_s is a member, and the grid holds no two equal values (not both
    0.0 and -0.0).  An infeasible cell and every other scheme write 0.0."""
    lams = [f"{_fmt(lam)}," for lam in lambda_p_grid]
    # a generator per block, which chain drops, with the block's scan and strings, before the next is scanned
    return chain.from_iterable(starmap(partial(_block_rows, lams=lams, b_s_grid=b_s_grid), blocks))


def _block_rows(scheme_name: str, kind: str, value: float, grid: GridScan, lams: list[str],
                b_s_grid: Sequence[float]) -> Iterator[str]:
    """One block's rows for `_sweep_rows`; `lams` are the lambda_p fields with their commas."""
    n = len(lams)
    points_per_batch, lams_per_batch = max(1, _SWEEP_ROWS // n), min(n, _SWEEP_ROWS)
    heads = []  # (shown, hidden) per point, indexed by whether the cell is infeasible
    for pt in grid.points:
        head = f"{scheme_name},{kind},{_fmt(value)},{_fmt(pt.tau)},"
        shown = f"{head}{_fmt(pt.p_fa)},{_fmt(pt.p_md)},"
        heads.append((shown, shown if kind == "none" else f"{head},,"))
    # b_s and the feasible flag, by whether the cell is infeasible and then by b_s
    tails = ({b: f"{_fmt(b)},1\r\n" for b in (b_s_grid if scheme_name == "S2" else (0.0,))}, {0.0: "0.0,0\r\n"})
    for j in range(0, len(heads), points_per_batch):
        for i in range(0, n, lams_per_batch):
            cells = slice(i, i + lams_per_batch), slice(j, j + points_per_batch)
            columns = (~grid.feasible[cells], grid.lambda_s[cells], grid.a_s[cells], grid.b_s[cells])
            hidden, lam_s, a_s, b_s = (chain.from_iterable(x.T.tolist()) for x in columns)  # point-major
            lam_p = lams[i : i + lams_per_batch]
            row_heads = chain.from_iterable(repeat(h, len(lam_p)) for h in heads[j : j + points_per_batch])
            yield "".join([f"{h[o]}{p}{s!r},{a!r},{tails[o][b]}"
                           for h, p, o, s, a, b in zip(row_heads, cycle(lam_p), hidden, lam_s, a_s, b_s)])


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.lambda_p_grid is None:
        raise ConfigError("sweep needs grids.lambda_p")

    # a target's axis takes the values of its grid where the document gives one, else the target's own
    target = cfg.target
    values = {"p_fa": cfg.p_fa_values, "p_md": cfg.p_md_values}.get(target.kind)

    sweep_schemes = [s for s in cfg.schemes if s != UNION] or ["S2", "S0"]
    sensing_schemes = [s for s in sweep_schemes if s != "S0"]
    n_tau = 1 if target.pinned else len(cfg.tau_grid)
    n_targets = len(values) if values else 1
    cells = (len(sensing_schemes) * n_targets * n_tau + ("S0" in sweep_schemes)) * len(cfg.lambda_p_grid)
    _check_cells(cells, "sweep", "grids.lambda_p, grids.tau, or the target value lists")
    _check_load(max(cfg.lambda_p_grid), cfg.margin)
    targets = [replace(target, **{target.kind: v}) for v in values] if values else [target]

    # (scheme, target kind, target value, request), in row order; each request is made, and its ROC checked at
    # its last tau, before any file is
    requests = [(scheme_name, mode.kind, mode.value, cfg.request(scheme_name, mode))
                for scheme_name in sensing_schemes for mode in targets]
    if "S0" in sweep_schemes:
        requests.append(("S0", "none", 0.0, cfg.request(Variant.S0)))
    # rows are point-major, so a slab of whole tau points is a run of whole rows; an empty tau grid is one slab
    per_slab = max(1, _SWEEP_SLAB // len(cfg.lambda_p_grid))
    slabs = ((scheme_name, kind, value, scan(replace(req, tau_grid=req.tau_grid[i : i + per_slab]),
                                             cfg.lambda_p_grid, cfg.channel))
             for scheme_name, kind, value, req in requests for i in range(0, len(req.tau_grid) or 1, per_slab))

    path = cfg.output_dir / "sweep.csv"
    with _outputs() as create, create(path) as fh:
        fh.write("scheme,target_kind,target_value,tau,p_fa,p_md,lambda_p,lambda_s,a_s,b_s,feasible\r\n")
        fh.writelines(_sweep_rows(slabs, cfg.lambda_p_grid, b_s_scan_grid(cfg.b_s_grid)))
    _emit_json({"schema": SWEEP_CSV_SCHEMA, "file": str(path), "rows": cells, "cells": cells})
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
    # one parser for every command: the command is a positional argument, and the options may come before it
    parser = argparse.ArgumentParser(
        prog="cogaccess", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Spectrum-access policies, stability regions and Monte Carlo validation",
        epilog=__doc__ and "\n\n".join(__doc__.split("\n\n")[1:3]))  # the command list; python -OO has no __doc__
    parser.add_argument("command", choices=_COMMANDS, help="the command to run (listed below)")
    parser.add_argument("-c", "--config", required=True, help="JSON (.json) or YAML config document")
    parser.add_argument("--seed", type=int, default=None, help="override sim.seed")
    parser.add_argument("--output-dir", default=None, help="override output_dir")
    parser.add_argument("--mode", choices=["original", "dominant"], default=None, help="override sim.mode")
    parser.add_argument("--margin", type=float, default=None,
                        help="override margin (estimate reads estimate.margin, which this does not set)")
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
