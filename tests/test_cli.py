import contextlib
import copy
import errno
import io
import itertools
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cogaccess
from cogaccess import cli, estimator, optimizer, sim
from cogaccess.cli import main
from cogaccess.errors import ConfigError
from cogaccess.estimator import EstimatorMode, learning_then_regular
from cogaccess.optimizer import (
    FixedMisdetection,
    FixedThreshold,
    GridScan,
    OptimizationRequest,
    default_b_s_grid,
    optimize,
    scan,
)
from cogaccess.phy import (
    LinkSuccess,
    PhyParams,
    SensingPoint,
    pfa_for_target_pmd,
    pmd_for_target_pfa,
    roc_from_threshold,
)
from cogaccess.schemes import NO_SENSING, SchemeConfig, Variant, service_rates
from cogaccess.sim import SimConfig, SimMode

from oracles import measure_stability, region_curve, sweep_rows_rowwise

BENCH_BASE = {
    "channel": {"p_bar_p_pd": 0.9, "p_bar_s_sd": 0.8},
    "sensing": {"mode": "fixed_point", "tau": 0.05, "p_fa": 0.2, "p_md": 0.3},
}
BENCH_POINT = SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3)

# a detector and links given in the document's units (dB), and as the library takes them
PHY_DOC = {"bits_per_packet": 10000.0, "slot_seconds": 1.0, "bandwidth_hz": 10000.0, "sampling_hz": 10000.0,
           "sense_snr_db": -13.0, "secondary_snr_db": 13.0, "primary_snr_db": 3.0}
PHY = PhyParams(b=1e4, T=1.0, W=1e4, f_s=1e4, gamma_sense=10 ** -1.3, sigma_u2=1.0,
                gamma_s_sd=10 ** 1.3, sigma2_s_sd=1.0, gamma_p_pd=10 ** 0.3, sigma2_p_pd=1.0)
THRESHOLD = {"mode": "threshold", "epsilon": 1.03}
TAUS = [0.01, 0.1, 0.5]
LAMBDAS = [0.0, 0.1, 0.25, 0.4]
# each tau-dependent mode pinned at tau = 0.05, and the point the library resolves it to
PINNED = [
    ({"mode": "target_pfa", "value": 0.2, "tau": 0.05}, pmd_for_target_pfa(PHY, 0.2, 0.05)),
    ({"mode": "target_pmd", "value": 0.3, "tau": 0.05}, pfa_for_target_pmd(PHY, 0.3, 0.05)),
    (dict(THRESHOLD, tau=0.05), roc_from_threshold(PHY, 1.03, 0.05)),
]


def section_table(key, spec):
    """The table of a section: for sensing, every mode's keys beside mode, which picks the mode's table."""
    if key != "sensing":
        return spec.kind
    return {"mode": cli._MODE, **{k: entry for _, table in spec.kind.values() for k, entry in table.items()}}


def write_config(tmp_path, doc, name="config.yaml"):
    """Write `doc` as YAML, or as JSON under a `.json` name."""
    path = tmp_path / name
    path.write_text(json.dumps(doc) if name.endswith(".json") else yaml.safe_dump(doc))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfigValidation:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["optimize", "-c", "/nonexistent.yaml"])
        assert code == 2
        assert "not found" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3, bogus_key=1)
        code, _, err = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)])
        assert code == 2
        assert "bogus_key" in err

    def test_both_channel_and_phy_rejected(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1")
        doc["phy"] = {"bits_per_packet": 1000, "slot_seconds": 1.0, "bandwidth_hz": 1000,
                      "sampling_hz": 1e4, "sense_snr_db": -10, "secondary_snr_db": 10,
                      "primary_snr_db": 10}
        code, _, err = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)])
        assert code == 2
        assert "exactly one" in err

    def test_empty_lambda_grid_is_usage_error(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, grids={"lambda_p": []})
        code, _, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert code == 2
        assert "non-empty" in err

    @pytest.mark.parametrize("command", ["region", "optimize", "simulate", "estimate", "sweep"])
    def test_grid_of_repeated_floats_rejected(self, tmp_path, capsys, command):
        # seven points spread over one ulp round to repeated values
        doc = dict(BENCH_BASE, scheme="S2", lambda_p=0.3, access={"a_s": 0.5, "b_s": 0.2},
                   grids={"lambda_p": [0.0, 0.3], "b_s": {"start": 0.5, "stop": 0.5000000000000002, "count": 7}},
                   sim={"slots": 20_000}, estimate={"lp_slots": 1_000, "rp_slots": 10_000},
                   output_dir=str(tmp_path / "out"))
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert "grids.b_s grid must be strictly increasing" in err
        assert not (tmp_path / "out").exists()

    # each grid entry outside what the library takes, with the commands that read it: a tau-dependent target
    # scans grids.tau in region, optimize and sweep, and sweep takes its target values from grids.p_fa or
    # grids.p_md; simulate pins its target to sensing.tau and reads no grid, but checks every key present
    @pytest.mark.parametrize("mode, key, grid, command", [
        *[("target_pfa", "tau", grid, command) for grid in ([0.0, 0.5], {"start": 0.0, "stop": 0.5, "count": 3})
          for command in ("region", "optimize", "sweep", "simulate")],
        *[(mode, key, grid, "sweep") for mode, key in (("target_pfa", "p_fa"), ("target_pmd", "p_md"))
          for grid in ([0.0, 0.2], [0.2, 1.0])],
    ])
    def test_grid_entry_outside_the_library_range_names_its_key(self, tmp_path, capsys, mode, key, grid, command):
        sensing = {"mode": mode, "value": 0.2, **({"tau": 0.05} if command == "simulate" else {})}
        doc = {"phy": PHY_DOC, "sensing": sensing, "scheme": "S2", "access": {"a_s": 0.5}, "lambda_p": 0.3,
               "grids": {"lambda_p": [0.0, 0.3], "b_s": {"count": 5}, key: grid}, "sim": {"slots": 1_000},
               "output_dir": str(tmp_path / "out")}
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: grids.{key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["region", "optimize"])
    def test_grid_ends_exactly_at_stop(self, tmp_path, capsys, command):
        # 0.08 + 3 * ((1.0 - 0.08) / 3) is 1.0000000000000002
        doc = dict(BENCH_BASE, scheme="S2", lambda_p=0.3, grids={"lambda_p": [0.0, 0.3],
                   "b_s": {"start": 0.08, "stop": 1.0, "count": 4}}, output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, doc)
        code, _, err = run_cli(capsys, [command, "-c", path])
        assert (code, err) == (0, "")
        assert cli.load_config(path).b_s_grid[-1] == 1.0

    def test_every_grid_from_a_hundredth_to_one_is_accepted(self):
        for k in range(100):
            for count in range(2, 200):
                grid = cli._grid_values({"start": k / 100, "stop": 1.0, "count": count}, "grids.b_s", lo=0.0, hi=1.0)
                assert len(grid) == count and grid[-1] == 1.0
                assert all(a < b for a, b in zip(grid, grid[1:])), (k, count)

    @pytest.mark.parametrize("entry", [float("nan"), 10**400], ids=["nan", "int past the float range"])
    @pytest.mark.parametrize("command", ["region", "sweep"])
    def test_non_finite_grid_entry_rejected(self, tmp_path, capsys, command, entry):
        doc = dict(BENCH_BASE, grids={"lambda_p": [entry], "b_s": {"count": 5}}, output_dir=str(tmp_path / "out"))
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert "grids.lambda_p grid entries must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        (dict(BENCH_BASE, scheme="S1", lambda_p=10**400), "config.lambda_p must be finite"),
        (dict(BENCH_BASE, scheme="S1", lambda_p=0.3, grids={"b_s": {"start": 0.0, "stop": -10**400, "count": 3}}),
         "grids.b_s.stop must be finite"),
    ], ids=["number", "grid stop"])
    def test_integer_past_the_float_range_rejected(self, tmp_path, capsys, doc, message):
        code, out, err = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("key, spec", [
        *(pytest.param(key, {"start": 0.1, "stop": 0.5, "count": cli.MAX_SWEEP_CELLS + 1}, id=f"{key}-span")
          for key in cli._GRIDS),
        *(pytest.param(key, {"count": cli.MAX_SWEEP_CELLS + 1}, id=f"{key}-count") for key in ("tau", "b_s")),
    ])
    @pytest.mark.parametrize("command", ["region", "optimize", "sweep"])
    def test_grid_count_past_the_cap_rejected_before_any_grid_is_built(self, tmp_path, capsys, command, key, spec):
        # a grid longer than the cell cap cannot be swept, and building one takes seconds and hundreds of MiB
        # whether or not the command reads it: the count is checked first
        doc = dict(BENCH_BASE, scheme="S2", lambda_p=0.3, grids={key: spec}, output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, [command, "-c", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert f"grids.{key}.count must be <= {cli.MAX_SWEEP_CELLS}, got {cli.MAX_SWEEP_CELLS + 1}" in err
        assert peak < 2**20
        assert not (tmp_path / "out").exists()

    def test_grid_count_at_the_cap_is_accepted(self):
        assert cli._walk({"count": cli.MAX_SWEEP_CELLS}, cli._COUNT, "grids.tau") == {"count": cli.MAX_SWEEP_CELLS}

    def test_span_order_is_checked_without_a_copy(self, tmp_path):
        # a span of 1e6 points is a tuple of 1e6 floats, about 31 MiB; sorting a set of it to check the order
        # made two more copies, and peaked at 78.5 MiB
        doc = dict(BENCH_BASE, grids={"lambda_p": {"start": 0.0, "stop": 1.0, "count": 1_000_000}})
        path = write_config(tmp_path, doc, "config.json")
        tracemalloc.start()
        try:
            cfg = cli.load_config(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cfg.lambda_p_grid) == 1_000_000 and cfg.lambda_p_grid[-1] == 1.0
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("form", ["count", "span", "list"])
    @pytest.mark.parametrize("points", [cli.MAX_B_S_POINTS, cli.MAX_B_S_POINTS + 1], ids=["at the cap", "past it"])
    @pytest.mark.parametrize("command", ["region", "optimize", "sweep"])
    def test_b_s_grid_is_capped_before_it_is_built(self, tmp_path, capsys, command, points, form):
        # an S2 scan holds about 90 B a b_s point in each cell it works on: a b_s grid past the cap is a config
        # error, raised before the grid is built, that names the key with a sizing hint
        spec = {"count": {"count": points}, "span": {"start": 0.0, "stop": 1.0, "count": points},
                "list": [k / points for k in range(points)]}[form]
        doc = dict(BENCH_BASE, scheme="S2", lambda_p=0.3, grids={"b_s": spec, "lambda_p": [0.3]},
                   output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, doc, "config.json")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, [command, "-c", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if points == cli.MAX_B_S_POINTS:
            assert (code, err) == (0, "")
            return
        assert (code, out) == (2, "")
        assert err == (f"config error: grids.b_s has {points} points (> {cli.MAX_B_S_POINTS}); an S2 scan holds"
                       f" about 90 B a point in each (lambda_p, tau) cell it works on: shrink grids.b_s to at most"
                       f" {cli.MAX_B_S_POINTS} points\n")
        assert not (tmp_path / "out").exists()
        if form != "list":  # a list is in the document, which is read first
            assert peak < 2**20

    @pytest.mark.parametrize("document, name, verb", [
        ("a directory", "config.yaml", "read"),
        ("not UTF-8", "config.yaml", "read"),
        ("an integer of 5,000 digits", "config.yaml", "parse"),  # past Python's int-from-text limit of 4,300
        ("lists nested 5,000 deep", "config.yaml", "parse"),
        ("lists nested 5,000 deep", "config.json", "parse"),
    ])
    def test_unreadable_document_is_a_config_error(self, tmp_path, capsys, document, name, verb):
        path = tmp_path / name
        if document == "a directory":
            path.mkdir()
        elif document == "not UTF-8":
            path.write_bytes(b"scheme: S1\nlambda_p: 0.3\n# caf\xe9\n")
        elif document.startswith("an integer"):
            path.write_text("scheme: S1\nlambda_p: " + "1" * 5_000 + "\n")
        else:
            path.write_text('{"scheme": "S1", "lambda_p": ' + "[" * 5_000 + "]" * 5_000 + "}")
        code, out, err = run_cli(capsys, ["optimize", "-c", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: cannot {verb} {path}: ")

    def test_json_config_also_accepted(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["optimize", "-c", str(path)])
        assert code == 0
        assert json.loads(out)["feasible"] is True

    @pytest.mark.parametrize("command, sensing, on_phy", [
        ("simulate", {"mode": "target_pfa", "value": 0.2, "tau": 5.0}, True),
        ("simulate", dict(THRESHOLD, tau=1.5), True),
        ("optimize", {"mode": "fixed_point", "tau": 3.0, "p_fa": 0.2, "p_md": 0.3}, True),
        ("optimize", {"mode": "fixed_point", "tau": 1.5, "p_fa": 0.2, "p_md": 0.3}, False),
    ])
    def test_sensing_tau_past_the_slot_rejected(self, tmp_path, capsys, command, sensing, on_phy):
        # the slot is T = 1 s on phy and 1.0 on channel, as for grids.tau
        doc = dict(BENCH_BASE, sensing=sensing, scheme="S1", lambda_p=0.3, access={"a_s": 0.5},
                   sim={"slots": 20_000}, output_dir=str(tmp_path / "out"))
        if on_phy:
            del doc["channel"]
            doc["phy"] = PHY_DOC
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert "sensing.tau must be <= 1.0" in err
        assert not (tmp_path / "out").exists()

    def test_sensing_tau_up_to_the_slot_accepted(self, tmp_path):
        long_slot = {"phy": dict(PHY_DOC, slot_seconds=2.0),
                     "sensing": {"mode": "fixed_point", "tau": 2.0, "p_fa": 0.2, "p_md": 0.3}}
        assert cli.load_config(write_config(tmp_path, long_slot)).target.point.tau == 2.0
        with pytest.raises(ConfigError, match="sensing.tau must be <= 2.0"):
            cli.load_config(write_config(tmp_path, dict(long_slot, sensing=dict(THRESHOLD, tau=2.5))))
        unit_slot = dict(BENCH_BASE, sensing=dict(BENCH_BASE["sensing"], tau=1.0))
        assert cli.load_config(write_config(tmp_path, unit_slot)).target.point.tau == 1.0

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_negative_seed_flag_rejected_as_sim_seed(self, tmp_path, capsys, command):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3, access={"a_s": 0.5},
                   sim={"slots": 20_000, "record_traces": True}, estimate={"lp_slots": 1_000, "rp_slots": 20_000},
                   output_dir=str(tmp_path / "out"))
        flagged = run_cli(capsys, [command, "-c", write_config(tmp_path, doc), "--seed", "-1"])
        keyed = run_cli(capsys, [command, "-c", write_config(tmp_path, dict(doc, sim=dict(doc["sim"], seed=-1)))])
        assert flagged == keyed == (2, "", "config error: sim.seed must be >= 0, got -1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        (dict(BENCH_BASE, scheme="S1", sim=3), "sim must be a mapping, got int"),
        (["scheme", "S1"], "config must be a mapping, got list"),
    ])
    def test_flag_into_a_document_that_is_not_a_mapping(self, tmp_path, capsys, doc, message):
        code, out, err = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc), "--seed", "5"])
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    def test_flag_sets_only_its_own_key(self, tmp_path):
        # grids and sim are one aliased mapping: the seed must not land in grids too
        path = tmp_path / "alias.yaml"
        path.write_text("channel: {p_bar_p_pd: 0.9, p_bar_s_sd: 0.8}\nscheme: S1\ngrids: &empty {}\nsim: *empty\n")
        cfg = cli.load_config(path, {"sim.seed": 5, "margin": 0.1})
        assert (cfg.sim.seed, cfg.margin) == (5, 0.1)
        assert cli.load_config(path).sim.seed == 0


class TestOptimize:
    def test_benchmark_s1_value(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.6)
        code, out, _ = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)])
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["best"]["a_s"] == pytest.approx(0.6116780635742466, abs=1e-9)

    def test_overload_reports_infeasible_with_exit_zero(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.95)
        code, out, _ = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)])
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["lambda_s_max"] == 0.0

    def test_margin_flag_tightens(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.4)
        path = write_config(tmp_path, doc)
        _, out_plain, _ = run_cli(capsys, ["optimize", "-c", path])
        _, out_margin, _ = run_cli(capsys, ["optimize", "-c", path, "--margin", "0.05"])
        plain = json.loads(out_plain)
        tight = json.loads(out_margin)
        assert tight["lambda_s_max"] <= plain["lambda_s_max"]
        assert tight["designed_delay_bound"] == pytest.approx((1 - 0.4) / 0.05)

    def test_margin_past_one_packet_per_slot_is_config_error(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.9, margin=0.2)
        code, out, err = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert "exceeds one packet per slot" in err

    def test_negative_margin_flag_rejected(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3)
        code, out, err = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc), "--margin", "-0.1"])
        assert (code, out) == (2, "")
        assert "config.margin must be >= 0.0" in err

    def test_threshold_mode_matches_optimize(self, tmp_path, capsys):
        doc = {"phy": PHY_DOC, "sensing": THRESHOLD, "scheme": "S2", "lambda_p": 0.2, "margin": 0.01,
               "grids": {"tau": TAUS, "b_s": {"count": 5}}}
        code, out, err = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        req = OptimizationRequest(Variant.S2, FixedThreshold(1.03), TAUS, default_b_s_grid(5), margin=0.01)
        result = optimize(req, 0.2, PHY)
        best = result.best
        assert result.feasible and payload["feasible"] is True
        assert payload["lambda_s_max"] == result.lambda_s_max > 0.0
        assert payload["designed_delay_bound"] == result.designed_delay_bound
        assert payload["best"] == {"variant": "S2", "a_s": best.a_s, "b_s": best.b_s, "tau": best.sensing.tau,
                                   "p_fa": best.sensing.p_fa, "p_md": best.sensing.p_md}
        assert payload["per_tau"] == [row._asdict() for row in result.per_tau]


class TestRegion:
    def test_benchmark_curves_and_determinism(self, tmp_path, capsys):
        doc = dict(
            BENCH_BASE,
            grids={"lambda_p": {"start": 0.0, "stop": 0.6, "count": 13}},
            output_dir=str(tmp_path / "out"),
        )
        path = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["region", "-c", path])
        assert code == 0
        summary = json.loads(out)
        files = summary["files"]
        assert set(files) == {"Sc", "S1", "S2", "S0", "UNION"}
        first = {name: Path(f).read_text() for name, f in files.items()}
        header = first["S1"].splitlines()[0]
        assert header == "lambda_p,lambda_s,scheme,tau,a_s,b_s"

        code, _, _ = run_cli(capsys, ["region", "-c", path])
        assert code == 0
        second = {name: Path(f).read_text() for name, f in files.items()}
        assert first == second  # byte-identical rerun

    def test_union_dominates_in_csv(self, tmp_path, capsys):
        doc = dict(
            BENCH_BASE,
            schemes=["S2", "S0", "UNION"],
            grids={"lambda_p": {"start": 0.0, "stop": 0.6, "count": 7}},
            output_dir=str(tmp_path / "out"),
        )
        code, out, _ = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert code == 0
        files = json.loads(out)["files"]

        def boundaries(path):
            rows = Path(path).read_text().strip().splitlines()[1:]
            return [float(r.split(",")[1]) for r in rows]

        union = boundaries(files["UNION"])
        for name in ("S2", "S0"):
            for u, v in zip(union, boundaries(files[name])):
                assert u >= v - 1e-12

    def test_primary_link_that_never_succeeds(self, tmp_path, capsys):
        # p_bar_p_pd = 0 once divided by zero in the S1 and S0 closed forms at lambda_p = 0
        doc = dict(BENCH_BASE, channel={"p_bar_p_pd": 0.0, "p_bar_s_sd": 0.8},
                   grids={"lambda_p": {"start": 0.0, "stop": 0.6, "count": 4}, "b_s": {"count": 3}},
                   output_dir=str(tmp_path / "out"))
        code, out, _ = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert code == 0
        summary = json.loads(out)
        for name, path in summary["files"].items():
            rates = [float(line.split(",")[1]) for line in Path(path).read_text().splitlines()[1:]]
            assert rates[0] > 0.0 and rates[1:] == [0.0] * 3, name

    def test_false_alarm_probability_below_float_range(self, tmp_path, capsys):
        # a long, strong detector gives p_fa ~ 3e-317 at tau = 0.32, and the S2
        # constant (lambda_p/p_bar_p_pd)*p_fa*b_s underflows to 0 at lambda_p = 1e-9
        doc = {
            "phy": {"bits_per_packet": 1e4, "slot_seconds": 1.0, "bandwidth_hz": 5e3, "sampling_hz": 1e4,
                    "sense_snr_db": -1.5, "secondary_snr_db": 0.0, "primary_snr_db": 0.0},
            "sensing": {"mode": "target_pmd", "value": 0.1},
            "schemes": ["S2"],
            "grids": {"lambda_p": [0.0, 1e-9, 0.01], "tau": [0.32], "b_s": {"count": 3}},
            "output_dir": str(tmp_path / "out"),
        }
        code, out, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        rows = Path(json.loads(out)["files"]["S2"]).read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["S2"] * 3 and float(rows[1].split(",")[1]) > 0.0


    def test_threshold_mode_matches_trace_region(self, tmp_path, capsys):
        doc = {"phy": PHY_DOC, "sensing": THRESHOLD, "grids": {"lambda_p": LAMBDAS, "tau": TAUS, "b_s": {"count": 5}},
               "output_dir": str(tmp_path / "out")}
        code, out, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        files = json.loads(out)["files"]
        assert set(files) == {"Sc", "S1", "S2", "S0", "UNION"}
        req = OptimizationRequest(Variant.S2, FixedThreshold(1.03), TAUS, default_b_s_grid(5))
        for name, path in files.items():
            curve = region_curve(name, LAMBDAS, req, PHY)
            assert Path(path).read_text().splitlines()[1:] == [
                f"{p!r},{s!r},{v},{t!r},{a!r},{b!r}" for p, s, v, t, a, b in zip(*(c.tolist() for c in curve[1:]))
            ], name
            assert curve.lambda_s[1] > 0.0, name

    @pytest.mark.parametrize("on_phy, tau, message", [
        (True, [0.0, 0.5], "grids.tau grid entries must be >= 1e-12, got 0.0"),
        (False, [0.5], "tau-dependent target modes need full PhyParams"),
    ])
    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys, on_phy, tau, message):
        doc = dict(BENCH_BASE, sensing={"mode": "target_pfa", "value": 0.2},
                   grids={"lambda_p": LAMBDAS, "tau": tau}, output_dir=str(tmp_path / "out"))
        if on_phy:
            del doc["channel"]
            doc["phy"] = PHY_DOC
        code, out, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("schemes, sensing, rejected", [
        (["S2"], {"mode": "target_pfa", "value": 0.2}, True),
        (["UNION"], {"mode": "target_pfa", "value": 0.2}, True),  # UNION traces S2
        (["S0"], {"mode": "target_pfa", "value": 0.2}, False),  # S0 senses nothing: one point a curve
        (["S2", "S0"], {"mode": "fixed_point", "tau": 0.05, "p_fa": 0.2, "p_md": 0.3}, False),  # one point
    ])
    def test_cells_past_the_cap_rejected_with_hint(self, tmp_path, capsys, schemes, sensing, rejected):
        # 10,001 lambda_p x 1,000 tau are one cell a curve past the cap
        doc = {"phy": PHY_DOC, "sensing": sensing, "schemes": schemes, "output_dir": str(tmp_path / "out"),
               "grids": {"lambda_p": {"start": 0.0, "stop": 0.5, "count": 10_001}, "tau": {"count": 1_000},
                         "b_s": {"count": 3}}}
        code, out, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        if rejected:
            assert (code, out) == (2, "")
            assert (f"region would evaluate 10001000 cells (> {cli.MAX_SWEEP_CELLS}); "
                    "shrink grids.lambda_p or grids.tau") in err
            assert not (tmp_path / "out").exists()
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["points_per_curve"] == 10_001

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_peak_memory_per_lambda_p_point(self, tmp_path):
        # a curve is six columns, about 48 B a lambda_p point: five curves of 100,000 points peak within
        # 48 MiB of 1,000 points of the same document (VmHWM of fresh interpreters)
        doc = {"channel": {"p_bar_p_pd": 0.9, "p_bar_s_sd": 0.8}, "schemes": ["Sc", "S1", "S2", "S0", "UNION"],
               "sensing": {"mode": "fixed_point", "tau": 0.05, "p_fa": 0.2, "p_md": 0.3}, "output_dir": "out"}
        script = ("import sys; from cogaccess import cli; code = cli.main(sys.argv[1:]);"
                  "print(code, [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')][0],"
                  "file=sys.stderr)")

        def peak_kib(count):
            doc["grids"] = {"lambda_p": {"start": 0.0, "stop": 0.63, "count": count}, "b_s": {"count": 33}}
            config = write_config(tmp_path, doc, "config.json")
            proc = run_module(["-c", script, "region", "-c", config], tmp_path, capture_output=True, text=True)
            code, peak = map(int, proc.stderr.split())
            assert code == 0 and json.loads(proc.stdout)["points_per_curve"] == count
            return peak

        assert peak_kib(100_000) - peak_kib(1_000) <= 48 * 1024

    def test_lambda_p_grid_past_the_point_cap_rejected_before_any_curve(self, tmp_path, capsys, monkeypatch):
        # region holds its curves whole: 1,000,001 points of a fixed point's one-tau curves are within the cell
        # cap, but past the lambda_p cap, and rejected before a curve is traced
        def no_curve(*_):
            raise AssertionError("region traced a curve")

        monkeypatch.setattr(cli, "trace_region", no_curve)
        doc = dict(BENCH_BASE, grids={"lambda_p": {"start": 0.0, "stop": 1.0, "count": 1_000_001}},
                   output_dir=str(tmp_path / "out"))
        code, out, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc, "config.json")])
        assert (code, out) == (2, "")
        assert err == (f"config error: region would hold 1000001 lambda_p points a curve (> {cli.MAX_REGION_POINTS}),"
                       " about 0.29 KiB each for all five curves; shrink grids.lambda_p\n")
        assert cli.MAX_REGION_POINTS == 1_000_000
        assert not (tmp_path / "out").exists()

    def test_lambda_p_point_cap_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_REGION_POINTS", 4)
        doc = dict(BENCH_BASE, schemes=["S1"], grids={"lambda_p": LAMBDAS}, output_dir=str(tmp_path / "out"))
        code, _, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        doc["grids"] = {"lambda_p": [*LAMBDAS, 0.5]}
        code, _, err = run_cli(capsys, ["region", "-c", write_config(tmp_path, doc)])
        assert code == 2 and "shrink grids.lambda_p" in err

    def test_cell_bound_is_inclusive(self):
        cli._check_cells(cli.MAX_SWEEP_CELLS, "region", "grids.tau")
        with pytest.raises(ConfigError):
            cli._check_cells(cli.MAX_SWEEP_CELLS + 1, "region", "grids.tau")


class TestSimulate:
    def simulate_doc(self, tmp_path, **overrides):
        doc = dict(
            BENCH_BASE,
            scheme="S1",
            lambda_p=0.3,
            lambda_s=0.1,
            access={"a_s": 0.5, "b_s": 0.0},
            sim={"slots": 20_000, "seed": 1, "mode": "dominant"},
            output_dir=str(tmp_path / "out"),
        )
        doc.update(overrides)
        return doc

    def test_empirical_vs_analytic_columns(self, tmp_path, capsys):
        doc = self.simulate_doc(tmp_path)
        code, out, _ = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic"]["mu_p"] == pytest.approx(0.9 * (1 - 0.5 * 0.3))
        assert payload["analytic"]["abs_diff_mu_p"] <= 0.02
        assert payload["stability"]["stable"] is True
        assert "trace_file" not in payload

    def test_optimal_access_resolution(self, tmp_path, capsys):
        doc = self.simulate_doc(tmp_path, access={"optimal": True}, lambda_p=0.6)
        code, out, _ = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"]["a_s"] == pytest.approx(0.6116780635742466, abs=1e-9)

    def test_seed_override_changes_trace_not_rates(self, tmp_path, capsys):
        doc = self.simulate_doc(tmp_path, sim={"slots": 50_000, "seed": 1, "mode": "dominant"})
        path = write_config(tmp_path, doc)
        _, out1, _ = run_cli(capsys, ["simulate", "-c", path])
        _, out2, _ = run_cli(capsys, ["simulate", "-c", path, "--seed", "99"])
        p1, p2 = json.loads(out1), json.loads(out2)
        assert p1["empirical"]["mu_p"] != p2["empirical"]["mu_p"]
        se = max(p1["empirical"]["mu_p_se"], p2["empirical"]["mu_p_se"])
        assert abs(p1["empirical"]["mu_p"] - p2["empirical"]["mu_p"]) <= 6 * se

    def test_trace_file_written_when_requested(self, tmp_path, capsys):
        doc = self.simulate_doc(
            tmp_path,
            sim={"slots": 2_000, "seed": 1, "mode": "original", "record_traces": True},
        )
        code, out, _ = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert code == 0
        payload = json.loads(out)
        trace = payload["trace_file"]
        assert (tmp_path / "out" / "trace.csv").exists()
        with open(trace) as fh:
            assert fh.readline().strip() == "slot,qp,qs,events,feedback"

    def test_failed_run_leaves_no_trace_file(self, tmp_path, capsys, monkeypatch):
        written = tmp_path / "written"  # the rows are written by another process: it logs its calls to a file

        def failing_rows(fh, lo, trace, real=sim.write_trace_rows):
            with open(written, "a") as log:
                log.write(f"{lo}\n")
            if lo == 14:
                raise OSError("no space left on device")
            real(fh, lo, trace)

        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        monkeypatch.setattr(sim, "write_trace_rows", failing_rows)
        doc = self.simulate_doc(tmp_path, sim={"slots": 2_000, "seed": 1, "record_traces": True})
        code, out, err = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert written.read_text().split() == ["0", "7", "14"] and "no space left on device" in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_one_simulation_per_command(self, tmp_path, capsys, monkeypatch):
        slots = []

        def counting_run(cfg, real_run=sim.run):
            slots.append(cfg.slots)
            return real_run(cfg)

        monkeypatch.setattr(sim, "run", counting_run)  # what measure_stability would call
        code, _, _ = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, self.simulate_doc(tmp_path))])
        assert code == 0
        assert slots == [20_000]

    def test_stability_block_matches_measure_stability(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, self.simulate_doc(tmp_path))])
        assert code == 0
        scheme = SchemeConfig(Variant.S1, 0.5, 0.0, SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3))
        cfg = SimConfig(slots=20_000, seed=1, lambda_p=0.3, lambda_s=0.1, scheme=scheme,
                        phy=LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8), mode=SimMode.DOMINANT)
        probe = measure_stability(cfg, window=20_000)
        assert json.loads(out)["stability"] == {
            "stable": probe.stable,
            "drift": probe.drift,
            "terminal_queue": probe.terminal_queue,
        }

    def test_no_trace_columns_unless_recorded(self, tmp_path, capsys, monkeypatch):
        recorded = []

        def spying_run(cfg, sink=None, real_run=sim.run):
            recorded.append(sink is not None)
            return real_run(cfg, sink)

        monkeypatch.setattr(sim, "run", spying_run)
        code, out, _ = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, self.simulate_doc(tmp_path))])
        assert code == 0
        assert recorded == [False]
        assert "drift" in json.loads(out)["stability"]
        assert not (tmp_path / "out" / "trace.csv").exists()

    @staticmethod
    def assert_matches_run(payload, scheme, channel, mode=SimMode.DOMINANT):
        """The payload's scheme, rates and counts against sim.run and service_rates on the same inputs."""
        result = sim.run(SimConfig(slots=20_000, seed=1, lambda_p=0.3, lambda_s=0.1, scheme=scheme,
                                   phy=channel, mode=mode))
        assert payload["scheme"] == {"variant": scheme.variant.value, "a_s": scheme.a_s, "b_s": scheme.b_s,
                                     "tau": scheme.sensing.tau, "p_fa": scheme.sensing.p_fa,
                                     "p_md": scheme.sensing.p_md}
        assert payload["empirical"] == {
            "mu_p": result.empirical_mu_p, "mu_p_se": result.empirical_mu_p_se,
            "mu_s": result.empirical_mu_s, "mu_s_se": result.empirical_mu_s_se,
            "p_empty": result.empirical_p_empty, "mean_primary_delay": result.mean_primary_delay,
            "secondary_throughput": result.secondary_departures / 20_000,
        }
        assert payload["feedback_counts"] == list(result.feedback_counts)
        rates = service_rates(scheme, channel.links(scheme.sensing.tau), 0.3)
        assert (payload["analytic"]["mu_p"], payload["analytic"]["mu_s"]) == (rates.mu_p, rates.mu_s)

    @pytest.mark.parametrize("sensing, point", PINNED, ids=[s["mode"] for s, _ in PINNED])
    def test_target_mode_pinned_by_tau_matches_run(self, tmp_path, capsys, sensing, point):
        doc = self.simulate_doc(tmp_path, phy=PHY_DOC, sensing=sensing)
        del doc["channel"]
        code, out, err = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        self.assert_matches_run(json.loads(out), SchemeConfig(Variant.S1, 0.5, 0.0, point), PHY)

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize("on_phy, message", [
        (False, "tau-dependent sensing modes need the `phy` section"),
        (True, "sensing.tau is required to pin a single operating point in mode target_pfa"),
    ])
    def test_target_mode_without_a_pinned_point_rejected(self, tmp_path, capsys, command, on_phy, message):
        # on channel a target mode has no ROC to resolve; on phy it needs one tau
        sensing = {"mode": "target_pfa", "value": 0.2} if on_phy else {"mode": "target_pfa", "value": 0.2, "tau": 0.05}
        doc = self.simulate_doc(tmp_path, sensing=sensing, estimate={"lp_slots": 1_000, "rp_slots": 10_000})
        if on_phy:
            del doc["channel"]
            doc["phy"] = PHY_DOC
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("variant, scheme", [
        ("Sc", SchemeConfig(Variant.SC, 1.0, 0.0, BENCH_POINT)),  # Sc always transmits on idle
        ("S0", SchemeConfig(Variant.S0, 0.5, 0.0, NO_SENSING)),  # the sensing section is ignored
    ])
    def test_pinned_schemes_match_run(self, tmp_path, capsys, variant, scheme):
        doc = self.simulate_doc(tmp_path, scheme=variant, access={"a_s": scheme.a_s})
        code, out, err = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        self.assert_matches_run(json.loads(out), scheme, LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8))

    @pytest.mark.parametrize("scheme, access, message", [
        *[(scheme, {"a_s": 0.5, "b_s": 0.5}, f"access.b_s must be 0 under scheme {scheme} (only S2 transmits on a "
                                             "busy sensing outcome), got 0.5") for scheme in ("S1", "S0")],
        ("Sc", {"a_s": 0.3}, "access.a_s must be 1 under scheme Sc (it always transmits on an idle sensing outcome), "
                             "got 0.3"),
    ])
    def test_fixed_access_the_scheme_cannot_take_rejected(self, tmp_path, capsys, scheme, access, message):
        # a fixed access is run as given or not at all: it is never replaced by the scheme's own
        doc = self.simulate_doc(tmp_path, scheme=scheme, access=access,
                                sim={"slots": 20_000, "record_traces": True})
        code, out, err = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert (code, out, err) == (2, "", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_mode_override(self, tmp_path, capsys):
        doc = self.simulate_doc(tmp_path)
        path = write_config(tmp_path, doc)
        _, out, _ = run_cli(capsys, ["simulate", "-c", path, "--mode", "original"])
        assert json.loads(out)["mode"] == "original"


class TestTraceWriter:
    """Traced `simulate` writes its CSV in a writer process, forked before the run and fed each chunk's
    trace columns through a pipe."""

    CFG = SimConfig(slots=2_000, seed=1, lambda_p=0.45, lambda_s=0.3,
                    scheme=SchemeConfig(Variant.S2, 0.8, 0.3, BENCH_POINT),
                    phy=LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8), mode=SimMode.ORIGINAL, feedback_error=0.2)

    @staticmethod
    def simulate(capsys, tmp_path, slots=2_000):
        """The traced `simulate` of CFG's document with `slots` slots: (exit code, stdout, stderr, output dir)."""
        out = tmp_path / "out"
        doc = dict(BENCH_BASE, scheme="S2", lambda_p=0.45, lambda_s=0.3, access={"a_s": 0.8, "b_s": 0.3},
                   output_dir=str(out),
                   sim={"slots": slots, "seed": 1, "mode": "original", "feedback_error": 0.2, "record_traces": True})
        return *run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)]), out

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the processes `os.fork` makes, as the parent sees them."""
        pids, real = [], os.fork

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @staticmethod
    def on_third_chunk(act):
        """`sim._chunk`, which calls act() before solving its third chunk."""
        calls, real = [], sim._chunk

        def chunk(*chunk_args):
            calls.append(None)
            if len(calls) == 3:
                act()
            return real(*chunk_args)

        return chunk

    @classmethod
    def inline_trace(cls):
        """CFG's trace CSV as an inline sink writes it."""
        inline = io.BytesIO()
        inline.write(sim.TRACE_CSV_HEADER)
        sim.run(cls.CFG, partial(sim.write_trace_rows, inline))
        return inline.getvalue()

    @staticmethod
    def assert_reaped():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_untraced_run_before_leaves_the_fork(self, tmp_path, capsys, monkeypatch, forks):
        # an untraced library run draws ahead on a helper thread and joins it, so the traced `simulate` after
        # it in the same process still forks its writer: the other-thread fallback does not fire
        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        started, real = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or real(thread))
        sim.run(self.CFG)
        assert len(started) == 1
        code, _, err, out = self.simulate(capsys, tmp_path)
        assert (code, err) == (0, "")
        assert len(forks) == 1
        assert (out / "trace.csv").read_bytes() == self.inline_trace()
        self.assert_reaped()

    @pytest.mark.parametrize("how", ["forked writer", "no os.fork", "another thread", "F_SETPIPE_SZ refused",
                                     "no F_SETPIPE_SZ"])
    def test_trace_bytes_are_those_of_an_inline_sink(self, how, tmp_path, capsys, monkeypatch, forks, request):
        import fcntl

        if how == "no os.fork":
            monkeypatch.delattr(os, "fork")
        elif how == "another thread":  # which a forked child would not have
            release = threading.Event()
            other = threading.Thread(target=release.wait, args=(60,))
            other.start()
            request.addfinalizer(lambda: release.set() or other.join(60))
        elif how == "F_SETPIPE_SZ refused":
            monkeypatch.setattr(fcntl, "fcntl", mock.Mock(side_effect=PermissionError(errno.EPERM, "refused")))
        elif how == "no F_SETPIPE_SZ":
            monkeypatch.delattr(fcntl, "F_SETPIPE_SZ")
        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)  # 286 chunks through the pipe
        code, _, err, out = self.simulate(capsys, tmp_path)
        assert (code, err) == (0, "")
        assert (out / "trace.csv").read_bytes() == self.inline_trace()
        assert len(forks) == (0 if how in ("no os.fork", "another thread") else 1)
        if how == "F_SETPIPE_SZ refused":
            assert fcntl.fcntl.call_count == 1
        self.assert_reaped()

    def test_writer_error_comes_back_with_its_errno(self, tmp_path, capsys, monkeypatch, forks):
        def full_disk(fh, lo, trace, real=sim.write_trace_rows):
            if lo:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real(fh, lo, trace)

        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        monkeypatch.setattr(sim, "write_trace_rows", full_disk)  # before the fork, so the writer has it
        code, stdout, err, out = self.simulate(capsys, tmp_path)
        full = os.strerror(errno.ENOSPC)
        assert (code, stdout, err) == (2, "", f"config error: cannot write {out / 'trace.csv'}: {full}\n")
        assert len(forks) == 1 and not out.exists()  # neither trace.csv nor its temporary, nor the directory made
        self.assert_reaped()

    @pytest.mark.parametrize("slots", [200_000, 2_000], ids=["mid-run", "after the last chunk"])
    def test_killed_writer_is_an_error_that_names_it(self, slots, tmp_path, capsys, monkeypatch, forks):
        # mid-run, the parent still has more to send than the pipe holds, so its write fails with EPIPE
        # (BrokenPipeError, which cli.main takes for a closed stdout); after the last chunk only the status shows
        monkeypatch.setattr(sim, "write_trace_rows", lambda *_: os.kill(os.getpid(), signal.SIGKILL))
        code, stdout, err, out = self.simulate(capsys, tmp_path, slots)
        assert (code, stdout) == (3, "")
        assert err == (f"error: the trace writer process was killed by signal {signal.SIGKILL} "
                       "before it wrote the trace\n")
        assert len(forks) == 1 and not out.exists()
        self.assert_reaped()

    @pytest.mark.parametrize("case", ["success", "writer error", "chunk failure"])
    def test_every_way_out_reaps_the_writer(self, case, tmp_path, capsys, monkeypatch, forks):
        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        if case == "writer error":
            monkeypatch.setattr(sim, "write_trace_rows", mock.Mock(side_effect=OSError(errno.EIO, "I/O error")))
        elif case == "chunk failure":
            def fail():
                raise RuntimeError("chunk failed")

            monkeypatch.setattr(sim, "_chunk", self.on_third_chunk(fail))
        code, *_ = self.simulate(capsys, tmp_path)
        assert code == {"success": 0, "writer error": 2, "chunk failure": 3}[case]
        assert len(forks) == 1
        self.assert_reaped()

    def test_writer_ignores_sigint_and_ends_with_the_pipe(self, tmp_path, capsys, monkeypatch, forks):
        # the third chunk is drawn while the writer waits for it or writes an earlier one
        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        monkeypatch.setattr(sim, "_chunk", self.on_third_chunk(lambda: os.kill(forks[0], signal.SIGINT)))
        try:
            code, _, err, out = self.simulate(capsys, tmp_path)
        except KeyboardInterrupt:  # the writer's, sent back: not the session's to end
            pytest.fail("the writer took the interrupt")
        assert (code, err) == (0, "")
        assert (out / "trace.csv").read_bytes() == self.inline_trace()
        self.assert_reaped()


class TestEstimateCommand:
    def test_end_to_end_report(self, tmp_path, capsys):
        doc = dict(
            BENCH_BASE,
            scheme="S1",
            lambda_p=0.3,
            lambda_s=0.05,
            access={"a_s": 1.0, "b_s": 0.0},
            sim={"slots": 1000, "seed": 3},
            estimate={"lp_slots": 2_000, "rp_slots": 20_000},
            output_dir=str(tmp_path / "out"),
        )
        code, out, _ = run_cli(capsys, ["estimate", "-c", write_config(tmp_path, doc)])
        assert code == 0
        payload = json.loads(out)
        assert payload["estimates"]["lambda_p_est"] == pytest.approx(0.3, abs=0.05)
        assert payload["regular_phase"]["primary_stable"] is True
        assert payload["fallback_silent"] is False

    @staticmethod
    def assert_matches_library(payload, scheme, channel, margin=None):
        """The payload against learning_then_regular on the same inputs."""
        template = SimConfig(slots=20_000, seed=3, lambda_p=0.3, lambda_s=0.05, scheme=scheme, phy=channel)
        report = learning_then_regular(2_000, template, mode=EstimatorMode.UNBIASED, margin=margin,
                                       b_s_grid=default_b_s_grid())
        est, policy = report.estimates, report.policy
        assert payload["estimates"]["lambda_p_est"] == est.lambda_p_est
        assert payload["estimates"]["p_bar_p_pd_est"] == est.p_bar_p_pd_est
        assert payload["margin"] == report.margin
        assert payload["policy"] == {"variant": policy.variant.value, "a_s": policy.a_s, "b_s": policy.b_s,
                                     "tau": policy.sensing.tau}
        assert payload["fallback_silent"] is report.fallback_silent is False
        rp = report.rp_result
        assert payload["regular_phase"] == {
            "slots": 20_000, "primary_stable": rp.stability.stable, "primary_drift": rp.stability.drift,
            "secondary_throughput": rp.secondary_departures / 20_000, "empirical_mu_p": rp.empirical_mu_p,
        }

    def estimate_doc(self, tmp_path, **overrides):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3, lambda_s=0.05, access={"a_s": 1.0}, sim={"seed": 3},
                   estimate={"lp_slots": 2_000, "rp_slots": 20_000}, output_dir=str(tmp_path / "out"))
        doc.update(overrides)
        return doc

    @pytest.mark.parametrize("sensing, point", PINNED, ids=[s["mode"] for s, _ in PINNED])
    def test_target_mode_pinned_by_tau_matches_library(self, tmp_path, capsys, sensing, point):
        doc = self.estimate_doc(tmp_path, phy=PHY_DOC, sensing=sensing)
        del doc["channel"]
        code, out, err = run_cli(capsys, ["estimate", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        self.assert_matches_library(json.loads(out), SchemeConfig(Variant.S1, 1.0, 0.0, point), PHY)

    def test_numeric_margin_matches_library(self, tmp_path, capsys):
        doc = self.estimate_doc(tmp_path, estimate={"lp_slots": 2_000, "rp_slots": 20_000, "margin": 0.02})
        code, out, err = run_cli(capsys, ["estimate", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["margin"] == 0.02
        self.assert_matches_library(payload, SchemeConfig(Variant.S1, 1.0, 0.0, BENCH_POINT),
                                    LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8), margin=0.02)

    SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "estimate_two_phase.yaml"

    def test_access_is_not_read(self, tmp_path, capsys, monkeypatch):
        """The shipped document, which has no `access`, prints what it prints with access fixed or optimal,
        and the command solves nothing at the true lambda_p: the estimator sets the access probabilities."""
        def refuse(*args, **kwargs):
            raise AssertionError("estimate solved an access problem of its own")

        monkeypatch.setattr(cli, "optimize", refuse)
        monkeypatch.chdir(tmp_path)
        shipped = yaml.safe_load(self.SHIPPED.read_text())
        assert "access" not in shipped
        runs = [run_cli(capsys, ["estimate", "-c", str(self.SHIPPED)])]
        for access in ({"a_s": 1.0}, {"a_s": 0.1}, {"optimal": True}):
            runs.append(run_cli(capsys, ["estimate", "-c", write_config(tmp_path, dict(shipped, access=access))]))
        assert runs[0][::2] == (0, "")
        assert runs == [runs[0]] * 4

    def test_optimal_access_at_an_overloaded_primary_falls_back_to_silence(self, tmp_path, capsys):
        # lambda_p = 0.95 exceeds the primary link's 0.9: the problem at the true load, and at the estimated one,
        # is infeasible, so the estimator deploys the silent policy
        doc = dict(yaml.safe_load(self.SHIPPED.read_text()), lambda_p=0.95, access={"optimal": True},
                   output_dir=str(tmp_path / "out"))
        code, out, err = run_cli(capsys, ["estimate", "-c", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["fallback_silent"] is True
        assert payload["policy"]["a_s"] == 0.0

    def test_short_regular_phase_names_its_keys(self, tmp_path, capsys):
        doc = self.estimate_doc(tmp_path, estimate={"lp_slots": 10_000, "rp_slots": 50_000})
        code, out, err = run_cli(capsys, ["estimate", "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == "config error: estimate.rp_slots must be at least 10 x estimate.lp_slots = 100000, got 50000\n"


class TestRunSizeBound:
    """Simulate and estimate documents past cli.MAX_SIM_SLOTS (or, with a trace,
    cli.MAX_TRACED_SLOTS) exit 2 before anything is simulated or written."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversize document reached the simulator")

        monkeypatch.setattr(sim, "run", refuse)
        monkeypatch.setattr(estimator, "learning_then_regular", refuse)

    def test_oversize_simulate_rejected_with_hint(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3, access={"a_s": 0.5},
                   sim={"slots": 10**12, "seed": 1})
        code, _, err = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert code == 2
        assert "shrink sim.slots" in err

    def test_oversize_estimate_rejected_with_hint(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3,
                   estimate={"lp_slots": 10**9, "rp_slots": 10**10})
        code, _, err = run_cli(capsys, ["estimate", "-c", write_config(tmp_path, doc)])
        assert code == 2
        assert "shrink estimate.lp_slots + estimate.rp_slots" in err

    def test_recorded_trace_counts_toward_the_bound(self, tmp_path, capsys):
        slots = cli.MAX_SIM_SLOTS  # fits without the trace CSV
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3, access={"a_s": 0.5},
                   sim={"slots": slots, "seed": 1, "record_traces": True}, output_dir=str(tmp_path / "out"))
        code, _, err = run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)])
        assert code == 2
        assert f"shrink sim.slots to at most {cli.MAX_TRACED_SLOTS} slots" in err
        assert not (tmp_path / "out").exists()

    def test_bound_is_inclusive(self):
        largest = cli.MAX_SIM_SLOTS
        cli._check_sim_slots(largest, largest, "sim.slots")
        with pytest.raises(ConfigError):
            cli._check_sim_slots(largest + 1, largest, "sim.slots")


class TestSweep:
    def sweep_doc(self, tmp_path, **overrides):
        doc = {
            "phy": {
                "bits_per_packet": 1e4, "slot_seconds": 1.0, "bandwidth_hz": 1e4,
                "sampling_hz": 1e4, "sense_snr_db": -13.0,
                "secondary_snr_db": 13.0, "primary_snr_db": 3.0,
            },
            "sensing": {"mode": "target_pfa", "value": 0.2},
            "schemes": ["S2", "S0"],
            "grids": {
                "lambda_p": {"start": 0.0, "stop": 0.5, "count": 6},
                "tau": [0.001, 0.9],
                "b_s": {"count": 9},
            },
            "output_dir": str(tmp_path / "out"),
        }
        doc.update(overrides)
        return doc

    def test_benchmark_sweep_resolves_each_roc_point_once(self, tmp_path, capsys, monkeypatch):
        # the seed-1 `sweep-tau` benchmark document: 3 p_fa targets x 24 taus are 72 distinct ROC points; each
        # of the 9 requests (a target's Sc, S1 or S2) checks its last tau's point once and its scan resolves
        # each of its 24 points once
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        (op,) = workloads.sweep_ops(1)
        calls = []
        real = optimizer.pmd_for_target_pfa
        monkeypatch.setattr(optimizer, "pmd_for_target_pfa", lambda *a: calls.append(a) or real(*a))
        path = write_config(tmp_path, dict(op.doc, output_dir=str(tmp_path / "out")), "config.json")
        code, _, err = run_cli(capsys, ["sweep", "-c", path])
        assert (code, err) == (0, "")
        assert (len(calls), len(set(calls))) == (9 * (1 + 24), 72)

    def test_sweep_writes_long_csv(self, tmp_path, capsys):
        doc = self.sweep_doc(tmp_path)
        code, out, _ = run_cli(capsys, ["sweep", "-c", write_config(tmp_path, doc)])
        assert code == 0
        payload = json.loads(out)
        rows = Path(payload["file"]).read_text().strip().splitlines()
        assert rows[0].startswith("scheme,target_kind,target_value,tau")
        assert payload["rows"] == 2 * 6 + 6  # S2 at two taus + S0
        schemes = {r.split(",")[0] for r in rows[1:]}
        assert schemes == {"S2", "S0"}

    def test_single_cell_matches_optimize(self, tmp_path, capsys):
        doc = self.sweep_doc(
            tmp_path,
            grids={"lambda_p": [0.2], "tau": [0.01], "b_s": {"count": 9}},
            schemes=["S2"],
        )
        path = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["sweep", "-c", path])
        assert code == 0
        sweep_row = Path(json.loads(out)["file"]).read_text().strip().splitlines()[1].split(",")

        opt_doc = self.sweep_doc(tmp_path, scheme="S2", lambda_p=0.2,
                                 grids={"tau": [0.01], "b_s": {"count": 9}})
        opt_doc.pop("schemes")
        code, out, _ = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, opt_doc, "opt.yaml")])
        assert code == 0
        payload = json.loads(out)
        assert float(sweep_row[7]) == pytest.approx(payload["lambda_s_max"], abs=1e-12)
        assert float(sweep_row[8]) == pytest.approx(payload["best"]["a_s"], abs=1e-12)

    @pytest.mark.parametrize("sensing, p_md, kind, modes", [
        (THRESHOLD, None, "epsilon", [(1.03, FixedThreshold(1.03))]),
        ({"mode": "target_pmd", "value": 0.1}, None, "p_md", [(0.1, FixedMisdetection(0.1))]),
        ({"mode": "target_pmd", "value": 0.1}, [0.05, 0.3], "p_md",
         [(0.05, FixedMisdetection(0.05)), (0.3, FixedMisdetection(0.3))]),
    ])
    def test_sensing_modes_match_scan(self, tmp_path, capsys, sensing, p_md, kind, modes):
        grids = {"lambda_p": LAMBDAS, "tau": TAUS, "b_s": {"count": 5}}
        if p_md is not None:
            grids["p_md"] = p_md
        code, out, err = run_cli(capsys, ["sweep", "-c", write_config(tmp_path, self.sweep_doc(
            tmp_path, sensing=sensing, grids=grids))])
        assert (code, err) == (0, "")

        def cells(scheme, target_kind, value, grid):
            # a row per (tau, lambda_p), tau-major; an infeasible sensing row hides its (p_fa, p_md)
            hidden = target_kind != "none"
            return [(scheme, target_kind, value, pt.tau, *((None, None) if hidden and not ok else (pt.p_fa, pt.p_md)),
                     lam, lam_s, a_s, b_s, float(ok))
                    for j, pt in enumerate(grid.points)
                    for lam, a_s, b_s, lam_s, ok in zip(LAMBDAS, *(x[:, j].tolist() for x in grid[1:]))]

        expected = []
        for value, mode in modes:
            req = OptimizationRequest(Variant.S2, mode, TAUS, default_b_s_grid(5))
            expected += cells("S2", kind, value, scan(req, LAMBDAS, PHY))
        s0_req = OptimizationRequest(Variant.S0, modes[0][1], TAUS, default_b_s_grid(5))
        expected += cells("S0", "none", 0.0, scan(s0_req, LAMBDAS, PHY))
        rows = [r.split(",") for r in Path(json.loads(out)["file"]).read_text().splitlines()[1:]]
        assert [(*r[:2], *(None if x == "" else float(x) for x in r[2:])) for r in rows] == expected
        assert any(e[7] > 0.0 for e in expected if e[0] == "S2")

    def test_oversized_grid_rejected_with_hint(self, tmp_path, capsys):
        doc = self.sweep_doc(
            tmp_path,
            grids={
                "lambda_p": {"start": 0.0, "stop": 0.9, "count": 20_000},
                "tau": {"count": 64},
                "b_s": {"count": 3},
                "p_fa": [round(0.05 * k, 2) for k in range(1, 11)],
            },
        )
        code, _, err = run_cli(capsys, ["sweep", "-c", write_config(tmp_path, doc)])
        assert code == 2
        assert "shrink" in err

    def test_target_list_past_the_cap_rejected_before_any_target_is_made(self, tmp_path, capsys, monkeypatch):
        # a million p_fa targets x 64 tau x 2,000 lambda_p: the cap is checked on the list's length, before one
        # target a value is made
        doc = self.sweep_doc(tmp_path, grids={"lambda_p": {"start": 0.0, "stop": 0.5, "count": 2_000},
                                              "tau": {"count": 64}, "b_s": {"count": 3},
                                              "p_fa": {"start": 0.01, "stop": 0.5, "count": 1_000_000}})
        calls, real = [], cli.replace
        monkeypatch.setattr(cli, "replace", lambda *a, **k: calls.append(a) or real(*a, **k))
        code, out, err = run_cli(capsys, ["sweep", "-c", write_config(tmp_path, doc, "config.json")])
        assert (code, out, calls) == (2, "", [])
        assert (f"sweep would evaluate 128000002000 cells (> {cli.MAX_SWEEP_CELLS}); "
                "shrink grids.lambda_p, grids.tau, or the target value lists") in err

    def test_margin_past_one_packet_per_slot_rejected_before_writing(self, tmp_path, capsys):
        # lambda_p reaches 0.5, so margin 0.6 overloads the last column
        doc = self.sweep_doc(tmp_path, margin=0.6)
        code, out, err = run_cli(capsys, ["sweep", "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert "exceeds one packet per slot" in err
        assert not (tmp_path / "out").exists()

    def test_margin_at_one_packet_per_slot_is_accepted(self, tmp_path, capsys):
        doc = self.sweep_doc(tmp_path, margin=0.5)
        code, out, _ = run_cli(capsys, ["sweep", "-c", write_config(tmp_path, doc)])
        assert code == 0
        rows = Path(json.loads(out)["file"]).read_text().strip().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows if r.split(",")[6] == "0.5"] == ["0"] * 3

    def test_overflowing_primary_rate_ratio(self, tmp_path, capsys):
        # b/(T*W) = 5000: 2**5000 once overflowed in primary_success_prob
        doc = self.sweep_doc(tmp_path)
        doc["phy"]["bandwidth_hz"] = 2
        code, out, _ = run_cli(capsys, ["sweep", "-c", write_config(tmp_path, doc)])
        assert code == 0
        rows = Path(json.loads(out)["file"]).read_text().strip().splitlines()[1:]
        # the primary link never succeeds: only an idle primary leaves a feasible cell
        assert all(r.split(",")[-1] == str(int(float(r.split(",")[6]) == 0.0)) for r in rows)

    ALL_SCHEMES = ["Sc", "S1", "S2", "S0", "UNION"]
    # (document keys, distinct (target, tau) points, ROC calls) for 6 lambda_p and 4 tau: each sensing request
    # checks its last tau once and resolves each tau once in the slab that holds it
    SLAB_DOCS = {
        "every scheme at two p_fa targets": ({"schemes": ALL_SCHEMES, "grids": {"p_fa": [0.1, 0.2]}}, 2 * 4,
                                             3 * 2 * (1 + 4)),
        "fixed point": ({"schemes": ALL_SCHEMES,
                         "sensing": {"mode": "fixed_point", "tau": 0.05, "p_fa": 0.2, "p_md": 0.3}}, 0, 0),
        "S0 only": ({"schemes": ["S0"]}, 0, 0),
    }

    @pytest.mark.parametrize("name", SLAB_DOCS)
    def test_slabs_write_what_one_slab_writes(self, name, tmp_path, capsys, monkeypatch):
        # slabs of one tau point (1 to 7 cells), of three (18 cells: 3 + 1 tau) and of every point (unpatched)
        # write the same bytes and resolve the same ROC points, as many times
        keys, distinct, calls = self.SLAB_DOCS[name]
        grids = {"lambda_p": {"start": 0.0, "stop": 0.5, "count": 6}, "tau": [0.001, 0.01, 0.5, 0.9],
                 "b_s": {"count": 5}, **keys.pop("grids", {})}
        path = write_config(tmp_path, self.sweep_doc(tmp_path, grids=grids, **keys))
        real_roc, real_scan = optimizer.pmd_for_target_pfa, cli.scan

        def run():
            roc, taus = [], []
            monkeypatch.setattr(optimizer, "pmd_for_target_pfa", lambda *a: roc.append(a) or real_roc(*a))
            monkeypatch.setattr(cli, "scan", lambda req, *a: taus.append(len(req.tau_grid)) or real_scan(req, *a))
            code, out, err = run_cli(capsys, ["sweep", "-c", path])
            assert (code, err) == (0, "")
            assert (len(roc), len(set(roc))) == (calls, distinct)
            return out, Path(json.loads(out)["file"]).read_bytes(), taus

        expected_out, expected_csv, _ = run()
        for slab in (1, 5, 6, 7, 18):
            with mock.patch.object(cli, "_SWEEP_SLAB", slab):
                out, csv, taus = run()
            assert (out, csv) == (expected_out, expected_csv)
            assert max(taus) <= max(1, slab // 6)

    def test_a_block_is_dropped_before_the_next_is_scanned(self, tmp_path):
        # one cell and 65,536 b_s points: S2's scan and its b_s strings are the sweep's largest objects, and
        # S0's block, scanned after S2's is dropped, adds little to the peak (tracemalloc, after the document
        # is read); kept while S0's is scanned, S2's block put 5.25 MiB on it
        grids = {"lambda_p": [0.3], "tau": [0.05], "b_s": {"count": cli.MAX_B_S_POINTS}}

        def peak(schemes):
            cfg = cli.load_config(write_config(tmp_path, self.sweep_doc(tmp_path, schemes=schemes, grids=grids)))
            tracemalloc.start()
            try:
                assert cli.cmd_sweep(cfg) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(self.ALL_SCHEMES) - peak(["S2"]) < 2 * 2**20

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_peak_memory_is_flat_in_the_cell_count(self, tmp_path):
        # a sweep scans, writes and drops one slab of cells at a time: its 1,041,600 cells peak no higher than
        # 10,416 cells of the same document at 12 lambda_p (VmHWM of fresh interpreters), and both resolve
        # their 289 ROC points the same way: each of the 3 p_fa requests checks its last tau and scans all 289
        doc = yaml.safe_load((Path(__file__).parent.parent / "configs" / "sweep_sensing_durations.yaml").read_text())
        doc.update(schemes=["S2", "S1", "Sc", "S0"], output_dir=str(tmp_path / "out"))
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys; from cogaccess import cli, optimizer; real = optimizer.pmd_for_target_pfa; calls = [];"
                  "optimizer.pmd_for_target_pfa = lambda *a: calls.append(a) or real(*a); cli.main(sys.argv[1:]);"
                  "status = open('/proc/self/status');"
                  "print([line.split()[1] for line in status if line.startswith('VmHWM')][0], len(calls),"
                  "len(set(calls)), file=sys.stderr)")

        def peak_kib(count):
            doc["grids"] = {"lambda_p": {"start": 0.0, "stop": 0.65, "count": count},
                            "tau": {"start": 0.001, "stop": 0.9, "count": 289}, "b_s": {"count": 33}}
            (tmp_path / "config.json").write_text(json.dumps(doc))
            proc = subprocess.run([sys.executable, "-c", script, "sweep", "-c", "config.json"], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["rows"] == (3 * 289 + 1) * count
            peak, calls, distinct = map(int, proc.stderr.split())
            assert (calls, distinct) == (3 * 290, 289)
            return peak

        assert peak_kib(1_200) - peak_kib(12) <= 1024


# floats a sweep row prints: the corners, subnormals, the largest double below 1, and any in between
ROW_FLOATS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2.0**-1030, 1.0 - 2.0**-53]), st.floats(0.0, 1.0))


@st.composite
def sweep_blocks(draw):
    """A lambda_p grid, S2's b_s scan grid (its first entry -0.0 at times) and (scheme, target kind,
    target value, GridScan) blocks holding what scan leaves: an infeasible cell's rate and b_s are 0,
    a feasible S2 cell's b_s is a member of the grid, and every other scheme's b_s is 0."""
    lambdas = draw(st.lists(ROW_FLOATS, min_size=1, max_size=5))
    b_grid = sorted(set(draw(st.lists(ROW_FLOATS, min_size=1, max_size=4))))
    if draw(st.booleans()):
        b_grid = [-0.0, *(b for b in b_grid if b != 0.0)]
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        scheme = draw(st.sampled_from(["S2", "S1", "Sc", "S0"]))
        kind = "none" if scheme == "S0" else draw(st.sampled_from(["p_fa", "p_md", "epsilon", "fixed"]))
        value = 0.0 if kind in ("none", "fixed") else draw(ROW_FLOATS)
        if scheme == "S0":
            points = [NO_SENSING]
        else:
            point = st.builds(SensingPoint, st.one_of(ROW_FLOATS, st.floats(0.0, 1e3)), ROW_FLOATS, ROW_FLOATS)
            points = draw(st.lists(point, min_size=1, max_size=1 if kind == "fixed" else 4))
        shape = (len(lambdas), len(points))

        def column(values, dtype=float):
            size = shape[0] * shape[1]
            return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype).reshape(shape)

        ok = column(st.booleans(), bool)
        b_s = np.array(b_grid)[column(st.integers(0, len(b_grid) - 1), int)] if scheme == "S2" else np.zeros(shape)
        grid = GridScan(points, column(ROW_FLOATS), np.where(ok, b_s, 0.0), np.where(ok, column(ROW_FLOATS), 0.0), ok)
        blocks.append((scheme, kind, value, grid))
    return lambdas, tuple(b_grid), blocks


class TestSweepRows:
    """The column writer against the row-at-a-time writer it replaced, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=sweep_blocks(), batch=st.sampled_from([1, 2, 3, 7, cli._SWEEP_ROWS]))
    def test_column_writer_matches_rowwise(self, drawn, batch):
        lambdas, b_grid, blocks = drawn
        with mock.patch.object(cli, "_SWEEP_ROWS", batch):
            written = "".join(cli._sweep_rows(blocks, lambdas, b_grid))
        assert written == "".join(sweep_rows_rowwise(blocks, lambdas))

    def test_negative_zero_b_s(self):
        # a feasible cell at the grid's -0.0 prints it; an infeasible one prints 0.0
        point = SensingPoint(0.1, 0.2, 0.3)
        ok = np.array([[True], [False]])
        grid = GridScan([point], np.full((2, 1), 0.5), np.array([[-0.0], [0.0]]), np.where(ok, 0.25, 0.0), ok)
        blocks = [("S2", "p_fa", 0.2, grid)]
        rows = "".join(cli._sweep_rows(blocks, (0.1, 0.2), (-0.0, 1.0)))
        assert rows == "".join(sweep_rows_rowwise(blocks, (0.1, 0.2)))
        assert [r.split(",")[-2:] for r in rows.splitlines()] == [["-0.0", "1"], ["0.0", "0"]]

class TestFuzz:
    """Each key of the shipped documents, shrunk to small grids and about 2e4
    slots, set to a hostile value: a config document may be rejected (2),
    never crash (3), and a rejected one leaves no trace CSV."""

    VALUES = [0, -0.0, -1, 2, float("nan"), float("inf"), "x", [], {}, None, 3000]
    DOCS = {
        "region": ("region_fixed_roc.yaml",
                   {"grids": {"lambda_p": {"start": 0.0, "stop": 0.63, "count": 8}, "b_s": {"count": 5}}}),
        "sweep": ("sweep_sensing_durations.yaml", {"grids": {
            "lambda_p": {"start": 0.0, "stop": 0.65, "count": 5}, "tau": [0.01, 0.5], "b_s": {"count": 5}}}),
        "optimize": ("validate_simulation.yaml", {"grids": {"tau": [0.01, 0.5], "b_s": {"count": 5}}}),
        "simulate": ("validate_simulation.yaml",
                     {"sim": {"slots": 20_000, "seed": 7, "mode": "dominant", "record_traces": True}}),
        "estimate": ("estimate_two_phase.yaml",
                     {"estimate": {"lp_slots": 2_000, "rp_slots": 20_000, "estimator_mode": "unbiased"}}),
    }

    @staticmethod
    def paths(doc, prefix=()):
        for key, value in doc.items():
            yield prefix + (key,)
            if isinstance(value, dict):
                yield from TestFuzz.paths(value, prefix + (key,))

    @classmethod
    def mutants(cls, command):
        """(key path, value, document) for every key of the command's document set to every value."""
        name, shrunk = cls.DOCS[command]
        base = yaml.safe_load((Path(__file__).resolve().parent.parent / "configs" / name).read_text())
        base.update(shrunk, margin=0.0, output_dir="out")
        for path, value in itertools.product(list(cls.paths(base)), cls.VALUES):
            doc = copy.deepcopy(base)
            section = doc
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            yield path, value, doc

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_mutated_documents_never_reach_internal_error(self, command, tmp_path, capsys, monkeypatch):
        crashes = []
        for i, (path, value, doc) in enumerate(self.mutants(command)):
            run_dir = tmp_path / str(i)  # a fresh directory: no run overwrites another's files
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            code, _, err = run_cli(capsys, [command, "-c", write_config(run_dir, doc)])
            if code not in (0, 2) or (code == 2 and any(run_dir.rglob("trace.csv"))):
                crashes.append((path, value, code, err.strip()))
        assert crashes == []

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_json_twin_of_every_mutant_gives_the_same_run(self, command, tmp_path, capsys, monkeypatch):
        # the mutant as YAML and as json.dumps writes it: the same exit code, and on exit 0 the same bytes
        mismatches = []
        for i, (path, value, doc) in enumerate(self.mutants(command)):
            runs = []
            for name in ("config.yaml", "config.json"):
                run_dir = tmp_path / f"{i}{Path(name).suffix}"
                run_dir.mkdir()
                monkeypatch.chdir(run_dir)
                code, out, _ = run_cli(capsys, [command, "-c", write_config(run_dir, doc, name)])
                files = {f.relative_to(run_dir).as_posix(): f.read_bytes()
                         for f in sorted(run_dir.rglob("*")) if f.is_file() and f.name != name}
                runs.append((code, out, files) if code == 0 else (code,))
            if runs[0] != runs[1]:
                mismatches.append((path, value, runs[0][0], runs[1][0]))
        assert mismatches == []

    FLAGS = [("--seed", "-1"), ("--seed", str(10**30)), ("--margin", "-0.1"), ("--margin", "nan"),
             ("--margin", "inf"), ("--margin", "-0.0"), ("--margin", "2"), ("--output-dir", "")]

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_hostile_flags_never_reach_internal_error(self, command, tmp_path, capsys, monkeypatch):
        name, shrunk = self.DOCS[command]
        doc = yaml.safe_load((Path(__file__).resolve().parent.parent / "configs" / name).read_text())
        doc.update(shrunk, margin=0.0, output_dir="out")
        crashes = []
        for i, flag in enumerate(self.FLAGS):
            run_dir = tmp_path / str(i)
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            code, _, err = run_cli(capsys, [command, "-c", write_config(run_dir, doc), *flag])
            if code not in (0, 2) or (code == 2 and any(run_dir.rglob("trace.csv"))):
                crashes.append((flag, code, err.strip()))
        assert crashes == []


class TestJsonDocuments:
    """A `.json` document is read as JSON, where PyYAML would read `1e-05` as a string."""

    DOC = dict(BENCH_BASE, phy=PHY_DOC, sensing={"mode": "target_pfa", "value": 0.2}, scheme="S2", lambda_p=0.1,
               margin=1e-05, grids={"lambda_p": [0.0, 0.1], "tau": [5e-05, 0.01, 0.5], "b_s": {"count": 5}})
    del DOC["channel"]

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_small_floats_match_the_yaml_twin(self, command, tmp_path, capsys):
        runs = []
        for name in ("config.json", "config.yaml"):  # yaml.safe_dump writes 1e-05 as 1.0e-05
            run_dir = tmp_path / Path(name).suffix[1:]
            run_dir.mkdir()
            doc = dict(self.DOC, output_dir=str(tmp_path / "out"))
            code, out, err = run_cli(capsys, [command, "-c", write_config(run_dir, doc, name)])
            assert (code, err) == (0, "")
            runs.append((out, [f.read_bytes() for f in sorted((tmp_path / "out").rglob("*"))]))
        assert '"margin": 1e-05' in (tmp_path / "json" / "config.json").read_text()
        assert runs[0] == runs[1]
        if command == "optimize":
            payload = json.loads(runs[0][0])
            assert payload["margin"] == 1e-05 and payload["per_tau"][0]["tau"] == 5e-05

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_rejected(self, constant, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(BENCH_BASE, scheme="S1")).replace("}", f', "lambda_p": {constant}}}', 1))
        code, out, err = run_cli(capsys, ["optimize", "-c", str(path)])
        assert (code, out) == (2, "")
        assert f"cannot parse {path}: {constant} is not a JSON number" in err

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S1", lambda_p=0.3)
        plain = run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc, "plain.json")])
        (tmp_path / "bom.json").write_text(json.dumps(doc), encoding="utf-8-sig")
        assert run_cli(capsys, ["optimize", "-c", str(tmp_path / "bom.json")]) == plain
        assert plain[0] == 0

    @pytest.mark.parametrize("text", ["scheme: S1\nlambda_p: 0.3\n", "", "{scheme: S1}"])
    def test_yaml_only_or_empty_text_rejected(self, text, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["optimize", "-c", str(path)])
        assert (code, out) == (2, "")
        assert f"config error: cannot parse {path}" in err


def full_disk_after(writes):
    """An `open` whose files take `writes` writes between them, then fail as on a full disk."""
    left = [writes]

    class File:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if not left[0]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            left[0] -= 1
            return self.fh.write(data)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def flush(self):
            self.fh.flush()

    return lambda *args, **kwargs: File(open(*args, **kwargs))


class TestOutputDir:
    DOCS = {
        "region": dict(BENCH_BASE, grids={"lambda_p": [0.0, 0.3], "b_s": {"count": 5}}),
        "sweep": dict(BENCH_BASE, grids={"lambda_p": [0.0, 0.3], "b_s": {"count": 5}}),
        "simulate": dict(BENCH_BASE, scheme="S1", lambda_p=0.3, access={"a_s": 0.5},
                         sim={"slots": 2_000, "seed": 1, "record_traces": True}),
    }

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_file_in_the_way_is_a_config_error(self, command, below, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("keep me")
        output_dir = blocker / "sub" if below else blocker
        config = write_config(tmp_path, dict(self.DOCS[command], output_dir=str(output_dir)))
        code, out, err = run_cli(capsys, [command, "-c", config])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: cannot create output_dir {str(output_dir)!r}: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile", "config.yaml"]
        assert blocker.read_text() == "keep me"

    @pytest.mark.parametrize("command, name", [("region", "region_S2.csv"), ("sweep", "sweep.csv"),
                                               ("simulate", "trace.csv")])
    def test_directory_in_the_way_of_an_output_file(self, command, name, tmp_path, capsys):
        blocked = tmp_path / "out" / name
        blocked.mkdir(parents=True)
        config = write_config(tmp_path, dict(self.DOCS[command], output_dir=str(tmp_path / "out")))
        code, out, err = run_cli(capsys, [command, "-c", config])
        assert (code, out, err) == (2, "", f"config error: cannot write {blocked}: Is a directory\n")
        assert blocked.is_dir() and not any(blocked.iterdir())

    # a second run whose every output differs from the first run's
    CHANGED = {"region": {"grids": {"lambda_p": [0.0, 0.2], "b_s": {"count": 5}}},
               "sweep": {"grids": {"lambda_p": [0.0, 0.2], "b_s": {"count": 5}}},
               "simulate": {"sim": {"slots": 2_000, "seed": 2, "record_traces": True}}}

    @pytest.mark.parametrize("fault", ["directory in the way", "full disk"])
    @pytest.mark.parametrize("command, name, failing", [("region", "region_S2.csv", "region_S1.csv"),
                                                        ("sweep", "sweep.csv", "sweep.csv"),
                                                        ("simulate", "trace.csv", "trace.csv")])
    def test_failed_run_leaves_the_earlier_outputs_as_they_were(self, command, name, failing, fault, tmp_path,
                                                                capsys, monkeypatch):
        out = tmp_path / "out"
        assert run_cli(capsys, [command, "-c", write_config(tmp_path, dict(self.DOCS[command], output_dir=str(out)))
                                ])[0] == 0
        if fault == "directory in the way":
            (out / name).unlink()
            (out / name).mkdir()
            failing, strerror = name, "Is a directory"
        else:  # the fifth write of the run fails: mid-file, in region's second file, which writes a row a write
            monkeypatch.setattr(sim, "_TRACE_CSV_CHUNK", 100)
            if command == "region":
                monkeypatch.setattr(cli, "_SWEEP_ROWS", 1)
            monkeypatch.setattr(cli, "open", full_disk_after(4), raising=False)
            strerror = os.strerror(errno.ENOSPC)
        before = {path: path.is_file() and path.read_bytes() for path in out.rglob("*")}
        config = write_config(tmp_path, dict(self.DOCS[command], output_dir=str(out), **self.CHANGED[command]))
        code, stdout, err = run_cli(capsys, [command, "-c", config])
        assert (code, stdout, err) == (2, "", f"config error: cannot write {out / failing}: {strerror}\n")
        assert {path: path.is_file() and path.read_bytes() for path in out.rglob("*")} == before
        if fault == "full disk":  # with no earlier run, the directories the run made go too
            fresh = tmp_path / "new" / "out"
            monkeypatch.setattr(cli, "open", full_disk_after(4), raising=False)
            config = write_config(tmp_path, dict(self.DOCS[command], output_dir=str(fresh), **self.CHANGED[command]))
            code, stdout, err = run_cli(capsys, [command, "-c", config])
            assert (code, stdout, err) == (2, "", f"config error: cannot write {fresh / failing}: {strerror}\n")
            assert not (tmp_path / "new").exists()


NEEDS_PHY_PARAMS = "tau-dependent target modes need full PhyParams; fixed link probabilities only support FixedSensing"
NEEDS_PHY_SECTION = "tau-dependent sensing modes need the `phy` section, not `channel`"
TAU_MODES = ("target_pfa", "target_pmd", "threshold")
# (sensing mode, channel section, sensing.tau given): the stderr message of region, optimize, simulate,
# estimate and sweep in turn, each an exit 2, or None for a run that exits 0 with nothing on stderr
ERROR_MATRIX = {
    ("fixed_point", "phy", True): (None,) * 5,
    ("fixed_point", "phy", False): ("sensing.tau is required",) * 5,
    ("fixed_point", "channel", True): (None,) * 5,
    ("fixed_point", "channel", False): ("sensing.tau is required",) * 5,
    **{(mode, "phy", True): (None,) * 5 for mode in TAU_MODES},
    **{(mode, "phy", False): (None, None, *[f"sensing.tau is required to pin a single operating point in mode {mode}"]
                              * 2, None) for mode in TAU_MODES},
    **{(mode, "channel", tau): (NEEDS_PHY_PARAMS,) * 2 + (NEEDS_PHY_SECTION,) * 2 + (NEEDS_PHY_PARAMS,)
       for mode in TAU_MODES for tau in (True, False)},
}


class TestConfigErrorMatrix:
    """Every sensing mode on either channel section, with and without sensing.tau, through every
    command: the exit code and the exact stderr of each run, against ERROR_MATRIX."""

    MODES = {"fixed_point": {"p_fa": 0.2, "p_md": 0.3}, "target_pfa": {"value": 0.2},
             "target_pmd": {"value": 0.3}, "threshold": {"epsilon": 1.03}}

    COMMANDS = ("region", "optimize", "simulate", "estimate", "sweep")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("with_tau", [True, False], ids=["tau", "no tau"])
    @pytest.mark.parametrize("section", ["phy", "channel"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_exit_code_and_stderr(self, mode, section, with_tau, command, tmp_path, capsys):
        sensing = {"mode": mode, **self.MODES[mode], **({"tau": 0.05} if with_tau else {})}
        doc = {section: PHY_DOC if section == "phy" else BENCH_BASE["channel"], "sensing": sensing,
               "scheme": "S2", "lambda_p": 0.3, "access": {"a_s": 0.5, "b_s": 0.2},
               "grids": {"lambda_p": [0.0, 0.3], "tau": [0.01, 0.5], "b_s": {"count": 5}},
               "sim": {"slots": 2_000}, "estimate": {"lp_slots": 1_000, "rp_slots": 10_000},
               "output_dir": str(tmp_path / "out")}
        message = ERROR_MATRIX[mode, section, with_tau][self.COMMANDS.index(command)]
        code, _, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, err) == ((0, "") if message is None else (2, f"config error: {message}\n"))


class TestSchema:
    """Each key present is checked against its schema entry, whatever the other keys say."""

    @pytest.mark.parametrize("access, message", [
        ({"optimal": True, "a_s": "x", "b_s": [1]}, "access.a_s must be a number, got 'x'"),
        ({"optimal": True, "b_s": [1]}, "access.b_s must be a number, got [1]"),
        ({"optimal": False, "b_s": 0.5}, "access.a_s is required"),
    ])
    def test_optimal_access_checks_the_other_keys(self, access, message, tmp_path, capsys):
        doc = dict(BENCH_BASE, scheme="S2", lambda_p=0.3, access=access, sim={"slots": 20_000})
        assert run_cli(capsys, ["simulate", "-c", write_config(tmp_path, doc)]) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("command", ["region", "sweep"])
    def test_repeated_scheme_rejected(self, command, tmp_path, capsys):
        doc = dict(BENCH_BASE, schemes=["S1", "S1", "S0", "S0"], grids={"lambda_p": [0.0, 0.3], "b_s": {"count": 5}},
                   output_dir=str(tmp_path / "out"))
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, out, err) == (2, "", "config error: config.schemes[1] repeats 'S1'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("optimize", {**BENCH_BASE, "scheme": "S1", 1: 2}, "unknown key(s) in config: 1; allowed: "),
        ("region", dict(BENCH_BASE, grids={"lambda_p": [0.0]}, output_dir="a\0b"),
         "config.output_dir must be a string path, got 'a\\x00b'"),
        ("region", dict(BENCH_BASE, grids={"lambda_p": [0.0]}, output_dir="\ud800"),
         "config.output_dir must be a string path, got '\\ud800'"),
        ("optimize", dict(TestJsonDocuments.DOC, phy=dict(PHY_DOC, sense_snr_db=4000)),
         "phy.sense_snr_db must be a dB value whose linear ratio is a positive finite number, got 4000"),
    ], ids=["integer key", "NUL in a path", "lone surrogate in a path", "dB past the float range"])
    def test_documents_that_reached_internal_error(self, command, doc, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    @pytest.mark.parametrize("db", [-4000, 4000])
    @pytest.mark.parametrize("key", ["sense_snr_db", "secondary_snr_db", "primary_snr_db"])
    def test_db_past_the_float_range_names_its_key(self, key, db, tmp_path, capsys):
        doc = dict(TestJsonDocuments.DOC, phy=dict(PHY_DOC, **{key: db}))
        assert run_cli(capsys, ["optimize", "-c", write_config(tmp_path, doc)]) == (
            2, "", f"config error: phy.{key} must be a dB value whose linear ratio is a positive finite number, "
                   f"got {db}\n")

    # b/(T*W) overflows; sqrt(tau*f_s)*gamma_sense overflows at tau = 0.5; epsilon/sigma_u2 overflows
    CROSS_KEY = {"b/(T*W)": dict(bits_per_packet=1e300, slot_seconds=1e-12, bandwidth_hz=1e-12),
                 "target_pfa": dict(sense_snr_db=3000, sampling_hz=1e300),
                 "threshold": dict(noise_variance=1e-12)}

    @pytest.mark.parametrize("command, case, sensing, message", [
        ("optimize", "b/(T*W)", None, "phy.bits_per_packet / (phy.slot_seconds * phy.bandwidth_hz) must be finite"),
        ("optimize", "target_pfa", None, "phy.sampling_hz, phy.sense_snr_db and grids.tau = 0.5 put the detector's "
                                         "ROC past the float range (q_func requires a finite argument, got -inf)"),
        ("simulate", "target_pfa", {"mode": "target_pfa", "value": 0.2, "tau": 0.5},
         "phy.sampling_hz, phy.sense_snr_db and sensing.tau = 0.5 put the detector's ROC past the float range "
         "(q_func requires a finite argument, got -inf)"),
        ("simulate", "threshold", {"mode": "threshold", "epsilon": 1e300, "tau": 0.5},
         "phy.sampling_hz, phy.sense_snr_db, phy.noise_variance, sensing.epsilon and sensing.tau = 0.5 put the "
         "detector's ROC past the float range (q_func requires a finite argument, got inf)"),
        ("optimize", "target_pfa", {"mode": "fixed_point", "tau": 0.05, "p_fa": 0.2, "p_md": 0.3}, None),
    ], ids=["b/(T*W)", "target_pfa over grids.tau", "target_pfa at sensing.tau", "threshold at sensing.tau",
            "fixed_point evaluates no ROC"])
    def test_cross_key_checks_name_their_keys(self, command, case, sensing, message, tmp_path, capsys):
        doc = dict(TestJsonDocuments.DOC, phy=dict(PHY_DOC, **self.CROSS_KEY[case]), access={"a_s": 0.5},
                   sim={"slots": 1_000}, output_dir=str(tmp_path / "out"))
        doc["sensing"] = sensing or doc["sensing"]
        code, out, err = run_cli(capsys, [command, "-c", write_config(tmp_path, doc, "config.json")])
        if message is None:
            assert (code, err) == (0, "") and json.loads(out)["feasible"] is True
        else:
            assert (code, out, err) == (2, "", f"config error: {message}\n")

    @staticmethod
    def keys(doc, table, prefix=""):
        """The dotted keys of `doc` (or, given None, of `table`), down every section that `table` declares."""
        keys = set()
        for key in table if doc is None else doc:
            keys.add(prefix + str(key))
            spec = table.get(key)
            if spec is not None and isinstance(spec.kind, dict):
                keys |= TestSchema.keys(None if doc is None else doc[key], section_table(key, spec), f"{key}.")
        return keys

    def test_readme_sample_has_exactly_the_schema_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        sample = readme.split("### Config document", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        sample = re.sub(r"^( *)# (\w+:)", r"\1\2", sample, flags=re.M)  # a commented-out key is a key too
        assert self.keys(yaml.safe_load(sample), cli._CONFIG) == self.keys(None, cli._CONFIG)


# Whole documents drawn from the schema tables.  The sizes that set how long a
# run takes are capped here, never in the CLI: these keys' values, and grids.
RUN_CAPS = {"slots": 20_000, "lp_slots": 2_000, "rp_slots": 20_000, "count": 6}
HOSTILE = [None, "x", [], {}, True, math.nan, math.inf, -math.inf, 10**400, {"bogus": 1}]


def down(x):
    return math.nextafter(x, -math.inf)


def up(x):
    return math.nextafter(x, math.inf)


def kind_strategies(key, spec, slot):
    """(valid values, invalid values) for one key: the valid ones include its
    bounds and one ulp inside them, the invalid ones one ulp outside and values hostile to its kind."""
    lo, hi = spec.lo, slot if spec.hi is cli._SLOT else spec.hi
    kind = spec.kind
    name = (kind.func if isinstance(kind, partial) else kind).__name__
    if name in ("real", "_decibels", "_or_null"):
        bounds = [x for b, inside in ((lo, up), (hi, down)) if b is not None for x in (b, inside(b))]
        valid = st.one_of(st.sampled_from(bounds or [0.0]), st.floats(lo, hi, allow_nan=False, allow_infinity=False))
        outside = [out(b) for b, out in ((lo, down), (hi, up)) if b is not None]
        return (st.one_of(st.none(), valid) if name == "_or_null" else valid), outside + ["0.5"]
    if name == "integer":
        return st.integers(lo, RUN_CAPS.get(key, 2**64)), [lo - 1, 2.5, "3"]
    if name == "_boolean":
        return st.booleans(), [0, 1, "true"]
    if name == "_one_of":
        choices = [getattr(choice, "value", choice) for choice in kind.args[0]]  # a str enum's values
        return st.sampled_from(choices), [choices[0].upper()]
    if name == "_list_of":
        names = list(kind.args[0].args[0])
        return st.lists(st.sampled_from(names), min_size=1, unique=True), [names[:1] * 2, "S1", ["x"]]
    if name == "_path":
        return st.sampled_from(["out", "out/sub", "o u", "ü", ""]), ["a\0b", "\ud800"]
    assert name == "_grid_values", name

    def span(start, stop, count=2):
        return {"start": start, "stop": stop, "count": count}

    points = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    valid = [st.lists(points, min_size=1, max_size=RUN_CAPS["count"], unique=True).map(sorted),
             st.builds(lambda a, b, count: span(min(a, b), max(a, b), count), points, points,
                       st.integers(2, RUN_CAPS["count"])),
             st.sampled_from([[lo], [up(lo)], [hi], [down(hi)], span(lo, hi), span(up(lo), down(hi))])]
    if "default" in getattr(kind, "keywords", {}):  # an axis with a default grid takes {count} alone
        valid.append(st.builds(lambda count: {"count": count}, st.integers(2, RUN_CAPS["count"])))
    invalid = [[down(lo)], [up(hi)], span(down(lo), hi), span(lo, up(hi)), {"count": 1}, span(hi / 2, up(hi / 2), 3),
               [math.nan], [hi, hi / 2], span(hi, lo, 3)]
    return st.one_of(valid), invalid


@st.composite
def sections(draw, table, fault, rng, slot=1.0, essential=()):
    """A section drawn from its table: a required or essential key present, and
    any other half the time; each key missing or invalid where `fault()` says so."""
    doc = {}
    for key, spec in table.items():
        wanted = spec.default is cli._REQUIRED or key in essential
        if fault() if wanted else draw(st.booleans()):
            continue
        valid, invalid = kind_strategies(key, spec, slot)
        doc[key] = draw(st.sampled_from(invalid if rng.random() < 0.5 else HOSTILE) if fault() else valid)
    return doc


@st.composite
def documents(draw, command):
    """A whole document for `command`, with the keys it needs, and a share of faults drawn per document."""
    rate, rng = draw(st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.5])), random.Random(draw(st.integers(0, 2**32)))

    def fault():  # the share `rate` of the document's keys, uniformly
        return rng.random() < rate

    doc = {}
    links = draw(st.sampled_from(["phy", "channel"] * 4 + (["both", "neither"] if rate else [])))
    if links in ("phy", "both"):
        doc["phy"] = draw(sections(cli._PHY, fault, rng))
    if links in ("channel", "both"):
        doc["channel"] = draw(sections(cli._CHANNEL, fault, rng))
    slot = doc.get("phy", {}).get("slot_seconds", 1.0)
    slot = slot if isinstance(slot, float) and cli._PHY["slot_seconds"].lo <= slot < math.inf else 1.0
    if draw(st.booleans()):
        mode = draw(st.sampled_from(list(cli._SENSING) + (["x"] if rate else [])))
        doc["sensing"] = {"mode": mode, **draw(sections(cli._SENSING.get(mode, (None, {}))[1], fault, rng, slot))}
    essential = {"region": ["grids"], "sweep": ["grids"], "optimize": ["scheme"],
                 "simulate": ["scheme", "access", "sim"], "estimate": ["scheme", "access", "estimate"]}[command]
    leaves = {key: spec for key, spec in cli._CONFIG.items() if not isinstance(spec.kind, dict)}
    doc.update(draw(sections(leaves, fault, rng, essential=essential)))
    for key in ("access", "grids", "sim", "estimate"):
        if key in essential or draw(st.booleans()):
            doc[key] = draw(sections(cli._CONFIG[key].kind, fault, rng, slot, essential=["a_s", "lambda_p", *RUN_CAPS]))
    if fault():
        doc[draw(st.sampled_from(["bogus", 1]))] = 1
    return doc


def run_in(run_dir, argv):
    """main(argv) from `run_dir`: its exit code, stdout, stderr and the files it wrote."""
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {f.relative_to(run_dir).as_posix(): f.read_bytes()
             for f in sorted(run_dir.rglob("*")) if f.is_file() and f.name != "config.yaml"}
    return code, out.getvalue(), err.getvalue(), files


class TestWholeDocumentFuzz:
    """Documents drawn whole from the schema tables, for every command: each run
    exits 0 or 2, an exit 2 writes no output file, and a rerun gives the same bytes."""

    @pytest.mark.parametrize("command", ["region", "optimize", "simulate", "estimate", "sweep"])
    @settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_drawn_documents(self, command, data):
        doc = data.draw(documents(command))
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            for run in ("first", "rerun"):
                run_dir = Path(tmp) / run
                run_dir.mkdir()
                (run_dir / "config.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))
                runs.append(run_in(run_dir, [command, "-c", "config.yaml"]))
        code, _, err, files = runs[0]
        assert code in (0, 2), err
        assert code == 0 or files == {}
        assert runs[1] == runs[0]


def run_module(args, cwd, **kwargs):
    """`python ARGS` in a fresh interpreter that imports cogaccess from this tree,
    with stdout block-buffered as it is on a pipe from a shell."""
    src = str(Path(cogaccess.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, timeout=120, **kwargs)


class TestImportSurface:
    """A command imports only what it uses: sim and estimator only for simulate
    and estimate, PyYAML only for YAML documents."""

    LAZY = {"cogaccess.estimator", "cogaccess.sim", "yaml"}

    def test_package_and_cli_load_neither(self, tmp_path):
        script = ("import json, sys; import cogaccess;"
                  "package = sorted(m for m in sys.modules if m.startswith('cogaccess.')); import cogaccess.cli;"
                  f"print(json.dumps([package, sorted({sorted(self.LAZY)!r} & sys.modules.keys())]))")
        proc = run_module(["-c", script], tmp_path, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == [[], []]

    @pytest.mark.parametrize("command, loaded", [("region", []), ("simulate", ["cogaccess.sim"])])
    def test_json_command_loads_only_what_it_uses(self, command, loaded, tmp_path):
        config = write_config(tmp_path, dict(TestOutputDir.DOCS[command], output_dir="out"), "config.json")
        script = ("import json, sys; from cogaccess.cli import main; code = main(sys.argv[1:]);"
                  f"print(json.dumps([code, sorted({sorted(self.LAZY)!r} & sys.modules.keys())]), file=sys.stderr)")
        proc = run_module(["-c", script, command, "-c", config], tmp_path, capture_output=True, text=True)
        assert json.loads(proc.stderr) == [0, loaded]

    def test_traced_simulate_loads_no_process_pool(self, tmp_path):
        # the trace writer is one os.fork and two os.pipe calls: neither import nor a traced run pays for a pool
        pools = ("multiprocessing", "concurrent.futures")
        config = write_config(tmp_path, dict(TestOutputDir.DOCS["simulate"], output_dir="out"), "config.json")
        script = ("import json, sys; import cogaccess.cli;"
                  f"loaded = [sorted(set({pools!r}) & sys.modules.keys())]; code = cogaccess.cli.main(sys.argv[1:]);"
                  f"print(json.dumps([code, *loaded, sorted(set({pools!r}) & sys.modules.keys())]), file=sys.stderr)")
        proc = run_module(["-c", script, "simulate", "-c", config], tmp_path, capture_output=True, text=True)
        assert json.loads(proc.stderr) == [0, [], []]
        assert (tmp_path / "out" / "trace.csv").exists()


class TestEntryPoint:
    def test_module_runs_without_warnings(self, tmp_path, capsys):
        # `python -m cogaccess.cli` must not find the module already imported by the package
        config = str(Path(__file__).resolve().parent.parent / "configs" / "validate_simulation.yaml")
        src = str(Path(cogaccess.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "cogaccess.cli", "optimize",
                               "-c", config], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(capsys, ["optimize", "-c", config])[1]

    def test_closed_stdout_ends_quietly(self, tmp_path, capsys, monkeypatch):
        config = str(Path(__file__).resolve().parent.parent / "configs" / "sweep_sensing_durations.yaml")
        (tmp_path / "piped").mkdir()
        read, write = os.pipe()
        os.close(read)  # no reader: every write to stdout fails with EPIPE
        try:
            proc = run_module(["-m", "cogaccess.cli", "sweep", "-c", config, "--output-dir", "out"], tmp_path / "piped",
                              stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, ["sweep", "-c", config, "--output-dir", "out"])[0] == 0
        assert (tmp_path / "piped" / "out" / "sweep.csv").read_bytes() == (tmp_path / "out" / "sweep.csv").read_bytes()
