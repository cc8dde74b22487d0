"""Golden outputs of the shipped configs.

Each config in `configs/` runs through `cli.main` from a fresh working
directory with `--output-dir out`; the SHA-256 of stdout and of every file
written under `out/` must match `tests/golden.json`.  One more case runs
`validate_simulation` with `sim.record_traces: true`, which pins the bytes
of its 1e6-row `trace.csv`.  Each case's `.json` twin, the document as
`json.dumps` writes it, must give the same digests as the YAML.  The digests hold for the numpy version
recorded next to them (random streams and float formatting may shift
across numpy releases), so the test skips on any other version.

Regenerate the digests only on purpose, after a change that is meant to
alter the shipped outputs, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from cogaccess.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
# case -> (command, config in configs/, keys set in the document's sim section)
CASES = {
    "estimate_two_phase": ("estimate", "estimate_two_phase", {}),
    "region_fixed_roc": ("region", "region_fixed_roc", {}),
    "sweep_sensing_durations": ("sweep", "sweep_sensing_durations", {}),
    "validate_simulation": ("simulate", "validate_simulation", {}),
    "validate_simulation_traced": ("simulate", "validate_simulation", {"record_traces": True}),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_config(name: str, workdir: Path, as_json: bool = False) -> dict:
    """Run one case in `workdir`, from its `.json` twin if `as_json`, and
    digest what it printed and wrote."""
    command, config, sim_keys = CASES[name]
    config_path = ROOT / "configs" / f"{config}.yaml"
    if sim_keys or as_json:
        doc = yaml.safe_load(config_path.read_text())
        if sim_keys:
            doc["sim"].update(sim_keys)
        config_path = workdir / f"{name}.{'json' if as_json else 'yaml'}"
        config_path.write_text(json.dumps(doc) if as_json else yaml.safe_dump(doc))
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([command, "-c", str(config_path), "--output-dir", "out"])
    finally:
        os.chdir(cwd)
    out = workdir / "out"
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "files": {p.relative_to(workdir).as_posix(): _sha256(p.read_bytes()) for p in files},
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_shipped_config_outputs_unchanged(name, tmp_path):
    golden = _golden()
    if np.__version__ != golden["numpy"]:
        pytest.skip(f"golden digests were recorded with numpy {golden['numpy']}, running {np.__version__}")
    assert run_config(name, tmp_path) == golden["configs"][name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_twin_gives_the_same_outputs(name, tmp_path):
    (tmp_path / "yaml").mkdir()
    (tmp_path / "json").mkdir()
    assert run_config(name, tmp_path / "json", as_json=True) == run_config(name, tmp_path / "yaml")


if __name__ == "__main__":
    import tempfile

    configs = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            configs[name] = run_config(name, Path(tmp))
    GOLDEN_PATH.write_text(json.dumps({"numpy": np.__version__, "configs": configs}, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
