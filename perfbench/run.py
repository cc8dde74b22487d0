"""Benchmark of the cogaccess command-line tool.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a cogaccess source tree.  The seed generates the
config documents of the workload (see workloads.py); every operation is
one `cogaccess.cli.main` call in a fresh child interpreter (child.py),
run one at a time with BLAS and OpenMP limited to one thread.  Whole
rounds of the workload's operations repeat until S seconds have passed.

--trace 0 prints the end-to-end metrics: import time, main() wall time,
peak resident memory and work rate, as medians over the run.  Times are
scaled by a host-speed probe that each child runs next to the timed code
(child.py): the host is shared, and its speed drifts by tens of percent
over seconds.  --trace 1 runs every operation untraced, then under span
tracing, then with the hot functions counted (tracer.py), and prints the
per-layer metrics and the tracing overhead.  Each operation's outputs are checked, and the SHA-256
digests of its stdout and files must repeat from round to round.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Op, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
PROBE_REF_S = 0.1  # times are scaled to a core on which child.probe_s() takes this long
DEADLINE_S = 170.0  # a run must end within 180 s
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}



class BenchError(RuntimeError):
    pass


class Runner:
    """Runs child processes against one deadline."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(SINGLE_THREAD)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, cwd: Path, trace: str = "none", cli_args: list | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--result", "result.json", "--trace", trace]
        if cli_args is not None:
            cmd += ["--stdout", "stdout.txt", "--", *cli_args]
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 1.0:
            raise BenchError("out of time")
        proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads((cwd / "result.json").read_text())
        # The import runs before the first probe; main() runs between the two.
        result["setup_s"] = result["import_s"] * PROBE_REF_S / result["probe_s"][0]
        if "run_s" in result:
            result["run_scaled_s"] = result["run_s"] * PROBE_REF_S / statistics.fmean(result["probe_s"])
        return result


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_op(runner: Runner, op: Op, op_dir: Path, trace: str = "none") -> tuple[dict, dict]:
    """One CLI call in op_dir; returns the child's result and the output digests."""
    out = op_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = runner.child(op_dir, trace, [op.command, "-c", "config.json", "--output-dir", "out"])
    digests = {"stdout": _sha256(op_dir / "stdout.txt")}
    for name in op.files:
        path = out / name
        digests[name] = _sha256(path) if path.exists() else "missing"
    return result, digests


class Verdicts:
    """Counts attempted and failed operations; an operation whose outputs are
    byte-identical to an already checked one shares that one's verdict."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first: dict = {}  # op label -> (digests, failure messages)

    def record(self, op: Op, op_dir: Path, result: dict, digests: dict) -> None:
        self.attempted += 1
        fresh = True
        if result["rc"] != 0:
            fails = [f"exit code {result['rc']}"]
        elif op.label not in self.first:
            try:
                fails = self.wl.check(op, op_dir / "out", (op_dir / "stdout.txt").read_text())
            except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                fails = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            self.first[op.label] = (digests, fails)
            print(f"digest {self.wl.name} {op.label} " + " ".join(f"{k}={v}" for k, v in digests.items()))
        elif digests != self.first[op.label][0]:
            fails = [f"outputs differ from the first round: {digests}"]
        else:
            fails, fresh = self.first[op.label][1], False
        if fresh:
            for msg in fails or ["passed"]:
                print(f"check {self.wl.name} {op.label}: {msg}")
        if fails:
            self.failed += 1
            if not (op.known_fault and all(m.startswith(op.known_fault) for m in fails)):
                self.correct = False

    def same_outputs(self, op: Op, digests: dict, how: str) -> None:
        if digests != self.first.get(op.label, (digests,))[0]:
            self.correct = False
            print(f"check failed {self.wl.name} {op.label}: outputs under {how} differ from the untraced run")


def _median(values: list) -> float:
    return float(statistics.median(values))


def _layer(layers: dict, name: str, key: str) -> float:
    return layers.get(name, {}).get(key, 0)


def layer_metrics(wl: Workload, ops: list, untraced: list, spans: list, hot: list) -> dict:
    """Per-layer numbers of one round, from its three passes over the same operations."""
    layers: dict = {}
    for summary in [s["trace"] for s in spans] + [h["trace"] for h in hot]:
        for name, entry in summary["layers"].items():
            acc = layers.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    simulated = sum(s["trace"]["slots_simulated"] for s in spans)
    requested = sum(op.work for op in ops) if wl.simulates else 0
    roc = [n for n in layers if n in ("phy.pmd_for_target_pfa", "phy.pfa_for_target_pmd", "phy.roc_from_threshold")]
    roc_calls = sum(_layer(layers, n, "calls") for n in roc)
    run_s = sum(r["run_scaled_s"] for r in untraced)
    overhead = sum(s["run_scaled_s"] for s in spans) - run_s
    return {
        "sim.run.s": _layer(layers, "sim.run", "s"),
        "sim.run.calls": _layer(layers, "sim.run", "calls"),
        "sim.run.slots": simulated,
        "sim.run.ns_per_slot": 1e9 * _layer(layers, "sim.run", "s") / simulated if simulated else 0.0,
        "sim.slot_yield": requested / simulated if simulated else 0.0,
        "sim.measure_stability.self_s": _layer(layers, "sim.measure_stability", "self_s"),
        "sim.write_trace_csv.s": _layer(layers, "sim.write_trace_csv", "s"),
        "sim.write_trace_csv.mb": sum(s["trace"]["trace_csv_bytes"] for s in spans) / 2**20,
        "estimator.learning_then_regular.s": _layer(layers, "estimator.learning_then_regular", "s"),
        "estimator.learning_then_regular.self_s": _layer(layers, "estimator.learning_then_regular", "minus_run_s"),
        "schemes.service_rates.calls": _layer(layers, "schemes.service_rates", "calls"),
        "schemes.service_rates.s": _layer(layers, "schemes.service_rates", "s"),
        "optimizer.trace_region.s": _layer(layers, "optimizer.trace_region", "s"),
        "optimizer.optimize_s2.calls": _layer(layers, "optimizer.optimize_s2", "calls"),
        "optimizer.optimize_s2.s": _layer(layers, "optimizer.optimize_s2", "s"),
        "optimizer.optimize_s1.s": _layer(layers, "optimizer.optimize_s1", "s"),
        "optimizer.optimize_sc.s": _layer(layers, "optimizer.optimize_sc", "s"),
        "optimizer.optimize_s0.s": _layer(layers, "optimizer.optimize_s0", "s"),
        "optimizer.optimal_as_s2_given.calls": _layer(layers, "optimizer.optimal_as_s2_given", "calls"),
        "optimizer.optimal_as_s2_given.s": _layer(layers, "optimizer.optimal_as_s2_given", "s"),
        "optimizer.operating_points.calls": _layer(layers, "optimizer.operating_points", "calls"),
        "optimizer.operating_points.s": _layer(layers, "optimizer.operating_points", "s"),
        "phy.roc.calls": roc_calls,
        "phy.roc.s": sum(_layer(layers, n, "s") for n in roc),
        "phy.roc_yield": sum(s["trace"]["roc_distinct"] for s in spans) / roc_calls if roc_calls else 0.0,
        "mathcore.q_inv.calls": _layer(layers, "mathcore.q_inv", "calls"),
        "mathcore.q_inv.s": _layer(layers, "mathcore.q_inv", "s"),
        "mathcore.q_func.calls": _layer(layers, "mathcore.q_func", "calls"),
        "mathcore.solve_fractional.calls": _layer(layers, "mathcore.solve_fractional", "calls"),
        "mathcore.solve_fractional.s": _layer(layers, "mathcore.solve_fractional", "s"),
        "cli.load_config.s": _layer(layers, "cli.load_config", "s"),
        "cli.self_s": sum(e["self_s"] for n, e in layers.items() if n.startswith("cli.cmd_")),
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / run_s,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    runner = Runner()
    ops = wl.ops(seed)
    base = WORK / wl.name
    shutil.rmtree(base, ignore_errors=True)
    op_dirs = []
    for i, op in enumerate(ops):
        op_dir = base / f"op{i}"
        op_dir.mkdir(parents=True)
        (op_dir / "config.json").write_text(json.dumps(op.doc, indent=2, sort_keys=True))
        op_dirs.append(op_dir)

    setups = [runner.child(base) for _ in range(SETUP_PROBES)]
    verdicts = Verdicts(wl)
    rounds: list = []
    loop_start = time.perf_counter()
    last_round = 0.0
    while not rounds or (time.perf_counter() - loop_start < seconds
                         and runner.elapsed() + last_round < DEADLINE_S - 10.0):
        round_start = time.perf_counter()
        untraced, spans, hot = [], [], []
        for op, op_dir in zip(ops, op_dirs):
            result, digests = run_op(runner, op, op_dir)
            verdicts.record(op, op_dir, result, digests)
            setups.append(result)
            untraced.append(result)
            if trace:
                for how, into in (("spans", spans), ("hot", hot)):
                    traced, traced_digests = run_op(runner, op, op_dir, how)
                    verdicts.same_outputs(op, traced_digests, f"{how} tracing")
                    into.append(traced)
        rounds.append((untraced, spans, hot))
        last_round = time.perf_counter() - round_start
    shutil.rmtree(base, ignore_errors=True)

    if trace:
        per_round = [layer_metrics(wl, ops, u, s, h) for u, s, h in rounds]
        metrics = {m["name"]: {"value": _median([r[m["name"]] for r in per_round]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        run_s = [sum(r["run_scaled_s"] for r in u) for u, _, _ in rounds]
        work = sum(op.work for op in ops)
        values = {
            "setup_s": _median([r["setup_s"] for r in setups]),
            "run_s": _median(run_s),
            "peak_rss_mb": _median([max(r["peak_rss_mb"] for r in u) for u, _, _ in rounds]),
            "work_per_s": _median([work / t for t in run_s]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        wall = [sum(r["run_s"] for r in u) for u, _, _ in rounds]
        print(f"  run_s per round, scaled: {' '.join(f'{t:.3f}' for t in run_s)}")
        print(f"  run_s per round, wall:   {' '.join(f'{t:.3f}' for t in wall)}")
        print(f"  unscaled medians: setup_s {_median([r['import_s'] for r in setups]):.4f} s, "
              f"run_s {_median(wall):.4f} s; probe median "
              f"{_median([p for r in setups for p in r['probe_s']]):.4f} s")

    print(f"workload {wl.name}: seed {seed}, {len(rounds)} rounds of {len(ops)} operations "
          f"({sum(op.work for op in ops)} {wl.unit} per round), {len(setups)} import samples")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {verdicts.attempted}, failed {verdicts.failed}, correct {verdicts.correct}")
    return {"correct": verdicts.correct, "attempted": verdicts.attempted, "failed": verdicts.failed,
            "metrics": metrics}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cogaccess" / "cli.py").is_file():
        print(f"no cogaccess source tree at {SRC}: run from the root of a cogaccess checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), spec) for n in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
