"""Run the benchmark twice and report whether the two sets of runs agree.

    python3 perfbench/steady.py [--workload NAME ...]

Run from the root of a cogaccess source tree.  For each workload of
BENCHMARK.json (or each --workload given), each of the two sets runs the
benchmark command once per seed 1-10, one run at a time, with the run
length from BENCHMARK.json.  For every end-to-end metric a set gives the
median and the spread: the distance between the first and third quartiles
as a share of the median.  A set is steady when every spread is within the
metric's bound; the two sets agree when their medians differ by no more
than the bound, as a share of the first set's median, and every run has
the same share of failed operations.  Exits 0 when every workload is
steady in both sets and the sets agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_set(command: list, workload: str, seconds: int) -> dict:
    values: dict = {}
    shares = set()
    correct = True
    for seed in SEEDS:
        proc = subprocess.run(
            [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        shares.add(Fraction(result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {"values": values, "shares": shares, "correct": correct}


def spread(values: list) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = [run_set(spec["command"], workload, spec["run_seconds"]) for _ in range(SETS)]
        shares = set().union(*(s["shares"] for s in sets))
        correct = all(s["correct"] for s in sets)
        print(f"{workload}: failed share {sorted(str(x) for x in shares)}"
              f"{'' if len(shares) == 1 else ' DIFFERS'}, correct {correct}")
        ok &= len(shares) == 1 and correct
        for m in spec["end_to_end"]:
            bound = m["bound"]
            cols = [spread(s["values"][m["name"]]) for s in sets]
            first = cols[0][0]
            shift = [(med - first) / first for med, _ in cols[1:]]
            good = all(sp <= bound for _, sp in cols) and all(abs(d) <= bound for d in shift)
            ok &= good
            print(f"  {m['name']:12s} bound {bound:.2f}  "
                  + "  ".join(f"median {med:.6g} spread {sp:.3f}" for med, sp in cols)
                  + f"  shift {', '.join(f'{d:+.3f}' for d in shift)}"
                  + f"  spread<=bound/3 {all(sp <= bound / 3 for _, sp in cols)}"
                  + ("" if good else "  FAIL"))
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
