"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py --src SRC --result FILE [--trace none|spans|hot]
                               [--stdout FILE] [-- CLI ARGS...]

Times `import cogaccess.cli`, then (when CLI arguments follow `--`) one
`cogaccess.cli.main` call with its standard output captured to --stdout.
A host-speed probe runs after the import and again after the call.
Writes the timings, the probe times, the exit code, the peak resident
memory and, under tracing, the per-function summary to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path


PROBE_STEPS = 20_000
SQRT2 = math.sqrt(2.0)


def probe_s() -> float:
    """Time of a fixed pure-Python computation: how fast this core runs now.

    It is the kind of work the program's scalar loops do (a Q-function
    bisection) and takes about 0.1 s on an idle core.  The host is shared,
    and the speed of a core drifts by tens of percent over seconds; a probe
    in the same process, right next to the timed call, follows that drift.
    """
    start = time.perf_counter()
    acc = 0.0
    for k in range(PROBE_STEPS):
        p, lo, hi = 0.2 + 1e-6 * k, -10.0, 10.0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(mid / SQRT2) > p:
                lo = mid
            else:
                hi = mid
        acc += lo
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this program image.

    VmHWM is reset by exec; ru_maxrss is not, and would report the parent's
    size at fork when that is larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    argv = sys.argv[1:]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else None
    own = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--stdout")
    parser.add_argument("--trace", choices=["none", "spans", "hot"], default="none")
    args = parser.parse_args(own)

    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    start = time.perf_counter()
    import cogaccess.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cogaccess was imported from {cli.__file__}, not from {src}")

    result: dict = {"import_s": import_s, "probe_s": [probe_s()]}
    if cli_args is not None:
        tracer = None
        if args.trace != "none":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import HotCounter, SpanTracer

            tracer = SpanTracer() if args.trace == "spans" else HotCounter()
            tracer.install()
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = cli.main(cli_args)
        result["run_s"] = time.perf_counter() - start
        result["rc"] = rc
        result["probe_s"].append(probe_s())
        Path(args.stdout).write_text(captured.getvalue())
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["peak_rss_mb"] = peak_rss_mb()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
