"""Benchmark of hyperalg: one workload, seeded inputs, checked outputs, JSON metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-a5 --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py.  A pass re-imports hyperalg from
./src and parses the generated inputs (the set-up), then runs the workload
(the wall time) and checks its outputs.  Re-importing makes every pass start
cold, as one CLI invocation does, even if the package keeps module-level
caches.  Passes repeat while the next one is expected to end within
--seconds; the last line of stdout is a JSON object with medians over passes.

With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb; the two
times are read from speedclock.SpeedClock, in seconds at a fixed reference
speed of the machine, because the shared host's own speed drifts.  With
--trace 1 untraced and traced passes alternate; the metrics are the
per-layer ones of tracing.py, medians over the traced passes, and
trace.overhead_s, the median traced minus the median untraced wall time.
The spans of the first traced pass go to perfbench/out/.
One process, one thread; enumeration runs with one worker.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speedclock import SpeedClock, WallClock  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
MIN_SETUPS = 5  # set-ups timed per run, passes included
# The modules the workloads call; the package may load more.
MODULES = ("core", "fileformat", "closed", "quotient", "series", "enumeration",
           "harness", "report")


def fresh_import() -> SimpleNamespace:
    """Drop every hyperalg module, import the package again, return its modules."""
    for name in [m for m in sys.modules if m == "hyperalg" or m.startswith("hyperalg.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(f"hyperalg.{name}")
    return SimpleNamespace(**{name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                              if name.startswith("hyperalg.")})


def set_up(texts, tracer=None, clock_type=WallClock):
    """Import and parse; returns (modules, [(name, hypergroup)], seconds)."""
    clock = clock_type()
    with clock:
        hg = fresh_import()
    if tracer is not None:
        tracer.install(hg)
    with clock:
        parsed = [hg.fileformat.parse(text) for text in texts]
    return hg, parsed, clock.seconds


def run_pass(workload, cases, expected, tracer=None, clock_type=WallClock):
    """One set-up plus one pass; returns (setup_s, wall_s, attempted, failed)."""
    tables = {name: table for name, table, _ in cases}
    hg, parsed, setup_s = set_up([text for _, _, text in cases], tracer, clock_type)
    clock = clock_type()
    try:
        with clock:
            outputs = workload.run(hg, parsed)
    except Exception:  # a crash fails every operation of the pass, and is shown
        traceback.print_exc()
        outputs = []
    wall_s = clock.seconds
    try:
        attempted, failed, errors = workload.check(outputs, tables, expected)
    except Exception:  # outputs of an unexpected shape fail every operation
        traceback.print_exc()
        attempted, failed, errors = workload.check([], tables, expected)
    for line in errors:
        print(f"mismatch: {line}", file=sys.stderr)
    return setup_s, wall_s, attempted, failed


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    expected = workloads.load_expected()
    cases = inputs.make_inputs(workload.groups, seed)
    texts = [text for _, _, text in cases]
    # Untraced runs read the speed clock; traced runs read wall time, so that
    # spans and trace.overhead_s compare like with like.
    clock_type = WallClock if traced else SpeedClock
    setups = []
    for _ in range(MIN_SETUPS - 1):
        setups.append(set_up(texts, clock_type=clock_type)[2])
        gc.collect()

    start = time.perf_counter()
    walls = {False: [], True: []}
    layers = []
    attempted = failed = 0
    longest = 0.0
    while True:
        this_traced = traced and len(walls[False]) > len(walls[True])
        tracer = tracing.Tracer() if this_traced else None
        t_pass = time.perf_counter()
        setup_s, wall_s, a, f = run_pass(workload, cases, expected, tracer, clock_type)
        attempted, failed = attempted + a, failed + f
        walls[this_traced].append(wall_s)
        if this_traced:
            layers.append(tracer.metrics())
            if len(layers) == 1:
                OUT.mkdir(exist_ok=True)
                tracer.write_spans(OUT / f"spans-{name}-seed{seed}.tsv")
        else:
            setups.append(setup_s)
        print(f"pass {len(walls[False]) + len(walls[True])}: traced={this_traced} "
              f"setup={setup_s:.4f}s wall={wall_s:.4f}s failed={f}/{a}", file=sys.stderr)
        del tracer
        gc.collect()
        longest = max(longest, time.perf_counter() - t_pass)
        enough = not traced or walls[True]
        if enough and time.perf_counter() - start + longest > seconds:
            break

    if traced:
        metrics = {m: statistics.median_low(run[m] for run in layers)
                   for m in tracing.PER_LAYER if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        units = tracing.PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperalg" / "__init__.py").is_file():
        print(f"error: no hyperalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HYPERALG_JOBS", None)  # enumeration in this process only
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
