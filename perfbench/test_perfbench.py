"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import speedclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

S3_FACTS = {
    "order": 6, "closed_count": 6, "normal_count": 3, "quotient_index_ok": True,
    "lower_central_sizes": [6, 3], "nilpotent": False, "nilpotency_class": None,
    "hypercenter_size": 1, "thin_residue_size": 1, "solvable": True,
    "solvable_orders": [2, 3], "valency": 6,
    "sylow": {"2": [3, [2]], "3": [1, [3]]}, "sylow_closed": True,
}
S3_REPORT_FACTS = {
    **{k: v for k, v in S3_FACTS.items() if k not in ("normal_count", "quotient_index_ok")},
    "thin": True, "center_size": 1, "rt": True,
}


def _outputs(workload, cases, tracer=None):
    hg, parsed, _ = run.set_up([text for _, _, text in cases], tracer)
    return workload.run(hg, parsed)


def _tables(cases):
    return {name: table for name, table, _ in cases}


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4", "c2xc2xc2", "c12"])
def test_relabeling_keeps_table_valid_and_invariants(name):
    hg = run.fresh_import()
    plain = inputs.GROUPS[name]()
    _, base = hg.fileformat.parse(inputs.to_text(name, plain))

    def invariants(h):
        rt = hg.series.rt_analysis(h)
        return (h.order, h.is_thin(), len(hg.closed.all_closed_subsets(h)),
                hg.series.is_nilpotent(h), hg.series.is_solvable(h)[0], rt.valency,
                {p: len(cs) for p, cs in rt.sylow.items()})

    tables = set()
    for seed in (0, 1, 2):
        [(_, _, text)] = inputs.make_inputs([name], seed)
        _, h = hg.fileformat.parse(text)  # validates the axioms
        assert invariants(h) == invariants(base)
        tables.add(h.table)
    assert tables != {base.table}


@pytest.mark.parametrize("name, groups", [
    ("analyze-a5", ("s3", "a4")),
    ("structure-elementary", ("s3", "c2xc2xc2")),
    ("verify-corpus", None),
])
def test_traced_and_untraced_outputs_are_identical(name, groups):
    workload = workloads.WORKLOADS[name]
    cases = inputs.make_inputs(groups or workload.groups, seed=7)
    tracer = tracing.Tracer()
    assert _outputs(workload, cases) == _outputs(workload, cases, tracer)
    assert tracer.names and tracer.counts["core.set_product_calls"] > 0


def test_checks_pass_on_small_inputs_and_catch_a_corrupted_value():
    expected = workloads.load_expected()
    expected["structure-elementary"] = {"s3": S3_FACTS}
    expected["analyze-a5"] = {"s3": S3_REPORT_FACTS}
    cases = inputs.make_inputs(["s3"], seed=3)
    for name in ("structure-elementary", "analyze-a5"):
        workload = workloads.WORKLOADS[name]
        outputs = _outputs(workload, cases)
        assert workload.check(outputs, _tables(cases), expected)[:2] == (1, 0)
        bad = copy.deepcopy(expected)
        bad[name]["s3"]["closed_count"] = 5
        assert workload.check(outputs, _tables(cases), bad)[:2] == (1, 1)
        assert workload.check([], _tables(cases), expected)[:2] == (1, 1)


@pytest.mark.parametrize("corrupt", [
    lambda e: e["verify-corpus"]["enumeration"]["3"].update(survivors=14),
    lambda e: e["verify-corpus"]["enumerated_tallies"]["thm-ct"].update(holds=406),
    lambda e: e["verify-corpus"]["groups_nilpotent"].update(q8=False),
])
def test_corrupted_expected_value_drives_failed_frac_above_zero(corrupt):
    workload = workloads.WORKLOADS["verify-corpus"]
    cases = inputs.make_inputs(workload.groups, seed=5)
    expected = workloads.load_expected()
    attempted, failed = run.run_pass(workload, cases, expected)[2:]
    assert (attempted, failed) == (461, 0)
    corrupt(expected)
    attempted, failed = run.run_pass(workload, cases, expected)[2:]
    assert 0 < failed / attempted


def test_speed_clock_times_the_work_and_leaves_out_the_probes():
    def timed(reps):
        clock = speedclock.SpeedClock()
        with clock:
            speedclock.probe_work(reps)
        return clock

    before = signal.getsignal(signal.SIGALRM)
    one, two = timed(4000), timed(8000)
    assert one.probes > 0 and two.probes > one.probes
    assert 1.5 < two.seconds / one.seconds < 2.7
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace_flag, want in (("0", run.END_TO_END), ("1", tracing.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "verify-corpus",
             "--seed", "1", "--seconds", "0.1", "--trace", trace_flag],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == want
