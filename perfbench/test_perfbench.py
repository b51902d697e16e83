"""Tests of the benchmark's own checks and output format.

    python3 -m pytest -q perfbench

Every corrupted output must count as a failed operation, and every metric
the benchmark promises must be printed with its unit.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from ccdp.errors import InvalidM  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

META = "# tool_version: 0.1.0\n# config_hash: 0123456789abcdef\n"


def _sweep_csv(rows=227_500):
    body = "2,10.0,2.0,0.0,appendix-loosened,1.0,2.0,1.0,middle,middle\n"
    return META + checks.CSV_HEADER + "\n" + body * rows


def _certify_json(certified=True, gap=2.25, rows=17_500):
    return json.dumps({"config": {}, "results": {"rows": rows},
                       "maxGap": gap, "certified": certified, "warnings": []})


def _simulate_json(label, offset):
    closed = checks.MC_CLOSED_FORMS[label]
    return json.dumps({"config": {}, "results": {
        "value": closed + offset, "stderr": 0.001, "samples": 10**6,
        "closed_form": closed, "z_score": offset / 0.001}})


def _fake_main(monkeypatch, text, code=0):
    def main(argv):
        with open(argv[argv.index("--out") + 1], "w", encoding="utf-8") as fh:
            fh.write(text)
        return code

    monkeypatch.setattr(workloads.cli, "main", main)


def test_truncated_sweep_csv_fails(monkeypatch, tmp_path):
    wl = workloads.GridCommands(0, str(tmp_path))
    _fake_main(monkeypatch, _sweep_csv())
    wl.run_command("sweep")
    assert (wl.tally.attempted, wl.tally.failed) == (1, 0)
    text = _sweep_csv()
    _fake_main(monkeypatch, text[:len(text) // 2])
    wl.run_command("sweep")
    assert (wl.tally.attempted, wl.tally.failed) == (2, 1)


def test_sweeps_of_one_run_must_be_identical(monkeypatch, tmp_path):
    wl = workloads.GridCommands(0, str(tmp_path))
    _fake_main(monkeypatch, _sweep_csv())
    wl.run_command("sweep")
    _fake_main(monkeypatch, _sweep_csv().replace("1.0,2.0,1.0", "1.0,2.0,1.5", 1))
    wl.run_command("sweep")
    assert wl.tally.failed == 1
    assert "differs" in wl.tally.problems[0]


def test_uncertified_json_fails(monkeypatch, tmp_path):
    wl = workloads.GridCommands(0, str(tmp_path))
    _fake_main(monkeypatch, _certify_json())
    wl.run_command("Th4")
    assert wl.tally.failed == 0
    _fake_main(monkeypatch, _certify_json(certified=False), code=1)
    wl.run_command("Th4")
    _fake_main(monkeypatch, _certify_json(certified=False))
    wl.run_command("Th4")
    assert (wl.tally.attempted, wl.tally.failed) == (3, 2)


def test_th3_gap_must_be_exactly_one():
    assert checks.check_certify_json(_certify_json(gap=1.0, rows=2_500),
                                     "Th3", 2_500, 0) is None
    assert checks.check_certify_json(_certify_json(gap=0.99, rows=2_500),
                                     "Th3", 2_500, 0) is not None


def test_audit_violation_fails():
    header = META + checks.AUDIT_HEADER + "\n"
    assert checks.check_audit_csv(header, 0) is None
    assert checks.check_audit_csv(header + "inner-es,3,10.0,0.0,2.0,3.0,0.1\n",
                                  0) is not None


def test_mc_estimate_off_by_005_fails(monkeypatch, tmp_path):
    wl = workloads.McVerify(0, str(tmp_path))
    _fake_main(monkeypatch, _simulate_json("gp-ab=0.3", 0.001))
    wl.run_command("gp-ab=0.3")
    assert wl.tally.failed == 0
    _fake_main(monkeypatch, _simulate_json("gp-ab=0.3", 0.05))
    wl.run_command("gp-ab=0.3")
    assert (wl.tally.attempted, wl.tally.failed) == (2, 1)


def test_decomposition_error_fails():
    ok = json.dumps({"results": {"max_abs_covariance_error": 0.004}})
    bad = json.dumps({"results": {"max_abs_covariance_error": 0.02}})
    assert checks.check_simulate_json(ok, "decomp-M2", "decomposition", 0) \
        == (None, None)
    assert checks.check_simulate_json(bad, "decomp-M2", "decomposition", 0)[0]


def test_point_that_fails_to_raise_fails():
    good = (3, 10.0, 2.0, 0.5, False, None)
    raises = (1, 10.0, 2.0, 0.0, False, InvalidM)
    silent = (3, 10.0, 2.0, 0.5, False, InvalidM)   # valid, so nothing raises
    wl = workloads.PointQueries(0, points=[good, raises, silent])
    assert len(wl.answer(wl.points)) == 3
    assert (wl.tally.attempted, wl.tally.failed) == (3, 1)
    assert "nothing raised" in wl.tally.problems[0]


def test_generated_points_are_seeded_and_valid():
    a, b = workloads.make_points(7, 2_000), workloads.make_points(7, 2_000)
    assert a == b
    assert sum(p[5] is not None for p in a) == 100
    wl = workloads.PointQueries(7, points=a)
    wl.answer(a)
    assert wl.tally.failed == 0


def _metric_table(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


# Every metric the benchmark is defined to report, with its unit.
REQUIRED_END_TO_END = {"setup_s": "s", "throughput_per_s": "units/s",
                    "call_us_p50": "us", "call_us_p99": "us",
                    "peak_rss_mib": "MiB"}
REQUIRED_PER_LAYER = (
    "model.params.calls", "model.params.self_s", "model.draw.rows",
    "model.draw.bytes", "model.draw.s", "bounds.calls", "bounds.self_s",
    "bounds.ns_per_call", "bounds.branch.low", "bounds.branch.middle",
    "bounds.branch.high", "bounds.branch.time_sharing", "gaps.rows",
    "gaps.evaluate.self_s", "gaps.finalize.s", "gaps.audit.points",
    "gaps.audit.self_s", "gaps.serialize.bytes", "gaps.serialize.s",
    "mc.moment.calls", "mc.moment.hit_ratio", "mc.moment.self_s",
    "mc.mi.calls", "mc.mi.s", "mc.decomposition.self_s", "cli.self_s",
    "cli.write.bytes", "trace.overhead_s", "bench.other_s")


def test_pace_rescales_by_the_probes_around_an_operation():
    pace = workloads.Pace(workloads.numeric_kernel)
    nominal = pace.nominal_s
    pace.times[:] = workloads.array("d", [2 * nominal] * 8)
    before = pace.mark()
    inside = [2 * nominal, 500 * nominal]  # the host stalled the second
    pace.times.extend(inside)
    pace.spent += sum(inside)
    after = pace.mark()
    pace.times.extend([2 * nominal] * 8)
    elapsed = 1.0 + sum(inside)
    # The probes inside are taken off, and the stalled one does not move
    # the median pace: twice the nominal time.
    assert pace.scale(elapsed, before, after) == pytest.approx(0.5)


def test_benchmark_json_names_every_metric():
    assert _metric_table("end_to_end") == REQUIRED_END_TO_END
    assert set(REQUIRED_PER_LAYER) <= set(_metric_table("per_layer"))
    tracer = Tracer(workloads.MODULES)
    with tracer:
        pass
    assert set(tracer.metrics(1.0, 1.0, [])) == set(_metric_table("per_layer"))


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "point-queries", "--seed", "3", "--seconds", "1", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == _metric_table(kind)
