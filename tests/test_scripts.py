"""The scripts under scripts/, run in process.

Each analysis script runs end to end at small sizes (its numbers are not
checked), and the pure helpers of bench_pairs.py are fed canned runs.
"""

import json
import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["class_stats_report.py", "--year", "2008"],
    ["equilibrium_ks.py", "--n-paths", "2000", "--n-steps", "200", "--dt", "2e-3"],
    ["equilibrium_ks.py", "--n-paths", "2000", "--n-steps", "200", "--dt", "2e-3", "--float64"],
    ["synthetic_pipeline.py", "--n", "20000", "--out-dir", "{tmp_path}"],
], ids=["class_stats_report", "equilibrium_ks-float32", "equilibrium_ks-float64", "synthetic_pipeline"])
def test_script_runs_end_to_end(argv, tmp_path, monkeypatch, capsys):
    path = str(SCRIPTS / argv[0])
    monkeypatch.setattr(sys, "argv", [path] + [a.format(tmp_path=tmp_path) for a in argv[1:]])
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out


# ---------------------------------------------------------------- bench_pairs


@pytest.fixture(scope="module")
def bench_pairs():
    return runpy.run_path(str(SCRIPTS / "bench_pairs.py"))


def test_summary_and_seed_range(bench_pairs):
    summary, seed_range = bench_pairs["summary"], bench_pairs["seed_range"]
    # statistics.quantiles' exclusive method: q1 and q3 at ranks 1.5 and 4.5 of 5
    assert summary([3.0, 1.0, 2.0, 5.0, 4.0]) == {"median": 3.0, "q1": 1.5, "q3": 4.5,
                                                  "runs": [3.0, 1.0, 2.0, 5.0, 4.0]}
    assert summary([0.12344, 0.12346, 1.0])["runs"] == [0.1234, 0.1235, 1.0]
    assert seed_range("2901-2910") == list(range(2901, 2911))
    assert seed_range("7") == [7]


def _run(values, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "attempted": 10,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def test_compare_counts_pair_wins_and_no_ties(bench_pairs):
    metrics = [{"name": "round_s", "better": "lower"}, {"name": "rate", "better": "higher"}]
    results = {
        "parent": [_run({"round_s": 1.0, "rate": 5.0}) for _ in range(3)],
        # pair 1 better in both, pair 2 a tie in both, pair 3 worse in both
        "change": [_run({"round_s": 0.5, "rate": 6.0}), _run({"round_s": 1.0, "rate": 5.0}),
                   _run({"round_s": 2.0, "rate": 4.0}, correct=False, failed=3)],
    }
    entry = bench_pairs["compare"](results, metrics, [11, 12, 13])
    assert entry["seeds"] == "11-13" and entry["pairs"] == 3
    assert entry["all_correct"] is False
    assert entry["failed_ops"] == {"parent": 0, "change": 3}
    assert entry["attempted_ops"] == {"parent": 30, "change": 30}
    assert entry["round_s"]["after_lower_in_pairs"] == 1
    assert entry["rate"]["after_higher_in_pairs"] == 1
    assert entry["round_s"]["change_pct"] == 0.0
    assert entry["round_s"]["after"]["runs"] == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("better, wins, after_median, holds", [
    ("lower", 9, 0.625, True),
    ("lower", 8, 0.625, False),  # 8 of 10 pairs
    ("lower", 10, 0.75, False),  # medians 0.25 apart: not more than the spread
    ("higher", 9, 1.375, True),
    ("higher", 8, 1.375, False),
    ("higher", 10, 1.25, False),
    ("higher", 10, 0.625, False),  # lower is worse for this metric
])
def test_claim_holds_at_nine_of_ten_pairs_and_medians_past_the_spread(bench_pairs, better, wins,
                                                                       after_median, holds):
    # the parent's median 1.0 and quartile spread 0.25 (binary fractions: no rounding)
    entry = {"pairs": 10, "m": {"before": {"median": 1.0, "q1": 0.875, "q3": 1.125},
                                "after": {"median": after_median},
                                f"after_{better}_in_pairs": wins}}
    claim = bench_pairs["claim_holds"](entry, {"name": "m", "better": better})
    gain = 1.0 - after_median if better == "lower" else after_median - 1.0
    assert claim == {"pairs_better": wins, "pairs": 10, "median_gain": gain,
                     "parent_quartile_spread": 0.25, "holds": holds}


@pytest.mark.parametrize("code, stdout, failed", [
    (0, 'log line\n{"metrics": {"round_s": {"value": 1.0}}, "correct": true}\n', False),
    (1, '{"metrics": {}}\n', True),  # the exit code decides, whatever was printed
    (0, 'log line\n{"metrics": {"round_s"\n', True),  # cut off mid-object
    (0, "", True),
    (0, "[1, 2]\n", True),  # JSON, but no object with metrics
    (0, '{"metrics": 3}\n', True),
])
def test_parse_run_keeps_a_failed_run_with_its_exit_code_and_stderr_tail(bench_pairs, code, stdout, failed):
    stderr = "x" * 5000 + "Traceback: the end"
    run = bench_pairs["parse_run"](code, stdout, stderr)
    if failed:
        assert run == {"error": {"exit_code": code, "stderr_tail": stderr[-bench_pairs["STDERR_TAIL"]:]}}
        assert run["error"]["stderr_tail"].endswith("Traceback: the end")
    else:
        assert run["metrics"]["round_s"]["value"] == 1.0


def test_run_once_records_a_run_that_exits_non_zero(bench_pairs, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit('no such workload')\n")
    run = bench_pairs["run_once"](str(tmp_path), "w", 1, 0.1)
    assert run == {"error": {"exit_code": 1, "stderr_tail": "no such workload\n"}}


def test_compare_counts_a_failed_run_in_no_statistic_and_its_pair_as_no_win(bench_pairs):
    metrics = [{"name": "round_s", "better": "lower"}]
    failed = {"error": {"exit_code": 1, "stderr_tail": "boom"}}
    results = {"parent": [_run({"round_s": 1.0}), _run({"round_s": 1.0}), _run({"round_s": 2.0})],
               "change": [_run({"round_s": 0.5}), failed, _run({"round_s": 0.5})]}
    entry = bench_pairs["compare"](results, metrics, [11, 12, 13])
    assert entry["pairs"] == 3 and entry["all_correct"] is False
    assert entry["failed_runs"] == {"parent": [], "change": [{"seed": 12, "exit_code": 1, "stderr_tail": "boom"}]}
    assert entry["attempted_ops"] == {"parent": 30, "change": 20}
    assert entry["round_s"]["after"]["runs"] == [0.5, 0.5]
    assert entry["round_s"]["before"]["runs"] == [1.0, 1.0, 2.0]
    assert entry["round_s"]["after_lower_in_pairs"] == 2
    assert entry["round_s"]["change_pct"] == -50.0


def test_claim_does_not_hold_when_too_few_runs_finished(bench_pairs):
    failed = {"error": {"exit_code": 1, "stderr_tail": ""}}
    results = {"parent": [_run({"m": 1.0}), failed], "change": [_run({"m": 0.5}), _run({"m": 0.5})]}
    metric = {"name": "m", "better": "lower"}
    entry = bench_pairs["compare"](results, [metric], [1, 2])
    assert entry["m"]["before"] == {"median": 1.0, "q1": None, "q3": None, "runs": [1.0]}
    assert bench_pairs["claim_holds"](entry, metric)["holds"] is False


_LOWER = {"name": "m", "better": "lower", "bound": 0.25}
_HIGHER = {"name": "m", "better": "higher", "bound": 0.25}


@pytest.mark.parametrize("metric, before, after, want", [
    # the parent's median 1.0 and quartile spread 0 (binary fractions: no rounding)
    (_LOWER, [1.0] * 5, [1.5] * 5, "worse"),
    (_LOWER, [1.0] * 5, [1.25] * 5, "within"),  # worse by the bound exactly
    (_LOWER, [1.0] * 5, [0.75] * 5, "better"),
    (_HIGHER, [1.0] * 5, [0.5] * 5, "worse"),
    (_HIGHER, [1.0] * 5, [1.5] * 5, "better"),
    (_LOWER, [1.0] * 5, [1.0] * 5, "within"),
    # quartiles 0.75 and 1.25: a spread of 0.5, past the bound of 0.25
    (_LOWER, [0.5, 1.0, 1.0, 1.0, 1.5], [0.875, 1.0, 1.125, 1.0, 1.0], "unresolved"),
    (_LOWER, [0.5, 1.0, 1.0, 1.0, 1.5], [1.5] * 5, "worse"),
    (_LOWER, [0.5, 1.0, 1.0, 1.0, 1.5], [0.375] * 5, "better"),  # every change run beats every parent run
    (_LOWER, [0.75, 1.0, 1.0, 1.0, 1.5], [0.625, 0.5, 0.625, 0.625, 0.625], "within"),  # a gain of 0.375, not past the spread
    (_LOWER, [1.0], [0.5, 0.5], "unresolved"),  # no spread from one run
    (_LOWER, [1.0, 1.0], [], "unresolved"),
    ({"name": "m", "better": "lower"}, [1.0] * 5, [9.0] * 5, None),  # no bound, no verdict
])
def test_verdict_at_the_bound_and_the_parent_spread(bench_pairs, metric, before, after, want):
    assert bench_pairs["verdict"](before, after, metric) == want


def test_compare_states_a_verdict_for_every_benchmark_metric(bench_pairs):
    metrics = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    parent = {m["name"]: 1.0 for m in metrics}
    results = {"parent": [_run(parent) for _ in range(4)],
               "change": [_run({name: 4.0 for name in parent}) for _ in range(4)]}
    entry = bench_pairs["compare"](results, metrics, [1, 2, 3, 4])
    for m in metrics:
        assert m["bound"] > 0.0
        assert entry[m["name"]]["verdict"] == ("worse" if m["better"] == "lower" else "better")


def test_compare_reports_each_sides_failed_share_and_whether_it_rose(bench_pairs):
    metric = {"name": "m", "better": "lower", "bound": 0.25}
    failed = {"error": {"exit_code": 1, "stderr_tail": ""}}
    results = {"parent": [_run({"m": 1.0}, failed=1), _run({"m": 1.0}), _run({"m": 1.0})],
               "change": [_run({"m": 1.0}, failed=2), _run({"m": 1.0}), failed]}
    entry = bench_pairs["compare"](results, [metric], [1, 2, 3])
    assert entry["failed_share"] == {"parent": 1 / 30, "change": 2 / 20}
    assert entry["failed_share_rose"] is True
    results["change"] = [_run({"m": 1.0}) for _ in range(3)]
    entry = bench_pairs["compare"](results, [metric], [1, 2, 3])
    assert entry["failed_share"] == {"parent": 1 / 30, "change": 0.0}
    assert entry["failed_share_rose"] is False
    results["change"] = [failed] * 3  # no operation finished: no share to compare
    entry = bench_pairs["compare"](results, [metric], [1, 2, 3])
    assert entry["failed_share"]["change"] is None and entry["failed_share_rose"] is None
