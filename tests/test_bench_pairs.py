"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "command_s", "better": "lower", "bound": 0.25}, {"name": "rate", "better": "higher", "bound": 0.1}]


def result(command_s, rate, attempted=4, failed=0):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"command_s": {"value": command_s, "unit": "s"}, "rate": {"value": rate, "unit": "1/s"}},
    }


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_fixed_pairs():
    pairs = [
        (result(2.5, 10.0), result(2.2, 11.0)),
        (result(2.4, 10.0), result(2.4, 9.0, attempted=5, failed=1)),  # a tie is no win
        (result(2.6, 12.0), result(2.3, 12.5)),
        (result(2.3, 11.0, attempted=3), result(2.1, 10.0)),
    ]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["pairs"] == summary["complete_pairs"] == 4
    command = summary["metrics"]["command_s"]
    assert command["unit"] == "s" and command["better"] == "lower"
    assert command["base"] == pytest.approx({"q1": 2.375, "median": 2.45, "q3": 2.525})
    assert command["head"] == pytest.approx({"q1": 2.175, "median": 2.25, "q3": 2.325})
    assert command["head_wins"] == 3
    rate = summary["metrics"]["rate"]
    assert rate["base"] == pytest.approx({"q1": 10.0, "median": 10.5, "q3": 11.25})
    assert rate["head_wins"] == 2  # higher is better: 11 > 10 and 12.5 > 12
    assert summary["runs"] == {
        "base": {"failed_runs": 0, "attempted": 15, "failed": 0},
        "head": {"failed_runs": 0, "attempted": 17, "failed": 1},
    }
    text = bench_pairs.format_summary(summary)
    assert "command_s (s, lower is better): head better in 3 of 4 pairs" in text
    assert "  base: median 2.45, quartiles 2.375-2.525" in text
    assert "head: 1 of 17 commands failed, 0 runs failed" in text


def test_a_failed_run_leaves_its_pair_out_of_the_metrics():
    pairs = [(result(2.5, 10.0), None), (result(2.4, 10.0), result(2.2, 11.0)), (None, None)]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["complete_pairs"] == 1
    assert summary["metrics"]["command_s"]["base"] == {"q1": 2.4, "median": 2.4, "q3": 2.4}
    assert summary["metrics"]["command_s"]["head_wins"] == 1
    assert summary["runs"]["base"] == {"failed_runs": 1, "attempted": 8, "failed": 0}
    assert summary["runs"]["head"] == {"failed_runs": 2, "attempted": 4, "failed": 0}
    assert bench_pairs.summarize([(None, result(2.0, 1.0))], METRICS)["metrics"] == {}


def command_pairs(base, head):
    return [(result(b, 10.0), result(h, 10.0)) for b, h in zip(base, head)]


# (base command_s, head command_s, verdict) over ten pairs; the bound is 0.25
# of the base median.
VERDICT_CASES = {
    # 9 of 10 wins, and the medians 2.0 -> 1.8 differ by more than the base's
    # quartile spread, 1.9625-2.0375
    "gain": ([1.95, 1.95, 1.95, 2.0, 2.0, 2.0, 2.0, 2.05, 2.05, 2.05], [1.8] * 9 + [2.1], "gain"),
    # 8 of 10 wins is not enough, however far apart the medians
    "eight-wins": ([2.0] * 10, [1.5] * 8 + [2.1] * 2, "unchanged"),
    # 10 of 10 wins, but the medians 2.0 -> 1.94 differ by less than that spread
    "inside-spread": ([1.95, 1.95, 1.95, 2.0, 2.0, 2.0, 2.0, 2.05, 2.05, 2.05], [1.94] * 10, "unchanged"),
    # the head's median is 2.6 against 2.0: worse by 0.3 of the base median
    "worse": ([2.0] * 10, [2.6] * 10, "worse"),
    # the base's quartiles are 1.5-2.5 (0.5 of its median, above the
    # bound), and the head, 0.1 of that median worse, wins 4 of 10 pairs
    "unresolved": ([1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.5, 2.5, 2.5, 3.0], [2.2] * 10, "unresolved"),
    # the same spread, and the head reads better in every pair: not a gain
    # (its median is inside the spread), and not unresolved either
    "wide-but-always-better": ([1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.5, 2.5, 2.5, 3.0],
                               [0.9, 1.4, 1.4, 1.4, 1.9, 1.9, 2.4, 2.4, 2.4, 2.9], "unchanged"),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_verdicts_on_fixed_numbers(case):
    base, head, expected = VERDICT_CASES[case]
    summary = bench_pairs.summarize(command_pairs(base, head), METRICS)
    command = summary["metrics"]["command_s"]
    assert command["verdict"] == expected
    assert f"  verdict: {expected} (bound 0.25 of the base median)" in bench_pairs.format_summary(summary)
    # rate reads 10.0 on both sides in every pair: no spread, no change
    assert summary["metrics"]["rate"]["verdict"] == "unchanged"


def test_a_higher_is_better_metric_reads_its_direction():
    # rate 10 -> 12 in every pair is a gain, 10 -> 8.5 worse by 0.15 > 0.1
    gain = [(result(2.0, 10.0), result(2.0, 12.0))] * 10
    assert bench_pairs.summarize(gain, METRICS)["metrics"]["rate"]["verdict"] == "gain"
    worse = [(result(2.0, 10.0), result(2.0, 8.5))] * 10
    assert bench_pairs.summarize(worse, METRICS)["metrics"]["rate"]["verdict"] == "worse"
