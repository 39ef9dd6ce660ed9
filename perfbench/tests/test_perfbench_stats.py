"""Unit tests for the benchmark's own statistics (no program import)."""

import math
import statistics

import pytest

from perfbench import stats


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 25) == 2.0
    assert stats.percentile([1.0, 2.0], 75) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9),   # 10 beyond p99.9
    (9_999, 99.5),    # 9.999 beyond p99.9 is not enough
    (2_000, 99.5),
    (1_000, 99.0),
    (999, 98.0),
    (200, 95.0),
    (100, 90.0),
    (52, 80.0),
    (49, 75.0),
    (40, 75.0),
    (20, 50.0),
    (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND - 1e-9


def test_choose_tail_keeps_declared_percentile_when_supported():
    assert stats.choose_tail(1600, 99.0) == 99.0
    assert stats.choose_tail(52, 75.0) == 75.0


def test_choose_tail_falls_back_on_short_runs():
    # 30 samples leave 7.5 beyond p75: fall back to the highest supported
    assert stats.choose_tail(30, 75.0) == 50.0
    assert stats.choose_tail(500, 99.0) == 98.0
    assert stats.choose_tail(5, 99.0) == 50.0


def test_quartiles_and_spread_use_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 30.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([3.0, 3.0, 3.0]) == 0.0
    assert stats.spread([7.0]) == 0.0


@pytest.mark.parametrize("base, new, better, expected", [
    (100.0, 110.0, "lower", 0.10),     # slower latency: worse by 10%
    (100.0, 90.0, "lower", -0.10),     # faster: better
    (100.0, 90.0, "higher", 0.10),     # less throughput: worse by 10%
    (100.0, 125.0, "higher", -0.25),
])
def test_worse_by(base, new, better, expected):
    assert stats.worse_by(base, new, better) == pytest.approx(expected)


def test_within_bound_is_inclusive_and_direction_aware():
    assert stats.within_bound(100.0, 110.0, "lower", 0.10)
    assert not stats.within_bound(100.0, 110.1, "lower", 0.10)
    assert stats.within_bound(100.0, 50.0, "lower", 0.0)
    assert not stats.within_bound(100.0, 89.0, "higher", 0.10)
    assert stats.within_bound(100.0, 91.0, "higher", 0.10)
    with pytest.raises(ValueError):
        stats.worse_by(1.0, 2.0, "sideways")


def test_worse_by_zero_base():
    assert stats.worse_by(0.0, 0.0, "lower") == 0.0
    assert math.isinf(stats.worse_by(0.0, 1.0, "lower"))


def test_failed_share():
    assert stats.failed_share(1000, 0) == 0.0
    assert stats.failed_share(1000, 25) == 0.025
    assert stats.failed_share(4, 4) == 1.0
    assert stats.failed_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_share(3, 4)
    with pytest.raises(ValueError):
        stats.failed_share(-1, 0)


def test_steadiness_rows_flags_spread_against_bound():
    specs = [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "tail_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]
    runs = [{"p50_ms": 100.0 + i * 0.1, "tail_ms": 100.0 + i * 5.0} for i in range(10)]
    rows = {row["name"]: row for row in stats.steadiness_rows(runs, specs)}
    assert rows["p50_ms"]["steady"] and rows["p50_ms"]["ok"]
    assert rows["tail_ms"]["spread"] > 0.1 and not rows["tail_ms"]["ok"]
    assert rows["p50_ms"]["n"] == 10


def test_window_costs_per_event_over_whole_windows():
    # two threads' readings arrive out of order; the partial window drops
    marks = [4.0, 1.0, 3.0, 2.0, 6.0, 5.0, 9.0]
    assert stats.window_costs(0.0, marks, 2) == [1.0, 1.0, 1.0]
    assert stats.window_costs(0.0, marks, 3) == [1.0, 1.0]
    assert stats.window_costs(0.0, [], 2) == []
    assert stats.window_costs(10.0, [10.5, 12.0], 1) == [0.5, 1.5]
    with pytest.raises(ValueError):
        stats.window_costs(0.0, marks, 0)


def test_reference_scale_pairs_each_unit_with_the_reference_unit_after_it():
    from perfbench import hostref

    name = "train_sasrec_tape"
    nominal = hostref.NOMINAL[name]
    # the host slowed to half speed between the two units; set-up ran
    # at a quarter
    ref = {"unit_ms": [nominal["unit_ms"], 2.0 * nominal["unit_ms"]],
           "setup_s": 4.0 * nominal["setup_s"]}
    metrics, record = hostref.scale(name, [[100.0], [200.0]], ref, setup_s=2.0,
                                    throughput_per_s=500.0, tail_pct=75.0)
    assert metrics["p50_ms"] == pytest.approx(100.0)
    assert metrics["tail_ms"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert record["unit_factor"] == pytest.approx(0.75)
    assert metrics["throughput_per_s"] == pytest.approx(500.0 / 0.75)
    for broken in ({"unit_ms": [1.0], "setup_s": 1.0},
                   {"unit_ms": [0.0, 1.0], "setup_s": 1.0},
                   {"unit_ms": [1.0, 1.0], "setup_s": 0.0}):
        with pytest.raises(hostref.ReferenceError):
            hostref.scale(name, [[1.0], [1.0]], broken, 1.0, 1.0, 75.0)


def test_reference_turns_answer_each_turn_and_stop_on_quit():
    import os

    from perfbench import hostref

    to_ref_r, to_ref_w = os.pipe()
    from_ref_r, from_ref_w = os.pipe()
    try:
        os.write(to_ref_w, b"ttq")
        done = [i for i, _ in enumerate(hostref.Turns(to_ref_r, from_ref_w))]
        assert done == [0, 1]
        assert os.read(from_ref_r, 8) == b"dd"
    finally:
        for fd in (to_ref_r, to_ref_w, from_ref_r, from_ref_w):
            os.close(fd)
