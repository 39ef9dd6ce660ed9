"""Analyzer self-tests: fixture-pinned true/false positives per rule.

Every rule R1–R6 gets at least one pinned true positive (the fixture
violation is found) and one pinned false positive (the known-good
sibling stays silent), plus pragma handling and the baseline
round-trip.  Fixtures live under ``tests/lint_fixtures/`` and are
parsed, never imported (``collect_ignore`` in conftest.py).
"""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    format_finding,
    load_baseline,
    render_baseline,
    run_lint,
)
from repro.analysis.lint.baseline import BaselineError
from repro.analysis.lint.cli import main as lint_main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
ROOT = Path(__file__).resolve().parents[1]


def lint(name, rules, **kwargs):
    kwargs.setdefault("root", FIXTURES)
    return run_lint([FIXTURES / name], rules=rules, **kwargs)


def details(report):
    return sorted(f.detail for f in report.findings)


# ----------------------------------------------------------------------
# R1 replay-coverage
# ----------------------------------------------------------------------
class TestReplayRule:
    def test_true_positives(self):
        report = lint("r1_replay.py", ["R1"])
        assert details(report) == [
            "ambient:forward:np.random.default_rng",
            "ambient:forward:time.time",
            "make-no-replay",
            "make-no-replay",
            "tensor-no-record",
        ]

    def test_false_positive_pins(self):
        assert lint("r1_clean.py", ["R1"]).findings == []

    def test_pragma_suppresses(self):
        assert lint("r1_replay.py", ["R1"]).suppressed == 1


# ----------------------------------------------------------------------
# R2 dtype-stability
# ----------------------------------------------------------------------
class TestDtypeRule:
    def test_true_positives(self):
        report = lint("r2_dtype.py", ["R2"])
        assert details(report) == [
            "alloc:array-literal:pad_op.forward",
            "alloc:zeros:pad_op.forward",
            "np-prod:mean_op.backward",
            "scalar-return:forward:.mean()",
            "scalar-return:forward:@",
        ]

    def test_false_positive_pins(self):
        assert lint("r2_clean.py", ["R2"]).findings == []

    def test_out_of_scope_modules_are_silent(self):
        assert lint("r2_out_of_scope.py", ["R2"]).findings == []

    def test_pragma_suppresses(self):
        assert lint("r2_dtype.py", ["R2"]).suppressed == 1


# ----------------------------------------------------------------------
# R3 buffer-ownership
# ----------------------------------------------------------------------
class TestGradRule:
    def test_true_positives(self):
        report = lint("r3_grad.py", ["R3"])
        forms = sorted(f.detail.split(":")[1] for f in report.findings)
        assert forms == sorted(
            [
                "augmented assignment",
                "slice assignment",
                "np.copyto",
                "out= target",
                ".fill()",
            ]
        )

    def test_false_positive_pins(self):
        assert lint("r3_clean.py", ["R3"]).findings == []

    def test_pragma_suppresses(self):
        assert lint("r3_grad.py", ["R3"]).suppressed == 1


# ----------------------------------------------------------------------
# R4 lock-discipline
# ----------------------------------------------------------------------
class TestLockRule:
    def test_true_positives(self):
        report = lint("r4_locks.py", ["R4"])
        assert details(report) == [
            "CondQueue.stale_len._items",
            "Counter.drain_async._count",
            "Counter.peek._count",
            "Counter.reset._count",
        ]

    def test_nested_closures_drop_the_held_set(self):
        report = lint("r4_locks.py", ["R4"])
        assert any(f.detail == "Counter.drain_async._count" for f in report.findings)

    def test_false_positive_pins(self):
        assert lint("r4_clean.py", ["R4"]).findings == []

    def test_pragma_suppresses(self):
        assert lint("r4_locks.py", ["R4"]).suppressed == 1

    def test_guard_is_the_lock_held_at_every_write(self):
        """A lock held at only some writes guards nothing on its own."""
        report = lint("r4_nested.py", ["R4"])
        assert details(report) == [
            "Refresher.peek._table",
            "Refresher.refresh._failed",
            "Refresher.serve._failed",
        ]

    def test_bare_writes_of_an_attribute_read_under_a_lock(self):
        """No method writes these under a lock, but ``stats`` reads
        them under one: the bare writes are the race."""
        report = lint("r4_bare_writes.py", ["R4"])
        assert details(report) == [
            "Tally.bump._hits",
            "Tally.bump_many._hits",
            "Tally.serve._errors",
        ]
        assert all("read under self._lock in stats()" in f.message for f in report.findings)

    def test_catches_the_bare_serving_counters(self, tmp_path):
        """``recommend``, ``recommend_many`` and ``_serve_batch`` bump
        counters that ``stats`` reads under ``_counter_lock``; dropping
        the lock around the increments is a finding."""
        source = (ROOT / "src/repro/serving/service.py").read_text()
        pairs = [
            (
                "        with self._counter_lock:\n            self._requests += 1\n",
                "        self._requests += 1\n",
            ),
            (
                "        with self._counter_lock:\n            self._requests += len(requests)\n",
                "        self._requests += len(requests)\n",
            ),
            (
                "            with self._counter_lock:\n                self._model_errors += 1\n",
                "            self._model_errors += 1\n",
            ),
        ]
        for locked, bare in pairs:
            assert source.count(locked) == 1, locked
            source = source.replace(locked, bare)
        (tmp_path / "service.py").write_text(source)
        report = run_lint([tmp_path / "service.py"], root=tmp_path, rules=["R4"])
        found = set(details(report))
        assert {
            "RecommenderService.recommend._requests",
            "RecommenderService.recommend_many._requests",
            "RecommenderService._serve_batch._model_errors",
        } <= found

    def test_catches_an_unlocked_write_under_the_refresh_mutex(self, tmp_path):
        """``refresh_table`` holds ``_refresh_mutex`` around its ``_lock``
        blocks; a ``_failed_version`` write moved out of ``_lock`` but
        still under the mutex races with ``_serve_batch``."""
        source = (ROOT / "src/repro/serving/service.py").read_text()
        locked = (
            "                with self._lock:\n"
            "                    self._refresh_errors += 1\n"
            "                    if isinstance(exc, ValueError):\n"
            "                        self._failed_version = version\n"
        )
        unlocked = (
            "                with self._lock:\n"
            "                    self._refresh_errors += 1\n"
            "                if isinstance(exc, ValueError):\n"
            "                    self._failed_version = version\n"
        )
        assert locked in source
        (tmp_path / "service.py").write_text(source.replace(locked, unlocked))
        report = run_lint([tmp_path / "service.py"], root=tmp_path, rules=["R4"])
        assert "RecommenderService.refresh_table._failed_version" in details(report)


# ----------------------------------------------------------------------
# R5 trip-point hygiene
# ----------------------------------------------------------------------
class TestTripRule:
    def test_both_directions(self):
        root = FIXTURES / "trip_project"
        report = run_lint([root], root=root, rules=["R5"])
        assert details(report) == ["unknown:stage.missing", "untested:stage.flush"]

    def test_covered_point_is_silent(self):
        root = FIXTURES / "trip_project"
        report = run_lint([root], root=root, rules=["R5"])
        assert not any("stage.run" in (f.detail or "") for f in report.findings)


# ----------------------------------------------------------------------
# R6 export-drift
# ----------------------------------------------------------------------
class TestExportRule:
    def test_true_positives(self):
        report = lint("r6_exports.py", ["R6"])
        assert details(report) == ["drift:helper", "unresolved:vanished"]

    def test_false_positive_pins(self):
        assert lint("r6_clean.py", ["R6"]).findings == []

    def test_pragma_suppresses(self):
        assert lint("r6_exports.py", ["R6"]).suppressed == 1

    def test_cross_module_import_resolution(self):
        root = FIXTURES / "exports_project"
        report = run_lint([root / "src"], root=root, rules=["R6"])
        assert "import:mod_a.absent" in details(report)
        assert "import:mod_a.provided" not in details(report)


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_line_number_independent(self):
        a = Finding("R4", "unlocked", "x.py", 10, "C.m", "msg", "C.m.attr")
        b = Finding("R4", "unlocked", "x.py", 99, "C.m", "msg", "C.m.attr")
        assert a.fingerprint == b.fingerprint

    def test_distinct_scopes_differ(self):
        a = Finding("R4", "unlocked", "x.py", 10, "C.m", "msg", "C.m.attr")
        b = Finding("R4", "unlocked", "x.py", 10, "C.n", "msg", "C.n.attr")
        assert a.fingerprint != b.fingerprint

    def test_output_format_is_stable(self):
        f = Finding("R1", "replay", "src/a.py", 7, "op", "broken", "k")
        assert format_finding(f) == (
            f"src/a.py:7: R1 [{f.fingerprint}] op: broken"
        )


class TestBaseline:
    def test_round_trip(self, tmp_path):
        report = lint("r4_locks.py", ["R4"])
        assert report.findings
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            render_baseline(
                report.findings,
                {f.fingerprint: "accepted for the fixture" for f in report.findings},
            )
        )
        again = lint("r4_locks.py", ["R4"], baseline=baseline)
        assert again.findings == []
        assert len(again.baselined) == len(report.findings)
        assert again.stale_baseline == []

    def test_stale_entries_are_reported(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            "deadbeef00 R4 gone.py Class.method -- the finding was fixed\n"
        )
        report = lint("r4_clean.py", ["R4"], baseline=baseline)
        assert report.stale_baseline == ["deadbeef00"]

    def test_justification_is_mandatory(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("deadbeef00 R4 x.py scope\n")
        with pytest.raises(BaselineError, match="justification"):
            load_baseline(baseline)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.txt") == {}


class TestCli:
    def test_findings_exit_code(self, capsys):
        rc = lint_main(
            [
                str(FIXTURES / "r3_grad.py"),
                "--root",
                str(FIXTURES),
                "--rules",
                "R3",
                "--no-baseline",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "r3_grad.py" in out and "R3" in out

    def test_clean_exit_code(self, capsys):
        rc = lint_main(
            [
                str(FIXTURES / "r3_clean.py"),
                "--root",
                str(FIXTURES),
                "--rules",
                "R3",
                "--no-baseline",
            ]
        )
        assert rc == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        args = [
            str(FIXTURES / "r4_locks.py"),
            "--root",
            str(FIXTURES),
            "--rules",
            "R4",
            "--baseline",
            str(baseline),
        ]
        assert lint_main(args + ["--write-baseline"]) == 0
        assert baseline.is_file()
        assert lint_main(args) == 0  # everything baselined now

    def test_unknown_rule_is_usage_error(self, capsys):
        assert lint_main(["--rules", "R99", str(FIXTURES / "r3_clean.py")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("R1", "R2", "R3", "R4", "R5", "R6"):
            assert rule in out
