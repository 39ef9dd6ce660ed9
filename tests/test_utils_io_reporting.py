"""Tests for checkpoint I/O and report formatting."""

import numpy as np
import pytest

from repro.core import Slime4Rec, SlimeConfig
from repro.nn import Linear, Module, Parameter
from repro.utils import (
    CheckpointStore,
    format_metric_table,
    format_run_header,
    load_results,
    save_results,
)


class TinyModel(Module):
    def __init__(self):
        super().__init__()
        self.layer = Linear(2, 3, rng=np.random.default_rng(0))


def save_and_load(model, directory, metadata=None):
    """Round-trip ``model.state_dict()`` through a one-entry store."""
    CheckpointStore(directory).save(model.state_dict(), metadata or {}, step=0)
    return CheckpointStore(directory).load_latest()


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        model = TinyModel()
        loaded = save_and_load(model, tmp_path, metadata={"epoch": 3})
        fresh = TinyModel()
        fresh.layer.weight.data += 1.0
        fresh.load_state_dict(loaded["state"])
        assert np.array_equal(fresh.layer.weight.data, model.layer.weight.data)
        assert loaded["metadata"] == {"epoch": 3}

    def test_load_without_model_returns_state(self, tmp_path):
        loaded = save_and_load(TinyModel(), tmp_path)
        assert "layer.weight" in loaded["state"]

    def test_mismatched_model_raises(self, tmp_path):
        loaded = save_and_load(TinyModel(), tmp_path)

        class Other(Module):
            def __init__(self):
                super().__init__()
                self.different = Parameter(np.zeros(3))

        with pytest.raises(KeyError):
            Other().load_state_dict(loaded["state"])

    def test_full_model_checkpoint(self, tmp_path):
        cfg = SlimeConfig(num_items=20, max_len=8, hidden_dim=16, seed=0)
        model = Slime4Rec(cfg)
        loaded = save_and_load(model, tmp_path, metadata={"alpha": cfg.alpha})
        clone = Slime4Rec(cfg)
        clone.load_state_dict(loaded["state"])
        ids = np.zeros((2, 8), dtype=np.int64)
        model.eval(), clone.eval()
        assert np.allclose(model.predict_scores(ids), clone.predict_scores(ids))


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        results = {"beauty": {"HR@5": 0.5, "ranks": np.array([1, 2])}}
        path = save_results(results, tmp_path / "out.json")
        loaded = load_results(path)
        assert loaded["beauty"]["HR@5"] == 0.5
        assert loaded["beauty"]["ranks"] == [1, 2]

    def test_numpy_scalars_serialized(self, tmp_path):
        path = save_results({"x": np.float32(1.5)}, tmp_path / "o.json")
        assert load_results(path)["x"] == 1.5


class TestReporting:
    def test_table_contains_all_rows(self):
        rows = {"A": {"HR@5": 0.1}, "B": {"HR@5": 0.3}}
        table = format_metric_table(rows)
        assert "| A" in table and "| B" in table

    def test_best_value_bolded(self):
        rows = {"A": {"HR@5": 0.1}, "B": {"HR@5": 0.3}}
        table = format_metric_table(rows)
        assert "**0.3000**" in table
        assert "**0.1000**" not in table

    def test_missing_metric_dash(self):
        rows = {"A": {"HR@5": 0.1}, "B": {}}
        table = format_metric_table(rows, metrics=["HR@5"])
        assert "-" in table.splitlines()[-1]

    def test_empty_rows(self):
        assert format_metric_table({}) == "(empty)"

    def test_run_header(self):
        header = format_run_header("Table II", dataset="beauty", epochs=3)
        assert header == "=== Table II (dataset=beauty, epochs=3) ==="
