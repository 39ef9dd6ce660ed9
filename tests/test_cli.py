"""Tests for the experiment CLI."""

import json

import pytest

from repro.experiments.cli import main, _to_jsonable


class TestCli:
    def test_table1_quick(self, capsys):
        assert main(["table1", "--budget", "quick"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "beauty" in out

    def test_json_output_parses(self, capsys):
        main(["table1", "--budget", "quick", "--json"])
        out = capsys.readouterr().out
        payload = out.split("\n", 2)[2]  # skip the "### table1" header
        data = json.loads(payload)
        assert "beauty" in data

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_complexity_runs_without_budget(self, capsys, monkeypatch):
        import numpy as np

        from repro.experiments import complexity

        # every timed layer's parameters share its input's dtype, so the
        # mixer-vs-attention timing measures no mixed-dtype promotion
        timed_dtypes = []
        time_layer = complexity._time_layer

        def checked_time_layer(layer, *args):
            def forward(x):
                timed_dtypes.append(
                    {p.data.dtype for p in layer.parameters()} | {x.data.dtype}
                )
                return layer(x)

            return time_layer(forward, *args)

        monkeypatch.setattr(complexity, "_time_layer", checked_time_layer)
        assert main(["complexity", "--budget", "quick"]) == 0
        assert "complexity" in capsys.readouterr().out
        assert timed_dtypes
        assert all(dtypes == {np.dtype(np.float32)} for dtypes in timed_dtypes)


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        import numpy as np

        out = _to_jsonable({"a": np.float32(1.5), "b": np.arange(3), 3: "x"})
        assert out == {"a": 1.5, "b": [0, 1, 2], "3": "x"}
