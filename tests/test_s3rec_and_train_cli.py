"""Tests for the S3Rec extension baseline and the training CLI."""

import numpy as np
import pytest

from repro.baselines import S3Rec, build_baseline
from repro.data.batching import BatchIterator
from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions
from repro.train.cli import main


@pytest.fixture(scope="module")
def dataset():
    cfg = SyntheticConfig(num_users=50, num_items=40, seed=10)
    return SequenceDataset(generate_interactions(cfg), max_len=10)


def make_batch(dataset):
    it = BatchIterator(dataset, batch_size=8, seed=0)
    return next(iter(it.epoch()))


class TestS3Rec:
    def test_available_through_registry(self, dataset):
        model = build_baseline("S3Rec", dataset, hidden_dim=16, seed=0)
        assert isinstance(model, S3Rec)

    def test_not_in_table2_lineup(self):
        from repro.baselines import BASELINE_NAMES

        assert "S3Rec" not in BASELINE_NAMES  # paper's Table II is fixed

    def test_cloze_loss_finite_and_backpropagates(self, dataset):
        model = build_baseline("S3Rec", dataset, hidden_dim=16, seed=0)
        loss = model.cloze_loss(make_batch(dataset))
        assert np.isfinite(loss.data)
        loss.backward()
        assert model.item_embedding.weight.grad is not None

    def test_pretrain_phase_switches_to_finetune(self, dataset):
        model = build_baseline(
            "S3Rec", dataset, hidden_dim=16, seed=0, pretrain_steps=2
        )
        model.eval()  # deterministic encoder
        batch = make_batch(dataset)
        model.loss(batch)  # step 1: cloze
        model.loss(batch)  # step 2: cloze
        fine = model.loss(batch)  # step 3: next-item CE
        rec = model.recommendation_loss(batch.input_ids, batch.targets)
        assert np.isclose(float(fine.data), float(rec.data))

    def test_every_row_has_a_masked_position(self, dataset):
        model = build_baseline(
            "S3Rec", dataset, hidden_dim=16, seed=0, mask_prob=0.0
        )
        # mask_prob=0 still masks one position per row (the guarantee).
        loss = model.cloze_loss(make_batch(dataset))
        assert np.isfinite(loss.data) and float(loss.data) > 0


class TestTrainCli:
    def test_end_to_end_with_checkpoint(self, tmp_path, capsys):
        code = main([
            "--model", "FMLP-Rec", "--dataset", "beauty",
            "--scale", "0.1", "--max-len", "8", "--hidden-dim", "16",
            "--epochs", "1", "--patience", "0", "--quiet",
            "--checkpoint-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "test:" in out and "run-state checkpoints in" in out
        assert [p.name for p in (tmp_path / "run").glob("ckpt-*.npz")]

    def test_checkpoint_metadata_recorded(self, tmp_path, capsys):
        main([
            "--model", "SLIME4Rec", "--dataset", "beauty",
            "--scale", "0.1", "--max-len", "8", "--hidden-dim", "16",
            "--epochs", "1", "--patience", "0", "--quiet",
            "--checkpoint-dir", str(tmp_path / "run"),
        ])
        from repro.utils import CheckpointStore

        meta = CheckpointStore(tmp_path / "run").load_latest()["metadata"]
        assert meta["format"] == "repro-run-state-v1"
        assert meta["has_best"] and meta["history"]["best_epoch"] == 0
        assert "HR@5" in meta["history"]["valid_metrics"][0]

    def test_data_file_input(self, tmp_path, capsys):
        lines = []
        for user in range(8):
            for step in range(6):
                lines.append(f"{user} {step % 5} {step}")
        data = tmp_path / "log.txt"
        data.write_text("\n".join(lines))
        code = main([
            "--data-file", str(data), "--max-len", "6",
            "--hidden-dim", "8", "--epochs", "1", "--patience", "0", "--quiet",
        ])
        assert code == 0

    def test_sampled_softmax_flags(self, capsys):
        code = main([
            "--model", "SASRec", "--dataset", "beauty",
            "--scale", "0.1", "--max-len", "8", "--hidden-dim", "16",
            "--epochs", "1", "--patience", "0", "--quiet",
            "--train-num-negatives", "8", "--negative-sampling", "log_uniform",
        ])
        assert code == 0
        assert "test:" in capsys.readouterr().out

    def test_lone_negative_sampling_flag_errors(self, capsys):
        """--negative-sampling without --train-num-negatives must fail
        loudly, not be silently dropped."""
        with pytest.raises(SystemExit):
            main([
                "--model", "SASRec", "--dataset", "beauty", "--scale", "0.1",
                "--max-len", "8", "--epochs", "1", "--quiet",
                "--negative-sampling", "log_uniform",
            ])
        assert "--train-num-negatives" in capsys.readouterr().err

    def test_bespoke_model_with_loss_knob_errors_before_dataset_build(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "--model", "BERT4Rec", "--dataset", "beauty", "--scale", "0.1",
                "--max-len", "8", "--epochs", "1", "--quiet",
                "--train-num-negatives", "8",
            ])
        captured = capsys.readouterr()
        assert "bespoke" in captured.err
        assert "users=" not in captured.out  # no dataset was built first

    def test_ce_chunk_size_flag(self, capsys):
        code = main([
            "--model", "SLIME4Rec", "--dataset", "beauty",
            "--scale", "0.1", "--max-len", "8", "--hidden-dim", "16",
            "--epochs", "1", "--patience", "0", "--quiet",
            "--ce-chunk-size", "16",
        ])
        assert code == 0
        assert "test:" in capsys.readouterr().out

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["--model", "NotAModel"])
