"""Negative sampling and sampled-softmax training.

Covers the shared :class:`repro.data.negative_sampling.NegativeSampler`
(both proposal strategies, the vectorized exclusion draw), the
:func:`repro.autograd.functional.sampled_softmax_loss` autograd node
(exact full-CE equality on the all-classes candidate set, logQ
correction semantics, float64 gradcheck, accidental-hit masking; fixed
candidate sets come from a :class:`FixedSampler`), the
model plumbing (``SlimeConfig(train_num_negatives=...)`` /
``build_baseline`` knobs / ``prediction_loss`` precedence), and the
headline acceptance property: sampled-softmax training reaches the
full-CE HR@10 / NDCG@10 within 0.02 absolute on the synthetic dataset.
"""

import inspect

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor
from repro.baselines import build_baseline
from repro.core import Slime4Rec, SlimeConfig
from repro.data.batching import Batch, BatchIterator
from repro.data.negative_sampling import NegativeSampler
from repro.data.synthetic import load_preset
from repro.train.trainer import TrainConfig, Trainer


# ----------------------------------------------------------------------
# NegativeSampler
# ----------------------------------------------------------------------


class TestNegativeSampler:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="num_items"):
            NegativeSampler(0)
        with pytest.raises(ValueError, match="strategy"):
            NegativeSampler(10, strategy="popularity")

    @pytest.mark.parametrize("strategy", NegativeSampler.STRATEGIES)
    def test_sample_range_and_dtype(self, strategy):
        s = NegativeSampler(37, strategy=strategy, seed=0)
        ids = s.sample(5000)
        assert ids.dtype == np.int64
        assert ids.min() >= 1 and ids.max() <= 37
        # shape-tuple draws too
        assert s.sample((3, 4)).shape == (3, 4)

    @pytest.mark.parametrize("strategy", NegativeSampler.STRATEGIES)
    def test_seeded_determinism(self, strategy):
        a = NegativeSampler(50, strategy=strategy, seed=9)
        b = NegativeSampler(50, strategy=strategy, seed=9)
        np.testing.assert_array_equal(a.sample(64), b.sample(64))
        np.testing.assert_array_equal(
            a.sample_excluding(np.arange(5), 10), b.sample_excluding(np.arange(5), 10)
        )

    @pytest.mark.parametrize("strategy", NegativeSampler.STRATEGIES)
    def test_log_q_is_a_distribution(self, strategy):
        s = NegativeSampler(23, strategy=strategy)
        probs = np.exp(s.log_q(np.arange(1, 24)))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs > 0).all()

    @pytest.mark.parametrize("strategy", NegativeSampler.STRATEGIES)
    def test_log_q_rejects_out_of_support_ids(self, strategy):
        s = NegativeSampler(23, strategy=strategy)
        with pytest.raises(ValueError, match="support"):
            s.log_q(np.array([0, 5]))
        with pytest.raises(ValueError, match="support"):
            s.log_q(np.array([24]))

    def test_log_uniform_matches_its_log_q(self):
        """Empirical frequencies track the analytic proposal distribution."""
        s = NegativeSampler(20, strategy="log_uniform", seed=1)
        ids = s.sample(200_000)
        empirical = np.bincount(ids, minlength=21)[1:] / ids.size
        theoretical = np.exp(s.log_q(np.arange(1, 21)))
        np.testing.assert_allclose(empirical, theoretical, atol=3e-3)
        # Zipfian: strictly decreasing in the item id.
        assert (np.diff(theoretical) < 0).all()

    @pytest.mark.parametrize("strategy", NegativeSampler.STRATEGIES)
    def test_sample_excluding_avoids_exclusions(self, strategy):
        s = NegativeSampler(40, strategy=strategy, seed=2)
        exclude = np.array([0, 3, 7, 7, 11, 39])
        negs = s.sample_excluding(exclude, 30)
        assert len(negs) == 30
        assert len(set(negs.tolist())) == 30  # without replacement
        assert not set(negs.tolist()) & set(exclude.tolist())
        assert negs.min() >= 1 and negs.max() <= 40

    def test_sample_excluding_small_catalog_raises(self):
        s = NegativeSampler(50, seed=0)
        with pytest.raises(ValueError, match="eligible"):
            s.sample_excluding(np.arange(1, 20), 40)

    def test_sample_excluding_exhausted_catalog_raises(self):
        s = NegativeSampler(5, seed=0)
        with pytest.raises(ValueError):
            s.sample_excluding(np.arange(1, 6), 1)

    @pytest.mark.parametrize("strategy", NegativeSampler.STRATEGIES)
    def test_sample_excluding_overdraw_path_large_catalog(self, strategy):
        """Above the exact-path threshold, draws come from the O(num)
        over-draw loop: still distinct, exclusion-free, deterministic."""
        s = NegativeSampler(500_000, strategy=strategy, seed=5)
        exclude = np.array([0, 1, 2, 3, 250_000, 499_999])
        negs = s.sample_excluding(exclude, 200)
        assert len(negs) == 200
        assert len(set(negs.tolist())) == 200
        assert not set(negs.tolist()) & set(exclude.tolist())
        assert negs.min() >= 1 and negs.max() <= 500_000
        twin = NegativeSampler(500_000, strategy=strategy, seed=5)
        np.testing.assert_array_equal(negs, twin.sample_excluding(exclude, 200))

    def test_sample_excluding_eligibility_check_is_cheap_on_huge_catalogs(self):
        """The too-small check counts from `exclude`, not from an O(V)
        eligible-set build: a huge catalog with a huge request raises
        immediately when exclusions leave too few items."""
        s = NegativeSampler(1_000_000, seed=0)
        with pytest.raises(ValueError, match="eligible"):
            s.sample_excluding(np.arange(1, 999_999), 1000)


# ----------------------------------------------------------------------
# F.sampled_softmax_loss
# ----------------------------------------------------------------------


def _problem(seed=0, rows=5, dim=4, classes=12):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, dim)), requires_grad=True)
    w = Tensor(rng.normal(size=(classes, dim)), requires_grad=True)
    targets = rng.integers(1, classes, size=rows)
    return x, w, targets


class FixedSampler:
    """A sampler that always draws ``negatives``, for fixed candidate sets.

    ``log_q`` defaults to zero everywhere, which leaves the logits raw;
    pass a real sampler's ``log_q`` to apply its correction.
    """

    def __init__(self, negatives, log_q=None):
        self.negatives = np.asarray(negatives, dtype=np.int64)
        self._log_q = log_q

    def sample(self, size):
        return self.negatives.copy()

    def log_q(self, ids):
        ids = np.asarray(ids)
        return np.zeros(ids.shape) if self._log_q is None else self._log_q(ids)


def _sampled(x, w, targets, sampler):
    return F.sampled_softmax_loss(x, w, targets, sampler, sampler.negatives.size)


class TestSampledSoftmaxLoss:
    def test_signature_is_the_five_parameters(self):
        params = list(inspect.signature(F.sampled_softmax_loss).parameters)
        assert params == ["inputs", "weight", "targets", "sampler", "num_negatives"]
        x, w, targets = _problem()
        for removed in (
            "negatives", "neg_log_q", "target_log_q", "logq_correction",
            "remove_accidental_hits", "ignore_index",
        ):
            with pytest.raises(TypeError, match=removed):
                F.sampled_softmax_loss(
                    x, w, targets, NegativeSampler(11), 4, **{removed: None}
                )

    def test_needs_a_sampler_and_a_positive_count(self):
        x, w, targets = _problem()
        with pytest.raises(TypeError, match="sampler"):
            F.sampled_softmax_loss(x, w, targets)
        with pytest.raises(ValueError, match="num_negatives"):
            F.sampled_softmax_loss(x, w, targets, NegativeSampler(11), 0)

    def test_rejects_out_of_range_ids(self):
        x, w, targets = _problem()
        with pytest.raises(IndexError, match="negatives"):
            _sampled(x, w, targets, FixedSampler([1, 12]))
        with pytest.raises(IndexError, match="targets"):
            _sampled(x, w, np.array([1, 2, 3, 4, 99]), FixedSampler([1, 2]))

    def test_out_of_range_target_leaves_the_sampler_stream(self):
        """The targets are checked before the draw: a refused call
        consumes nothing from the sampler's generator."""
        x, w, _ = _problem()
        s = NegativeSampler(11, seed=2)
        before = s.rng_state_dict()
        with pytest.raises(IndexError, match="targets"):
            F.sampled_softmax_loss(x, w, np.array([1, 2, 3, 4, 99]), s, 5)
        assert s.rng_state_dict() == before
        assert np.array_equal(s.sample(5), NegativeSampler(11, seed=2).sample(5))

    def test_all_classes_candidates_equal_full_cross_entropy(self):
        """With every class as a candidate (duplicated target masked),
        the sampled loss IS the full softmax CE — value and gradients."""
        x, w, targets = _problem()
        x2 = Tensor(x.data.copy(), requires_grad=True)
        w2 = Tensor(w.data.copy(), requires_grad=True)
        sampled = _sampled(x, w, targets, FixedSampler(np.arange(12)))
        full = F.cross_entropy(F.matmul(x2, F.transpose(w2, (1, 0))), targets)
        sampled.backward()
        full.backward()
        np.testing.assert_allclose(float(sampled.data), float(full.data), atol=1e-12)
        np.testing.assert_allclose(x.grad, x2.grad, atol=1e-12)
        np.testing.assert_allclose(w.grad, w2.grad, atol=1e-12)

    def test_uniform_logq_correction_is_invariant(self):
        """A uniform proposal's correction is a constant logit shift —
        provably cancelled by the softmax."""
        x, w, targets = _problem()
        negs = NegativeSampler(11, strategy="uniform", seed=4).sample(7)
        corrected = F.sampled_softmax_loss(
            x, w, targets, NegativeSampler(11, strategy="uniform", seed=4), 7
        )
        raw = _sampled(x, w, targets, FixedSampler(negs))
        np.testing.assert_allclose(float(corrected.data), float(raw.data), atol=1e-12)

    def test_gradcheck_float64(self):
        x, w, targets = _problem(seed=3)
        negs = np.concatenate([[int(targets[0])], NegativeSampler(11, seed=5).sample(6)])
        gradcheck(lambda a, b: _sampled(a, b, targets, FixedSampler(negs)), [x, w])

    def test_gradcheck_with_log_uniform_correction(self):
        x, w, targets = _problem(seed=6)
        s = NegativeSampler(11, strategy="log_uniform", seed=7)
        fixed = FixedSampler(s.sample(8), log_q=s.log_q)
        gradcheck(lambda a, b: _sampled(a, b, targets, fixed), [x, w])

    def test_accidental_hit_masking(self):
        """A sampled candidate equal to the row's target never counts as
        a negative: the loss equals dropping it from that row's set."""
        x, w, targets = _problem(seed=8)
        clean = np.setdiff1d(np.arange(1, 12), targets)[:3]
        assert not set(clean.tolist()) & set(targets.tolist())
        with_hit = np.concatenate([clean, [int(targets[0])]])
        masked = _sampled(x, w, targets, FixedSampler(with_hit))
        # Row 0's candidate set collapses to `clean`; other rows score
        # the extra candidate normally, so compare row-by-row manually.
        logits = x.data @ w.data.T
        losses = []
        for r, t in enumerate(targets):
            cand = np.concatenate([[t], with_hit[with_hit != t]])
            row = logits[r, cand]
            losses.append(-(row[0] - np.log(np.exp(row - row.max()).sum()) - row.max()))
        np.testing.assert_allclose(float(masked.data), np.mean(losses), atol=1e-12)

    def test_all_negatives_hit_is_finite(self):
        x, w, targets = _problem(seed=9)
        same = np.full(4, int(targets[0]))
        loss = _sampled(x, w, np.full_like(targets, int(targets[0])), FixedSampler(same))
        loss.backward()
        assert float(loss.data) == pytest.approx(0.0)
        assert np.isfinite(x.grad).all() and np.isfinite(w.grad).all()

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(9, 4)).astype(np.float32), requires_grad=True)
        s = NegativeSampler(8, seed=1)
        loss = F.sampled_softmax_loss(x, w, np.array([1, 2, 3]), s, 4)
        loss.backward()
        assert loss.data.dtype == np.float32
        assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32

    def test_sampler_draw_is_consumed_per_call(self):
        """Each call draws a fresh candidate set from the sampler."""
        x, w, targets = _problem(seed=12)
        s = NegativeSampler(11, seed=2)
        a = F.sampled_softmax_loss(x, w, targets, s, 5)
        b = F.sampled_softmax_loss(x, w, targets, s, 5)
        assert float(a.data) != float(b.data)


@pytest.mark.parametrize("dup_hits", [False, True], ids=["clean", "dup-hits"])
@pytest.mark.parametrize("strategy", ["uniform", "log_uniform"])
class TestSampledSoftmaxComboSweep:
    """combo_check-style grid over the loss's interacting inputs.

    Every cell of sampler strategy x accidental-hit duplication passes
    float64 gradcheck and, at float32, reproduces the float64 analytic
    value/gradients while preserving the input dtype.  Candidates are
    drawn once and served by a :class:`FixedSampler` so both dtypes
    (and the numeric/analytic sides of gradcheck) see the same set;
    the real sampler still supplies the logQ correction.
    """

    def _case(self, strategy, dup_hits, seed=29):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(12, 4)), requires_grad=True)
        targets = rng.integers(1, 12, size=5)
        sampler = NegativeSampler(11, strategy=strategy, seed=seed + 1)
        negatives = sampler.sample(6)
        if dup_hits:
            # the same accidental hit twice: masking must collapse both
            # copies, and the weight-grad scatter must accumulate the
            # surviving duplicates exactly once each
            negatives = np.concatenate([negatives, [int(targets[0])] * 2])
        return x, w, targets, FixedSampler(negatives, log_q=sampler.log_q)

    def test_gradcheck_float64(self, strategy, dup_hits):
        x, w, targets, fixed = self._case(strategy, dup_hits)
        gradcheck(lambda a, b: _sampled(a, b, targets, fixed), [x, w])

    def test_float32_matches_float64_and_keeps_dtype(self, strategy, dup_hits):
        x64, w64, targets, fixed = self._case(strategy, dup_hits)
        loss64 = _sampled(x64, w64, targets, fixed)
        loss64.backward()
        x32 = Tensor(x64.data.astype(np.float32), requires_grad=True)
        w32 = Tensor(w64.data.astype(np.float32), requires_grad=True)
        loss32 = _sampled(x32, w32, targets, fixed)
        loss32.backward()
        assert loss32.data.dtype == np.float32
        assert x32.grad.dtype == np.float32 and w32.grad.dtype == np.float32
        np.testing.assert_allclose(
            float(loss32.data), float(loss64.data), rtol=1e-5, atol=1e-6
        )
        np.testing.assert_allclose(x32.grad, x64.grad, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(w32.grad, w64.grad, rtol=1e-4, atol=1e-5)


# ----------------------------------------------------------------------
# Model / config / registry plumbing
# ----------------------------------------------------------------------


def _tiny_batch(num_items=30, max_len=12, batch=6, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, num_items + 1, size=(batch, max_len))
    inputs[:, :4] = 0
    targets = rng.integers(1, num_items + 1, size=batch)
    return Batch(input_ids=inputs, targets=targets, positive_ids=None)


class TestModelPlumbing:
    def test_config_validates_knobs(self):
        with pytest.raises(ValueError, match="train_num_negatives"):
            SlimeConfig(num_items=10, train_num_negatives=0)
        with pytest.raises(ValueError, match="negative_sampling"):
            SlimeConfig(num_items=10, negative_sampling="nope")

    def test_slime_config_reaches_prediction_loss(self):
        cfg = SlimeConfig(
            num_items=30, max_len=12, hidden_dim=16, cl_weight=0.0,
            train_num_negatives=8, negative_sampling="log_uniform", seed=0,
        )
        model = Slime4Rec(cfg)
        assert model.train_num_negatives == 8
        assert model._train_sampler.strategy == "log_uniform"
        model.train()
        loss = model.loss(_tiny_batch())
        loss.backward()
        assert np.isfinite(float(loss.data))

    def test_sampled_replaces_the_full_softmax(self):
        """train_num_negatives switches the head: the sampled loss
        differs from the full CE on the same weights and batch."""
        batch = _tiny_batch()
        cfg = dict(num_items=30, max_len=12, hidden_dim=16, cl_weight=0.0, seed=0)
        sampled = Slime4Rec(SlimeConfig(**cfg, train_num_negatives=4))
        full = Slime4Rec(SlimeConfig(**cfg))
        for m in (sampled, full):
            m.train()
        assert float(sampled.loss(batch).data) != pytest.approx(
            float(full.loss(batch).data), abs=1e-6
        )

    def test_seeded_model_loss_is_reproducible(self):
        batch = _tiny_batch()
        losses = []
        for _ in range(2):
            cfg = SlimeConfig(
                num_items=30, max_len=12, hidden_dim=16, cl_weight=0.0,
                train_num_negatives=6, seed=3,
            )
            model = Slime4Rec(cfg)
            model.train()
            losses.append(float(model.loss(batch).data))
        assert losses[0] == losses[1]

    @pytest.mark.parametrize("name", ["SASRec", "FMLP-Rec", "GRU4Rec", "DuoRec"])
    def test_registry_applies_knobs_to_every_baseline(self, name, sampling_dataset):
        model = build_baseline(
            name, sampling_dataset, hidden_dim=16, seed=0,
            train_num_negatives=8, negative_sampling="log_uniform",
        )
        assert model.train_num_negatives == 8
        assert model._train_sampler.strategy == "log_uniform"
        model.train()
        it = BatchIterator(sampling_dataset, batch_size=16, with_same_target=True, seed=0)
        loss = model.loss(next(iter(it.epoch())))
        loss.backward()
        assert np.isfinite(float(loss.data))

    @pytest.mark.parametrize("name", ["SASRec", "SLIME4Rec"])
    def test_the_sampler_exists_from_construction(self, name, sampling_dataset):
        """The head's sampler is built with the model, seeded from the
        model seed; a full-softmax model owns no sampler stream."""
        model = build_baseline(
            name, sampling_dataset, hidden_dim=16, seed=4,
            train_num_negatives=8, negative_sampling="log_uniform",
        )
        want = NegativeSampler(sampling_dataset.num_items, "log_uniform", seed=4 + 20011)
        assert model.rng_state_dict()["_train_sampler"] == want.rng_state_dict()
        full = build_baseline(name, sampling_dataset, hidden_dim=16, seed=4)
        assert "_train_sampler" not in full.rng_state_dict()

    def test_configure_head_checks_before_changing_the_head(self, sampling_dataset):
        model = build_baseline(
            "SASRec", sampling_dataset, hidden_dim=16, train_num_negatives=8
        )
        sampler = model._train_sampler
        for bad in (dict(train_num_negatives=0), dict(negative_sampling="zipf")):
            with pytest.raises(ValueError, match=next(iter(bad))):
                model.configure_head(**{"train_num_negatives": 4, **bad})
        assert model.train_num_negatives == 8 and model._train_sampler is sampler
        model.configure_head()
        assert model.train_num_negatives is None and model._train_sampler is None

    def test_registry_rejects_bad_strategy_at_build_time(self, sampling_dataset):
        with pytest.raises(ValueError, match="negative_sampling"):
            build_baseline(
                "SASRec", sampling_dataset, negative_sampling="zipf",
            )

    @pytest.mark.parametrize("bad", [0, -5])
    def test_registry_rejects_bad_counts_at_build_time(self, sampling_dataset, bad):
        with pytest.raises(ValueError, match="train_num_negatives"):
            build_baseline("SASRec", sampling_dataset, train_num_negatives=bad)

    @pytest.mark.parametrize("name", ["SASRec", "SLIME4Rec"])
    def test_registry_rejects_chunk_width(self, sampling_dataset, name):
        """The full-softmax head sizes its own blocks: no width knob."""
        with pytest.raises(TypeError, match="ce_chunk_size"):
            build_baseline(name, sampling_dataset, ce_chunk_size=32)

    @pytest.mark.parametrize("name", ["BERT4Rec", "ContrastVAE", "BPR-MF"])
    def test_registry_rejects_knobs_for_bespoke_loss_models(
        self, name, sampling_dataset
    ):
        """These objectives never read the knobs — accepting them would
        be a silent no-op on exactly the catalogs the knobs exist for."""
        with pytest.raises(ValueError, match="bespoke"):
            build_baseline(name, sampling_dataset, train_num_negatives=64)
        # Without knobs they still build normally.
        assert build_baseline(name, sampling_dataset, hidden_dim=16) is not None


@pytest.fixture(scope="module")
def sampling_dataset():
    return load_preset("beauty", scale=0.15, max_len=16)


# ----------------------------------------------------------------------
# Acceptance: sampled training tracks full-CE metrics
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def agreement_dataset():
    return load_preset("beauty", scale=0.3, max_len=16)


def _train_and_test(dataset, **knobs):
    model = build_baseline(
        "SLIME4Rec", dataset, hidden_dim=32, seed=0, dtype="float64", **knobs
    )
    trainer = Trainer(
        model, dataset,
        TrainConfig(epochs=5, batch_size=128, patience=0, seed=0),
        with_same_target=True,
    )
    trainer.fit()
    return trainer.test()


class TestSampledTrainingAgreement:
    def test_sampled_softmax_matches_full_ce_metrics(self, agreement_dataset):
        """The headline acceptance: HR@10 / NDCG@10 of sampled-softmax
        training within 0.02 absolute of full-CE training."""
        full = _train_and_test(agreement_dataset)
        sampled = _train_and_test(
            agreement_dataset,
            train_num_negatives=agreement_dataset.num_items // 2,
        )
        assert sampled["HR@10"] == pytest.approx(full["HR@10"], abs=0.02)
        assert sampled["NDCG@10"] == pytest.approx(full["NDCG@10"], abs=0.02)
