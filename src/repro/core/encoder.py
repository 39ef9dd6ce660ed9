"""Shared encoder plumbing for all sequential recommenders.

Every model in this repo (SLIME4Rec and the baselines) shares the same
outer structure from the paper's Figure 2:

- an **embedding layer**: item embedding + learnable positional
  embedding, LayerNorm and dropout (Eqs. 9-10);
- a model-specific stack of encoder blocks;
- a **prediction layer**: dot product between the last hidden state and
  the item embedding table (Eq. 31), trained with cross-entropy
  (Eq. 32).

:class:`SequentialEncoderBase` implements the shared pieces; subclasses
override :meth:`encode_states`.  Every user vector — training loss,
contrastive views, evaluation and serving — comes from
:meth:`SequentialEncoderBase.user_representation`, which a model may
override to compute only the last position (SLIME4Rec, SASRec and its
descendants, and BERT4Rec do).

Hot-path notes: the embedding lookup's backward and every dropout site
here run through the shared per-step workspace
(:mod:`repro.nn.workspace`), and the ``states[:, -1]`` user-vector
slice takes the basic-index gradient fast path — so the shared outer
structure stays cheap while the per-model encoders (fused attention,
fused spectral mixing) do the heavy lifting.  Evaluation scoring uses
:meth:`SequentialEncoderBase.score_context` to materialize the
transposed item table once per pass.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import GraphCaptureError, is_capturing, record_host
from repro.autograd.tensor import Tensor, no_grad
from repro.data.negative_sampling import NegativeSampler
from repro.nn import Dropout, Embedding, LayerNorm, Linear, Module
from repro.nn import init as nn_init

__all__ = ["SequentialEncoderBase", "PointwiseFeedForward", "check_head"]

#: ``views``: the view count of the stacked encode running on this
#: thread (1 outside :meth:`SequentialEncoderBase.encode_views`); read
#: only by :meth:`SequentialEncoderBase.inject_noise`.
_stacked = threading.local()


def _view_count() -> int:
    return getattr(_stacked, "views", 1)


def check_head(train_num_negatives: int | None, negative_sampling: str) -> None:
    """Reject a training-head setting (see :meth:`SequentialEncoderBase.configure_head`)."""
    if train_num_negatives is not None and train_num_negatives < 1:
        raise ValueError(
            f"train_num_negatives must be >= 1 or None, got {train_num_negatives}"
        )
    if negative_sampling not in NegativeSampler.STRATEGIES:
        raise ValueError(
            f"negative_sampling must be one of {NegativeSampler.STRATEGIES}, "
            f"got {negative_sampling!r}"
        )


class PointwiseFeedForward(Module):
    """The paper's FFN (Eq. 29): ``GELU(x W1 + b1) W2 + b2``.

    The caller applies Eq. 30's densely-residual LayerNorm; this module
    is just the two-layer MLP with GELU.  ``fc1`` and the GELU run as
    one fused node (:func:`repro.autograd.functional.linear_gelu`).
    """

    def __init__(
        self,
        dim: int,
        inner_dim: int | None = None,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        inner_dim = inner_dim or dim
        self.fc1 = Linear(dim, inner_dim, rng=rng, dtype=dtype)
        self.fc2 = Linear(inner_dim, dim, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(F.linear_gelu(x, self.fc1.weight, self.fc1.bias))


class SequentialEncoderBase(Module):
    """Embedding layer + prediction layer shared by all models.

    Parameters
    ----------
    num_items:
        Real item count; embedding table gets ``num_items + 1 + extra_tokens`` rows.
    max_len:
        Sequence length ``N``.
    hidden_dim:
        Width ``d``.
    embed_dropout:
        Dropout applied after the positional sum (Eq. 10).
    extra_tokens:
        Additional special tokens after the item range (BERT4Rec's
        ``[mask]`` token lives there).
    noise_eps:
        When > 0, uniform noise of this relative magnitude is added to
        every layer input via :meth:`inject_noise` (Figure 6 protocol).
    dtype:
        Compute dtype for parameters and activations (float32/float64);
        ``None`` means float64 (:func:`repro.nn.init.resolve_dtype`).
        The resolved dtype is exposed as ``self.dtype`` so subclasses
        can type their own submodules consistently.
    """

    #: Opt-in to the static-graph tape executor: when True the trainer
    #: captures one training step into a :class:`repro.autograd.graph.Tape`
    #: and replays it on subsequent same-shape batches instead of
    #: rebuilding the autograd graph (see ``docs/ARCHITECTURE.md``).
    #: Off by default; the dynamic engine remains the reference.
    static_graph: bool = False

    def __init__(
        self,
        num_items: int,
        max_len: int,
        hidden_dim: int,
        embed_dropout: float = 0.3,
        extra_tokens: int = 0,
        noise_eps: float = 0.0,
        seed: int = 0,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        dtype = nn_init.resolve_dtype(dtype)
        self.num_items = num_items
        self.max_len = max_len
        self.hidden_dim = hidden_dim
        self.noise_eps = noise_eps
        self.dtype = dtype
        #: The training head, set through :meth:`configure_head`: the
        #: full softmax while ``_train_sampler`` is None, else the
        #: sampled softmax over ``train_num_negatives`` drawn negatives.
        self.train_num_negatives: int | None = None
        self._train_sampler: NegativeSampler | None = None
        self._train_sampler_seed = seed + 20011
        self._noise_rng = np.random.default_rng(seed + 104729)
        self.item_embedding = Embedding(
            num_items + 1 + extra_tokens, hidden_dim, padding_idx=0, rng=rng, dtype=dtype
        )
        self.position_embedding = Embedding(max_len, hidden_dim, rng=rng, dtype=dtype)
        self.embed_norm = LayerNorm(hidden_dim, dtype=dtype)
        self.embed_dropout = Dropout(embed_dropout, rng=np.random.default_rng(seed + 1))

    # ------------------------------------------------------------------
    def embed(self, input_ids: np.ndarray) -> Tensor:
        """Eqs. 9-10: lookup + positions + LayerNorm + dropout."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        batch, length = input_ids.shape
        if length != self.max_len:
            raise ValueError(f"expected sequences of length {self.max_len}, got {length}")
        items = self.item_embedding(input_ids)
        positions = self.position_embedding(np.arange(length))
        summed = F.add(items, positions)
        return self.embed_dropout(self.embed_norm(summed))

    def inject_noise(self, x: Tensor) -> Tensor:
        """Add uniform noise scaled by the representation magnitude.

        Implements the Figure 6 robustness protocol: noise
        ``eps * U(-1, 1) * std(x)`` added to the layer input.  A no-op
        when ``noise_eps`` is zero.  Inside a stacked multi-view encode
        (:meth:`encode_views`, which sets this thread's view count for
        its pass) each view block of the leading axis is scaled by its
        own std and drawn in view order, so the views stay uncoupled;
        with one view this is the single whole-batch draw.
        """
        if self.noise_eps <= 0.0:
            return x
        if is_capturing():
            raise GraphCaptureError(
                "inject_noise is not replay-safe: the Figure-6 noise protocol "
                "scales by the live batch statistics (std of the layer input), "
                "which a tape replay cannot reproduce without rebuilding the "
                "graph; run noise-robustness sweeps with static_graph=False"
            )
        blocks = []
        for part in np.split(x.data, _view_count()):
            scale = float(part.std()) * self.noise_eps
            blocks.append(self._noise_rng.uniform(-scale, scale, size=part.shape).astype(x.dtype))
        return F.add(x, Tensor(np.concatenate(blocks)))

    # ------------------------------------------------------------------
    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        """Return hidden states ``(B, N, d)``; subclasses implement."""
        raise NotImplementedError

    def user_representation(self, input_ids: np.ndarray) -> Tensor:
        """Last hidden state ``h_t^L`` as the user vector (Section III-D).

        The one user-vector hook: ``(B, N)`` ids to ``(B, d)``.  The
        default slices :meth:`encode_states`; an override must return the
        same value and draw the same dropout masks.
        """
        states = self.encode_states(input_ids)
        return F.getitem(states, (slice(None), -1))

    def encode_views(self, view_inputs) -> tuple:
        """Encode several same-shape input batches in one stacked pass.

        The contrastive objectives encode ``V`` views of each training
        batch per step (main pass, dropout view, same-target or
        augmented views).  This helper concatenates the ``(B, N)``
        view inputs into one ``(V*B, N)`` batch, runs a **single**
        :meth:`user_representation` graph walk over it, and returns one
        ``(B, d)`` last-state user tensor per view — cutting the
        python/op count of the dominant training cost ~``V``-fold while
        fattening every GEMM and FFT.

        Every dropout site draws its mask in C order over the stacked
        leading axis, which is exactly the draws of ``V`` separate
        passes, so the stacked encode is the same stochastic model as
        the sequential one: per-view masks identical, float64 losses
        equal to a sequential encode of the views to reassociation
        tolerance (the test suite keeps that sequential encode as the
        oracle).  Under the Figure-6 noise protocol :meth:`inject_noise`
        scales each view block by its own std (the view count is set for
        the pass and restored in a ``finally``), so the views stay
        uncoupled; its one generator serves the views layer by layer,
        so the noise draws are not the sequential encode's.
        """
        arrays = [np.asarray(v) for v in view_inputs]
        if len(arrays) < 2:
            raise ValueError("encode_views needs at least two views")
        if any(arr.shape != arrays[0].shape for arr in arrays[1:]):
            raise ValueError(
                f"all views must share one shape, got {[a.shape for a in arrays]}"
            )
        batch = arrays[0].shape[0]
        stacked = np.concatenate(arrays, axis=0)
        # Static-graph replay: the view arrays alias the executor's
        # persistent input buffers (refreshed in place per batch), so
        # the stacked batch is re-concatenated into the same array
        # object the captured encode reads from.
        record_host(
            lambda: np.concatenate(arrays, axis=0, out=stacked), "encode_views.stack"
        )
        previous = _view_count()
        _stacked.views = len(arrays)
        try:
            user = self.user_representation(stacked)  # (V*B, d)
        finally:
            _stacked.views = previous
        return tuple(
            F.getitem(user, slice(i * batch, (i + 1) * batch))
            for i in range(len(arrays))
        )

    def _score_table(self) -> Tensor:
        """Embedding rows used for scoring (padding + real items only)."""
        weight = self.item_embedding.weight
        if weight.shape[0] == self.num_items + 1:
            return weight
        return F.getitem(weight, slice(0, self.num_items + 1))

    def score_context(self) -> np.ndarray:
        """Precomputed scoring state shared by one evaluation pass.

        Returns the transposed item table ``(d, V+1)`` as a contiguous
        array so the evaluator materializes it once per pass instead of
        re-deriving it (slice + transpose + graph wrapping) per batch.
        The context snapshots current weights; recompute it after any
        parameter update.
        """
        with no_grad():
            table = self._score_table().data
        return np.ascontiguousarray(table.T)

    def predict_scores(self, input_ids: np.ndarray, context: np.ndarray | None = None) -> np.ndarray:
        """Full-vocabulary scores for evaluation: ``h @ M_V^T`` (Eq. 31).

        ``encode_users(input_ids) @ context``, with ``context`` a
        :meth:`score_context` result (taken fresh when omitted), so
        evaluation and serving score the same user vectors against the
        same contiguous table.  No autograd graph is built.
        """
        if context is None:
            context = self.score_context()
        return self.encode_users(input_ids) @ context

    # ------------------------------------------------------------------
    # Inference-state hooks (the serving path, repro.serving)
    # ------------------------------------------------------------------
    def inference_version(self) -> int:
        """Staleness token for inference caches derived from parameters.

        Any cached scoring state (a :meth:`score_context` table, a
        serving-side half-precision item table, a per-user encoded
        vector) is valid only while this token is unchanged.  It is the
        process-global parameter-mutation epoch
        (:func:`repro.autograd.tensor.parameter_version`, bumped by
        optimizer steps, ``load_state_dict`` and ``Module.to``), so it
        can tick without *this* model having changed — a spurious
        rebuild, never a stale serve.  Mutating parameter ``.data``
        buffers by hand bypasses the counter; call
        :func:`repro.autograd.tensor.bump_parameter_version` after
        doing that.
        """
        from repro.autograd.tensor import parameter_version

        return parameter_version()

    def encode_users(self, input_ids: np.ndarray) -> np.ndarray:
        """Encode ``(B, N)`` history windows into ``(B, d)`` user vectors.

        The serving micro-batch entry point: one stacked
        :meth:`user_representation` graph walk for the whole batch (the same
        batch-axis stacking :meth:`encode_views` uses for training
        views), run entirely under :func:`no_grad` so no autograd graph
        is built.  Returns a plain numpy array in the model dtype; a
        single ``(N,)`` window is accepted and returns ``(1, d)``.

        Call with the model in eval mode — dropout must be off for the
        encoding to be a deterministic function of the window, which is
        what makes per-user caching of the result sound.
        """
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim == 1:
            input_ids = input_ids[None, :]
        with no_grad():
            return self.user_representation(input_ids).data

    def configure_head(
        self, train_num_negatives: int | None = None, negative_sampling: str = "uniform"
    ) -> None:
        """Pick the training head and build its sampler now.

        ``train_num_negatives=None`` keeps the full softmax (Eq. 32); a
        positive ``K`` switches :meth:`prediction_loss` to the sampled
        softmax over the positive plus ``K`` negatives drawn from a
        :class:`NegativeSampler` with the ``negative_sampling``
        proposal (``"uniform"`` / ``"log_uniform"``), seeded from the
        model seed.  Evaluation ranks the full catalog either way.
        """
        check_head(train_num_negatives, negative_sampling)
        self.train_num_negatives = train_num_negatives
        self._train_sampler = (
            None
            if train_num_negatives is None
            else NegativeSampler(
                self.num_items, strategy=negative_sampling, seed=self._train_sampler_seed
            )
        )

    def prediction_loss(self, user: Tensor, targets: np.ndarray) -> Tensor:
        """Eq. 31-32 from precomputed user vectors: score table GEMM + CE.

        The full softmax over the ``V+1`` item table
        (:func:`repro.autograd.functional.linear_cross_entropy`), or,
        after :meth:`configure_head` picked ``K`` negatives, the sampled
        softmax over the positive plus ``K`` drawn negatives
        (:func:`repro.autograd.functional.sampled_softmax_loss`), which
        bounds the head's *compute* for huge catalogs.
        """
        if self._train_sampler is not None:
            return F.sampled_softmax_loss(
                user,
                self._score_table(),
                targets,
                self._train_sampler,
                self.train_num_negatives,
            )
        return F.linear_cross_entropy(user, self._score_table(), targets)

    def recommendation_loss(self, input_ids: np.ndarray, targets: np.ndarray) -> Tensor:
        """Cross-entropy over the full softmax (Eq. 32)."""
        return self.prediction_loss(self.user_representation(input_ids), targets)

    # Default training objective; contrastive models override.
    def loss(self, batch) -> Tensor:
        return self.recommendation_loss(batch.input_ids, batch.targets)
