"""Configuration for SLIME4Rec."""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["SlideMode", "SlimeConfig"]


class SlideMode(enum.Enum):
    """The four frequency-ramp slide modes of Table IV.

    The value is a pair of directions ``(dfs, sfs)``; ``"high_to_low"``
    is the paper's ``<-`` arrow (window starts at the high-frequency end
    in layer 0 and slides towards low frequencies with depth).
    """

    MODE_1 = ("high_to_low", "low_to_high")
    MODE_2 = ("low_to_high", "high_to_low")
    MODE_3 = ("low_to_high", "low_to_high")
    MODE_4 = ("high_to_low", "high_to_low")  # paper default / best

    @property
    def dfs_direction(self) -> str:
        return self.value[0]

    @property
    def sfs_direction(self) -> str:
        return self.value[1]


@dataclass
class SlimeConfig:
    """Hyper-parameters of SLIME4Rec (paper Section IV-D defaults).

    Attributes
    ----------
    num_items:
        Number of real items; the embedding table has ``num_items + 1``
        rows (id 0 is padding).
    max_len:
        Input sequence length ``N`` (paper searches {25, 50, 75, 100}).
    hidden_dim:
        Embedding / model width ``d`` (paper default 64).
    num_layers:
        Number of filter mixer blocks ``L`` (paper searches {2, 4, 8}).
    alpha:
        Dynamic filter size ratio ``S_D / M`` in [0, 1] (Eq. 19).
    gamma:
        Mixing weight of the static branch (Eq. 26).
    slide_mode:
        Which of the four Table-IV ramp directions to use.
    use_dfs / use_sfs:
        Ablation switches (Figure 3's w/oD and w/oS variants).
    embed_dropout / hidden_dropout:
        Dropout rates (paper searches {0.1 .. 0.5}).
    cl_weight:
        Lambda, strength of the contrastive regularizer (Eq. 36);
        0 disables contrastive learning (the w/oC variant).  When
        positive, the step's three encodes (main pass, dropout view,
        same-target view) run as one stacked ``(3B, N, d)`` forward
        with per-view dropout streams (``encode_views``).
    cl_temperature:
        Softmax temperature of the InfoNCE objective.
    train_num_negatives:
        Sampled-softmax training.  ``None`` (default) trains against
        the full catalog (Eq. 32); a positive ``K`` scores each row
        against its positive plus ``K`` sampled negatives with the logQ
        correction, bounding the prediction-layer *compute* for huge
        catalogs.  Evaluation always ranks the full catalog regardless.
    negative_sampling:
        Proposal distribution for ``train_num_negatives``:
        ``"uniform"`` (default) or ``"log_uniform"`` (Zipfian,
        popularity-weighted when item ids are popularity-sorted).
    static_graph:
        Opt-in to the static-graph tape executor (off by default): the
        trainer captures one training step into a replayable tape and
        replays it as a flat loop of kernel calls on subsequent
        same-shape batches, skipping per-step autograd graph
        construction.  Replays are bitwise-identical to the dynamic
        engine in float64; divergent geometry/topology (ragged final
        batch, ``noise_eps > 0``) falls back to the dynamic path with
        a logged reason; a parameter rebind or a ``model.training``
        flip re-captures.  See ``docs/ARCHITECTURE.md``.
    noise_eps:
        When positive, uniform noise of this relative magnitude is
        injected into every layer input (the Figure 6 robustness knob),
        scaled by the std of each view block of that input.
    seed:
        Parameter-init and dropout seed.
    dtype:
        Compute dtype of the whole model — ``"float32"`` or
        ``"float64"`` (or the numpy dtype objects).  ``None`` means
        float64, which preserves the seed's float64 numerics
        bit-for-bit.  ``"float32"`` halves parameter/activation memory
        bandwidth and is the supported fast path: every op in the stack
        keeps float32 inputs in float32 (complex64 spectra in the
        filter mixer), and the evaluator ranks in the model dtype.
        Stored normalized to the canonical dtype name string so configs
        stay JSON-serializable.
    """

    num_items: int
    max_len: int = 50
    hidden_dim: int = 64
    num_layers: int = 2
    alpha: float = 0.4
    gamma: float = 0.5
    slide_mode: SlideMode = SlideMode.MODE_4
    use_dfs: bool = True
    use_sfs: bool = True
    embed_dropout: float = 0.3
    hidden_dropout: float = 0.3
    cl_weight: float = 0.1
    cl_temperature: float = 1.0
    train_num_negatives: int | None = None
    negative_sampling: str = "uniform"
    static_graph: bool = False
    noise_eps: float = 0.0
    seed: int = 0
    dtype: str | None = None

    def __post_init__(self) -> None:
        if self.dtype is not None:
            from repro.nn.init import resolve_dtype

            try:
                self.dtype = resolve_dtype(self.dtype).name
            except TypeError as exc:  # np.dtype() on unrecognized input
                raise ValueError(
                    f"dtype must be float32 or float64, got {self.dtype!r}"
                ) from exc
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        from repro.core.encoder import check_head

        check_head(self.train_num_negatives, self.negative_sampling)
        if not (self.use_dfs or self.use_sfs):
            raise ValueError("at least one of use_dfs/use_sfs must be enabled")
        if isinstance(self.slide_mode, int):
            self.slide_mode = SlideMode[f"MODE_{self.slide_mode}"]
