"""Multi-head self-attention (used by the Transformer baselines).

SLIME4Rec itself is attention-free; this module exists so SASRec,
BERT4Rec, CL4SRec, CoSeRec, DuoRec and ContrastVAE can be reproduced on
the same substrate, and so the Section III-F complexity comparison has a
real self-attention implementation to benchmark against.

Shapes and dtype contract
-------------------------
Input is ``(B, N, dim)`` with ``dim = num_heads * head_dim``; scores
and attention probabilities are ``(B, H, N, N)``; output is
``(B, N, dim)``.  All activations and gradients stay in the parameter
dtype (float32 or float64, see :mod:`repro.nn.init`).

Fast path
---------
The layer runs on the shared per-step workspace
(:mod:`repro.nn.workspace`):

- the three Q/K/V projections collapse into a **single** ``(dim, 3*dim)``
  GEMM against the concatenation of the three weight matrices, rebuilt
  on every forward from the live payloads (microseconds against the
  GEMM, and never stale); the parameters themselves stay three
  separate ``Linear`` modules, so checkpoints, seeds and ``state_dict``
  layouts are unchanged;
- the ``1/sqrt(head_dim)`` score scale is folded into the Q slab of
  that GEMM's output, removing two full ``(B, H, N, N)`` multiplies per
  step;
- the head split happens once on the packed ``(B, N, 3*dim)`` result,
  and the output projection consumes the ``(B, H, N, head_dim)``
  context directly — no separate transpose/reshape autograd nodes;
- causal and diagonal mask patterns are cached per sequence length.

The reference composition of primitive ops (three projections, an
explicit score scale, separate head merges) lives in the test suite as
the oracle this path is checked against, on values, gradients and
dropout masks, in both dtypes.

Last query only
---------------
``forward(x, last_query=True)`` returns the output at the last position
alone, ``(B, 1, dim)``, for callers that read only ``h_t`` (the
transformer models' last block).  Keys and values need every position,
so the fused Q/K/V GEMM stays full; Q is sliced to row ``N-1`` and the
scores, softmax, probability dropout, context and output projection run
on one query row.  Each query row of attention depends on that query
and on all keys and values only, so the row equals row ``N-1`` of the
full output (to float reassociation), causal or bidirectional.  The
mask row is a *view* of the block mask, so the in-place block-mask
refresh of a tape replay still reaches it, and the probability dropout
draws the last query row of its ``(B, H, N, N)`` mask and skips the
generator past the other rows (``F.dropout(seq_len=N)``), so the mask
row and the generator's end state are the full call's.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import record_host, record_node
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.workspace import get_workspace

__all__ = ["MultiHeadSelfAttention", "causal_mask"]


def causal_mask(n: int) -> np.ndarray:
    """Boolean (n, n) mask that is True where attention must be blocked."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _fused_qkv_heads(
    x: Tensor,
    params: tuple,
    qkv_cat,
    num_heads: int,
    scale: float,
) -> tuple:
    """Project ``x`` to head-split Q, K, V with one ``(d, 3d)`` GEMM.

    Returns three sibling autograd nodes of shape ``(B, H, N, hd)``;
    Q already carries the ``scale`` factor.  ``params`` is the tuple
    ``(wq, bq, wk, bk, wv, bv)`` of the *original* projection
    parameters — gradients are routed back to them by splitting the
    fused GEMM's weight/bias gradients, so the fusion is invisible to
    optimizers and checkpoints.  ``qkv_cat`` is a zero-argument
    callable returning the ``(w_cat, b_cat)`` concatenation; it
    is invoked on every forward evaluation (build and static-graph
    replay alike) so replays observe post-optimizer weights.

    The backward pass is fused too: each sibling contributes its
    incoming gradient to one slab of a shared ``(3, B, H, N, hd)``
    buffer, and the third arrival runs the combined ``(B*N, 3d)``
    GEMM pair for the input and weight gradients.  All three outputs
    must therefore participate in the loss (they always do inside
    attention); an output dropped from the graph would silently
    swallow the shared gradient.
    """
    batch, length, dim = x.shape
    head_dim = dim // num_heads
    w_cat = b_cat = x2 = packed = None

    def forward():
        # Replay closure: re-fetches the concatenated weights and the
        # live input array every call; ``w_cat``/``x2``/``packed`` are
        # rebound for the backward closure, which shares these cells.
        nonlocal w_cat, b_cat, x2, packed
        w_cat, b_cat = qkv_cat()
        x2 = x.data.reshape(-1, dim)  # (B*N, d) view
        qkv = x2 @ w_cat
        qkv += b_cat
        if scale != 1.0:
            qkv[:, :dim] *= scale
        packed = np.ascontiguousarray(
            qkv.reshape(batch, length, 3, num_heads, head_dim).transpose(2, 0, 3, 1, 4)
        )  # (3, B, H, N, hd)
        return packed[0], packed[1], packed[2]

    forward()

    needs_grad = is_grad_enabled() and (
        x.requires_grad or x._backward is not None or any(p.requires_grad for p in params)
    )
    if not needs_grad:
        outs = tuple(Tensor(packed[i]) for i in range(3))
        record_node(outs, forward, "fused_qkv")
        return outs

    parents = (x,) + tuple(params)
    state = {"arrived": 0, "gbuf": None}

    def make_backward(slot: int):
        def backward(grad):
            if state["gbuf"] is None:
                state["gbuf"] = np.empty(packed.shape, dtype=x.dtype)
            np.copyto(state["gbuf"][slot], grad)
            state["arrived"] += 1
            if state["arrived"] < 3:
                return None
            # Reset so a second backward over a shared graph starts a
            # fresh accumulation round instead of reading stale slabs.
            state["arrived"] = 0
            g = np.ascontiguousarray(state["gbuf"].transpose(1, 3, 0, 2, 4)).reshape(
                batch * length, 3 * dim
            )
            if scale != 1.0:
                g[:, :dim] *= scale
            gx = (g @ w_cat.T).reshape(batch, length, dim)
            gw = x2.T @ g  # (d, 3d)
            gb = g.sum(axis=0)  # (3d,)
            return (
                gx,
                gw[:, :dim], gb[:dim],
                gw[:, dim:2 * dim], gb[dim:2 * dim],
                gw[:, 2 * dim:], gb[2 * dim:],
            )

        return backward

    outs = tuple(
        Tensor(packed[i], _parents=parents, _backward=make_backward(i)) for i in range(3)
    )
    record_node(outs, forward, "fused_qkv")
    return outs


def _attention_output(context: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Output projection fused with the head merge.

    Consumes the ``(B, H, N, hd)`` context directly: one contiguous
    ``(B, N, d)`` copy feeds the GEMM, instead of the seed's separate
    transpose + reshape autograd nodes and an extra broadcast-add for
    the bias.
    """
    batch, heads, length, head_dim = context.shape
    dim = heads * head_dim
    ctx2 = None

    def forward():
        # Replay closure: ``ctx2`` is rebound for the backward closure.
        nonlocal ctx2
        ctx2 = context.data.transpose(0, 2, 1, 3).reshape(batch * length, dim)  # copies
        out = ctx2 @ weight.data
        out += bias.data
        return out.reshape(batch, length, dim)

    out = forward()

    needs_grad = is_grad_enabled() and (
        context.requires_grad
        or context._backward is not None
        or weight.requires_grad
        or bias.requires_grad
    )
    if not needs_grad:
        result = Tensor(out)
        record_node(result, forward, "attention_output")
        return result

    def backward(grad):
        g2 = grad.reshape(batch * length, dim)
        gctx = np.ascontiguousarray(
            (g2 @ weight.data.T)
            .reshape(batch, length, heads, head_dim)
            .transpose(0, 2, 1, 3)
        )
        gw = ctx2.T @ g2
        gb = g2.sum(axis=0)
        return (gctx, gw, gb)

    result = Tensor(out, _parents=(context, weight, bias), _backward=backward)
    record_node(result, forward, "attention_output")
    return result


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    Parameters
    ----------
    dim:
        Model width; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads.
    dropout:
        Attention-probability dropout rate.
    causal:
        When True a causal (left-to-right) mask is applied, as in
        SASRec.  Bidirectional models (BERT4Rec) pass False.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.0,
        causal: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.query = Linear(dim, dim, rng=rng, dtype=dtype)
        self.key = Linear(dim, dim, rng=rng, dtype=dtype)
        self.value = Linear(dim, dim, rng=rng, dtype=dtype)
        self.out = Linear(dim, dim, rng=rng, dtype=dtype)
        self.attn_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))

    # ------------------------------------------------------------------
    def _qkv_cat(self) -> tuple:
        """The ``(d, 3d)`` weight and ``(3d,)`` bias of the fused GEMM."""
        w = np.concatenate(
            [self.query.weight.data, self.key.weight.data, self.value.weight.data], axis=1
        )
        b = np.concatenate([self.query.bias.data, self.key.bias.data, self.value.bias.data])
        return w, b

    def _block_mask(self, length: int, key_padding_mask: np.ndarray | None) -> np.ndarray:
        """The boolean "attention blocked" pattern, cached per length.

        Equals ``(causal | padding) & ~eye`` from the seed
        implementation — each query's own position stays attendable so
        fully-masked rows cannot produce NaN softmax outputs — but the
        static parts are built once per ``N`` in the shared workspace,
        and the no-padding case returns a broadcastable ``(1, 1, N, N)``
        view instead of a per-batch array.
        """
        ws = get_workspace()
        if key_padding_mask is None:
            if self.causal:
                # triu(k=1) never touches the diagonal, so & ~eye is a no-op.
                return ws.cached(
                    ("attn.causal", length),
                    lambda: _readonly(causal_mask(length)[None, None]),
                )
            return ws.cached(
                ("attn.noblock", length),
                lambda: _readonly(np.zeros((1, 1, length, length), dtype=bool)),
            )
        not_eye = ws.cached(
            ("attn.not_eye", length),
            lambda: _readonly(~np.eye(length, dtype=bool)),
        )
        causal = (
            ws.cached(("attn.causal2d", length), lambda: _readonly(causal_mask(length)))
            if self.causal
            else None
        )

        def build(out=None):
            res = np.logical_and(key_padding_mask[:, None, None, :], not_eye, out=out)
            if causal is not None:
                np.logical_or(res, causal, out=res)
            return res

        block = build()
        # Static-graph replay: ``key_padding_mask`` is a persistent host
        # buffer refreshed in place per batch (see the encoders'
        # ``record_host`` sites), so the blocked pattern is recomputed
        # into the same array object that downstream masked_fill
        # closures captured.
        record_host(lambda: build(out=block), "attention.block_mask")
        return block

    # ------------------------------------------------------------------
    def forward(
        self,
        x: Tensor,
        key_padding_mask: np.ndarray | None = None,
        last_query: bool = False,
    ) -> Tensor:
        """Attend over the sequence axis.

        Parameters
        ----------
        x:
            Input of shape ``(B, N, dim)``.
        key_padding_mask:
            Optional boolean array of shape ``(B, N)`` that is True at
            padding positions (those keys are never attended to).
        last_query:
            Return only the last position's output, ``(B, 1, dim)``;
            see "Last query only" in the module docstring.
        """
        length = x.shape[1]
        block = self._block_mask(length, key_padding_mask)
        q, k, v = _fused_qkv_heads(
            x,
            (
                self.query.weight, self.query.bias,
                self.key.weight, self.key.bias,
                self.value.weight, self.value.bias,
            ),
            self._qkv_cat,
            self.num_heads,
            float(1.0 / np.sqrt(self.head_dim)),
        )
        seq_len = None
        if last_query:
            q = F.getitem(q, (slice(None), slice(None), slice(-1, None)))  # (B, H, 1, hd)
            block = block[..., -1:, :]  # a view: replay refreshes reach it
            seq_len = length
        scores = F.matmul(q, F.transpose(k, (0, 1, 3, 2)))  # (B, H, n, N), pre-scaled
        scores = F.masked_fill(scores, block, -1e9)
        probs = self.attn_dropout(F.softmax(scores, axis=-1), seq_len=seq_len)
        context = F.matmul(probs, v)  # (B, H, n, hd)
        return _attention_output(context, self.out.weight, self.out.bias)
