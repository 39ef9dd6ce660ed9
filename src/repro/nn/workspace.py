"""Public surface of the shared per-step compute workspace.

``repro.nn.workspace`` is the documented entry point for the workspace
subsystem that backs the training hot paths:

- **Scratch buffers** (:meth:`StepWorkspace.scratch`): the spectral op
  write their frequency-domain filter products into shared ``(B, M, d)``
  complex buffers instead of allocating per call, dropout draws its
  float64 uniforms into a shared buffer, and the embedding backward
  builds its scatter indices in one; all ``L`` layers of a step reuse
  the same arrays (see :mod:`repro.autograd.spectral` and
  :func:`repro.autograd.functional.dropout`).
- **Derived-constant caches** (:meth:`StepWorkspace.cached`): causal /
  anti-diagonal attention masks per sequence length, index rows, and
  other pure functions of the geometry.
- **The dropout seed-compatibility flag**
  (:func:`set_fast_dropout_masks` / :func:`fast_dropout_masks`): opt-in
  cheap mask generation for throughput runs that do not need
  bitwise-reproducible stochasticity.
- **Dropout view streams** (:func:`dropout_views` /
  :func:`set_dropout_view_count`): inside the context every dropout
  site splits its leading axis into ``V`` view blocks and draws each
  block's mask separately, so a stacked ``(V*B, N, d)`` multi-view
  encode consumes each generator exactly like ``V`` separate
  ``(B, N, d)`` passes would (the contract behind
  :meth:`repro.core.encoder.SequentialEncoderBase.encode_views`).
  The context restores the previous count in a ``finally`` block —
  an exception inside a batched forward cannot leak view state into
  the next step (a test pins this); code
  that calls :func:`set_dropout_view_count` directly must wrap the
  restore in its own try/finally.

- **Random-stream capture** (:func:`generator_state` /
  :func:`set_generator_state`): the JSON-serializable bit-state
  snapshot format behind ``Module.rng_state_dict`` and the trainer's
  crash-safe run-state archive — a restored generator resumes its
  PCG64 sequence mid-stream, bitwise-identically.

Typical uses::

    from repro.nn import workspace

    # Inspect / free the hot-path buffers (e.g. between experiments):
    ws = workspace.get_workspace()
    print(ws)             # scratch/cached entry counts, hit rate, bytes
    ws.clear()

    # Benchmark with cheap dropout masks (non-seed-compatible):
    with workspace.fast_dropout_masks():
        train_one_epoch(model)

Everything here re-exports :mod:`repro.autograd.workspace`, which is
the implementation layer shared by the autograd ops; import from this
module in user code and model code.  The buffer-ownership rules that
make the reuse safe are documented in ``docs/ARCHITECTURE.md`` and the
measured effect in ``docs/PERFORMANCE.md``.
"""

from repro.autograd.workspace import (
    StepWorkspace,
    dropout_view_count,
    dropout_views,
    fast_dropout_masks,
    fast_dropout_masks_enabled,
    generator_state,
    get_workspace,
    reset_workspace,
    set_dropout_view_count,
    set_fast_dropout_masks,
    set_generator_state,
)

__all__ = [
    "StepWorkspace",
    "get_workspace",
    "reset_workspace",
    "set_fast_dropout_masks",
    "fast_dropout_masks_enabled",
    "fast_dropout_masks",
    "set_dropout_view_count",
    "dropout_view_count",
    "dropout_views",
    "generator_state",
    "set_generator_state",
]
