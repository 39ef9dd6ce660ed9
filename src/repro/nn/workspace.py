"""Public surface of the shared per-step compute workspace.

``repro.nn.workspace`` is the documented entry point for the workspace
subsystem that backs the training hot paths:

- **Scratch buffers** (:meth:`StepWorkspace.scratch`): the spectral op
  write their frequency-domain filter products into shared ``(B, M, d)``
  complex buffers instead of allocating per call, the fused post-norm
  tail writes its dropout output into one, GELU runs its per-block
  temporaries through small ones, and the embedding backward builds its
  scatter indices in one; all ``L`` layers of a step reuse the same
  arrays (see :mod:`repro.autograd.spectral` and
  :func:`repro.autograd.functional.dropout_add_layer_norm`).
- **Derived-constant caches** (:meth:`StepWorkspace.cached`): causal /
  anti-diagonal attention masks per sequence length, index rows, and
  other pure functions of the geometry.
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

Everything here re-exports :mod:`repro.autograd.workspace`, which is
the implementation layer shared by the autograd ops; import from this
module in user code and model code.  The buffer-ownership rules that
make the reuse safe are documented in ``docs/ARCHITECTURE.md`` and the
measured effect in ``docs/PERFORMANCE.md``.
"""

from repro.autograd.workspace import (
    StepWorkspace,
    generator_state,
    get_workspace,
    reset_workspace,
    set_generator_state,
)

__all__ = [
    "StepWorkspace",
    "get_workspace",
    "reset_workspace",
    "generator_state",
    "set_generator_state",
]
