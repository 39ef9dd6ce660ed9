"""Checkpoint and experiment-result persistence.

Checkpoints are ``.npz`` archives of numpy arrays plus a JSON metadata
side-channel stored under a reserved key, so a checkpoint is
self-describing.  Experiment results are plain JSON, making them
diffable in review.

Durability contract (the crash-safe half of the fault-tolerant training
runtime; see ``docs/ARCHITECTURE.md``):

- **Every archive write is atomic**: bytes go to a temp file in the
  target directory, are flushed and ``fsync``-ed, and the temp file is
  ``os.replace``-d over the destination (followed by a directory
  fsync).  A crash mid-write leaves either the old file or the new one,
  never a truncated hybrid — this covers the legacy single-file
  :func:`save_checkpoint` path too.
- **Run checkpoints live in a** :class:`CheckpointStore` **directory**:
  ``ckpt-<step>.npz`` files plus a ``manifest.json`` recording each
  file's step and SHA-256.  The manifest gains the new entry *before*
  old checkpoints are pruned, so a crash between publish and rotation
  loses nothing.
- **Loads verify before they trust**: :meth:`CheckpointStore.load_latest`
  checks the newest entry's checksum and archive integrity and, when it
  is truncated/corrupt/missing, warns and falls back to the previous
  entry instead of crashing the resume.

Fault-injection trip points (``repro.utils.faults``) are embedded in
the real save path — ``checkpoint.pre_save`` / ``checkpoint.write`` /
``checkpoint.post_save`` / ``checkpoint.end`` — so crash/resume tests
kill exactly the code a production crash would interrupt.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.utils import faults

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_results",
    "load_results",
    "atomic_savez",
    "atomic_write_text",
    "CheckpointStore",
    "CheckpointCorruptError",
]

_META_KEY = "__repro_meta__"


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file failed checksum or archive verification."""


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_publish(path: Path, write_body) -> Path:
    """Write via ``write_body(fh)`` to a temp file, fsync, and replace ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            write_body(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    _fsync_dir(path.parent)
    return path


def atomic_savez(path: str | Path, payload: Dict[str, np.ndarray]) -> Path:
    """``np.savez`` with the temp-file + fsync + ``os.replace`` protocol."""

    def body(fh):
        faults.trip("checkpoint.write")
        np.savez(fh, **payload)

    return _atomic_publish(Path(path), body)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    return _atomic_publish(Path(path), lambda fh: fh.write(text.encode("utf-8")))


# ----------------------------------------------------------------------
# Single-file model checkpoints (the legacy public API)
# ----------------------------------------------------------------------

def _pack_metadata(payload: Dict[str, np.ndarray], meta: Dict[str, Any]) -> None:
    if _META_KEY in payload:
        raise ValueError(f"state dict may not use the reserved key {_META_KEY!r}")
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )


def save_checkpoint(model, path: str | Path, metadata: Optional[Dict[str, Any]] = None) -> Path:
    """Write ``model.state_dict()`` (and optional metadata) to ``path``.

    The write is atomic (temp file + fsync + ``os.replace``): a crash
    mid-save can no longer leave a truncated archive over a good one.

    Parameters
    ----------
    model:
        Any object with a ``state_dict() -> Dict[str, ndarray]`` method.
    path:
        Target file; the ``.npz`` suffix is added when missing.
    metadata:
        JSON-serializable extras (epoch, metrics, config dict, ...).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    payload = dict(model.state_dict())
    meta = dict(metadata or {})
    meta.setdefault("model_class", type(model).__name__)
    _pack_metadata(payload, meta)
    return atomic_savez(path, payload)


def _unpack_archive(archive) -> Dict[str, Any]:
    state = {k: archive[k] for k in archive.files if k != _META_KEY}
    metadata: Dict[str, Any] = {}
    if _META_KEY in archive.files:
        metadata = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
    return {"state": state, "metadata": metadata}


def load_checkpoint(path: str | Path, model=None) -> Dict[str, Any]:
    """Load a checkpoint; optionally restore it into ``model``.

    Returns ``{"state": {...}, "metadata": {...}}``.  When ``model`` is
    given, ``model.load_state_dict(state)`` is called (raising on any
    key/shape/dtype mismatch, so silent partial or precision-losing
    restores cannot happen).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with np.load(path) as archive:
        result = _unpack_archive(archive)
    if model is not None:
        model.load_state_dict(result["state"])
    return result


# ----------------------------------------------------------------------
# Rotated, checksummed run-state checkpoints
# ----------------------------------------------------------------------

class CheckpointStore:
    """A directory of rotated, checksummed ``.npz`` run-state checkpoints.

    Layout::

        <directory>/
            manifest.json          # [{"file", "step", "sha256", "bytes"}, ...]
            ckpt-0000000042.npz    # payload arrays + JSON metadata side-channel
            ckpt-0000000084.npz

    ``save`` publishes atomically, records the new entry in the
    manifest *before* pruning to ``keep_last`` files, and embeds the
    fault trip points documented in :mod:`repro.utils.faults`.
    ``load_latest`` walks entries newest-first, verifying the SHA-256
    and the archive's readability, and falls back (with a warning) past
    any truncated or corrupt file — the recovery behavior a crash
    during ``save`` relies on.  A missing or unparseable manifest is
    rebuilt from the ``ckpt-*.npz`` files on disk (without checksums).
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path, keep_last: int = 3, prefix: str = "ckpt") -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.keep_last = int(keep_last)
        self.prefix = prefix

    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.directory / self.MANIFEST

    def entries(self) -> List[Dict[str, Any]]:
        """Manifest entries sorted by step (oldest first), self-healing.

        A corrupt or missing manifest degrades to a directory scan:
        every ``<prefix>-*.npz`` present becomes an entry without a
        checksum (so loads still verify archive integrity, just not the
        digest).
        """
        manifest = self._manifest_path()
        entries: List[Dict[str, Any]] = []
        if manifest.exists():
            try:
                raw = json.loads(manifest.read_text(encoding="utf-8"))
                entries = [e for e in raw.get("checkpoints", []) if isinstance(e, dict)]
            except (json.JSONDecodeError, OSError, AttributeError):
                warnings.warn(
                    f"checkpoint manifest {manifest} is unreadable; "
                    f"rebuilding the entry list from the directory",
                    RuntimeWarning,
                    stacklevel=2,
                )
                entries = []
        if not entries:
            for path in sorted(self.directory.glob(f"{self.prefix}-*.npz")):
                try:
                    step = int(path.stem.rsplit("-", 1)[1])
                except (IndexError, ValueError):
                    continue
                entries.append({"file": path.name, "step": step, "sha256": None})
        return sorted(entries, key=lambda e: (e.get("step", -1), e.get("file", "")))

    def _write_manifest(self, entries: List[Dict[str, Any]]) -> None:
        atomic_write_text(
            self._manifest_path(),
            json.dumps({"version": 1, "checkpoints": entries}, indent=2) + "\n",
        )

    # ------------------------------------------------------------------
    def save(
        self,
        payload: Dict[str, np.ndarray],
        metadata: Dict[str, Any],
        step: int,
    ) -> Path:
        """Durably publish one checkpoint and rotate old ones.

        Order of operations (each boundary is a fault trip point):
        atomic archive write → manifest gains the new entry → rotation
        prunes beyond ``keep_last`` (manifest first, then files).  A
        crash at any point leaves a loadable store: at worst an orphan
        temp file or an already-pruned manifest entry whose file
        deletion didn't land (both are cleaned/skipped on later runs).
        """
        step = int(step)
        faults.trip("checkpoint.pre_save", step)
        payload = dict(payload)
        _pack_metadata(payload, dict(metadata))
        name = f"{self.prefix}-{step:010d}.npz"
        path = atomic_savez(self.directory / name, payload)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        entries = [e for e in self.entries() if e.get("file") != name]
        entries.append(
            {"file": name, "step": step, "sha256": digest, "bytes": path.stat().st_size}
        )
        entries.sort(key=lambda e: (e.get("step", -1), e.get("file", "")))
        self._write_manifest(entries)
        faults.trip("checkpoint.post_save", step)
        if len(entries) > self.keep_last:
            keep, drop = entries[-self.keep_last:], entries[: -self.keep_last]
            self._write_manifest(keep)
            for entry in drop:
                with contextlib.suppress(OSError):
                    (self.directory / entry["file"]).unlink()
        faults.trip("checkpoint.end", step)
        return path

    # ------------------------------------------------------------------
    def _verify_and_load(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        path = self.directory / entry["file"]
        data = path.read_bytes()
        digest = entry.get("sha256")
        if digest and hashlib.sha256(data).hexdigest() != digest:
            raise CheckpointCorruptError(
                f"checksum mismatch for {path.name} (expected {digest[:12]}…)"
            )
        try:
            with np.load(_io.BytesIO(data), allow_pickle=False) as archive:
                result = _unpack_archive(archive)
        except Exception as exc:  # zipfile/numpy raise a zoo of types on truncation
            raise CheckpointCorruptError(f"unreadable archive {path.name}: {exc}") from exc
        result["path"] = path
        result["step"] = int(entry.get("step", -1))
        return result

    def load_latest(self) -> Dict[str, Any]:
        """Load the newest verifiable checkpoint.

        Returns ``{"state", "metadata", "path", "step"}``.  A newest
        entry that is missing, truncated, or checksum-corrupt is skipped
        with an explicit :class:`RuntimeWarning`, and the previous entry
        is tried — the load only raises (``FileNotFoundError``) when no
        entry in the store can be verified.
        """
        entries = self.entries()
        if not entries:
            raise FileNotFoundError(f"no checkpoints found in {self.directory}")
        failures = []
        for entry in reversed(entries):
            try:
                return self._verify_and_load(entry)
            except (OSError, CheckpointCorruptError) as exc:
                failures.append((entry.get("file"), exc))
                warnings.warn(
                    f"checkpoint {entry.get('file')} failed verification ({exc}); "
                    f"falling back to the previous checkpoint",
                    RuntimeWarning,
                    stacklevel=2,
                )
        raise FileNotFoundError(
            f"no loadable checkpoint in {self.directory}: "
            + "; ".join(f"{name}: {exc}" for name, exc in failures)
        )

    def latest_step(self) -> Optional[int]:
        """Step of the newest manifest entry (no verification), or ``None``."""
        entries = self.entries()
        return int(entries[-1]["step"]) if entries else None

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, keep_last={self.keep_last}, "
            f"entries={len(self.entries())})"
        )


# ----------------------------------------------------------------------
# Experiment results (plain JSON)
# ----------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def save_results(results: Dict[str, Any], path: str | Path) -> Path:
    """Persist an experiment-result dict as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(results), indent=2, sort_keys=True))
    return path


def load_results(path: str | Path) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())
