"""Base classes for composable neural-network modules.

A :class:`Module` owns :class:`Parameter` tensors and child modules,
discovered automatically through attribute assignment (the same
convention as ``torch.nn.Module``).  It provides recursive parameter
iteration, train/eval mode switching, and a flat ``state_dict`` for
checkpointing.

Dtype contract: parameters are created in the dtype resolved by
:mod:`repro.nn.init` (float64 default, float32 fast path) and
:meth:`Module.to` casts a built module between the two.  Mutations
that rebind or restore parameter payloads (``to``, ``load_state_dict``)
bump the global parameter version so parameter-derived caches —
the serving tier's item table and per-user vectors, keyed on
``inference_version`` — rebuild on the next use; editing ``param.data``
in place by hand requires calling
:func:`repro.autograd.tensor.bump_parameter_version` yourself.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, bump_parameter_version
from repro.autograd.workspace import (
    check_generator_state,
    generator_state,
    set_generator_state,
)

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is a learnable parameter of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Attribute-based registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return int(np.sum([p.size for p in self.parameters()])) if self.parameters() else 0

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted_path, module)`` for this module and all children.

        The root module's path is ``""``; children follow attribute
        names (``"encoder.layers.0"``), the same naming scheme
        :meth:`named_parameters` uses.
        """
        yield prefix, self
        for name, module in self._modules.items():
            child = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(prefix=child)

    # ------------------------------------------------------------------
    # Mode switching and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def to(self, dtype) -> "Module":
        """Cast every parameter payload to ``dtype`` (float32/float64).

        Gradients are dropped (they belong to the old-dtype graph) and
        parameter-derived caches are invalidated.  Call this *before*
        creating an optimizer: moment/scratch buffers are sized and
        typed from ``p.data`` at optimizer construction.
        """
        from repro.nn.init import resolve_dtype

        dtype = resolve_dtype(dtype)
        for param in self.parameters():
            if param.data.dtype != dtype:
                param.data = param.data.astype(dtype)
            param.zero_grad()
        for module in self.modules():
            if hasattr(module, "dtype"):
                module.dtype = dtype
        bump_parameter_version()
        return self

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def check_state_dict(self, state: Dict[str, np.ndarray], cast: bool = False) -> None:
        """Raise unless :meth:`load_state_dict` would accept ``state``.

        Keys must match exactly, and every array must have its
        parameter's shape and dtype.  A dtype mismatch raises a
        :class:`ValueError` naming the offending key instead of casting
        silently — a float32 checkpoint loaded into a float64 model
        would otherwise carry only float32 precision while claiming
        float64, and the reverse direction would silently truncate.
        ``cast=True`` allows the conversion deliberately (e.g.
        restoring a float64 reference checkpoint into a model already
        moved with :meth:`to`).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.shape}, got {value.shape}"
                )
            if value.dtype != param.dtype and not cast:
                raise ValueError(
                    f"dtype mismatch for '{name}': checkpoint has {value.dtype}, "
                    f"parameter is {param.dtype}; build the model in the "
                    f"checkpoint's dtype or pass cast=True to convert explicitly"
                )

    def load_state_dict(self, state: Dict[str, np.ndarray], cast: bool = False) -> None:
        """Restore a :meth:`state_dict` after :meth:`check_state_dict` passes."""
        self.check_state_dict(state, cast=cast)
        for name, param in self.named_parameters():
            param.data = np.asarray(state[name]).astype(param.dtype, copy=True)
        # Restored payloads invalidate parameter-derived caches (e.g.
        # the serving tier's item table).
        bump_parameter_version()

    # ------------------------------------------------------------------
    # Random-stream capture (the RNG half of a full-state checkpoint)
    # ------------------------------------------------------------------
    def _named_rng_owners(self) -> Dict[str, Tuple[str, object]]:
        """Map ``dotted.path`` to every random-stream owner in the tree.

        Two kinds of owner are discovered by scanning module attributes:
        bare ``numpy.random.Generator`` instances (dropout streams,
        augmentation/noise/mask rngs) and *delegates* — objects exposing
        their own ``rng_state_dict``/``load_rng_state_dict`` pair plus a
        ``check_rng_state_dict`` (the
        :class:`~repro.data.negative_sampling.NegativeSampler`).  The
        walk order is deterministic (attribute-assignment order per
        module, :meth:`named_modules` order across the tree).
        """
        owners: Dict[str, Tuple[str, object]] = {}
        for mprefix, module in self.named_modules():
            for attr, value in vars(module).items():
                if isinstance(value, Module):
                    continue
                path = f"{mprefix}.{attr}" if mprefix else attr
                if isinstance(value, np.random.Generator):
                    owners[path] = ("generator", value)
                elif callable(getattr(value, "rng_state_dict", None)) and callable(
                    getattr(value, "load_rng_state_dict", None)
                ):
                    owners[path] = ("delegate", value)
        return owners

    def rng_state_dict(self) -> Dict[str, Dict]:
        """Snapshot every random stream owned by this module tree.

        Returns ``{path: state}`` where ``state`` is a JSON-serializable
        bit-state snapshot (:func:`repro.nn.workspace.generator_state`)
        or a delegate's own ``rng_state_dict``.  Together with
        :meth:`state_dict` and the optimizer state this is everything a
        bitwise-identical training resume needs from the model.
        """
        out: Dict[str, Dict] = {}
        for path, (kind, owner) in self._named_rng_owners().items():
            out[path] = generator_state(owner) if kind == "generator" else owner.rng_state_dict()
        return out

    def check_rng_state_dict(self, state: Dict[str, Dict]) -> None:
        """Raise unless :meth:`load_rng_state_dict` would accept ``state``.

        The snapshot must name exactly the live tree's stream owners
        (:class:`KeyError` otherwise), and each entry must fit its owner.
        """
        owners = self._named_rng_owners()
        missing = set(owners) - set(state)
        unexpected = set(state) - set(owners)
        if missing or unexpected:
            raise KeyError(
                f"rng state mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for path, (kind, owner) in owners.items():
            if kind == "generator":
                check_generator_state(owner, state[path])
            else:
                owner.check_rng_state_dict(state[path])

    def load_rng_state_dict(self, state: Dict[str, Dict]) -> None:
        """Restore a :meth:`rng_state_dict` snapshot in place, all streams
        or none (:meth:`check_rng_state_dict` runs first)."""
        self.check_rng_state_dict(state)
        for path, (kind, owner) in self._named_rng_owners().items():
            if kind == "generator":
                set_generator_state(owner, state[path])
            else:
                owner.load_rng_state_dict(state[path])

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules) if self._modules else ""
        return f"{type(self).__name__}({children})"


class ModuleList(Module):
    """A list of sub-modules, registered so parameters are discovered."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)
