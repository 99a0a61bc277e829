"""Module / Parameter abstractions mirroring a minimal ``torch.nn`` API.

A :class:`Module` owns :class:`Parameter` tensors and child modules, exposes
them through :meth:`parameters` / :meth:`named_parameters`, and supports
``train`` / ``eval`` mode switching plus state-dict style (de)serialisation.
Every model in :mod:`repro.core` and :mod:`repro.baselines` is built on it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor

__all__ = ["ModelCapabilities", "Parameter", "Module", "ModuleList", "Sequential"]


@dataclass(frozen=True)
class ModelCapabilities:
    """Declared execution capabilities of a model (no ``hasattr`` probing).

    Consumers — the trainer, the sharded executor and the serving tier —
    branch on these flags instead of probing for method names, so a model
    states explicitly which optional protocols it implements:

    * ``encode_match_split`` — the model factors its forward into
      ``encode_representations`` (per-user encoder outputs) and
      ``match_representations`` (the matching/complementing stages) and
      scores representation rows via ``score_pairs``.  This is the boundary
      the serving tier persists as its representation store.
    * ``sharding`` — the model decomposes a training step into per-shard
      losses (``compute_shard_loss``) that sum to the full-batch loss.
    * ``matching_pools`` — the model draws per-step matching pools from its
      own rng (``sample_step_pools``), which the sharded executor must
      draw parent-side so retries never perturb the rng stream.
    * ``subgraph_sampling`` — the model supports restricted k-hop training
      forwards (``configure_subgraph_sampling``).
    """

    encode_match_split: bool = False
    sharding: bool = False
    matching_pools: bool = False
    subgraph_sampling: bool = False


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by its owning module."""

    def __init__(self, data, requires_grad: bool = True) -> None:
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes inside ``__init__``; they are picked up automatically for
    parameter iteration, gradient zeroing and state-dict export.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # attribute management
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, parameter: Parameter) -> None:
        """Explicitly register ``parameter`` under ``name``."""
        self._parameters[name] = parameter
        object.__setattr__(self, name, parameter)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child ``module`` under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # parameter iteration
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including ``self``."""
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(parameter.size for parameter in self.parameters()))

    # ------------------------------------------------------------------
    # capability declaration
    # ------------------------------------------------------------------
    def capabilities(self) -> ModelCapabilities:
        """Declared optional-protocol support; all off unless overridden."""
        return ModelCapabilities()

    def on_epoch_start(self, epoch: int) -> None:
        """Training-engine epoch hook; the default model has no epoch state."""

    # ------------------------------------------------------------------
    # training state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. dropout)."""
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name -> array copy of all parameters."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = [name for name in own if name not in state]
        unexpected = [name for name in state if name not in own]
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, parameter in own.items():
            if name in state:
                # Cast into the parameter's storage dtype (the engine dtype
                # at construction time) so float32-mode models stay float32.
                value = np.asarray(state[name], dtype=parameter.data.dtype)
                if value.shape != parameter.data.shape:
                    raise ValueError(
                        f"shape mismatch for '{name}': "
                        f"expected {parameter.data.shape}, got {value.shape}"
                    )
                parameter.data = value.copy()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError("Module subclasses must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({child_repr})"


class ModuleList(Module):
    """A list container whose elements are registered as child modules."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._items)), module)
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")


class Sequential(Module):
    """Chain modules, feeding each output into the next module's input."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.add_module(str(len(self._items)), module)
            self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x
