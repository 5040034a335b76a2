"""Parameter and module base classes for the NumPy neural-network substrate.

The paper trained its network with TensorFlow on a GPU; this repository
re-implements the required functionality (forward/backward passes,
parameter management, serialisation) from scratch on NumPy so the whole
attack is runnable offline on a CPU.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor together with its accumulated gradient.

    Setting ``grad`` to None releases the buffer; it comes back zeroed
    on first use.  Loading a state does this, so a loaded model that
    only runs inference (such as a shared attack) holds no gradient
    memory.
    """

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.value.shape})"


class Module:
    """Base class for layers and networks.

    Sub-classes implement ``forward`` and ``backward``.  ``backward``
    receives the gradient of the loss with respect to the module output
    and must return the gradient with respect to the module input while
    accumulating parameter gradients in-place.
    """

    def __init__(self):
        self.training = True

    # -- parameter traversal ------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module, depth-first."""
        found: list[Parameter] = []
        seen: set[int] = set()
        self._collect_parameters(found, seen)
        return found

    def _collect_parameters(self, found: list[Parameter], seen: set[int]) -> None:
        for attr in vars(self).values():
            self._collect_from(attr, found, seen)

    def _collect_from(self, attr, found: list[Parameter], seen: set[int]) -> None:
        if isinstance(attr, Parameter):
            if id(attr) not in seen:
                seen.add(id(attr))
                found.append(attr)
        elif isinstance(attr, Module):
            attr._collect_parameters(found, seen)
        elif isinstance(attr, (list, tuple)):
            for item in attr:
                self._collect_from(item, found, seen)
        elif isinstance(attr, dict):
            for item in attr.values():
                self._collect_from(item, found, seen)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode --------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for attr in vars(self).values():
            self._set_mode_on(attr, training)

    def _set_mode_on(self, attr, training: bool) -> None:
        if isinstance(attr, Module):
            attr._set_mode(training)
        elif isinstance(attr, (list, tuple)):
            for item in attr:
                self._set_mode_on(item, training)
        elif isinstance(attr, dict):
            for item in attr.values():
                self._set_mode_on(item, training)

    # -- serialisation --------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameter values keyed by a stable traversal index."""
        return {
            f"p{i:04d}_{p.name}": p.value for i, p in enumerate(self.parameters())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} tensors, model has {len(params)}"
            )
        for key, param in zip(sorted(state), params):
            value = state[key]
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: "
                    f"{value.shape} vs {param.value.shape}"
                )
            param.value = value.astype(param.value.dtype, copy=True)
            param.grad = None  # zeroed again on first use

    def save(self, path) -> None:
        # Lazy: nn is foundation-layer and must not depend on core at
        # import time; core.atomic is reached only when saving.
        from pathlib import Path

        from repro.core.atomic import atomic_savez

        atomic_savez(Path(path), self.state_dict())

    def load(self, path) -> None:
        with np.load(path) as data:
            self.load_state_dict({k: data[k] for k in data.files})

    # -- call protocol --------------------------------------------------
    def forward(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
