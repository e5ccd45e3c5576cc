"""Module and parameter abstractions for the NumPy NN substrate.

Every layer is a :class:`Module` exposing ``forward`` (caching whatever the
backward pass needs) and ``backward`` (returning the gradient with respect to
the input and accumulating parameter gradients).  There is no autograd tape —
gradients are derived by hand per layer, which keeps the substrate small,
dependency-free and easy to verify against finite differences in the tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A trainable tensor: value plus accumulated gradient."""

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        """Tensor shape."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of scalar parameters."""
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        #: Cleared on a model's first layer, which is fed data rather than
        #: another layer's output: layers whose input gradient is costly then
        #: skip it and ``backward`` returns ``None``.
        self.needs_input_grad = True

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        """Register a trainable parameter under ``name``."""
        param.name = name
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        """Register a child module under ``name``."""
        self._modules[name] = module
        return module

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children (depth-first order)."""
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Reset every parameter gradient."""
        for param in self.parameters():
            param.zero_grad()

    def astype(self, dtype) -> "Module":
        """Cast every parameter, and its gradient, to ``dtype`` in place.

        Layers compute in their parameters' dtype, so this is what selects the
        arithmetic: float64 as built, float32 while the CFNN trains.  Returns
        ``self``.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
            param.grad = np.zeros_like(param.data)
        return self

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output (must cache what backward needs)."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        """Backpropagate ``grad_output``, returning the gradient w.r.t. the input
        (``None`` from a layer whose :attr:`needs_input_grad` is cleared)."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Flat ``{dotted_name: array}`` copy of all parameter values."""
        return {name: param.data.copy() for name, param in self.named_parameters(prefix)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatches.
        """
        own = dict(self.named_parameters())
        for name, param in own.items():
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {param.data.shape}, "
                    f"state provides {value.shape}"
                )
            param.data[...] = value

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            self.append(module)

    def append(self, module: Module) -> None:
        """Append a module to the chain."""
        if not isinstance(module, Module):
            raise TypeError("Sequential can only contain Module instances")
        name = f"layer{len(self._ordered)}"
        self.register_module(name, module)
        self._ordered.append(module)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self._ordered:
            x = module(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for module in reversed(self._ordered):
            grad_output = module.backward(grad_output)
        return grad_output
