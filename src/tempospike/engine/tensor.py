"""Dense float64 tensors with a recorded-operation tape for reverse-mode gradients.

A float32 array or numpy scalar stays float32, for tape-free passes that run
in float32; every other input is coerced to float64.

The tape records every differentiable operation in execution order, which is a
topological order by construction, so one reverse sweep yields gradients for
every tensor that requires them. The tape names tensors by their ``key`` and
holds none of the arrays its ops produce: an array lives while the caller or
some backward closure reads it, and each closure captures only what its
formula reads (a shape, a mask, an input's data). Tensors are immutable after
creation except through the optimizer, which rewrites ``.data`` in place
between tapes.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_KEYS = itertools.count()


class EngineError(Exception):
    """Base error for tensor/tape failures."""


class ShapeError(EngineError):
    """Operands have incompatible shapes."""


class Tensor:
    """A dense float64 array, or a float32 one kept in float32, plus gradient
    bookkeeping. ``key`` is unique in the process and names the tensor on a
    tape."""

    __slots__ = ("data", "requires_grad", "name", "key")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # a float32 op on 0-d arrays returns a float32 numpy scalar
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # arithmetic sugar; scalars and arrays coerce to constant tensors
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def sum(self) -> "Tensor":
        return sum_all(self)

    def mean(self) -> "Tensor":
        return mean_all(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __getitem__(self, key) -> "Tensor":
        return index(self, key)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class TapeNode:
    """One recorded operation: the keys of its inputs (None for an input that
    needs no gradient), the key of its output, and its backward rule."""

    __slots__ = ("input_keys", "output_key", "backward")

    def __init__(self, input_keys: tuple[int | None, ...], output_key: int,
                 backward: Callable[[Array], tuple[Array | None, ...]]):
        self.input_keys = input_keys
        self.output_key = output_key
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of operations; reverse sweep computes all gradients."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.produced: set[int] = set()  # keys of the nodes' outputs
        # inputs that require a gradient but were not produced on this tape
        self.leaves: dict[int, Tensor] = {}
        # global L2 norm of every gradient the last backward sweep computed,
        # activations included, although only leaf gradients are returned
        self.grad_norm: float | None = None

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def _record(self, inputs: Sequence[Tensor], out: Tensor,
                backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> None:
        for t in inputs:
            if t.requires_grad and t.key not in self.produced:
                self.leaves[t.key] = t
        self.produced.add(out.key)
        keys = tuple(t.key if t.requires_grad else None for t in inputs)
        self.nodes.append(TapeNode(keys, out.key, backward_fn))

    def backward(self, loss: Tensor) -> dict[Tensor, Array]:
        """Gradients of a scalar loss w.r.t. every leaf tensor that requires them.

        Gradients are summed by key. Intermediate gradients are dropped as soon
        as their node has been processed, so what is left belongs to leaves
        (parameters, inputs, tensors of an enclosing tape), which are returned
        as ``{leaf: grad}``. Deterministic: the same tape always accumulates in
        the same order.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        if loss.key not in self.produced:
            raise EngineError("loss tensor was not produced on this tape")
        grads: dict[int, Array] = {loss.key: np.ones_like(loss.data)}
        sq = 0.0
        for node in reversed(self.nodes):
            gout = grads.pop(node.output_key, None)
            if gout is None:
                continue
            sq += float(np.vdot(gout, gout))
            for key, gin in zip(node.input_keys, node.backward(gout)):
                if gin is None or key is None:
                    continue
                acc = grads.get(key)
                grads[key] = gin if acc is None else acc + gin
        self.grad_norm = math.sqrt(sq + sum(float(np.vdot(g, g)) for g in grads.values()))
        return {self.leaves[key]: g for key, g in grads.items()}


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record(inputs: Sequence[Tensor], out_data: Array,
           backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    """Create the output tensor and register the op on the active tape."""
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape._record(inputs, out, backward_fn)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient back down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# The elementwise ops below skip the gradient of an input that does not
# require one, such as a constant mask: the tape would drop it anyway.

def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb, need_a, need_b = a.shape, b.shape, a.requires_grad, b.requires_grad

    def back(g):
        return (_unbroadcast(g, sa) if need_a else None,
                _unbroadcast(g, sb) if need_b else None)

    return record((a, b), a.data + b.data, back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb, need_a, need_b = a.shape, b.shape, a.requires_grad, b.requires_grad

    def back(g):
        return (_unbroadcast(g, sa) if need_a else None,
                _unbroadcast(-g, sb) if need_b else None)

    return record((a, b), a.data - b.data, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return record((a, b), a.data * b.data, back)


def div(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = (_unbroadcast(-g * a.data / (b.data * b.data), b.shape)
              if b.requires_grad else None)
        return ga, gb

    return record((a, b), a.data / b.data, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

    def back(g):
        return g @ b.data.T, a.data.T @ g

    return record((a, b), a.data @ b.data, back)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def back(g):
        return (np.full(shape, float(g)),)

    return record((a,), np.asarray(a.data.sum()), back)


def mean_all(a: Tensor) -> Tensor:
    n, shape = a.size, a.shape

    def back(g):
        return (np.full(shape, float(g) / n),)

    return record((a,), np.asarray(a.data.mean()), back)


def reshape(a: Tensor, shape) -> Tensor:
    shape, shape_a = tuple(shape), a.shape

    def back(g):
        return (g.reshape(shape_a),)

    return record((a,), a.data.reshape(shape), back)


def index(a: Tensor, key) -> Tensor:
    """Basic indexing, e.g. one timestep of a [T, batch, ...] sequence."""
    shape = a.shape

    def back(g):
        ga = np.zeros(shape)
        ga[key] = g
        return (ga,)

    return record((a,), a.data[key], back)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    def back(g):
        return tuple(g)

    return record(tuple(tensors), np.stack([t.data for t in tensors]), back)


def sum_steps(a: Tensor) -> Tensor:
    """Sum over the leading (time) axis."""
    shape = a.shape

    def back(g):
        return (np.broadcast_to(g, shape),)

    return record((a,), a.data.sum(axis=0), back)
