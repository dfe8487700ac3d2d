"""Dense float64 tensors with a small reverse-mode tape and an Adam optimizer.

The tape covers exactly the operations the rest of the package needs
(matmul, einsum, broadcasting arithmetic, ReLU/sigmoid/softplus/sqrt,
reductions, indexing, reshape). Graphs are rebuilt every step, so freeze
state is captured at construction time of each node.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GraphError


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A node in the computation graph holding a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all heavy lifting is in the module-level functions
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, idx):
        return tslice(self, idx)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    """Leaf tensor that never receives gradients."""
    return Tensor(data, requires_grad=False)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _acc(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g, a=a, b=b):
        _acc(a, g)
        _acc(b, g)

    return Tensor(a.data + b.data, _parents=(a, b), _backward=bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g, a=a, b=b):
        _acc(a, g)
        _acc(b, -g)

    return Tensor(a.data - b.data, _parents=(a, b), _backward=bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g, a=a, b=b):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return Tensor(a.data * b.data, _parents=(a, b), _backward=bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g, a=a, b=b):
        _acc(a, g / b.data)
        _acc(b, -g * a.data / (b.data * b.data))

    return Tensor(a.data / b.data, _parents=(a, b), _backward=bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def bwd(g, a=a, b=b):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g, a=a, mask=mask):
        _acc(a, g * mask)

    return Tensor(np.where(mask, a.data, 0.0), _parents=(a,), _backward=bwd)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function from exp(-|x|), which never overflows."""
    e = np.exp(-np.abs(a.data))
    inv = 1.0 / (1.0 + e)
    out = np.where(a.data >= 0, inv, e * inv)
    slope = e * inv * inv

    def bwd(g, a=a, slope=slope):
        _acc(a, g * slope)

    return Tensor(out, _parents=(a,), _backward=bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|), which never overflows; its
    slope is the logistic function."""
    e = np.exp(-np.abs(a.data))
    slope = np.where(a.data >= 0, 1.0, e) / (1.0 + e)

    def bwd(g, a=a, slope=slope):
        _acc(a, g * slope)

    return Tensor(np.maximum(a.data, 0.0) + np.log1p(e), _parents=(a,), _backward=bwd)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def bwd(g, a=a, out=out):
        _acc(a, g * 0.5 / out)

    return Tensor(out, _parents=(a,), _backward=bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def bwd(g, a=a, axis=axis, keepdims=keepdims, shape=shape):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, shape))

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), _parents=(a,), _backward=bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def bwd(g, a=a, old=old):
        _acc(a, g.reshape(old))

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward=bwd)


def _is_basic_index(idx) -> bool:
    """True for ints, slices, None and Ellipsis (and tuples of them)."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice))
               for p in parts)


def tslice(a: Tensor, idx) -> Tensor:
    """numpy indexing; integer-array indices may repeat and then accumulate."""
    basic = _is_basic_index(idx)

    def bwd(g, a=a, idx=idx, basic=basic):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if basic:
                full[idx] = g
            else:
                np.add.at(full, idx, g)
            _acc(a, full)

    return Tensor(a.data[idx], _parents=(a,), _backward=bwd)


def einsum(spec: str, *operands: Tensor) -> Tensor:
    """np.einsum over explicit subscripts ('ij,jk->ik'); each operand's
    gradient is itself an einsum of the output gradient with the others.

    Subscripts may not repeat within an operand and may not use '...'. An
    index that appears in only one operand and not in the output is summed
    there; its gradient is broadcast back along that index.
    """
    if "->" not in spec or "." in spec:
        raise GraphError(f"einsum needs explicit subscripts without '...', got '{spec}'")
    inputs, output = spec.split("->")
    subs = inputs.split(",")
    if len(subs) != len(operands):
        raise DimensionError(f"einsum '{spec}' names {len(subs)} operands, "
                             f"got {len(operands)}")
    for sub, t in zip(subs, operands):
        if len(set(sub)) != len(sub) or len(sub) != t.data.ndim:
            raise DimensionError(f"einsum '{spec}': operand subscripts '{sub}' "
                                 f"do not fit shape {t.shape}")
    datas = [t.data for t in operands]

    def bwd(g, operands=operands, subs=subs, output=output, datas=datas):
        for i, t in enumerate(operands):
            if not t.requires_grad:
                continue
            others = [s for j, s in enumerate(subs) if j != i]
            seen = set(output).union(*others)
            kept = "".join(c for c in subs[i] if c in seen)
            grad = np.einsum(",".join([output] + others) + "->" + kept,
                             g, *(d for j, d in enumerate(datas) if j != i))
            if kept != subs[i]:
                grad = np.broadcast_to(
                    grad.reshape([t.data.shape[k] if c in seen else 1
                                  for k, c in enumerate(subs[i])]), t.data.shape)
            _acc(t, grad)

    return Tensor(np.einsum(spec, *datas), _parents=tuple(operands), _backward=bwd)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss into all reachable grads.

    Frozen (requires_grad=False) leaves receive no accumulation; subgraphs
    with no trainable leaves are skipped entirely.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")

    # iterative topological order over the grad-requiring subgraph
    topo: list[Tensor] = []
    visiting: set[int] = set()
    done: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        nid = id(node)
        if processed:
            topo.append(node)
            done.add(nid)
            continue
        if nid in done or nid in visiting:
            continue
        visiting.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in done:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@dataclass
class ParamGroup:
    """A named collection of trainable leaf tensors with shared freeze state."""

    name: str
    tensors: dict[str, Tensor] = field(default_factory=dict)
    frozen: bool = False

    def add(self, key: str, data) -> Tensor:
        t = Tensor(data, requires_grad=not self.frozen)
        self.tensors[key] = t
        return t

    def freeze(self) -> None:
        self.frozen = True
        for t in self.tensors.values():
            t.requires_grad = False
            t.grad = None

    def unfreeze(self) -> None:
        self.frozen = False
        for t in self.tensors.values():
            t.requires_grad = True

    @property
    def grads(self) -> dict[str, np.ndarray | None]:
        return {k: t.grad for k, t in self.tensors.items()}

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.tensors.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for k, t in self.tensors.items():
            if k not in state:
                raise DimensionError(f"group '{self.name}' missing tensor '{k}'")
            if state[k].shape != t.data.shape:
                raise DimensionError(
                    f"group '{self.name}' tensor '{k}': expected shape "
                    f"{t.data.shape}, got {state[k].shape}")
            t.data = state[k].astype(np.float64).copy()


@dataclass
class AdamState:
    """Per-group Adam accumulators with bias correction."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(group: ParamGroup, state: AdamState) -> None:
    """Standard Adam update on every tensor in the group; clears grads."""
    if group.frozen:
        warnings.warn(f"adam_step on frozen group '{group.name}' is a no-op")
        return
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for key, t in group.tensors.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if key not in state.m:
            state.m[key] = np.zeros_like(t.data)
            state.v[key] = np.zeros_like(t.data)
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = state.m[key] / bc1
        v_hat = state.v[key] / bc2
        t.data = t.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        t.grad = None


def glorot_init(shape, seed) -> np.ndarray:
    """Uniform Glorot draw in +-sqrt(6/(fan_in+fan_out)); seed-deterministic."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise DimensionError(f"glorot_init: non-positive shape {shape}")
    if len(shape) >= 2:
        fan_in, fan_out = shape[0], shape[-1]
    else:
        fan_in = fan_out = shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_mlp(name: str, dims: list[int], rng: np.random.Generator) -> ParamGroup:
    """ParamGroup with weights W0..W{L-1} (Glorot) and zero biases b0..b{L-1}."""
    group = ParamGroup(name)
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        group.add(f"W{i}", glorot_init((d_in, d_out), rng))
        group.add(f"b{i}", np.zeros(d_out))
    return group


def mlp_forward(x: Tensor, layers: ParamGroup) -> Tensor:
    """Apply an MLP stored as W0/b0..W{L-1}/b{L-1}, with ReLU between layers
    and an affine readout; x is (n, d_in) or (d_in,)."""
    n_layers = sum(1 for k in layers.tensors if k.startswith("W"))
    if n_layers == 0:
        raise DimensionError(f"group '{layers.name}' holds no layers")
    squeeze = x.data.ndim == 1
    if squeeze:
        x = reshape(x, (1, -1))
    h = x
    for i in range(n_layers):
        w, b = layers.tensors[f"W{i}"], layers.tensors[f"b{i}"]
        if h.data.shape[1] != w.data.shape[0]:
            raise DimensionError(
                f"mlp_forward: layer {i} of '{layers.name}' expects input dim "
                f"{w.data.shape[0]}, got {h.data.shape[1]}")
        h = matmul(h, w) + b
        if i < n_layers - 1:
            h = relu(h)
    if squeeze:
        h = reshape(h, (-1,))
    return h
