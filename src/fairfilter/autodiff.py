"""Dense float64 tensors with a small reverse-mode tape and an Adam optimizer.

Leaves come from `Tensor`: parameters (`ParamGroup.add`) and constants.
Every other tensor is a node, and every node comes from one call,
`node(value, inputs, grads)`: its value, the tensors it reads, and a map
from the value's gradient to one gradient per input. `backward` runs the
maps and does all accumulation. The ops here are the ones a fit or a
prediction reaches, each such a call: matmul, einsum, broadcasting add and
mul, ReLU, `view` (indexing, transpose and reshape), and `dense`, one node
per affine layer (x W + b, optionally ReLU'd) and the one check of a layer's
shapes, which `mlp_forward` runs for every layer. The loss terms in
`objectives` are built the same way, each one node with a closed-form map.
`logistic` holds the overflow-free softplus and sigmoid numerics that the
losses and `Model.predict` read.

Every embedding travels as a pair (rows, basis) that stands for
rows·basis; `dense` folds a pair's basis into its weight, so the product is
never formed, and `matmul(*pair)` forms it where it is needed.

Graphs are rebuilt every step, so freeze state is captured at construction
time of each node. A node that no gradient can reach keeps no inputs and no
map: a forward with every group frozen, or any forward inside `no_grad()`,
builds no graph. Every tensor carries its creation number, and a node is
always made after its inputs, so `backward` runs the nodes in reverse
creation order. `adam_step` updates its moments in place and gives each
parameter a fresh array.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GraphError


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


_recording = True
_created = itertools.count()  # creation numbers: a topological order of the tape
_creation_order = operator.attrgetter("_seq")


@contextlib.contextmanager
def no_grad():
    """In the block, a node built from parents keeps no tape. Leaves and their
    flags are untouched, so freeze state and pending gradients survive.
    Blocks nest, and the previous state returns on exit, by exception too."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A float64 ndarray on the tape. `Tensor(data, requires_grad)` makes a
    leaf; `node` makes every tensor computed from others."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self._seq = next(_created)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

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

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __getitem__(self, idx):
        return view(self, idx)


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


def node(value, inputs: tuple[Tensor, ...], grads) -> Tensor:
    """The node of value `value` over `inputs`: every op makes its node here.

    `grads(g)` maps the gradient g of the value to one gradient per input, in
    the inputs' order, each of that input's shape or of a shape it broadcasts
    to (summed back). It runs only in `backward`, which accumulates what it
    returns. Returning None for an input both skips it and leaves its gradient
    uncomputed, so a map checks `requires_grad` before an expensive product;
    an input that needs no gradient drops whatever it is handed. Under
    `no_grad()`, or when no input needs a gradient, the node keeps neither its
    inputs nor `grads`.
    """
    t = Tensor(value, _recording and any(p.requires_grad for p in inputs))
    if t.requires_grad:
        t._parents = inputs
        t._backward = grads
    return t


def add(a: Tensor, b: Tensor) -> Tensor:
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return node(a.data @ b.data, (a, b),
                lambda g: (g @ b.data.T if a.requires_grad else None,
                           a.data.T @ g if b.requires_grad else None))


def dense(x: Tensor | tuple[Tensor, Tensor], w: Tensor, b: Tensor,
          relu: bool = False) -> Tensor:
    """One affine layer x W + b, with an optional ReLU, as a single node.

    x is an (n, k) tensor or a pair (rows, basis) that stands for
    rows·basis; a pair's basis is folded into the weight, rows·(basis·W),
    so the (n, k) product is never formed.
    """
    rows, basis = x if isinstance(x, tuple) else (x, None)
    factors = [rows.shape] + ([] if basis is None else [basis.shape]) + [w.shape]
    if any(len(f) != 2 for f in factors) or b.shape != w.shape[1:] or any(
            a[1] != c[0] for a, c in zip(factors, factors[1:])):
        raise DimensionError(f"dense shape mismatch: {' @ '.join(map(str, factors))} "
                             f"+ {b.shape}")
    w_eff = w.data if basis is None else basis.data @ w.data
    out = rows.data @ w_eff + b.data
    if relu:
        out = np.maximum(out, 0.0)

    def grads(g):
        if relu:
            g = g * (out > 0)
        g_rows = g @ w_eff.T if rows.requires_grad else None
        g_b = g.sum(axis=0) if b.requires_grad else None
        if basis is None:
            return g_rows, rows.data.T @ g if w.requires_grad else None, g_b
        # out = rows (basis W): both factors read rows^T g
        g_w = rows.data.T @ g if basis.requires_grad or w.requires_grad else None
        return (g_rows, g_w @ w.data.T if basis.requires_grad else None,
                basis.data.T @ g_w if w.requires_grad else None, g_b)

    return node(out, (rows, w, b) if basis is None else (rows, basis, w, b), grads)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); NaN passes through, so the finite guards still see it."""
    return node(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))


def logistic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """softplus(x) = log(1 + e^x), sigmoid(x) and its slope sigmoid(x)
    sigmoid(-x), all from e^-|x|, which never overflows: softplus is
    max(x, 0) + log1p(e^-|x|)."""
    e = np.exp(-np.abs(x))
    inv = 1.0 / (1.0 + e)
    return np.maximum(x, 0.0) + np.log1p(e), np.where(x >= 0, inv, e * inv), e * inv * inv


def view(a: Tensor, idx=(), axes=None, shape=None) -> Tensor:
    """a[idx], its axes permuted by `axes`, then reshaped to `shape`, as one node
    whose map applies the inverse moves. idx is basic indexing only: an array or
    boolean index is rejected, as the map would drop a repeated index's grads."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    if not all(p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice))
               and not isinstance(p, bool) for p in parts):
        raise GraphError(f"view takes basic indices only, got {idx!r}")
    out = a.data[idx] if axes is None else a.data[idx].transpose(axes)
    moved = out.shape

    def grads(g):
        g = g.reshape(moved)
        full = np.zeros_like(a.data)
        full[idx] = g if axes is None else g.transpose(np.argsort(axes))
        return (full,)

    return node(out if shape is None else out.reshape(shape), (a,), grads)


def einsum(spec: str, *operands: Tensor) -> Tensor:
    """np.einsum over explicit subscripts ('ij,jk->ik'); each operand's
    gradient is itself an einsum of the output gradient with the others.

    Subscripts may not repeat within an operand or within the output, may not
    use '...', and every output index must come from an operand. An index
    that appears in only one operand and not in the output is summed there;
    its gradient is broadcast back along that index.
    """
    if "->" not in spec or "." in spec:
        raise GraphError(f"einsum needs explicit subscripts without '...', got '{spec}'")
    inputs, output = spec.split("->")
    subs = inputs.split(",")
    if len(set(output)) != len(output) or not set(output) <= set("".join(subs)):
        raise GraphError(f"einsum '{spec}': output subscripts '{output}' must be "
                         f"distinct operand indices")
    if len(subs) != len(operands):
        raise DimensionError(f"einsum '{spec}' names {len(subs)} operands, "
                             f"got {len(operands)}")
    for sub, t in zip(subs, operands):
        if len(set(sub)) != len(sub) or len(sub) != t.data.ndim:
            raise DimensionError(f"einsum '{spec}': operand subscripts '{sub}' "
                                 f"do not fit shape {t.shape}")
    datas = [t.data for t in operands]

    def grads(g):
        for i, t in enumerate(operands):
            if not t.requires_grad:
                yield None
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
            yield grad

    return node(np.einsum(spec, *datas), operands, grads)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss into all reachable grads.

    The taped nodes that the loss reaches run once each, in reverse
    creation order: a node is made after its parents, so every node's
    gradient is complete before its map reads it. Every gradient a map
    returns is accumulated here; frozen (requires_grad=False) leaves
    receive none, and subgraphs with no trainable leaves are skipped
    entirely.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")

    nodes = [loss]  # the loss, then every taped node it reaches
    reached = {loss}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p._backward is not None and p not in reached:
                reached.add(p)
                nodes.append(p)
                stack.append(p)

    loss.grad = np.ones_like(loss.data)
    nodes.sort(key=_creation_order, reverse=True)
    for t in nodes:
        if t._backward is not None and t.grad is not None:
            for parent, grad in zip(t._parents, t._backward(t.grad)):
                if grad is not None and parent.requires_grad:
                    if grad.shape != parent.data.shape:
                        grad = _unbroadcast(grad, parent.data.shape)
                    parent.grad = grad if parent.grad is None else parent.grad + grad


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
    """Standard Adam update on every tensor in the group; clears grads.

    The moments are updated in place, with the same operations in the same
    order as the textbook formula, so the result is bitwise the same; each
    parameter gets a fresh array, so no caller's view of one ever changes.
    """
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
        m, v = state.m[key], state.v[key]
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        step = np.multiply(1.0 - b1, g)
        np.multiply(b1, m, out=m)
        np.add(m, step, out=m)
        np.multiply(1.0 - b2, g, out=step)
        np.multiply(step, g, out=step)
        np.multiply(b2, v, out=v)
        np.add(v, step, out=v)
        # step = lr (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=step)
        np.multiply(state.lr, step, out=step)
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        np.add(denom, state.eps, out=denom)
        np.divide(step, denom, out=step)
        t.data = t.data - step
        t.grad = None


def glorot_init(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot draw in +-sqrt(6/(fan_in+fan_out)); fans are the first
    and last dimensions."""
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise DimensionError(f"glorot_init: non-positive shape {shape}")
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def init_mlp(name: str, dims: list[int], rng: np.random.Generator) -> ParamGroup:
    """ParamGroup with weights W0..W{L-1} (Glorot) and zero biases b0..b{L-1}."""
    group = ParamGroup(name)
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        group.add(f"W{i}", glorot_init((d_in, d_out), rng))
        group.add(f"b{i}", np.zeros(d_out))
    return group


def mlp_forward(x: Tensor | tuple[Tensor, Tensor], layers: ParamGroup) -> Tensor:
    """Apply an MLP stored as W0/b0..W{L-1}/b{L-1}, one `dense` node per layer,
    with ReLU between layers and an affine readout; x is an (n, d_in) tensor
    or a (rows, basis) pair that stands for one (see `dense`)."""
    n_layers = sum(1 for k in layers.tensors if k.startswith("W"))
    if n_layers == 0:
        raise DimensionError(f"group '{layers.name}' holds no layers")
    h = x
    for i in range(n_layers):
        h = dense(h, layers.tensors[f"W{i}"], layers.tensors[f"b{i}"],
                  relu=i < n_layers - 1)
    return h
