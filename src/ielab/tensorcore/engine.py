"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

The tape records one node per executed operation, in execution order, so a
single reverse sweep visits parents after children. Activating a tape (as a
context manager) makes every op executed inside record itself; with no active
tape the same ops run as plain numpy forward computations.

Every op ends in `record(out, parents, backward_fn, *saved)`. When a tape is
active on this thread and some parent is tracked on it, `record` pushes one
node holding the parents' ids, `backward_fn` and `saved`; the reverse sweep
calls `backward_fn(g, need, *saved)`, where `need[i]` says whether parent i
is tracked, and takes one gradient (or None) per parent back. Backward
functions are named module-level functions, so no closure is built on an
untaped call, and a node's op is its backward function's name. A
requires_grad leaf gets a node with no backward function the first time the
tape sees it.

Tapes are thread-local, and each tape keeps its own map from leaves to
nodes, so two threads may record on the same parameters at once.
`backward(loss, tape)` returns each leaf's gradient keyed by the leaf.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ValueError):
    """Non-finite values where the contract requires finite input."""


class TapeError(RuntimeError):
    """Tape misuse: nested activation, double backward, unrecorded loss."""


class Tensor:
    """Dense n-dimensional float64 value, optionally tracked on a tape.

    `data` is always a C-contiguous (row-major) float64 array. An op's
    output records its tape and its `node_id` there; a requires_grad leaf
    keeps neither, since several tapes may record on it at once.
    """

    __slots__ = ("data", "requires_grad", "node_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shapes intact
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"tensor dimensions must be >= 1, got {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node_id: Optional[int] = None
        self._tape: Optional["Tape"] = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Fast path for op outputs: arr must be fresh, contiguous float64."""
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.node_id = None
        t._tape = None
        return t

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class _Node:
    __slots__ = ("parents", "backward_fn", "saved")

    def __init__(self, parents: tuple, backward_fn: Optional[Callable],
                 saved: tuple = ()):
        self.parents = parents
        self.backward_fn = backward_fn
        self.saved = saved


_ACTIVE = threading.local()  # one active tape per thread


def active_tape() -> Optional["Tape"]:
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """Ordered record of operations for one forward pass.

    Node parents always precede the node itself (execution order); a tape
    supports exactly one backward sweep per recording.
    """

    __slots__ = ("nodes", "leaves", "consumed")

    def __init__(self):
        self.nodes: list[_Node] = []
        self.leaves: dict[Tensor, int] = {}   # leaf -> node id; keeps it alive
        self.consumed = False

    def __enter__(self) -> "Tape":
        if getattr(_ACTIVE, "tape", None) is not None:
            raise TapeError("another tape is already active on this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc):
        _ACTIVE.tape = None
        return False

    def watch(self, *tensors: Tensor) -> None:
        """Pre-register leaves so backward reports them even when unused."""
        for t in tensors:
            self.tracked_id(t)

    def tracked_id(self, t: Tensor) -> int:
        """Node id of `t` on this tape; registers requires_grad leaves lazily.

        Returns -1 for constants that do not participate in differentiation.
        Leaves are found through this tape's own map and nothing is written
        into them, so a leaf may be recorded on several tapes at once.
        """
        if t.requires_grad:
            nid = self.leaves.get(t)
            if nid is None:
                nid = self.leaves[t] = len(self.nodes)
                self.nodes.append(_Node((), None))
            return nid
        return t.node_id if t._tape is self else -1


def record(out: Tensor, parents, backward_fn: Callable, *saved) -> Tensor:
    """Record `out` on this thread's tape if some parent is tracked there;
    returns `out`. See the module docstring."""
    tape = getattr(_ACTIVE, "tape", None)
    if tape is not None:
        ids = tuple(map(tape.tracked_id, parents))
        if max(ids) >= 0:
            out._tape, out.node_id = tape, len(tape.nodes)
            tape.nodes.append(_Node(ids, backward_fn, saved))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a scalar loss; one sweep per recording.

    Returns {leaf: gradient array} for every requires_grad leaf the tape
    saw; leaves unreachable from the loss get zero gradients.
    """
    if loss.data.ndim != 0:
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    if loss._tape is not tape:
        raise TapeError("loss was not recorded on this tape")
    if tape.consumed:
        raise TapeError("tape already consumed; re-record before backward")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones((), dtype=np.float64)}
    for nid in range(loss.node_id, -1, -1):
        node = tape.nodes[nid]
        if node.backward_fn is None:    # a leaf keeps its gradient
            continue
        g = grads.pop(nid, None)
        if g is None:
            continue
        need = tuple(pid >= 0 for pid in node.parents)
        for pid, pg in zip(node.parents,
                           node.backward_fn(g, need, *node.saved)):
            if pid < 0 or pg is None:
                continue
            acc = grads.get(pid)
            if acc is None:
                grads[pid] = pg
            else:
                acc += pg

    tape.nodes = []  # release saved activations
    return {leaf: grads[nid] if nid in grads else np.zeros_like(leaf.data)
            for leaf, nid in tape.leaves.items()}


GELU_TANH_COEFF = math.sqrt(2.0 / math.pi)  # tanh-form approximation constant
