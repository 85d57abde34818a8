"""Dense float64 tensors with tape-based reverse-mode differentiation.

Covers exactly the operations the prediction model needs: matrix products,
elementwise arithmetic with single-row (bias) broadcasting, activations,
layer normalization, segment softmax, sum and gather for message passing,
and a total sum. Everything is recorded on an explicit tape; replaying the
tape in reverse order of recording accumulates gradients into ``.grad``.

Determinism contract: identical inputs and identical edge ordering produce
bitwise-identical outputs and gradients. Segment aggregation and gather
gradients go through the numpy kernels in ``kernels`` (there is no other
backend), which always add in ascending edge-index order. A gather gradient
sums the upstream rows of each index first and then adds that sum onto the
gradient already held: g + (r1 + r2), not (g + r1) + r2.
"""

import numpy as np

from . import kernels
from .errors import DimensionError, TapeError

_MAX_RANK = 4

_tape_stack = []


class Tensor:
    """A dense float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim > _MAX_RANK:
            raise DimensionError(f"rank {arr.ndim} exceeds supported maximum {_MAX_RANK}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one backward pass.

    Use as a context manager around the forward computation, then call
    ``backward(loss)`` once. A second backward on the same tape raises.
    """

    def __init__(self):
        self._records = []
        self._used = False

    def __enter__(self):
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack.pop()
        assert popped is self
        return False

    def _record(self, fn):
        self._records.append(fn)

    def backward(self, out):
        """Seed ``out`` (single element) with gradient 1 and replay in reverse."""
        if self._used:
            raise TapeError("tape already consumed by a previous backward pass")
        if out.data.size != 1:
            raise DimensionError(f"backward needs a scalar output, got shape {out.data.shape}")
        self._used = True
        out.grad = np.ones_like(out.data)
        for fn in reversed(self._records):
            fn()


def active_tape():
    return _tape_stack[-1] if _tape_stack else None


def _accumulate(t, g):
    """Add g into t.grad; g may alias another array, so copy on first use."""
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _accumulate_owned(t, g):
    """Add g into t.grad, taking ownership of a freshly allocated g."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _wrap(data, requires_grad):
    # internal fast path: data is a fresh contiguous float64 array
    out = object.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    out.grad = None
    return out


def _make_output(data, inputs):
    tape = active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = _wrap(data, track)
    return out, (tape if track else None)


# --- linear algebra -------------------------------------------------------

def matmul(a, b):
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    out, tape = _make_output(a.data @ b.data, (a, b))
    if tape:
        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate_owned(a, out.grad @ b.data.T)
            if b.requires_grad:
                _accumulate_owned(b, a.data.T @ out.grad)
        tape._record(bwd)
    return out


def _broadcast_check(a, b):
    """Identical shapes, or b a single bias row over a's rows."""
    if a.data.shape == b.data.shape:
        return False
    if a.data.ndim == 2 and b.data.shape in ((1, a.data.shape[1]), (a.data.shape[1],)):
        return True
    raise DimensionError(f"elementwise shapes incompatible: {a.data.shape} vs {b.data.shape}")


def _reduce_to(shape, g):
    if g.shape == shape:
        return g
    return g.sum(axis=0).reshape(shape)


def add(a, b):
    broadcast = _broadcast_check(a, b)
    out, tape = _make_output(a.data + b.data, (a, b))
    if tape:
        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate(a, out.grad)
            if b.requires_grad:
                if broadcast:
                    _accumulate_owned(b, _reduce_to(b.data.shape, out.grad))
                else:
                    _accumulate(b, out.grad)
        tape._record(bwd)
    return out


def sub(a, b):
    broadcast = _broadcast_check(a, b)
    out, tape = _make_output(a.data - b.data, (a, b))
    if tape:
        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate(a, out.grad)
            if b.requires_grad:
                g = -out.grad
                _accumulate_owned(b, _reduce_to(b.data.shape, g) if broadcast else g)
        tape._record(bwd)
    return out


def mul(a, b):
    broadcast = _broadcast_check(a, b)
    out, tape = _make_output(a.data * b.data, (a, b))
    if tape:
        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate_owned(a, out.grad * b.data)
            if b.requires_grad:
                g = out.grad * a.data
                _accumulate_owned(b, _reduce_to(b.data.shape, g) if broadcast else g)
        tape._record(bwd)
    return out


def scale(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    out, tape = _make_output(a.data * c, (a,))
    if tape:
        def bwd():
            if out.grad is not None and a.requires_grad:
                _accumulate_owned(a, out.grad * c)
        tape._record(bwd)
    return out


def add_scalar(a, c):
    c = float(c)
    out, tape = _make_output(a.data + c, (a,))
    if tape:
        def bwd():
            if out.grad is not None and a.requires_grad:
                _accumulate(a, out.grad)
        tape._record(bwd)
    return out


def scale_rows(a, s):
    """Multiply each row of ``a`` [n,f] by the per-row scalar ``s`` [n,1]."""
    if a.data.ndim != 2 or s.data.shape != (a.data.shape[0], 1):
        raise DimensionError(f"scale_rows shapes incompatible: {a.data.shape} vs {s.data.shape}")
    out, tape = _make_output(a.data * s.data, (a, s))
    if tape:
        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                _accumulate_owned(a, out.grad * s.data)
            if s.requires_grad:
                _accumulate_owned(s, (out.grad * a.data).sum(axis=1, keepdims=True))
        tape._record(bwd)
    return out


# --- activations ----------------------------------------------------------

def relu(a):
    """max(0, x); subgradient 0 at the kink."""
    out, tape = _make_output(np.maximum(a.data, 0.0), (a,))
    if tape:
        mask = a.data > 0.0
        def bwd():
            if out.grad is not None and a.requires_grad:
                _accumulate_owned(a, out.grad * mask)
        tape._record(bwd)
    return out


def leaky_relu(a, slope):
    """x for x > 0 else slope*x; subgradient slope at the kink."""
    slope = float(slope)
    out, tape = _make_output(np.where(a.data > 0.0, a.data, slope * a.data), (a,))
    if tape:
        deriv = np.where(a.data > 0.0, 1.0, slope)
        def bwd():
            if out.grad is not None and a.requires_grad:
                _accumulate_owned(a, out.grad * deriv)
        tape._record(bwd)
    return out


def absolute(a):
    """|x|; subgradient 0 at the kink."""
    out, tape = _make_output(np.abs(a.data), (a,))
    if tape:
        sign = np.sign(a.data)
        def bwd():
            if out.grad is not None and a.requires_grad:
                _accumulate_owned(a, out.grad * sign)
        tape._record(bwd)
    return out


# --- normalization --------------------------------------------------------

_LN_EPS = 1e-5


def layer_norm(a, gain, offset):
    """Per-row normalization over the feature axis, then affine gain/offset.

    Constant rows are safe: the epsilon inside the square root bounds the
    inverse deviation.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"layer_norm expects [n,f], got {a.data.shape}")
    f = a.data.shape[1]
    if gain.data.reshape(-1).shape != (f,) or offset.data.reshape(-1).shape != (f,):
        raise DimensionError(
            f"layer_norm gain/offset must have {f} entries, got {gain.data.shape}/{offset.data.shape}")
    g_row = gain.data.reshape(1, f)
    b_row = offset.data.reshape(1, f)
    mu = a.data.mean(axis=1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    out, tape = _make_output(xhat * g_row + b_row, (a, gain, offset))
    if tape:
        def bwd():
            if out.grad is None:
                return
            if gain.requires_grad:
                _accumulate_owned(gain, (out.grad * xhat).sum(axis=0).reshape(gain.data.shape))
            if offset.requires_grad:
                _accumulate_owned(offset, out.grad.sum(axis=0).reshape(offset.data.shape))
            if a.requires_grad:
                dxhat = out.grad * g_row
                m1 = dxhat.mean(axis=1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
                _accumulate_owned(a, inv * (dxhat - m1 - xhat * m2))
        tape._record(bwd)
    return out


# --- segment operations ---------------------------------------------------

def _check_targets(targets, n, n_rows):
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != n_rows:
        raise DimensionError(f"need one target per row: {targets.shape} vs {n_rows} rows")
    if n_rows and (targets.min() < 0 or targets.max() >= n):
        raise IndexError(f"segment target out of range [0, {n})")
    return targets


def segment_sum(messages, targets, n):
    """Sum message rows into their target rows; empty targets are zero.

    Summation runs in ascending edge-index order (determinism contract).
    """
    targets = _check_targets(targets, n, messages.data.shape[0])
    out, tape = _make_output(kernels.segment_sum(messages.data, targets, n), (messages,))
    if tape:
        def bwd():
            if out.grad is not None and messages.requires_grad:
                _accumulate_owned(messages, out.grad[targets])
        tape._record(bwd)
    return out


def segment_softmax(logits, targets, n):
    """Exp-normalize within each target group (max-subtracted for stability).

    Columns are independent: an [E,h] input holds h parallel softmaxes.
    """
    targets = _check_targets(targets, n, logits.data.shape[0])
    if logits.data.shape[0]:
        group_max = kernels.segment_max(logits.data, targets, n)
        shifted = logits.data - group_max[targets]
        expd = np.exp(shifted)
        denom = kernels.segment_sum(expd, targets, n)
        result = expd / denom[targets]
    else:
        result = np.zeros_like(logits.data)
    out, tape = _make_output(result, (logits,))
    if tape:
        def bwd():
            if out.grad is None or not logits.requires_grad:
                return
            weighted = kernels.segment_sum(out.data * out.grad, targets, n)
            _accumulate_owned(logits, out.data * (out.grad - weighted[targets]))
        tape._record(bwd)
    return out


def gather_rows(a, idx):
    """out[i] = a[idx[i]]; duplicated indices sum their upstream gradients."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"gather index out of range [0, {a.data.shape[0]})")
    out, tape = _make_output(a.data[idx], (a,))
    if tape:
        def bwd():
            if out.grad is not None and a.requires_grad:
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                kernels.add_rows_at(a.grad, idx, out.grad)
        tape._record(bwd)
    return out


# --- shape manipulation ---------------------------------------------------

def concat(parts):
    """Concatenate [n,f_i] tensors along the feature axis."""
    parts = list(parts)
    widths = [p.data.shape[1] for p in parts]
    out, tape = _make_output(np.concatenate([p.data for p in parts], axis=1), parts)
    if tape:
        def bwd():
            if out.grad is None:
                return
            off = 0
            for p, w in zip(parts, widths):
                if p.requires_grad:
                    _accumulate(p, out.grad[:, off:off + w])
                off += w
        tape._record(bwd)
    return out


def concat_rows(parts):
    """Stack [n_i,f] tensors vertically."""
    parts = list(parts)
    heights = [p.data.shape[0] for p in parts]
    out, tape = _make_output(np.concatenate([p.data for p in parts], axis=0), parts)
    if tape:
        def bwd():
            if out.grad is None:
                return
            off = 0
            for p, h in zip(parts, heights):
                if p.requires_grad:
                    _accumulate(p, out.grad[off:off + h])
                off += h
        tape._record(bwd)
    return out


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if len(shape) > _MAX_RANK:
        raise DimensionError(f"rank {len(shape)} exceeds supported maximum {_MAX_RANK}")
    out, tape = _make_output(a.data.reshape(shape), (a,))
    if tape:
        def bwd():
            if out.grad is not None and a.requires_grad:
                _accumulate(a, out.grad.reshape(a.data.shape))
        tape._record(bwd)
    return out


# --- reductions -----------------------------------------------------------

def sum_all(a):
    """Sum all entries into a single-element tensor."""
    out, tape = _make_output(np.array([a.data.sum()]), (a,))
    if tape:
        def bwd():
            if out.grad is not None and a.requires_grad:
                _accumulate_owned(a, np.full_like(a.data, out.grad[0]))
        tape._record(bwd)
    return out
