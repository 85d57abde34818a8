"""Dense float64 tensors with tape-based reverse-mode differentiation.

Covers exactly the operations the prediction model needs: matrix products,
elementwise arithmetic with single-row (bias) broadcasting, activations,
layer normalization, segment sum and gather for message passing, one fused
multi-head attention conv, and a total sum. Everything is recorded on an
explicit tape; replaying the tape in reverse order of recording accumulates
gradients into ``.grad``.

Lifecycle. A tensor's ``grad`` and ``requires_grad`` live in a small slot
apart from its data. Each recorded op keeps its inputs' and output's slots
and only the arrays its own backward reads (a product's factors, an
activation's mask or sign, attention's activations and weights, layer
norm's normalized rows); an intermediate that no backward reads is freed as
soon as the forward drops it. Backward consumes the tape: each record is
popped as it runs, and each op takes and clears its output's gradient, so
intermediate gradients die as backward goes. Pass-through ops (add, sub,
add_scalar, reshape, concat) hand that buffer, or views of it, to an
input instead of copying; add copies only when both inputs take a
gradient and the second holds none yet. After backward only leaves hold
``.grad``, which may be a view of a larger buffer (no two leaves' views
overlap).

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


class _GradSlot:
    """A tensor's gradient state, which backward closures hold instead of
    the tensor so that they do not keep its data alive."""

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad):
        self.grad = None
        self.requires_grad = requires_grad


class Tensor:
    """A dense float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim > _MAX_RANK:
            raise DimensionError(f"rank {arr.ndim} exceeds supported maximum {_MAX_RANK}")
        self.data = arr
        self._slot = _GradSlot(bool(requires_grad))

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self):
        return self._slot.requires_grad

    @property
    def grad(self):
        return self._slot.grad

    @grad.setter
    def grad(self, value):
        self._slot.grad = value

    def zero_grad(self):
        self._slot.grad = None

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one backward pass.

    Use as a context manager around the forward computation, then call
    ``backward(loss)`` once; it pops each record as it runs it. A second
    backward on the same tape raises.
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
        records = self._records
        while records:
            records.pop()()


def active_tape():
    return _tape_stack[-1] if _tape_stack else None


def _slot_of(t):
    """t's gradient slot if t takes a gradient, else None."""
    return t._slot if t._slot.requires_grad else None


def _give(slot, g):
    """Hand the owned array g to slot: it becomes the gradient, or is added
    onto the one held."""
    if slot.grad is None:
        slot.grad = g
    else:
        slot.grad += g


def _wrap(data, requires_grad):
    # internal fast path: data is a fresh contiguous float64 array
    out = object.__new__(Tensor)
    out.data = data
    out._slot = _GradSlot(requires_grad)
    return out


def _make_output(data, inputs):
    tape = active_tape()
    track = tape is not None and any(t._slot.requires_grad for t in inputs)
    out = _wrap(data, track)
    return out, (tape if track else None)


def _on_backward(tape, out, bwd):
    """Record bwd(g) on the tape. At backward time it takes the gradient
    that out holds, clearing out's slot, and is skipped if there is none."""
    so = out._slot
    def run():
        g = so.grad
        if g is not None:
            so.grad = None
            bwd(g)
    tape._record(run)


# --- linear algebra -------------------------------------------------------

def matmul(a, b):
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    out, tape = _make_output(a.data @ b.data, (a, b))
    if tape:
        sa, sb = _slot_of(a), _slot_of(b)
        a_data = a.data if sb else None
        b_data = b.data if sa else None
        def bwd(g):
            if sa:
                _give(sa, g @ b_data.T)
            if sb:
                _give(sb, a_data.T @ g)
        _on_backward(tape, out, bwd)
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
        sa, sb = _slot_of(a), _slot_of(b)
        b_shape = b.data.shape
        def bwd(g):
            if sa:
                _give(sa, g)
            if sb:
                if broadcast:
                    _give(sb, _reduce_to(b_shape, g))
                elif sa and sb.grad is None:
                    sb.grad = g.copy()  # g itself went to a
                else:
                    _give(sb, g)
        _on_backward(tape, out, bwd)
    return out


def sub(a, b):
    _broadcast_check(a, b)
    out, tape = _make_output(a.data - b.data, (a, b))
    if tape:
        sa, sb = _slot_of(a), _slot_of(b)
        b_shape = b.data.shape
        def bwd(g):
            if sb:
                neg = _reduce_to(b_shape, -g)
            if sa:
                _give(sa, g)
            if sb:
                _give(sb, neg)
        _on_backward(tape, out, bwd)
    return out


def mul(a, b):
    _broadcast_check(a, b)
    out, tape = _make_output(a.data * b.data, (a, b))
    if tape:
        sa, sb = _slot_of(a), _slot_of(b)
        a_data = a.data if sb else None
        b_data = b.data if sa else None
        b_shape = b.data.shape
        def bwd(g):
            if sa:
                _give(sa, g * b_data)
            if sb:
                _give(sb, _reduce_to(b_shape, g * a_data))
        _on_backward(tape, out, bwd)
    return out


def scale(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    out, tape = _make_output(a.data * c, (a,))
    if tape:
        sa = a._slot
        _on_backward(tape, out, lambda g: _give(sa, g * c))
    return out


def add_scalar(a, c):
    c = float(c)
    out, tape = _make_output(a.data + c, (a,))
    if tape:
        sa = a._slot
        _on_backward(tape, out, lambda g: _give(sa, g))
    return out


def scale_rows(a, s):
    """Multiply each row of ``a`` [n,f] by the per-row scalar ``s`` [n,1]."""
    if a.data.ndim != 2 or s.data.shape != (a.data.shape[0], 1):
        raise DimensionError(f"scale_rows shapes incompatible: {a.data.shape} vs {s.data.shape}")
    out, tape = _make_output(a.data * s.data, (a, s))
    if tape:
        sa, ss = _slot_of(a), _slot_of(s)
        a_data = a.data if ss else None
        s_data = s.data if sa else None
        def bwd(g):
            if sa:
                _give(sa, g * s_data)
            if ss:
                _give(ss, (g * a_data).sum(axis=1, keepdims=True))
        _on_backward(tape, out, bwd)
    return out


# --- activations ----------------------------------------------------------

def relu(a):
    """max(0, x); subgradient 0 at the kink."""
    out, tape = _make_output(np.maximum(a.data, 0.0), (a,))
    if tape:
        sa = a._slot
        mask = a.data > 0.0
        _on_backward(tape, out, lambda g: _give(sa, g * mask))
    return out


def absolute(a):
    """|x|; subgradient 0 at the kink."""
    out, tape = _make_output(np.abs(a.data), (a,))
    if tape:
        sa = a._slot
        sign = np.sign(a.data)
        _on_backward(tape, out, lambda g: _give(sa, g * sign))
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
        sa, s_gain, s_offset = _slot_of(a), _slot_of(gain), _slot_of(offset)
        gain_shape, offset_shape = gain.data.shape, offset.data.shape
        def bwd(g):
            if s_gain:
                _give(s_gain, (g * xhat).sum(axis=0).reshape(gain_shape))
            if s_offset:
                _give(s_offset, g.sum(axis=0).reshape(offset_shape))
            if sa:
                dxhat = g * g_row
                m1 = dxhat.mean(axis=1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
                _give(sa, inv * (dxhat - m1 - xhat * m2))
        _on_backward(tape, out, bwd)
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
        sm = messages._slot
        _on_backward(tape, out, lambda g: _give(sm, g[targets]))
    return out


def edge_attention(x_src, x_dst, edge, w1, w2, w3, attn, src, dst, ext_targets, slope):
    """Multi-head GATv2 attention with an implicit self edge per destination,
    as one tape record with a hand-written backward.

    Weights are stacked per head: w1, w2 [n_in, heads, dh], w3 [3 n_in,
    heads, dh] in row blocks W3a, W3b, W3c, attn [1, heads, dh]; columns
    h*dh..(h+1)*dh belong to head h. The E in-edges (src -> dst, features
    edge) come first, then one self edge per destination; ext_targets is
    their destinations, dst followed by 0..n_dst-1. Per row and head:

        pre   = (x_dst W3a)[dst] + (x_src W3b)[src] + e W3c   (in-edge)
                x_dst (W3a + W3b)                              (self edge)
        act   = max(pre, slope * pre)
        logit = act . attn, per head
        alpha = softmax of the logits over each destination's rows
        out   = sum over a destination's rows of alpha * value, the value
                being (x_src W2)[src] (in-edge) or x_dst W1 (self edge)

    max(pre, slope * pre) is LeakyReLU, bitwise, only for slope in [0, 1],
    so any other slope raises ValueError. src, dst and ext_targets are
    range-checked once on entry; the row gathers then run as
    ``np.take(..., mode="clip")``, which never clips a checked index and,
    unlike the default mode, does not buffer its ``out``. The group maximum
    and sums run through ``kernels`` in ascending row order. Backward keeps
    per row only act and alpha, and the node-level x_src W2 and x_dst W1:
    for slope >= 0, act > 0 exactly where pre > 0, so act also gives the
    LeakyReLU branch, and backward turns act in place into the derivative.
    Returns (out [n_dst, heads*dh], alpha [E + n_dst, heads]); alpha is the
    array backward reads, so the caller must not write to it.
    """
    slope = float(slope)
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"edge_attention slope must be in [0, 1], got {slope!r}")
    if w1.data.ndim != 3:
        raise DimensionError(f"edge_attention weights must be [n_in, heads, dh]: {w1.data.shape}")
    n_in, heads, dh = w1.data.shape
    f = heads * dh
    got = tuple(t.data.shape[1:] for t in (x_src, x_dst, edge))
    got += (w2.data.shape, w3.data.shape, attn.data.shape)
    want = ((n_in,),) * 3 + ((n_in, heads, dh), (3 * n_in, heads, dh), (1, heads, dh))
    if got != want:
        raise DimensionError(f"edge_attention shapes incompatible: {got} vs {want}")
    xs, xd, e = x_src.data, x_dst.data, edge.data
    n_src, n_dst, n_edges = xs.shape[0], xd.shape[0], e.shape[0]
    n_rows = n_edges + n_dst
    src = _check_targets(src, n_src, n_edges)
    dst = _check_targets(dst, n_dst, n_edges)
    ext = _check_targets(ext_targets, n_dst, n_rows)
    mat1, mat2 = w1.data.reshape(n_in, f), w2.data.reshape(n_in, f)
    w3a, w3b, w3c = np.split(w3.data.reshape(3 * n_in, f), 3)
    head_of_column = np.repeat(np.eye(heads), dh, axis=0)
    attn_mat = head_of_column * attn.data.reshape(f, 1)  # block-diagonal [f, heads]

    # weighted, the alpha-weighted values, is filled last; until then it is
    # the scratch buffer of the pre-activation's terms and of slope * pre
    act, weighted = np.empty((n_rows, f)), np.empty((n_rows, f))
    np.take(xd @ w3a, dst, axis=0, out=act[:n_edges], mode="clip")
    act[:n_edges] += np.take(xs @ w3b, src, axis=0, out=weighted[:n_edges], mode="clip")
    act[:n_edges] += np.matmul(e, w3c, out=weighted[:n_edges])
    np.matmul(xd, w3a + w3b, out=act[n_edges:])
    np.maximum(act, np.multiply(act, slope, out=weighted), out=act)
    alpha = act @ attn_mat  # the logits, normalized in place
    alpha -= kernels.segment_max(alpha, ext, n_dst)[ext]
    np.exp(alpha, out=alpha)
    alpha /= kernels.segment_sum(alpha, ext, n_dst)[ext]
    vs, vd = xs @ mat2, xd @ mat1
    np.take(vs, src, axis=0, out=weighted[:n_edges], mode="clip")
    weighted[n_edges:] = vd
    per_head = weighted.reshape(n_rows, heads, dh)
    per_head *= alpha[:, :, None]
    out, tape = _make_output(kernels.segment_sum(weighted, ext, n_dst),
                             (x_src, x_dst, edge, w1, w2, w3, attn))
    if tape:
        s_src, s_dst, s_edge = _slot_of(x_src), _slot_of(x_dst), _slot_of(edge)
        s1, s2, s3, s_attn = (_slot_of(w) for w in (w1, w2, w3, attn))
        w_shape, w3_shape = w1.data.shape, w3.data.shape
        saved = [act, alpha]  # backward takes them, to free each after its last use
        def bwd(g):
            act, alpha = saved
            saved.clear()
            # g_rows: the gradient of each row's weighted value, then (in
            # place) of its value, then of its pre-activation
            g_rows = np.take(g, ext, axis=0, mode="clip")
            per_head = g_rows.reshape(n_rows, heads, dh)
            g_alpha = np.empty((n_rows, heads))
            g_alpha[n_edges:] = (per_head[n_edges:] * vd.reshape(n_dst, heads, dh)).sum(axis=2)
            edge_values = np.take(vs, src, axis=0, mode="clip")
            edge_values *= g_rows[:n_edges]
            g_alpha[:n_edges] = edge_values.reshape(n_edges, heads, dh).sum(axis=2)
            del edge_values
            g_logits = g_alpha
            g_logits -= kernels.segment_sum(alpha * g_alpha, ext, n_dst)[ext]
            g_logits *= alpha
            per_head *= alpha[:, :, None]
            del alpha  # before the largest scatter below
            g_vs, g_vd = kernels.segment_sum(g_rows[:n_edges], src, n_src), g_rows[n_edges:]
            if s1:
                _give(s1, (xd.T @ g_vd).reshape(w_shape))
            if s2:
                _give(s2, (xs.T @ g_vs).reshape(w_shape))
            gx_src = g_vs @ mat2.T if s_src else None
            gx_dst = g_vd @ mat1.T if s_dst else None

            if s_attn:
                g_attn = ((act.T @ g_logits) * head_of_column).sum(axis=1)
                _give(s_attn, g_attn.reshape(1, heads, dh))
            g_pre = np.matmul(g_logits, attn_mat.T, out=g_rows)
            # act becomes the LeakyReLU derivative in place: 1 where act > 0,
            # else slope
            np.greater(act, 0.0, out=act, casting="unsafe")
            np.maximum(act, slope, out=act)
            g_pre *= act
            del act
            g_edge, g_self = g_pre[:n_edges], g_pre[n_edges:]
            if s_edge:
                _give(s_edge, g_edge @ w3c.T)
            g_a = kernels.segment_sum(g_edge, dst, n_dst)  # of x_dst W3a, in-edges and self
            g_a += g_self
            g_b = kernels.segment_sum(g_edge, src, n_src)  # of x_src W3b
            if s3:
                dw3 = np.concatenate([xd.T @ g_a, xs.T @ g_b + xd.T @ g_self, e.T @ g_edge])
                _give(s3, dw3.reshape(w3_shape))
            if s_src:
                gx_src += g_b @ w3b.T
                _give(s_src, gx_src)
            if s_dst:
                gx_dst += g_a @ w3a.T
                gx_dst += g_self @ w3b.T
                _give(s_dst, gx_dst)
        _on_backward(tape, out, bwd)
    return out, alpha


def gather_rows(a, idx):
    """out[i] = a[idx[i]]; duplicated indices sum their upstream gradients."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"gather index out of range [0, {a.data.shape[0]})")
    out, tape = _make_output(a.data[idx], (a,))
    if tape:
        sa = a._slot
        shape = a.data.shape
        def bwd(g):
            if sa.grad is None:
                sa.grad = np.zeros(shape)
            kernels.add_rows_at(sa.grad, idx, g)
        _on_backward(tape, out, bwd)
    return out


# --- shape manipulation ---------------------------------------------------

def concat(parts, axis):
    """Join tensors along `axis`: [n_i, f] row blocks on 0, [n, f_i] on 1."""
    parts = list(parts)
    out, tape = _make_output(np.concatenate([p.data for p in parts], axis=axis), parts)
    if tape:
        slots = [_slot_of(p) for p in parts]
        sizes = [p.data.shape[axis] for p in parts]
        def bwd(g):
            off = 0
            for s, n in zip(slots, sizes):
                if s:
                    _give(s, g[(slice(None),) * axis + (slice(off, off + n),)])
                off += n
        _on_backward(tape, out, bwd)
    return out


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if len(shape) > _MAX_RANK:
        raise DimensionError(f"rank {len(shape)} exceeds supported maximum {_MAX_RANK}")
    out, tape = _make_output(a.data.reshape(shape), (a,))
    if tape:
        sa = a._slot
        in_shape = a.data.shape
        _on_backward(tape, out, lambda g: _give(sa, g.reshape(in_shape)))
    return out


# --- reductions -----------------------------------------------------------

def sum_all(a):
    """Sum all entries into a single-element tensor."""
    out, tape = _make_output(np.array([a.data.sum()]), (a,))
    if tape:
        sa = a._slot
        shape = a.data.shape
        _on_backward(tape, out, lambda g: _give(sa, np.full(shape, g[0], dtype=np.float64)))
    return out
