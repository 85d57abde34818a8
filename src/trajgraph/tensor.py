"""Dense float64 tensors with tape-based reverse-mode differentiation.

Covers exactly the operations the prediction model and its loss need:
matrix products; add, sub and mul, whose second operand may also be a
single row broadcast over the rows (a bias) or a single [n, 1] column
broadcast over the columns (a per-row factor); scale by a python number;
ReLU; LayerNorm of a ReLU output plus an optional residual, alone and
after a linear layer (the embedding); gather for message passing; one
fused multi-head attention conv, which reads one per-graph
``AttentionPlan``; a degree-normalized graph conv over R
relations, with one [R, n_in, n_out] weight and one [R, n_out] bias, and
its edge term (a coefficient-weighted segment sum), both of which read one
per-graph ``ConvPlan`` and gather instead of scattering; concat, stack
(the head's K copies of the latent), reshape and a total sum. matmul,
add, sub, mul and relu_norm also take [B, n, f] stacks (the head's
modes), with a [B, 1, f] row per index or an [n, f] matrix all indices
share; a stack product is one BLAS product per index, with the separate
products' bits. Ops are recorded on a tape, and replaying it backwards
accumulates gradients into ``.grad``.

Lifecycle. A tensor's ``grad`` and ``requires_grad`` live in a small slot
apart from its data. Each recorded op keeps its inputs' and output's slots
and only the arrays its own backward reads (a product's factors, ReLU's
mask, attention's activations and weights, relu_norm's ReLU mask,
normalized rows and inverse deviations, the graph conv's aggregate); an
intermediate that no backward reads is freed as soon as the forward drops
it. An op whose output no tape records (no active tape, or no input takes
a gradient) keeps nothing for backward: an untaped attention call computes
each row block's pre-activations in one block-sized buffer and holds no
per-row activations, only the weights it returns. The embedding record
holds only its inputs: its backward recomputes the normalized rows block
by block from the [rows, n_in] input. Each plan checks its edge list
once, when it is built, so the ops that read it check no index. An
``AttentionPlan`` builds its gather tables on the first backward that
needs them and keeps them, so untaped forwards build none. A ``ConvPlan``
is the only place that knows the graph conv's table format. It lists per
slot of its tables the empty entries and
the coefficients that are not exactly 1; ``segment_sum`` and ``edge_conv``
zero what they gather for empty entries and multiply only listed rows, so
on a graph where every coefficient is 1 they multiply nothing. Backward
consumes the tape: each record is popped as it runs, and each op takes and
clears its output's gradient, so intermediate gradients die as backward
goes. Pass-through ops (add, sub, reshape, concat) hand that buffer, or
views of it, to an input instead of copying; add copies only when both
inputs take a gradient and the second holds none yet. After backward only
leaves hold ``.grad``, which may be a view of a larger buffer (no two
leaves' views overlap).

Determinism contract: identical inputs and identical edge ordering produce
bitwise-identical outputs and gradients. Attention's softmax maxima and
sums, its pair weights, its blocked value sums and the gather gradients
go through the numpy kernels in ``kernels`` (there is no other backend),
which always add in ascending edge-index order. A gather gradient sums
the upstream rows of each index first and then adds that sum onto the
gradient already held: g + (r1 + r2), not (g + r1) + r2. Attention's
node-gradient sums, of x_dst W3a per destination and of x_src W3b per
source, gather through its plan's tables: each node's edge rows are
summed in ascending edge order over all edges at once, not block by
block, starting from the first row (the bits of a sum from zero up to
the sign of a zero); attention's forward does not read them. The graph
conv and its edge term scatter nothing: each sums every (target,
relation) row slot by slot, from zero, in ascending edge order, the conv
then adding the edge term; the conv's source gradient is summed the same
way through the out-table and then added onto the gradient already held,
like a gather's, and the edge term's gradient is a gather by target.
Otherwise the row-blocked ops (attention, embedding) cut rows into fixed
blocks of ``_ROW_BLOCK``: sums within a block run in ascending edge order
and the blocks' sums are added in ascending block order. Attention's
dense value sums are matrix products, whose sums run over the source
nodes in node order. Graphs lay agent nodes out in agent_id order and map
nodes in lane_id order, so the encoder's inputs, and with them its
outputs bit for bit, do not depend on the order of the scene's tracks or
lanes.

The bits hold for a fixed BLAS thread count, since OpenBLAS may split a
product's sums differently with more threads. On 16-agent scenes at 1 and
2 threads (OpenBLAS 0.3.31, 2-CPU x86_64 host), outputs and all parameter
gradients but three were equal; those attention weight gradients differed
by up to 3e-18 in their W3c block (``e.T @ g_pre``), and Adam steps carry
that difference into the weights.
"""
import numpy as np

from . import kernels
from .errors import DimensionError, TapeError

_MAX_RANK = 4

_tape_stack = []

# Rows per block of the row-blocked ops (edge attention, linear_relu_norm):
# a [1024, 64] float64 block is 512 KiB. Timed on 16-agent scenes (2-CPU
# host), 512 to 2048 rows were alike within noise and 4096 slower.
_ROW_BLOCK = 1024


def _blocks(n):
    """[lo, hi) of the consecutive row blocks over n rows, in ascending order."""
    return [(lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK)]


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


def _active_tape():
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


def _recording_tape(inputs):
    """The tape that records an op on inputs: the active one if any input
    takes a gradient, else None."""
    tape = _active_tape()
    if tape is not None and any(t._slot.requires_grad for t in inputs):
        return tape
    return None


def _make_output(data, inputs):
    tape = _recording_tape(inputs)
    return _wrap(data, tape is not None), tape


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
    """Matrix product of rank-2 tensors, or one per index of a [B, n, k] @
    [B, k, m] stack, where either operand may be rank 2, shared by all."""
    a_shape, b_shape = a.data.shape, b.data.shape
    if (not {len(a_shape), len(b_shape)} <= {2, 3} or a_shape[-1] != b_shape[-2]
            or len(a_shape) == len(b_shape) == 3 and a_shape[0] != b_shape[0]):
        raise DimensionError(f"matmul shapes incompatible: {a_shape} x {b_shape}")
    out, tape = _make_output(a.data @ b.data, (a, b))
    if tape:
        sa, sb = _slot_of(a), _slot_of(b)
        a_data = a.data if sb else None
        b_data = b.data if sa else None
        def bwd(g):
            if sa:
                _give(sa, _reduce_to(a_shape, g @ b_data.swapaxes(-1, -2)))
            if sb:
                _give(sb, _reduce_to(b_shape, a_data.swapaxes(-1, -2) @ g))
        _on_backward(tape, out, bwd)
    return out


def _broadcast_check(a, b):
    """Identical shapes; or b a bias row or a per-row [n, 1] factor over a's
    rows, or a [B, 1, f] row per index or shared [n, f] matrix over a stack."""
    shape = a.data.shape
    if b.data.shape == shape:
        return False
    n, f = shape[-2:] if len(shape) in (2, 3) else (None, None)
    if b.data.shape in (((1, f), (f,), (n, 1)) if len(shape) == 2 else ((shape[0], 1, f), (n, f))):
        return True
    raise DimensionError(f"elementwise shapes incompatible: {shape} vs {b.data.shape}")


def _reduce_to(shape, g):
    """g summed down to `shape` along the axis an operand of that shape was
    broadcast over: a stack's indices, a column's columns or a row's rows."""
    if g.shape == shape:
        return g
    axis = 0 if len(shape) < g.ndim else 1 if shape == (g.shape[0], 1) else -2
    return g.sum(axis=axis).reshape(shape)


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


# --- activations ----------------------------------------------------------

def relu(a):
    """max(0, x); subgradient 0 at the kink."""
    out, tape = _make_output(np.maximum(a.data, 0.0), (a,))
    if tape:
        sa = a._slot
        mask = a.data > 0.0
        _on_backward(tape, out, lambda g: _give(sa, g * mask))
    return out


# --- normalization --------------------------------------------------------

_LN_EPS = 1e-5


def _row_means(a):
    """[..., n, 1] row means with the bits of ``a.mean(axis=-1, keepdims=True)``
    (the same reduction, then a division) without its Python-level dispatch."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _relu_norm_rows(z, residual=None, out=None):
    """(xhat, inv): the rows of relu(z) + residual normalized over the
    feature axis, before gain and offset, into out (which may be z) if
    given, and their [..., n, 1] inverse deviations. Constant rows are safe:
    the epsilon inside the square root bounds the inverse deviation."""
    xhat = np.maximum(z, 0.0, out=out)
    if residual is not None:
        xhat += residual
    xhat -= _row_means(xhat)
    inv = 1.0 / np.sqrt(_row_means(xhat * xhat) + _LN_EPS)
    xhat *= inv
    return xhat, inv


def _relu_norm_grads(d, xhat, inv, g_row):
    """In place, d, the gradient of xhat * gain + offset, becomes that of
    the rows before normalization, and xhat is overwritten. Returns the
    [2, ..., f] gain and offset gradients, the column sums of d * xhat and d."""
    g_norm = np.stack([(d * xhat).sum(axis=-2), d.sum(axis=-2)])
    d *= g_row
    m1 = _row_means(d)
    m2 = _row_means(d * xhat)
    d -= m1
    xhat *= m2
    d -= xhat
    d *= inv
    return g_norm


def relu_norm(z, gain, offset, residual=None):
    """LayerNorm over the feature axis of relu(z) + residual, then affine
    gain/offset, as one tape record with the bits of the separate ReLU, add
    and LayerNorm ops. z is [n, f] with [f] gains and offsets, or a [B, n, f]
    stack with [B, f]; the residual has z's shape or is an [n, f] matrix
    every index shares. It holds what those ops held: the ReLU mask (when z
    takes a gradient), the normalized rows and their inverse deviations.
    Backward gives the residual its gradient before z; a residual that is z
    itself takes both."""
    shape = z.data.shape
    if not (1 < len(shape) < 4 and gain.data.shape == offset.data.shape == shape[:-2] + shape[-1:]):
        raise DimensionError(f"relu_norm of {shape}: gain/offset {gain.data.shape}/"
                             f"{offset.data.shape} are not one [f] per index")
    if residual is not None and residual.data.shape not in (shape, shape[-2:]):
        raise DimensionError(f"relu_norm residual {residual.data.shape} is not {shape}")
    g_row = gain.data[..., None, :]
    xhat, inv = _relu_norm_rows(z.data, None if residual is None else residual.data)
    inputs = (z, gain, offset) if residual is None else (z, gain, offset, residual)
    out, tape = _make_output(xhat * g_row + offset.data[..., None, :], inputs)
    if tape:
        s_z, s_gain, s_offset = _slot_of(z), _slot_of(gain), _slot_of(offset)
        s_res = None if residual is None else _slot_of(residual)
        res_shape = None if residual is None else residual.data.shape
        mask = z.data > 0.0 if s_z else None
        def bwd(g):
            g_gain, g_offset = _relu_norm_grads(g, xhat, inv, g_row)
            if s_gain:
                _give(s_gain, g_gain)
            if s_offset:
                _give(s_offset, g_offset)
            if s_res:
                _give(s_res, _reduce_to(res_shape, g))
            if s_z:
                _give(s_z, g * mask)  # the product is taken before any += on g
        _on_backward(tape, out, bwd)
    return out


def linear_relu_norm(x, weight, bias, gain, offset):
    """relu_norm(x @ weight + bias, gain, offset) as one tape record, in
    row blocks of ``_ROW_BLOCK`` with the bits of the separate ops. The
    record holds only its inputs: backward recomputes each block's
    normalized rows and ReLU mask from the [rows, n_in] input, runs
    relu_norm's backward on it, and sums the parameter gradients block by
    block in ascending row order."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise DimensionError(
            f"linear_relu_norm shapes incompatible: {x.data.shape} x {weight.data.shape}")
    n, f = x.data.shape[0], weight.data.shape[1]
    for name, t in (("bias", bias), ("gain", gain), ("offset", offset)):
        if t.data.reshape(-1).shape != (f,):
            raise DimensionError(
                f"linear_relu_norm {name} must have {f} entries, got {t.data.shape}")
    xs, w = x.data, weight.data
    b_row, g_row, o_row = (t.data.reshape(1, f) for t in (bias, gain, offset))
    out_data = np.empty((n, f))
    for lo, hi in _blocks(n):
        z = np.matmul(xs[lo:hi], w, out=out_data[lo:hi])
        z += b_row
        _relu_norm_rows(z, out=z)
        z *= g_row
        z += o_row
    out, tape = _make_output(out_data, (x, weight, bias, gain, offset))
    if tape:
        s_x, *slots = [_slot_of(t) for t in (x, weight, bias, gain, offset)]
        shapes = [t.data.shape for t in (weight, bias, gain, offset)]
        def bwd(g):
            g_x = np.empty((n, xs.shape[1])) if s_x else None
            g_w, g_b, g_norm = np.zeros((xs.shape[1], f)), np.zeros(f), np.zeros((2, f))
            for lo, hi in _blocks(n):
                z = xs[lo:hi] @ w
                z += b_row
                mask = z > 0.0
                xhat, inv = _relu_norm_rows(z, out=z)
                # g is this record's own: its block becomes, in place, the
                # gradient of the pre-activation
                d = g[lo:hi]
                g_norm += _relu_norm_grads(d, xhat, inv, g_row)
                d *= mask
                g_w += xs[lo:hi].T @ d
                g_b += d.sum(axis=0)
                if s_x:
                    np.matmul(d, w.T, out=g_x[lo:hi])
            for slot, grad, shape in zip(slots, (g_w, g_b, *g_norm), shapes):
                if slot:
                    _give(slot, grad.reshape(shape))
            if s_x:
                _give(s_x, g_x)
        _on_backward(tape, out, bwd)
    return out


# --- segment operations ---------------------------------------------------

def _index_array(idx, what):
    """idx as a contiguous int64 array; an empty list is an empty index, but
    a non-empty float or bool array is refused instead of truncated."""
    arr = np.asarray(idx)
    if arr.size and arr.dtype.kind not in "iu":
        raise IndexError(f"{what} must be integers, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _check_targets(targets, n, n_edges, what):
    """targets as int64, one index in [0, n) per edge; errors name them `what`."""
    targets = _index_array(targets, what)
    if targets.ndim != 1 or targets.shape[0] != n_edges:
        raise DimensionError(
            f"need one of the {what} per edge: {targets.shape} vs {n_edges} edges")
    if n_edges and (targets.min() < 0 or targets.max() >= n):
        raise IndexError(f"{what} out of range [0, {n})")
    return targets


def _dense_values(heads, n_dst, n_src, n_edges, f):
    """Whether edge attention sums its in-edge values as dense per-head
    products: when the [heads, n_dst, n_src] weight matrices are no larger
    than an [n_edges, f] edge array."""
    return heads * n_dst * n_src <= n_edges * f


def _pair_weights(alpha_edges, src, dst, n_src, n_dst):
    """[heads, n_dst, n_src]: per head, the attention weights of the in-edges
    summed per (dst, src) pair in ascending edge order.

    One width-1 scatter of the transposed weights: edge e's weight for head
    h goes to slot h*P + dst*n_src + src of P = n_dst*n_src pairs per head,
    so the sums land head-major and the reshape copies nothing."""
    heads = alpha_edges.shape[1]
    n_pairs = n_dst * n_src
    slots = (np.arange(heads)[:, None] * n_pairs + (dst * n_src + src)).reshape(-1)
    w = kernels.segment_sum(alpha_edges.T.reshape(-1, 1), slots, heads * n_pairs)
    return w.reshape(heads, n_dst, n_src)


def _entry_ranks(keys):
    """Per entry of the sorted keys, its place among its key's entries: 0
    for the first."""
    return np.arange(keys.shape[0]) - np.searchsorted(keys, keys)


# Keys per bucket of `_bucket_tables`. Sorted by degree and cut into
# buckets this size, the keys of the 6,000- to 8,000-edge attention
# relations of 16-agent, 8-lane scenes pad their tables to 1.00-1.23 E
# entries, where one [max degree, n] table pads skewed degrees far more.
_BUCKET_KEYS = 32


def _bucket_tables(keys, n_keys, zero):
    """The (keys, table) buckets `_bucket_sum` gathers through, for one key
    in [0, n_keys) per row, in any order. Keys are sorted by their number of
    rows, ties in ascending key, and cut into buckets of at most
    ``_BUCKET_KEYS``; column j of a bucket's [D, n] table holds the rows of
    the bucket's key j in ascending order, padded with `zero`, the index of
    a zero row, to D, the bucket's largest count. A bucket of one key gets a
    second column of zeros, since numpy sums a single column pairwise
    instead of in order. Tables are int32 where the row indices fit, which
    halves what a plan keeps; ``np.take`` reads them as fast as int64."""
    counts = np.bincount(keys, minlength=n_keys)
    by_count = np.argsort(counts, kind="stable")
    place = np.empty(n_keys, dtype=np.int64)
    place[by_count] = np.arange(n_keys)
    # entries sorted by their key's place, each key's in ascending row order
    rows = np.argsort(place[keys], kind="stable")
    placed = place[keys[rows]]
    rank = _entry_ranks(placed)
    index_type = np.int32 if zero <= np.iinfo(np.int32).max else np.int64
    buckets = []
    for lo in range(0, n_keys, _BUCKET_KEYS):
        hi = min(lo + _BUCKET_KEYS, n_keys)
        a, b = np.searchsorted(placed, (lo, hi))
        table = np.full((counts[by_count[hi - 1]], max(hi - lo, 2)), zero, dtype=index_type)
        table[rank[a:b], placed[a:b] - lo] = rows[a:b]
        table.flags.writeable = False
        buckets.append((by_count[lo:hi], table))
    return buckets


def _bucket_sum(rows, buckets, n_keys):
    """[n_keys, f]: per key the sum of its rows in ascending row order, by
    one gather and one ``sum(axis=0)`` per bucket of `_bucket_tables`, whose
    tables the caller's builder checked; a key without rows is zero. The
    sums start from the first row, not from zero, and padding adds zeros,
    so they equal a sum from zero up to the sign of a zero."""
    out = np.empty((n_keys, rows.shape[1]))
    for keys, table in buckets:
        out[keys] = np.take(rows, table, axis=0, mode="clip").sum(axis=0)[:keys.shape[0]]
    return out


class AttentionPlan:
    """One attention call-site's in-edges, edge i from source src[i] to
    destination dst[i], checked once, when the plan is built:
    `edge_attention` reads the plan and checks no index per call.

    The plan also keeps the tables its backward sums node gradients
    through. `node_sums` builds one set by destination and one by source
    (`_bucket_tables`) the first time a backward asks for it, and keeps it;
    a plan that only untaped forwards read builds none. The tables index
    the rows of the attention record's act, whose row n_edges + n_dst is
    zero.
    """

    def __init__(self, src, dst, n_src, n_dst):
        self.n_src, self.n_dst = int(n_src), int(n_dst)
        self.n_edges = np.size(src)
        self.src = _check_targets(src, self.n_src, self.n_edges, "attention sources")
        self.dst = _check_targets(dst, self.n_dst, self.n_edges, "attention targets")
        self._tables = {}

    def node_sums(self, rows, side):
        """[n, f]: per destination (side "dst") or source ("src"), the sum
        of rows[i] over its edges i in ascending edge order (`_bucket_sum`);
        rows are the n_edges + n_dst + 1 rows of act."""
        keys, n = (self.dst, self.n_dst) if side == "dst" else (self.src, self.n_src)
        if side not in self._tables:
            self._tables[side] = _bucket_tables(keys, n, self.n_edges + self.n_dst)
        return _bucket_sum(rows, self._tables[side], n)


def edge_attention(x_src, x_dst, edge, w1, w2, w3, attn, plan, slope):
    """Multi-head GATv2 attention with an implicit self edge per destination,
    as one tape record with a hand-written backward.

    Weights are stacked per head: w1, w2 [n_in, heads, dh], w3 [3 n_in,
    heads, dh] in row blocks W3a, W3b, W3c, attn [1, heads, dh]; columns
    h*dh..(h+1)*dh belong to head h. The E in-edges (src -> dst, features
    edge) come first, then one self edge per destination, so the rows'
    destinations are dst followed by 0..n_dst-1. Per row and head:

        pre   = (x_dst W3a)[dst] + (x_src W3b)[src] + e W3c   (in-edge)
                x_dst (W3a + W3b)                              (self edge)
        act   = max(pre, slope * pre)
        logit = act . attn, per head
        alpha = softmax of the logits over each destination's rows
        out   = sum over a destination's rows of alpha * value, the value
                being (x_src W2)[src] (in-edge) or x_dst W1 (self edge)

    max(pre, slope * pre) is LeakyReLU, bitwise, only for slope in [0, 1],
    so any other slope raises ValueError. src and dst are read from plan,
    an `AttentionPlan`, whose build checked them; a call checks only that
    its inputs have the plan's numbers of sources, destinations and edges.
    The row gathers run as ``np.take(..., mode="clip")``, which never clips
    a checked index and, unlike the default mode, does not buffer its
    ``out``.

    The per-row work (pre-activation, LeakyReLU, logits, and backward's
    gradients of them) runs in fixed blocks of ``_ROW_BLOCK`` rows, so its
    temporaries are block-sized. The in-edge value sum takes one of two
    forms, by size alone: when the per-head [n_dst, n_src] weight matrices
    are no larger than an [E, heads*dh] edge array (heads * n_dst * n_src
    <= E * heads * dh), it is the dense product W_h (x_src W2)_h per head,
    W summing alpha over each (dst, src) pair (duplicate pairs included);
    otherwise the weighted values are gathered and scattered one row block
    at a time. The self term alpha_self * x_dst W1 is added last. The group
    maximum and sums run through ``kernels`` in ascending row order.
    Backward keeps per row only act and alpha (W is rebuilt from alpha),
    and the node-level x_src W2 and x_dst W1; block by block it turns act
    in place into the gradient of the pre-activation, through the LeakyReLU
    derivative; after that loop it sums those rows per destination and per
    source over all edges, in ascending edge order, through the plan's
    gather tables (`AttentionPlan.node_sums`), which the first backward
    through a plan builds. A call no tape records (`_recording_tape`, as
    for every op) keeps act one block at a time in a block-sized buffer, so
    it holds no per-row activations; the self rows come from one x_dst
    (W3a + W3b) product either way and are copied into their blocks, so out
    and alpha have the same bits with or without a tape. Returns (out
    [n_dst, heads*dh], alpha [E + n_dst, heads]); alpha is the array
    backward reads, so the caller must not write to it.
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
    if (n_src, n_dst, n_edges) != (plan.n_src, plan.n_dst, plan.n_edges):
        raise DimensionError(
            f"edge_attention over a plan of {plan.n_edges} edges from {plan.n_src} sources to "
            f"{plan.n_dst} destinations got {n_src} sources, {n_dst} destinations and "
            f"{n_edges} edge rows")
    n_rows = n_edges + n_dst
    src, dst = plan.src, plan.dst
    mat1, mat2 = w1.data.reshape(n_in, f), w2.data.reshape(n_in, f)
    w3a, w3b, w3c = np.split(w3.data.reshape(3 * n_in, f), 3)
    head_of_column = np.repeat(np.eye(heads), dh, axis=0)
    attn_mat = head_of_column * attn.data.reshape(f, 1)  # block-diagonal [f, heads]
    dense = _dense_values(heads, n_dst, n_src, n_edges, f)

    tape = _recording_tape((x_src, x_dst, edge, w1, w2, w3, attn))
    a_dst, b_src, self_pre = xd @ w3a, xs @ w3b, xd @ (w3a + w3b)
    n_block = min(_ROW_BLOCK, n_rows)
    # backward reads every row's act, and its node sums a zero row after
    # them; an untaped call keeps one block of it
    act = np.empty((n_rows + 1 if tape else n_block, f))
    if tape:
        act[n_rows] = 0.0
    alpha, scratch = np.empty((n_rows, heads)), np.empty((n_block, f))
    # blocks run over all rows, in-edges then self edges, so that the logits
    # matmul sees the rows in the row tiles of one [n_rows, f] product
    for lo, hi in _blocks(n_rows):
        block = act[lo:hi] if tape else act[:hi - lo]
        cut = min(hi, n_edges)
        if lo < cut:
            pre, tmp = block[:cut - lo], scratch[:cut - lo]
            np.take(a_dst, dst[lo:cut], axis=0, out=pre, mode="clip")
            pre += np.take(b_src, src[lo:cut], axis=0, out=tmp, mode="clip")
            pre += np.matmul(e[lo:cut], w3c, out=tmp)
        if hi > n_edges:
            first = max(lo, n_edges)
            block[first - lo:] = self_pre[first - n_edges:hi - n_edges]
        np.maximum(block, np.multiply(block, slope, out=scratch[:hi - lo]), out=block)
        np.matmul(block, attn_mat, out=alpha[lo:hi])  # the logits, normalized below
    # the block views too hold act and scratch: an untaped call frees both here
    del a_dst, b_src, self_pre
    block = pre = tmp = scratch = None
    if not tape:
        act = None
    ext = np.concatenate([dst, np.arange(n_dst)])
    alpha -= kernels.segment_max(alpha, ext, n_dst)[ext]
    np.exp(alpha, out=alpha)
    alpha /= kernels.segment_sum(alpha, ext, n_dst)[ext]
    del ext

    vs, vd = xs @ mat2, xd @ mat1
    if dense:
        w = _pair_weights(alpha[:n_edges], src, dst, n_src, n_dst)
        per_head = np.matmul(w, vs.reshape(n_src, heads, dh).transpose(1, 0, 2))
        del w
        out_data = np.ascontiguousarray(per_head.transpose(1, 0, 2)).reshape(n_dst, f)
        del per_head
    else:
        out_data = np.zeros((n_dst, f))
        scratch = np.empty((min(_ROW_BLOCK, n_edges), f))
        for lo, hi in _blocks(n_edges):
            rows = np.take(vs, src[lo:hi], axis=0, out=scratch[:hi - lo], mode="clip")
            per_head = rows.reshape(hi - lo, heads, dh)
            per_head *= alpha[lo:hi, :, None]
            kernels.add_rows_at(out_data, dst[lo:hi], rows)
        del scratch
    per_head = out_data.reshape(n_dst, heads, dh)
    per_head += vd.reshape(n_dst, heads, dh) * alpha[n_edges:, :, None]
    out = _wrap(out_data, tape is not None)
    if tape:
        s_src, s_dst, s_edge = _slot_of(x_src), _slot_of(x_dst), _slot_of(edge)
        s1, s2, s3, s_attn = (_slot_of(w) for w in (w1, w2, w3, attn))
        w_shape, w3_shape = w1.data.shape, w3.data.shape
        saved = [act, alpha]  # backward takes them, to free each after its last use
        def bwd(g):
            act, alpha = saved
            saved.clear()
            g_heads = g.reshape(n_dst, heads, dh)
            g_alpha = np.empty((n_rows, heads))
            g_alpha[n_edges:] = (g_heads * vd.reshape(n_dst, heads, dh)).sum(axis=2)
            g_vd = (g_heads * alpha[n_edges:, :, None]).reshape(n_dst, f)
            if dense:
                g_by_head = g_heads.transpose(1, 0, 2)
                w = _pair_weights(alpha[:n_edges], src, dst, n_src, n_dst)
                g_vs = np.matmul(w.transpose(0, 2, 1), g_by_head)
                del w
                g_vs = np.ascontiguousarray(g_vs.transpose(1, 0, 2)).reshape(n_src, f)
                g_w = np.matmul(g_by_head, vs.reshape(n_src, heads, dh).transpose(1, 2, 0))
                g_alpha[:n_edges] = np.take(g_w.reshape(heads, n_dst * n_src),
                                            dst * n_src + src, axis=1).T
                del g_w
            else:
                g_vs = np.zeros((n_src, f))
                rows, values = np.empty((2, min(_ROW_BLOCK, n_edges), f))
                for lo, hi in _blocks(n_edges):
                    g_rows = np.take(g, dst[lo:hi], axis=0, out=rows[:hi - lo], mode="clip")
                    vals = np.take(vs, src[lo:hi], axis=0, out=values[:hi - lo], mode="clip")
                    vals *= g_rows
                    g_alpha[lo:hi] = vals.reshape(hi - lo, heads, dh).sum(axis=2)
                    per_head = g_rows.reshape(hi - lo, heads, dh)
                    per_head *= alpha[lo:hi, :, None]
                    kernels.add_rows_at(g_vs, src[lo:hi], g_rows)
                del rows, values
            # rebuilt, so that the record holds no [E + n_dst] index array
            ext = np.concatenate([dst, np.arange(n_dst)])
            g_logits = g_alpha
            g_logits -= kernels.segment_sum(alpha * g_alpha, ext, n_dst)[ext]
            g_logits *= alpha
            del alpha
            if s1:
                _give(s1, (xd.T @ g_vd).reshape(w_shape))
            if s2:
                _give(s2, (xs.T @ g_vs).reshape(w_shape))
            gx_src = g_vs @ mat2.T if s_src else None
            gx_dst = g_vd @ mat1.T if s_dst else None
            del g_vs, g_vd

            # block by block, act becomes in place the gradient of the
            # pre-activation: LeakyReLU derivative * logit gradient * attn
            g_attn = np.zeros((f, heads))
            dw3c = np.zeros((n_in, f))
            g_edge = np.empty((n_edges, n_in)) if s_edge else None
            attn_row = attn.data.reshape(1, heads, dh)
            for lo, hi in _blocks(n_rows):
                block, g_block = act[lo:hi], g_logits[lo:hi]
                g_attn += block.T @ g_block
                # the LeakyReLU derivative: 1 where act > 0 (exactly where
                # pre > 0, for slope >= 0), else slope
                np.greater(block, 0.0, out=block, casting="unsafe")
                np.maximum(block, slope, out=block)
                per_head = block.reshape(hi - lo, heads, dh)
                per_head *= g_block[:, :, None]
                per_head *= attn_row
                cut = min(hi, n_edges)
                if lo < cut:
                    g_pre = act[lo:cut]
                    if s_edge:
                        np.matmul(g_pre, w3c.T, out=g_edge[lo:cut])
                    if s3:
                        dw3c += e[lo:cut].T @ g_pre
            g_alpha = g_logits = g_block = None  # spent: freed before the node sums
            # the gradients of x_dst W3a and x_src W3b, summed over all edges
            g_self = act[n_edges:n_rows]
            if s3 or s_dst:
                g_a = plan.node_sums(act, "dst")
                g_a += g_self
            if s3 or s_src:
                g_b = plan.node_sums(act, "src")
            if s_attn:
                _give(s_attn, (g_attn * head_of_column).sum(axis=1).reshape(1, heads, dh))
            if s_edge:
                _give(s_edge, g_edge)
            if s3:
                dw3 = np.concatenate([xd.T @ g_a, xs.T @ g_b + xd.T @ g_self, dw3c])
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


# --- graph conv -----------------------------------------------------------

def _slot_table(keys, values, coeff, n_keys):
    """[D, n_keys] table whose slot d holds, per key, the value of the key's
    d-th entry; per slot the keys without a d-th entry, ascending; and per
    slot the (keys, [k, 1] coefficients) of the entries whose coefficient
    is not exactly 1, keys strictly ascending. keys must be sorted, each
    key's entries in the order its slots take. D is at least 1; an empty
    slot holds 0 and is listed only as empty."""
    rank = _entry_ranks(keys)
    depth = int(rank.max()) + 1 if rank.size else 1
    table = np.zeros((depth, n_keys), dtype=np.int64)
    table[rank, keys] = values
    table.flags.writeable = False
    counts = np.bincount(keys, minlength=n_keys)
    scaled = np.flatnonzero(coeff != 1.0)
    listed = [scaled[rank[scaled] == d] for d in range(depth)]
    return (table, [np.flatnonzero(counts <= d) for d in range(depth)],
            [(keys[at], coeff[at].reshape(-1, 1)) for at in listed])


class ConvPlan:
    """One graph's sparse [n_rows, E] matrix S, S[targets[i], i] = coeff[i]
    for edge i from source row sources[i], laid out for gathers: what
    `segment_sum` and `edge_conv` read.

    The edge list is checked here, once, against E, the length of coeff;
    the ops that read the plan check nothing per call, and its tables are
    read-only. A row's in-edges need not be contiguous. One stable sort by
    target gives the in-table `in_edges`: slot d holds each row's d-th
    in-edge in ascending edge order. `in_sources` holds those edges'
    sources. One stable sort by source gives the out-table `out_rows`: slot
    d holds each source's d-th out-edge's row in ascending edge order. An
    empty slot holds 0; `in_empty` and `out_empty` list its keys per slot.
    Beside each table, `in_coeff` and `out_coeff` list per slot only the
    entries whose coefficient is not exactly 1, as (rows, [k, 1]
    coefficients) pairs, rows strictly ascending, and `edge_coeff` is that
    pair for the edges themselves. On a graph whose coefficients are all 1
    these lists are empty.
    """

    def __init__(self, targets, sources, coeff, n_rows, n_src):
        self.n_rows, self.n_src = int(n_rows), int(n_src)
        coeff = np.asarray(coeff, dtype=np.float64)
        if coeff.ndim != 1:
            raise DimensionError(f"need one conv coefficient per edge, got {coeff.shape}")
        self.n_edges = coeff.shape[0]
        self.targets = _check_targets(targets, self.n_rows, self.n_edges, "conv targets")
        sources = _check_targets(sources, self.n_src, self.n_edges, "conv sources")
        by_target = np.argsort(self.targets, kind="stable")
        self.in_edges, self.in_empty, self.in_coeff = _slot_table(
            self.targets[by_target], by_target, coeff[by_target], self.n_rows)
        # without edges every slot is empty and holds 0, which is no edge
        self.in_sources = sources[self.in_edges] if self.n_edges else self.in_edges
        by_source = np.argsort(sources, kind="stable")
        self.out_rows, self.out_empty, self.out_coeff = _slot_table(
            sources[by_source], self.targets[by_source], coeff[by_source], self.n_src)
        scaled = np.flatnonzero(coeff != 1.0)
        self.edge_coeff = (scaled, coeff[scaled].reshape(-1, 1))
        self.in_sources.flags.writeable = False


def _scale_listed(part, listed):
    """In place: part's listed rows times their coefficients."""
    rows, coeff = listed
    if rows.size:
        part[rows] *= coeff


def _slot_sum(rows, index, empty, scaled):
    """[n, f]: per entry i, the sum over slots d of c * rows[index[d, i]],
    slot by slot in ascending order, c being 0 where empty[d] lists i, the
    coefficient scaled[d] lists for i, or 1 where neither lists it. index
    is a [D >= 1, n] table of a `ConvPlan`, which checked it; the first
    slot is gathered straight into the sum. Empty entries are set to +0.0
    and only listed rows are multiplied: a product by exactly 1 keeps the
    bits. Without rows every entry is empty."""
    if not rows.shape[0]:
        return np.zeros((index.shape[1], rows.shape[1]))
    out = np.take(rows, index[0], axis=0, out=np.empty((index.shape[1], rows.shape[1])),
                  mode="clip")
    out[empty[0]] = 0.0
    _scale_listed(out, scaled[0])
    if index.shape[0] > 1:
        scratch = np.empty_like(out)
        for d in range(1, index.shape[0]):
            np.take(rows, index[d], axis=0, out=scratch, mode="clip")
            scratch[empty[d]] = 0.0
            _scale_listed(scratch, scaled[d])
            out += scratch
    return out


def segment_sum(messages, plan, n):
    """S messages [n, f] for the plan's matrix S of n rows, as one tape
    record that scatters in neither direction: row t is the sum over t's
    in-edges i of coeff_i * messages[i], gathered slot by slot through the
    in-table in ascending edge order, starting from the first one's product
    (as a sum from zero does, up to the sign of a zero); a row without
    in-edges is zero. Backward gathers the gradient by target: edge i's is
    coeff_i * g[targets[i]]. Only coefficients other than exactly 1 are
    multiplied."""
    if messages.data.ndim != 2 or messages.data.shape[0] != plan.n_edges or n != plan.n_rows:
        raise DimensionError(
            f"segment_sum over a plan of {plan.n_edges} edges into {plan.n_rows} rows needs "
            f"one message per edge and n = {plan.n_rows}: {messages.data.shape}, n = {n}")
    out, tape = _make_output(
        _slot_sum(messages.data, plan.in_edges, plan.in_empty, plan.in_coeff), (messages,))
    if tape:
        se = messages._slot
        def bwd(g):
            g_edge = np.take(g, plan.targets, axis=0)
            _scale_listed(g_edge, plan.edge_coeff)
            _give(se, g_edge)
        _on_backward(tape, out, bwd)
    return out


def edge_conv(x_src, edge_agg, weight, bias, plan):
    """Degree-normalized graph conv over R relations, as one tape record
    with a hand-written backward and no scatter.

    Row t*R + r of the [n_dst*R, n_in] aggregate belongs to target t and
    relation r; plan, a `ConvPlan` from x_src's rows to the aggregate's, is
    the sparse matrix S of in-edge coefficients. weight is one [R, n_in,
    n_out] parameter and bias one [R, n_out], index r for relation r. Then

        agg = S x_src + edge_agg
        out = agg.reshape(n_dst, R*n_in) @ weight.reshape(R*n_in, n_out) + sum_r b_r

    where the reshaped weight is a view, not a copy. edge_agg [n_dst*R,
    n_in] is the edge term, S applied to the in-edges' embeddings
    (`segment_sum`), which does not depend on x_src. S x_src is gathered
    slot by slot through the plan's source table, as `segment_sum` gathers,
    and edge_agg is added last.

    Backward gives the weight agg^T g, each bias row g's column sums, and
    edge_agg the aggregate gradient g W^T. x_src's gradient, S^T g W^T,
    runs through the plan's out-table, summed slot by slot in ascending
    edge order and then added onto any gradient x_src already holds, as a
    gather's gradient is. Gathers run as ``np.take(..., mode="clip")``,
    which never clips an index the plan checked and does not buffer its
    ``out``.
    """
    w_shape = weight.data.shape
    if (x_src.data.ndim != 2 or len(w_shape) != 3 or not w_shape[0]
            or w_shape[1] != x_src.data.shape[1] or bias.data.shape != (w_shape[0], w_shape[2])):
        raise DimensionError(
            f"edge_conv needs [n, f] sources, an [R >= 1, f, n_out] weight and an [R, n_out] "
            f"bias: {x_src.data.shape}, {w_shape}, {bias.data.shape}")
    r, n_in, n_out = w_shape
    n_src = x_src.data.shape[0]
    n_rows = plan.n_rows
    if n_src != plan.n_src or edge_agg.data.shape != (n_rows, n_in) or n_rows % r:
        raise DimensionError(
            f"edge_conv over a plan of {plan.n_src} sources and {n_rows} rows needs "
            f"[{plan.n_src}, f] sources and an [n_dst*{r}, {n_in}] edge term, got "
            f"{x_src.data.shape} and {edge_agg.data.shape}")
    n_dst = n_rows // r

    w_flat = weight.data.reshape(r * n_in, n_out)
    agg = _slot_sum(x_src.data, plan.in_sources, plan.in_empty, plan.in_coeff)
    agg += edge_agg.data
    out_data = agg.reshape(n_dst, r * n_in) @ w_flat
    out_data += np.ones((1, r)) @ bias.data
    out, tape = _make_output(out_data, (x_src, edge_agg, weight, bias))
    if tape:
        s_x, s_edge, s_w, s_b = (_slot_of(t) for t in (x_src, edge_agg, weight, bias))
        agg = agg if s_w else None
        w_flat = w_flat if s_x or s_edge else None
        def bwd(g):
            if s_w:
                _give(s_w, (agg.reshape(n_dst, r * n_in).T @ g).reshape(w_shape))
            if s_b:
                _give(s_b, np.repeat(g.sum(axis=0).reshape(1, n_out), r, axis=0))
            if s_x or s_edge:
                g_agg = (g @ w_flat.T).reshape(n_rows, n_in)
                if s_x:
                    _give(s_x, _slot_sum(g_agg, plan.out_rows, plan.out_empty, plan.out_coeff))
                if s_edge:
                    _give(s_edge, g_agg)
        _on_backward(tape, out, bwd)
    return out


def gather_rows(a, idx):
    """out[i] = a[idx[i]]; duplicated indices sum their upstream gradients."""
    idx = _index_array(idx, "gather index")
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
    """Join tensors along any `axis`: row blocks on 0, features on 1 or 2."""
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


def stack(parts):
    """Equal-shaped tensors as the indices of a new leading axis; a tensor
    stacked more than once takes the sum of its indices' gradients."""
    parts = list(parts)
    if len({p.data.shape for p in parts}) != 1 or parts[0].data.ndim >= _MAX_RANK:
        raise DimensionError(
            f"stack needs equal shapes of rank < {_MAX_RANK}: {[p.shape for p in parts]}")
    out, tape = _make_output(np.stack([p.data for p in parts]), parts)
    if tape:
        slots = [_slot_of(p) for p in parts]
        def bwd(g):
            for s, g_part in zip(slots, g):
                if s:
                    _give(s, g_part)
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
