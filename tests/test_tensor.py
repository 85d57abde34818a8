import tracemalloc
import weakref

import numpy as np
import pytest

from trajgraph import tensor as tg
from trajgraph.config import RunConfig
from trajgraph.errors import DimensionError, TapeError
from trajgraph.losses import total_loss
from trajgraph.model import forward, init_parameters
from trajgraph.synthetic import SyntheticSpec, generate_synthetic
from trajgraph.train import prepare_samples

from oracles import gatv2_composite, grad_rel_error, numeric_gradient

GRAD_TOL = 1e-5


def check_gradients(build, tensors, tol=GRAD_TOL):
    """Run build() under a tape, backward, and compare against central FD."""
    with tg.Tape() as tape:
        out = build()
    tape.backward(out)
    numeric = numeric_gradient(lambda: build().item(), tensors)
    for t, num in zip(tensors, numeric):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = grad_rel_error(analytic, num)
        assert err < tol, f"gradient mismatch: rel error {err:.3e}"


def test_matmul_identity():
    a = tg.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = tg.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(tg.matmul(a, b).data, b.data)


def test_matmul_small():
    out = tg.matmul(tg.Tensor([[1.0, 2.0]]), tg.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        tg.matmul(tg.Tensor(np.zeros((2, 3))), tg.Tensor(np.zeros((2, 2))))


def test_matmul_gradients():
    rng = np.random.default_rng(7)
    a = tg.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = tg.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))  # fixed weighting to make the output scalar
    check_gradients(
        lambda: tg.sum_all(tg.mul(tg.matmul(a, b), tg.Tensor(w))), [a, b], tol=1e-6)


def test_elementwise_values():
    assert tg.add(tg.Tensor([1.0, 2.0]), tg.Tensor([0.0, 0.0])).data.tolist() == [1.0, 2.0]
    assert tg.mul(tg.Tensor([2.0, 3.0]), tg.Tensor([4.0, 5.0])).data.tolist() == [8.0, 15.0]
    assert tg.sub(tg.Tensor([2.0]), tg.Tensor([5.0])).data.tolist() == [-3.0]


def test_elementwise_shape_error():
    with pytest.raises(DimensionError):
        tg.add(tg.Tensor(np.zeros((2, 3))), tg.Tensor(np.zeros((3, 2))))


def test_bias_broadcast_gradient_is_column_sum():
    rng = np.random.default_rng(3)
    a = tg.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    bias = tg.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    upstream = rng.normal(size=(5, 4))
    with tg.Tape() as tape:
        out = tg.sum_all(tg.mul(tg.add(a, bias), tg.Tensor(upstream)))
    tape.backward(out)
    assert np.allclose(bias.grad, upstream.sum(axis=0, keepdims=True))
    a.zero_grad()
    bias.zero_grad()
    check_gradients(
        lambda: tg.sum_all(tg.mul(tg.add(a, bias), tg.Tensor(upstream))), [a, bias])


def test_relu_values():
    assert tg.relu(tg.Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]


def test_activation_gradients_away_from_kink():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 6))
    x[np.abs(x) < 1e-4] += 0.01  # keep clear of the kink
    a = tg.Tensor(x, requires_grad=True)
    w = tg.Tensor(rng.normal(size=(4, 6)))
    check_gradients(lambda: tg.sum_all(tg.mul(tg.relu(a), w)), [a])
    a.zero_grad()
    check_gradients(lambda: tg.sum_all(tg.mul(tg.absolute(a), w)), [a])


def test_layer_norm_constant_row():
    a = tg.Tensor([[1.0, 1.0, 1.0, 1.0]])
    gain = tg.Tensor(np.ones(4))
    offset = tg.Tensor(np.zeros(4))
    assert np.allclose(tg.layer_norm(a, gain, offset).data, 0.0)


def test_layer_norm_symmetric_pair():
    out = tg.layer_norm(tg.Tensor([[-1.0, 1.0]]), tg.Tensor(np.ones(2)), tg.Tensor(np.zeros(2)))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_gradients():
    rng = np.random.default_rng(13)
    a = tg.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    gain = tg.Tensor(rng.normal(size=8), requires_grad=True)
    offset = tg.Tensor(rng.normal(size=8), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(4, 8)))
    check_gradients(
        lambda: tg.sum_all(tg.mul(tg.layer_norm(a, gain, offset), w)), [a, gain, offset])


def test_segment_sum_empty():
    out = tg.segment_sum(tg.Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64), 4)
    assert out.shape == (4, 3)
    assert np.all(out.data == 0.0)


def test_segment_sum_values():
    msgs = tg.Tensor([[1.0], [2.0], [3.0]])
    out = tg.segment_sum(msgs, [0, 0, 1], 2)
    assert out.data.tolist() == [[3.0], [3.0]]


def test_segment_sum_out_of_range():
    with pytest.raises(IndexError):
        tg.segment_sum(tg.Tensor([[1.0]]), [5], 2)


def test_segment_sum_gradient_is_gather():
    rng = np.random.default_rng(17)
    msgs = tg.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    targets = [0, 2, 2, 1, 0, 2]
    w = tg.Tensor(rng.normal(size=(3, 3)))
    check_gradients(lambda: tg.sum_all(tg.mul(tg.segment_sum(msgs, targets, 3), w)), [msgs])


def test_segment_sum_ones_upstream_gives_unit_edge_gradient():
    msgs = tg.Tensor(np.random.default_rng(19).normal(size=(5, 2)), requires_grad=True)
    with tg.Tape() as tape:
        out = tg.sum_all(tg.segment_sum(msgs, [0, 1, 1, 2, 0], 3))
    tape.backward(out)
    assert np.array_equal(msgs.grad, np.ones((5, 2)))


# --- edge attention ----------------------------------------------------------
# The fused GATv2 op. The leaky_relu and segment_softmax tests keep their
# names: each pins its property on the LeakyReLU or the softmax inside it.

_ATT_SRC = np.array([1, 3, 2, 0, 3, 1, 0])
_ATT_DST = np.array([0, 0, 0, 1, 2, 2, 2])  # destination 3 has no in-edges


def _attention_inputs(rng, heads, shared=False, scale=1.0, n_dst=4, n_edges=7, n_in=4, dh=2):
    """[x_src, x_dst, edge, w1, w2, w3, attn], each taking a gradient;
    x_src is x_dst when shared, else it has 5 rows."""
    x_dst = tg.Tensor(rng.normal(size=(n_dst, n_in)) * scale, requires_grad=True)
    x_src = x_dst if shared else tg.Tensor(rng.normal(size=(5, n_in)) * scale,
                                           requires_grad=True)
    shapes = [(n_edges, n_in), (n_in, heads, dh), (n_in, heads, dh),
              (3 * n_in, heads, dh), (1, heads, dh)]
    return [x_src, x_dst] + [tg.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def _attention(inputs, slope, src=_ATT_SRC, dst=_ATT_DST):
    ext = np.concatenate([dst, np.arange(inputs[1].shape[0])])
    return tg.edge_attention(*inputs, src, dst, ext, slope)


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
def test_leaky_relu_equals_two_branch_form_bitwise(slope):
    """edge_attention's outputs and weights equal the composite oracle's,
    whose LeakyReLU is np.where(pre > 0, pre, slope * pre), bitwise, over
    pre-activations of sizes 1e-9 to 1e9 and exact zeros; at pre == 0 the
    derivative is slope."""
    rng = np.random.default_rng(59)
    inputs = _attention_inputs(rng, heads=2)
    inputs[1].data *= np.exp(rng.uniform(-20.0, 20.0, size=inputs[1].shape))
    inputs[1].data[3] = 0.0  # the self row of the destination without in-edges
    out, alpha = _attention(inputs, slope)
    want_out, want_alpha = gatv2_composite(
        inputs[0].data, inputs[1].data, _ATT_SRC, _ATT_DST,
        *(t.data for t in inputs[2:]), slope)
    assert out.data.tobytes() == want_out.tobytes()
    assert alpha.tobytes() == want_alpha.tobytes()

    # W3 = 0 puts every pre-activation at the kink; only the derivative
    # there depends on the slope, so W3's gradient scales with it
    kink = _attention_inputs(np.random.default_rng(60), heads=2)
    kink[5].data[:] = 0.0
    w = tg.Tensor(rng.normal(size=(4, 4)))

    def w3_grad(s):
        kink[5].zero_grad()
        with tg.Tape() as tape:
            total = tg.sum_all(tg.mul(_attention(kink, s)[0], w))
        tape.backward(total)
        return kink[5].grad

    at_slope, at_one = w3_grad(slope), w3_grad(1.0)
    assert np.abs(at_one).max() > 0.0
    assert np.abs(at_slope - slope * at_one).max() <= 1e-12 * np.abs(at_one).max()
    assert slope > 0.0 or not at_slope.any()


def test_segment_softmax_values():
    # zero logits (W3 = 0): each of a destination's k in-edges and its self
    # edge weigh 1 / (k + 1) exactly; no in-edges leaves the self edge at 1
    inputs = _attention_inputs(np.random.default_rng(21), heads=2)
    inputs[5].data[:] = 0.0
    _, alpha = _attention(inputs, 0.2)
    per_row = [0.25, 0.25, 0.25, 0.5, 0.25, 0.25, 0.25] + [0.25, 0.5, 0.25, 1.0]
    assert alpha.tolist() == [[w, w] for w in per_row]


def test_segment_softmax_group_sums():
    rng = np.random.default_rng(23)
    src = rng.integers(0, 5, size=40)
    dst = np.sort(rng.integers(0, 6, size=40))
    inputs = _attention_inputs(rng, heads=4, scale=5.0, n_dst=6, n_edges=40)
    _, alpha = _attention(inputs, 0.2, src, dst)
    sums = np.zeros((6, 4))
    np.add.at(sums, np.concatenate([dst, np.arange(6)]), alpha)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_segment_softmax_gradients():
    # through the per-destination softmax: the logits' weights, 3 heads
    rng = np.random.default_rng(29)
    inputs = _attention_inputs(rng, heads=3)
    w = tg.Tensor(rng.normal(size=(4, 6)))
    check_gradients(lambda: tg.sum_all(tg.mul(_attention(inputs, 0.2)[0], w)), inputs[5:])


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_edge_attention_gradients(slope, heads, shared):
    """All seven inputs, x_src is x_dst as in the social and merge convs or
    not, with a destination that has no in-edges."""
    rng = np.random.default_rng(71 + heads)
    inputs = _attention_inputs(rng, heads, shared)
    w = tg.Tensor(rng.normal(size=(4, 2 * heads)))
    leaves = inputs[1:] if shared else inputs
    check_gradients(lambda: tg.sum_all(tg.mul(_attention(inputs, slope)[0], w)), leaves)


_N_SRC, _N_DST, _N_EDGES, _HEADS, _DH = 30, 20, 3000, 4, 4


def _large_attention_case(rng):
    """(inputs, src, dst, ext) of a 3,000-edge conv, inputs as in
    _attention_inputs."""
    f = _HEADS * _DH
    src = rng.integers(0, _N_SRC, size=_N_EDGES)
    dst = np.sort(rng.integers(0, _N_DST, size=_N_EDGES))
    inputs = [tg.Tensor(rng.normal(size=s), requires_grad=True) for s in (
        (_N_SRC, f), (_N_DST, f), (_N_EDGES, f), (f, _HEADS, _DH), (f, _HEADS, _DH),
        (3 * f, _HEADS, _DH), (1, _HEADS, _DH))]
    return inputs, src, dst, np.concatenate([dst, np.arange(_N_DST)])


def test_edge_attention_holds_act_and_alpha_per_row():
    n_src, n_dst, n_edges, heads, dh = _N_SRC, _N_DST, _N_EDGES, _HEADS, _DH
    f = heads * dh
    inputs, src, dst, ext = _large_attention_case(np.random.default_rng(73))
    tracemalloc.start()
    try:
        with tg.Tape():
            before, _ = tracemalloc.get_traced_memory()
            out, alpha = tg.edge_attention(*inputs, src, dst, ext, 0.2)
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    node_level = 8 * f * (n_src + 2 * n_dst)  # x_src W2, x_dst W1 and the output
    assert held <= 8 * (f + heads) * (n_edges + n_dst) + node_level + 8192, held


@pytest.mark.parametrize("which", ["src", "dst", "ext_targets"])
@pytest.mark.parametrize("bad", ["negative", "too-large"])
def test_edge_attention_refuses_out_of_range_indices(which, bad):
    """The range check on entry is the only index guard: the gathers run in
    np.take's clip mode, so an index out of range must raise, never clip."""
    inputs = _attention_inputs(np.random.default_rng(79), heads=2)
    n_dst = inputs[1].shape[0]
    idx = {"src": _ATT_SRC.copy(), "dst": _ATT_DST.copy(),
           "ext_targets": np.concatenate([_ATT_DST, np.arange(n_dst)])}
    limit = {"src": inputs[0].shape[0], "dst": n_dst, "ext_targets": n_dst}[which]
    idx[which][-1] = -1 if bad == "negative" else limit
    with tg.Tape(), pytest.raises(IndexError, match="out of range"):
        tg.edge_attention(*inputs, idx["src"], idx["dst"], idx["ext_targets"], 0.2)


@pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan"), float("inf")])
def test_edge_attention_refuses_slope_outside_unit_interval(slope):
    # max(pre, slope * pre) is LeakyReLU only for slope in [0, 1]
    inputs = _attention_inputs(np.random.default_rng(83), heads=2)
    with pytest.raises(ValueError, match=r"slope must be in \[0, 1\]"):
        _attention(inputs, slope)


# Peak traced memory, in bytes, of one forward plus backward of the conv
# below at the commit before the LeakyReLU and gathers were taken off
# numpy's masked and buffered paths, about 3.9 [E + n_dst, f] float64
# arrays: 1,521,867 when this file runs whole, 1,523,196 when this test
# runs alone (numpy 2.4.6, Python 3.11.7). The change reads 1,462,523 and
# 1,463,996: alpha is now freed before backward's largest scatter.
_PARENT_ATTENTION_PEAK = 1_521_867


def test_edge_attention_peak_memory_not_above_parent():
    """No new [E + n_dst, f] buffer: the forward's scratch terms reuse the
    buffer of the weighted values, and backward turns act into the
    LeakyReLU derivative in place."""
    rng = np.random.default_rng(73)
    inputs, src, dst, ext = _large_attention_case(rng)
    w = tg.Tensor(rng.normal(size=(_N_DST, _HEADS * _DH)))
    tracemalloc.start()
    try:
        with tg.Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out, alpha = tg.edge_attention(*inputs, src, dst, ext, 0.2)
            total = tg.sum_all(tg.mul(out, w))
            del out, alpha
        tape.backward(total)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in inputs)
    assert peak <= _PARENT_ATTENTION_PEAK, peak


def test_concat_and_gather():
    parts = [tg.Tensor([[1.0]]), tg.Tensor([[2.0]])]
    assert tg.concat(parts, 1).data.tolist() == [[1.0, 2.0]]
    assert tg.concat(parts, 0).data.tolist() == [[1.0], [2.0]]
    a = tg.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    with tg.Tape() as tape:
        out = tg.sum_all(tg.gather_rows(a, [0, 0]))
    tape.backward(out)
    # both upstream rows land on row 0
    assert a.grad.tolist() == [[2.0, 2.0], [0.0, 0.0]]


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        tg.gather_rows(tg.Tensor([[1.0]]), [1])


def test_scale_rows_gradients():
    rng = np.random.default_rng(37)
    a = tg.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    s = tg.Tensor(rng.normal(size=(5, 1)), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(5, 3)))
    check_gradients(lambda: tg.sum_all(tg.mul(tg.scale_rows(a, s), w)), [a, s])


def test_reshape_and_concat_rows_gradients():
    rng = np.random.default_rng(41)
    a = tg.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    b = tg.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(5, 2, 3)))
    def build():
        stacked = tg.concat([a, b], 0)
        return tg.sum_all(tg.mul(tg.reshape(stacked, (5, 2, 3)), w))
    check_gradients(build, [a, b])


def test_composite_expression_gradcheck():
    # small linear -> relu -> layer_norm -> segment_sum block, checked end to end
    rng = np.random.default_rng(47)
    x = tg.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    bias = tg.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    gain = tg.Tensor(np.ones(4), requires_grad=True)
    offset = tg.Tensor(np.zeros(4), requires_grad=True)
    targets = [0, 1, 1, 2, 0, 2]
    mixer = tg.Tensor(rng.normal(size=(3, 4)))

    def build():
        h = tg.relu(tg.add(tg.matmul(x, w), bias))
        h = tg.layer_norm(h, gain, offset)
        pooled = tg.segment_sum(h, targets, 3)
        return tg.sum_all(tg.mul(pooled, mixer))

    check_gradients(build, [x, w, bias, gain, offset], tol=1e-4)


def test_gradient_accumulation_on_reuse():
    a = tg.Tensor([[2.0]], requires_grad=True)
    with tg.Tape() as tape:
        out = tg.sum_all(tg.add(tg.mul(a, a), a))  # a^2 + a -> d/da = 2a + 1
    tape.backward(out)
    assert a.grad.tolist() == [[5.0]]


def test_tape_single_use():
    a = tg.Tensor([[1.0]], requires_grad=True)
    with tg.Tape() as tape:
        out = tg.sum_all(a)
    tape.backward(out)
    with pytest.raises(TapeError):
        tape.backward(out)


def test_backward_requires_scalar():
    a = tg.Tensor(np.ones((2, 2)), requires_grad=True)
    with tg.Tape() as tape:
        out = tg.add(a, a)
    with pytest.raises(DimensionError):
        tape.backward(out)


def test_no_tape_means_no_tracking():
    a = tg.Tensor([[1.0]], requires_grad=True)
    out = tg.mul(a, a)
    assert not out.requires_grad


def test_determinism_bitwise():
    rng = np.random.default_rng(53)
    data = rng.normal(size=(20, 8))
    w = rng.normal(size=(8, 8))
    targets = rng.integers(0, 5, size=20)

    def run():
        a = tg.Tensor(data, requires_grad=True)
        wt = tg.Tensor(w, requires_grad=True)
        with tg.Tape() as tape:
            h = tg.relu(tg.matmul(a, wt))
            out = tg.sum_all(tg.segment_sum(h, targets, 5))
        tape.backward(out)
        return out.data.copy(), a.grad.copy(), wt.grad.copy()

    first, second = run(), run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_rank_limit():
    with pytest.raises(DimensionError):
        tg.Tensor(np.zeros((1, 1, 1, 1, 1)))


def test_zero_extent_tensors_flow():
    a = tg.Tensor(np.zeros((0, 3)))
    b = tg.Tensor(np.zeros((3, 2)))
    assert tg.matmul(a, b).shape == (0, 2)


# --- gradient hand-off and the tape's memory ---------------------------------

_HAND_OFF_CASES = {
    # name: (build(x, y) -> tensor, shape of the upstream weights W,
    #        (x.grad, y.grad) in closed form from W; None for no gradient)
    "add": (lambda x, y: tg.add(x, y), (3, 2), lambda w: (w, w)),
    "add-self": (lambda x, y: tg.add(x, x), (3, 2), lambda w: (w + w, None)),
    "sub-self": (lambda x, y: tg.sub(x, x), (3, 2), lambda w: (w - w, None)),
    "concat-rows-self": (lambda x, y: tg.concat([x, x], 0), (6, 2),
                         lambda w: (w[:3] + w[3:], None)),
    "concat-self": (lambda x, y: tg.concat([x, x], 1), (3, 4),
                    lambda w: (w[:, :2] + w[:, 2:], None)),
    "concat": (lambda x, y: tg.concat([x, y], 1), (3, 4), lambda w: (w[:, :2], w[:, 2:])),
    "concat-rows": (lambda x, y: tg.concat([x, y], 0), (6, 2), lambda w: (w[:3], w[3:])),
    "reshape": (lambda x, y: tg.reshape(x, (2, 3)), (2, 3), lambda w: (w.reshape(3, 2), None)),
}


@pytest.mark.parametrize("case", sorted(_HAND_OFF_CASES))
def test_pass_through_gradients_in_closed_form(case):
    build, w_shape, expected = _HAND_OFF_CASES[case]
    rng = np.random.default_rng(61)
    x, y = (tg.Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(2))
    w = rng.normal(size=w_shape)
    with tg.Tape() as tape:
        mid = build(x, y)
        out = tg.sum_all(tg.mul(mid, tg.Tensor(w)))
    tape.backward(out)
    for leaf, want in zip((x, y), expected(w)):
        if want is None:
            assert leaf.grad is None
        else:
            assert leaf.grad.tobytes() == np.ascontiguousarray(want).tobytes()
    if x.grad is not None and y.grad is not None:
        assert not np.shares_memory(x.grad, y.grad)
    # backward consumed the tape; only leaves keep a gradient
    assert mid.grad is None and out.grad is None and not tape._records


def test_dropped_gather_output_is_freed_while_the_tape_lives():
    x = tg.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    y = tg.Tensor(np.ones((5, 3)), requires_grad=True)
    with tg.Tape() as tape:
        gathered = tg.gather_rows(x, [0, 2, 2, 3, 1])
        data_ref = weakref.ref(gathered.data)
        total = tg.add(gathered, y)
        del gathered
        assert data_ref() is None
        out = tg.sum_all(total)
    tape.backward(out)
    assert x.grad.tolist() == [[1.0] * 3, [1.0] * 3, [2.0] * 3, [1.0] * 3]


def _default_model_scenes(n_scenes):
    """Default configuration, synthetic 4-agent/2-lane scenes, and initial
    parameters whose head output layers are not zero (so every parameter
    takes a gradient)."""
    cfg = RunConfig()
    spec = SyntheticSpec(scenes=n_scenes, agents=4, lanes=2, t_obs=cfg.model.t_obs,
                         t_f=cfg.model.t_f, dt=0.1, noise=0.05, curved=True)
    samples = prepare_samples(generate_synthetic(spec, 3), cfg)
    params = init_parameters(cfg.model, 1)
    rng = np.random.default_rng(67)
    for name, t in params.items():
        if name.startswith("head.") and ".l2." in name:
            t.data = rng.uniform(-0.05, 0.05, size=t.data.shape)
    return cfg, samples, params


def _scene_backward(sample, params, cfg):
    """One scene's backward into params, scaled as in a batch of two."""
    with tg.Tape() as tape:
        loss, _, _ = total_loss(forward(sample.cache, params, cfg.model),
                                sample.gt, sample.mask, cfg.loss)
        scaled = tg.scale(loss, 0.5)
    tape.backward(scaled)


def test_backward_memory_stays_near_the_forward_and_frees_the_tape():
    cfg, (sample,), params = _default_model_scenes(1)
    param_bytes = sum(t.data.nbytes for _, t in params.items())
    tracemalloc.start()
    try:
        with tg.Tape() as tape:
            loss, _, _ = total_loss(forward(sample.cache, params, cfg.model),
                                    sample.gt, sample.mask, cfg.loss)
        end_of_forward, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tape.backward(loss)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * end_of_forward, (peak, end_of_forward)
    # the tape and the loss are still alive: only the leaves' gradients remain
    assert after <= 1.5 * param_bytes, (after, param_bytes)


def test_default_scene_records_one_tape_record_per_attention_conv():
    # one record per attention conv; with 30 single ops per conv a scene records 645
    cfg, (sample,), params = _default_model_scenes(1)
    with tg.Tape() as tape:
        total_loss(forward(sample.cache, params, cfg.model), sample.gt, sample.mask, cfg.loss)
    assert len(tape._records) <= 413


def test_two_scene_accumulation_equals_separate_gradients():
    cfg, samples, params = _default_model_scenes(2)
    names = params.paths()

    def grads():
        return {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for n, t in params.items()}

    separate = []
    for sample in samples:
        params.zero_grads()
        _scene_backward(sample, params, cfg)
        separate.append(grads())
    params.zero_grads()
    for sample in samples:  # as train does: one ModelParameters, one tape per scene
        _scene_backward(sample, params, cfg)
    accumulated = grads()
    leaves = [t.grad for _, t in params.items()]
    for i, g in enumerate(leaves):
        for h in leaves[i + 1:]:
            assert not np.shares_memory(g, h)

    # the second scene onto fresh copies of the first scene's gradients
    for name, t in params.items():
        t.grad = separate[0][name].copy()
    _scene_backward(samples[1], params, cfg)
    for name in names:
        assert accumulated[name].tobytes() == params[name].grad.tobytes(), name
    # a parameter read once per scene takes one addition per scene, so its
    # sum is exact; the shared edge MLP is read once per call-site and adds
    # its contributions one by one onto what it holds
    once = [n for n in names if not n.startswith("embed.edge.")]
    assert len(once) == len(names) - 4
    for name in once:
        total = separate[0][name] + separate[1][name]
        assert accumulated[name].tobytes() == total.tobytes(), name
