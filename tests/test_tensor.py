import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajgraph import kernels, tensor as tg
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


def _per_index(t, i):
    """Index i of a stack as its own tensor taking a gradient; a rank-2
    operand that every index shares, whole."""
    return tg.Tensor(t.data[i] if t.data.ndim == 3 else t.data, requires_grad=True)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 5, 4), (3, 4, 2)), ((5, 4), (3, 4, 2)), ((3, 5, 4), (4, 2)),
    ((3, 7, 6), (3, 6, 1)), ((3, 1, 4), (4, 3)), ((2, 64, 70), (70, 60))])
def test_stack_matmul_is_the_per_index_products_bitwise(a_shape, b_shape):
    """Each index of a [B, n, k] @ [B, k, m] product, either operand of
    which may be a rank-2 matrix every index shares, has the bytes of the
    separate 2-D product, and so do a stacked operand's gradients."""
    rng = np.random.default_rng(8)
    a = tg.Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = tg.Tensor(rng.normal(size=b_shape), requires_grad=True)
    n_index = (a_shape if len(a_shape) == 3 else b_shape)[0]
    upstream = rng.normal(size=(n_index, a_shape[-2], b_shape[-1]))
    with tg.Tape() as tape:
        out = tg.matmul(a, b)
        loss = tg.sum_all(tg.mul(out, tg.Tensor(upstream)))
    tape.backward(loss)
    for i in range(n_index):
        a_i, b_i = _per_index(a, i), _per_index(b, i)
        with tg.Tape() as tape:
            out_i = tg.matmul(a_i, b_i)
            loss = tg.sum_all(tg.mul(out_i, tg.Tensor(upstream[i])))
        tape.backward(loss)
        assert out.data[i].tobytes() == out_i.data.tobytes()
        for t, t_i in ((a, a_i), (b, b_i)):
            if t.data.ndim == 3:
                assert t.grad[i].tobytes() == t_i.grad.tobytes()


@pytest.mark.parametrize("a_shape, b_shape", [
    ((5, 4), (3, 4, 2)), ((3, 5, 4), (4, 2)), ((3, 5, 4), (3, 4, 2))])
def test_stack_matmul_gradients(a_shape, b_shape):
    """Finite differences, with the rank-2 operand shared on either side."""
    rng = np.random.default_rng(9)
    a = tg.Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = tg.Tensor(rng.normal(size=b_shape), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(3, 5, 2)))
    check_gradients(
        lambda: tg.sum_all(tg.mul(tg.matmul(a, b), w)), [a, b], tol=1e-6)


def test_stack_matmul_shape_errors_name_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        tg.matmul(tg.Tensor(np.zeros((2, 3, 4))), tg.Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(DimensionError, match=r"\(2, 2, 3, 4\).*\(4, 5\)"):
        tg.matmul(tg.Tensor(np.zeros((2, 2, 3, 4))), tg.Tensor(np.zeros((4, 5))))


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


# LayerNorm runs only inside tg.relu_norm, which normalizes relu(z) + residual.

def test_layer_norm_constant_row():
    a = tg.Tensor([[1.0, 1.0, 1.0, 1.0]])
    gain = tg.Tensor(np.ones(4))
    offset = tg.Tensor(np.zeros(4))
    assert np.allclose(tg.relu_norm(a, gain, offset).data, 0.0)


def test_layer_norm_symmetric_pair():
    # relu zeroes the -1, and the residual puts it back
    out = tg.relu_norm(tg.Tensor([[0.0, 1.0]]), tg.Tensor(np.ones(2)), tg.Tensor(np.zeros(2)),
                       tg.Tensor([[-1.0, 0.0]]))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_gradients():
    """relu_norm's gradients without and with a residual."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 8))
    x[np.abs(x) < 1e-4] += 0.01  # keep clear of the kink
    a = tg.Tensor(x, requires_grad=True)
    gain = tg.Tensor(rng.normal(size=8), requires_grad=True)
    offset = tg.Tensor(rng.normal(size=8), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(4, 8)))
    r = tg.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    check_gradients(
        lambda: tg.sum_all(tg.mul(tg.relu_norm(a, gain, offset), w)), [a, gain, offset])
    for t in (a, gain, offset):
        t.zero_grad()
    check_gradients(
        lambda: tg.sum_all(tg.mul(tg.relu_norm(a, gain, offset, r), w)), [a, gain, offset, r])


def test_relu_norm_residual_that_is_its_input_takes_both_gradients():
    """layer_norm(relu(z) + z): z's gradient accumulates the residual path
    and the ReLU path."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 6))
    x[np.abs(x) < 1e-4] += 0.01
    z = tg.Tensor(x, requires_grad=True)
    gain = tg.Tensor(rng.normal(size=6), requires_grad=True)
    offset = tg.Tensor(rng.normal(size=6), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(5, 6)))
    check_gradients(
        lambda: tg.sum_all(tg.mul(tg.relu_norm(z, gain, offset, z), w)), [z, gain, offset])


@pytest.mark.parametrize("residual", [None, "per-index", "shared"])
def test_relu_norm_over_a_stack_is_the_per_index_calls_bitwise(residual):
    """A [B, n, f] stack with [B, f] gains and offsets, and a residual of
    its shape or an [n, f] one every index shares, has per index the bytes
    of the 2-D call, output and gradients; a shared residual takes the sum
    of the indices' gradients."""
    rng = np.random.default_rng(19)
    z, gain, offset = (tg.Tensor(rng.normal(size=s), requires_grad=True)
                       for s in ((3, 5, 6), (3, 6), (3, 6)))
    res_shape = {None: None, "per-index": (3, 5, 6), "shared": (5, 6)}[residual]
    res = None if res_shape is None else tg.Tensor(rng.normal(size=res_shape), requires_grad=True)
    w = rng.normal(size=(3, 5, 6))
    with tg.Tape() as tape:
        out = tg.relu_norm(z, gain, offset, res)
        loss = tg.sum_all(tg.mul(out, tg.Tensor(w)))
    tape.backward(loss)
    res_grads = []
    for i in range(3):
        z_i = _per_index(z, i)
        gain_i, offset_i = (tg.Tensor(t.data[i], requires_grad=True) for t in (gain, offset))
        res_i = None if res is None else _per_index(res, i)
        with tg.Tape() as tape:
            out_i = tg.relu_norm(z_i, gain_i, offset_i, res_i)
            loss = tg.sum_all(tg.mul(out_i, tg.Tensor(w[i])))
        tape.backward(loss)
        assert out.data[i].tobytes() == out_i.data.tobytes()
        for t, t_i in ((z, z_i), (gain, gain_i), (offset, offset_i)):
            assert t.grad[i].tobytes() == t_i.grad.tobytes()
        if residual == "per-index":
            assert res.grad[i].tobytes() == res_i.grad.tobytes()
        elif res is not None:
            res_grads.append(res_i.grad)
    if residual == "shared":
        assert res.grad.tobytes() == (res_grads[0] + res_grads[1] + res_grads[2]).tobytes()


def test_relu_norm_over_a_stack_gradients():
    """Finite differences, with an [n, f] residual every index shares."""
    rng = np.random.default_rng(20)
    x = rng.normal(size=(3, 4, 5))
    x[np.abs(x) < 1e-4] += 0.01  # keep clear of the kink
    z = tg.Tensor(x, requires_grad=True)
    gain, offset = (tg.Tensor(rng.normal(size=(3, 5)), requires_grad=True) for _ in range(2))
    res = tg.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(3, 4, 5)))
    check_gradients(lambda: tg.sum_all(tg.mul(tg.relu_norm(z, gain, offset, res), w)),
                    [z, gain, offset, res])


@pytest.mark.parametrize("z_shape, gain_shape, res_shape", [
    ((3, 4, 5), (5,), None), ((3, 4, 5), (1, 5), None), ((4, 5), (3, 5), None),
    ((4, 5), (1, 5), None), ((3, 4, 5), (3, 5), (1, 4, 5)), ((3, 4, 5), (3, 5), (3, 5)),
    ((5,), (5,), None)])
def test_relu_norm_refuses_shapes_that_do_not_fit(z_shape, gain_shape, res_shape):
    gain = tg.Tensor(np.ones(gain_shape))
    res = None if res_shape is None else tg.Tensor(np.zeros(res_shape))
    with pytest.raises(DimensionError):
        tg.relu_norm(tg.Tensor(np.zeros(z_shape)), gain, tg.Tensor(np.zeros(gain_shape)), res)


def _linear_relu_norm_case(rng, rows, n_in=3, f=6):
    """[x, weight, bias, gain, offset], each taking a gradient; the bias is
    negative and the first two rows of x are zero, so that the ReLU zeroes
    those rows whole."""
    x = tg.Tensor(rng.normal(size=(rows, n_in)), requires_grad=True)
    params = [tg.Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((n_in, f), (1, f), (f,), (f,))]
    params[1].data[:] = -0.1 * np.abs(params[1].data)
    x.data[:2] = 0.0
    return [x] + params


def _linear_relu_norm_composite(x, weight, bias, gain, offset):
    return tg.relu_norm(tg.add(tg.matmul(x, weight), bias), gain, offset)


@pytest.mark.parametrize("block", [4, 1024])
def test_linear_relu_norm_matches_the_four_op_composite(block, monkeypatch):
    """Forward bitwise equal to matmul -> add -> relu_norm, in blocks of 4
    rows (three blocks, the last one short) and of 1024; every gradient
    bitwise equal in one block, and equal within rounding in three, whose
    sums reorder the parameter gradients; and a finite-difference check."""
    monkeypatch.setattr(tg, "_ROW_BLOCK", block)
    rng = np.random.default_rng(109)
    inputs = _linear_relu_norm_case(rng, rows=11)
    mix = tg.Tensor(rng.normal(size=(11, 6)))
    results = []
    for op in (tg.linear_relu_norm, _linear_relu_norm_composite):
        for t in inputs:
            t.zero_grad()
        with tg.Tape() as tape:
            out = op(*inputs)
            total = tg.sum_all(tg.mul(out, mix))
        tape.backward(total)
        results.append((out.data, [t.grad.copy() for t in inputs]))
    (fused, fused_grads), (composite, composite_grads) = results
    assert fused.tobytes() == composite.tobytes()
    assert (fused[:2] == inputs[4].data).all()  # rows the ReLU zeroed: offset only
    for got, want in zip(fused_grads, composite_grads):
        if block == 1024:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for t in inputs:
        t.zero_grad()
    check_gradients(lambda: tg.sum_all(tg.mul(tg.linear_relu_norm(*inputs), mix)), inputs)


def test_linear_relu_norm_holds_only_its_inputs():
    """After the forward, the record holds no [rows, f] array beyond its
    output: no normalized rows, no ReLU mask, no pre-activation."""
    rng = np.random.default_rng(113)
    x = tg.Tensor(rng.normal(size=(5000, 2)))
    params = [tg.Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((2, 64), (1, 64), (64,), (64,))]
    tracemalloc.start()
    try:
        with tg.Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = tg.linear_relu_norm(x, *params)
            held = tracemalloc.get_traced_memory()[0] - before
            assert len(tape._records) == 1
    finally:
        tracemalloc.stop()
    # a bool mask of the rows alone would be 320,000 bytes
    assert held <= out.data.nbytes + 8192, held


# --- segment sum --------------------------------------------------------------
# tg.segment_sum applies a ConvPlan's sparse matrix to message rows. Each
# test runs it through a plan whose sources are all row 0.

def _sum_plan(targets, n, coeff=None):
    """A plan summing edge rows into n target rows, coefficients 1 unless given."""
    targets = np.asarray(targets, dtype=np.int64)
    coeff = np.ones(targets.shape[0]) if coeff is None else coeff
    return tg.ConvPlan(targets, np.zeros_like(targets), coeff, n, 1)


def test_segment_sum_empty():
    plan = _sum_plan(np.zeros(0, dtype=np.int64), 4)
    out = tg.segment_sum(tg.Tensor(np.zeros((0, 3))), plan, 4)
    assert out.shape == (4, 3)
    assert np.all(out.data == 0.0)


def test_segment_sum_values():
    msgs = tg.Tensor([[1.0], [2.0], [3.0]])
    out = tg.segment_sum(msgs, _sum_plan([0, 0, 1], 2), 2)
    assert out.data.tolist() == [[3.0], [3.0]]


@pytest.mark.parametrize("rows, n", [(2, 2), (3, 3)], ids=["messages", "n"])
def test_segment_sum_refuses_a_shape_other_than_the_plans(rows, n):
    with pytest.raises(DimensionError, match="segment_sum"):
        tg.segment_sum(tg.Tensor(np.ones((rows, 1))), _sum_plan([0, 0, 1], 2), n)


def test_segment_sum_out_of_range():
    with pytest.raises(IndexError):
        _sum_plan([5], 2)


@pytest.mark.parametrize("bad", [[0.7, 1.9], np.array([0.0, 1.0]), np.array([True, False])],
                         ids=["fractions", "whole-floats", "bools"])
def test_non_integer_indices_raise(bad):
    """An index that is not of an integer dtype raises instead of being
    truncated or read as a mask."""
    with pytest.raises(IndexError, match="must be integers"):
        tg.ConvPlan(bad, [0, 0], [1.0, 1.0], 2, 1)
    with pytest.raises(IndexError, match="must be integers"):
        tg.ConvPlan([0, 1], bad, [1.0, 1.0], 2, 2)
    with pytest.raises(IndexError, match="must be integers"):
        tg.gather_rows(tg.Tensor([[1.0], [2.0]]), bad)
    inputs = _attention_inputs(np.random.default_rng(89), heads=2)
    src = _ATT_SRC.astype(np.asarray(bad).dtype)
    with pytest.raises(IndexError, match="must be integers"):
        _attention(inputs, 0.2, src=src)


def test_empty_python_list_is_an_empty_index():
    out = tg.segment_sum(tg.Tensor(np.zeros((0, 3))), tg.ConvPlan([], [], [], 2, 0), 2)
    assert out.data.tolist() == [[0.0] * 3] * 2
    assert tg.gather_rows(tg.Tensor(np.ones((2, 3))), []).shape == (0, 3)


def test_segment_sum_gradient_is_gather():
    rng = np.random.default_rng(17)
    msgs = tg.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    plan = _sum_plan([0, 2, 2, 1, 0, 2], 3, coeff=np.array([0.5, 1.0, -2.0, 1.0, 1.0, 3.0]))
    w = tg.Tensor(rng.normal(size=(3, 3)))
    check_gradients(lambda: tg.sum_all(tg.mul(tg.segment_sum(msgs, plan, 3), w)), [msgs])
    msgs.zero_grad()
    with tg.Tape() as tape:
        out = tg.sum_all(tg.mul(tg.segment_sum(msgs, plan, 3), w))
    tape.backward(out)
    want = w.data[plan.targets] * np.array([[0.5], [1.0], [-2.0], [1.0], [1.0], [3.0]])
    assert msgs.grad.tobytes() == want.tobytes()


def test_segment_sum_ones_upstream_gives_unit_edge_gradient():
    msgs = tg.Tensor(np.random.default_rng(19).normal(size=(5, 2)), requires_grad=True)
    with tg.Tape() as tape:
        out = tg.sum_all(tg.segment_sum(msgs, _sum_plan([0, 1, 1, 2, 0], 3), 3))
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


def _attention_plan(inputs, src=_ATT_SRC, dst=_ATT_DST):
    """The plan of src -> dst between the rows of inputs' x_src and x_dst."""
    return tg.AttentionPlan(src, dst, inputs[0].shape[0], inputs[1].shape[0])


def _attention(inputs, slope, src=_ATT_SRC, dst=_ATT_DST):
    return tg.edge_attention(*inputs, _attention_plan(inputs, src, dst), slope)


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
def test_leaky_relu_equals_two_branch_form_bitwise(slope):
    """edge_attention's weights equal the composite oracle's, whose
    LeakyReLU is np.where(pre > 0, pre, slope * pre), bitwise, and its
    outputs within rounding, over pre-activations of sizes 1e-9 to 1e9 and
    exact zeros; at pre == 0 the derivative is slope."""
    rng = np.random.default_rng(59)
    inputs = _attention_inputs(rng, heads=2)
    inputs[1].data *= np.exp(rng.uniform(-20.0, 20.0, size=inputs[1].shape))
    inputs[1].data[3] = 0.0  # the self row of the destination without in-edges
    out, alpha = _attention(inputs, slope)
    want_out, want_alpha = gatv2_composite(
        inputs[0].data, inputs[1].data, _ATT_SRC, _ATT_DST,
        *(t.data for t in inputs[2:]), slope)
    assert np.abs(out.data - want_out).max() <= 1e-12 * np.abs(want_out).max()
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
    """(inputs, src, dst) of a 3,000-edge conv, inputs as in
    _attention_inputs."""
    f = _HEADS * _DH
    src = rng.integers(0, _N_SRC, size=_N_EDGES)
    dst = np.sort(rng.integers(0, _N_DST, size=_N_EDGES))
    inputs = [tg.Tensor(rng.normal(size=s), requires_grad=True) for s in (
        (_N_SRC, f), (_N_DST, f), (_N_EDGES, f), (f, _HEADS, _DH), (f, _HEADS, _DH),
        (3 * f, _HEADS, _DH), (1, _HEADS, _DH))]
    return inputs, src, dst


def test_edge_attention_holds_act_and_alpha_per_row():
    n_src, n_dst, n_edges, heads, dh = _N_SRC, _N_DST, _N_EDGES, _HEADS, _DH
    f = heads * dh
    inputs, src, dst = _large_attention_case(np.random.default_rng(73))
    plan = _attention_plan(inputs, src, dst)
    tracemalloc.start()
    try:
        with tg.Tape():
            before, _ = tracemalloc.get_traced_memory()
            out, alpha = tg.edge_attention(*inputs, plan, 0.2)
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    node_level = 8 * f * (n_src + 2 * n_dst)  # x_src W2, x_dst W1 and the output
    assert held <= 8 * (f + heads) * (n_edges + n_dst) + node_level + 8192, held


def test_untaped_edge_attention_keeps_no_per_row_activations():
    """Without a tape the pre-activations live in one row block: the peak
    stays below one [E + n_dst, f] array plus the node-level terms (x_dst W3a,
    x_src W3b and the self rows' x_dst (W3a + W3b)). A taped call's act
    alone is that array."""
    f = _HEADS * _DH
    inputs, src, dst = _large_attention_case(np.random.default_rng(73))
    plan = _attention_plan(inputs, src, dst)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, alpha = tg.edge_attention(*inputs, plan, 0.2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    node_level = 8 * f * (_N_SRC + 2 * _N_DST)
    assert peak <= 8 * f * (_N_EDGES + _N_DST) + node_level, peak


@pytest.mark.parametrize("block", [4, 1024])
@pytest.mark.parametrize("side", ["dense", "blocked"])
def test_untaped_edge_attention_equals_taped_bitwise(side, block, monkeypatch):
    """out and alpha are the same bits with and without a tape, on each
    value path. In blocks of 4 the 10 in-edges and 4 self rows make blocks
    [0, 4), [4, 8), [8, 12), [12, 14): the self rows start mid-block and
    span a block boundary."""
    monkeypatch.setattr(tg, "_ROW_BLOCK", block)
    monkeypatch.setattr(tg, "_dense_values", lambda *sizes: side == "dense")
    inputs = _attention_inputs(np.random.default_rng(107), heads=2, n_edges=10)
    with tg.Tape() as tape:
        taped = _attention(inputs, 0.2, _DUP_SRC, _DUP_DST)
    assert len(tape._records) == 1
    untaped = _attention(inputs, 0.2, _DUP_SRC, _DUP_DST)
    frozen = [tg.Tensor(t.data) for t in inputs]
    with tg.Tape() as tape:  # a tape, but no input takes a gradient
        no_grads = _attention(frozen, 0.2, _DUP_SRC, _DUP_DST)
    assert not tape._records
    for out, alpha in (untaped, no_grads):
        assert not out.requires_grad
        assert out.data.tobytes() == taped[0].data.tobytes()
        assert alpha.tobytes() == taped[1].tobytes()


def test_pair_weights_head_major_equal_the_flat_scatter_transposed():
    """The head-major scatter gives the bits of a [n_dst*n_src, heads]
    scatter transposed, duplicate pairs and a pair-free destination
    included."""
    rng = np.random.default_rng(109)
    alpha_edges = rng.uniform(size=(_DUP_SRC.shape[0], 3))
    got = tg._pair_weights(alpha_edges, _DUP_SRC, _DUP_DST, 5, 4)
    flat = kernels.segment_sum(alpha_edges, _DUP_DST * 5 + _DUP_SRC, 20)
    want = np.ascontiguousarray(flat.T).reshape(3, 4, 5)
    assert got.shape == (3, 4, 5)
    assert got.tobytes() == want.tobytes()
    assert got[:, 0, 1].tobytes() == (alpha_edges[0] + alpha_edges[2]).tobytes()


# duplicate (dst, src) pairs (0, 1) and (1, 0); destination 3 has no in-edges.
# With heads = 2, dh = 2, 5 sources and 4 destinations the weight matrices
# hold 2 * 4 * 5 = 40 entries: the dense side up to 40 / 4 = 10 edges.
_DUP_SRC = np.array([1, 3, 1, 0, 3, 1, 0, 4, 0, 2])
_DUP_DST = np.array([0, 0, 0, 1, 2, 2, 2, 0, 1, 2])


def _matches_composite(inputs, slope, src, dst):
    out, alpha = _attention(inputs, slope, src, dst)
    want_out, want_alpha = gatv2_composite(inputs[0].data, inputs[1].data, src, dst,
                                           *(t.data for t in inputs[2:]), slope)
    assert alpha.tobytes() == want_alpha.tobytes()
    assert np.abs(out.data - want_out).max() <= 1e-12 * np.abs(want_out).max()


def _check_attention_gradients(inputs, slope, src, dst, seed):
    w = tg.Tensor(np.random.default_rng(seed).normal(size=(inputs[1].shape[0], 4)))
    check_gradients(lambda: tg.sum_all(tg.mul(_attention(inputs, slope, src, dst)[0], w)),
                    inputs)


@pytest.mark.parametrize("block", [3, 1024])
@pytest.mark.parametrize("side", ["dense", "blocked"])
def test_edge_attention_value_paths_match_composite(side, block, monkeypatch):
    """Each value path, forced, in row blocks of 3 (four blocks, the last
    one mixing in-edges and self edges) and of 1024, with duplicate pairs
    and a destination without in-edges."""
    monkeypatch.setattr(tg, "_ROW_BLOCK", block)
    monkeypatch.setattr(tg, "_dense_values", lambda *sizes: side == "dense")
    inputs = _attention_inputs(np.random.default_rng(97), heads=2, n_edges=10)
    _matches_composite(inputs, 0.2, _DUP_SRC, _DUP_DST)
    _check_attention_gradients(inputs, 0.2, _DUP_SRC, _DUP_DST, 98)


@pytest.mark.parametrize("n_edges, dense", [(10, True), (9, False)])
def test_edge_attention_at_the_size_boundary(n_edges, dense):
    """10 edges are exactly at the rule's boundary (dense), 9 one edge
    below it (blocked); the rule alone picks the side."""
    assert tg._dense_values(2, 4, 5, n_edges, 4) is dense
    inputs = _attention_inputs(np.random.default_rng(101), heads=2, n_edges=n_edges)
    src, dst = _DUP_SRC[:n_edges], _DUP_DST[:n_edges]
    _matches_composite(inputs, 0.2, src, dst)
    _check_attention_gradients(inputs, 0.2, src, dst, 102)


def test_edge_attention_value_paths_agree_over_many_blocks(monkeypatch):
    """On 3,000 edges (three row blocks) the two value paths give the
    composite's weights bitwise, its output within rounding, and the same
    gradients within rounding."""
    rng = np.random.default_rng(103)
    inputs, src, dst = _large_attention_case(rng)
    plan = _attention_plan(inputs, src, dst)
    w = tg.Tensor(rng.normal(size=(_N_DST, _HEADS * _DH)))
    want_out, want_alpha = gatv2_composite(inputs[0].data, inputs[1].data, src, dst,
                                           *(t.data for t in inputs[2:]), 0.2)
    grads = {}
    for side in ("dense", "blocked"):
        monkeypatch.setattr(tg, "_dense_values", lambda *sizes: side == "dense")
        for t in inputs:
            t.zero_grad()
        with tg.Tape() as tape:
            out, alpha = tg.edge_attention(*inputs, plan, 0.2)
            total = tg.sum_all(tg.mul(out, w))
        assert alpha.tobytes() == want_alpha.tobytes()
        assert np.abs(out.data - want_out).max() <= 1e-12 * np.abs(want_out).max()
        tape.backward(total)
        grads[side] = [t.grad.copy() for t in inputs]
    for dense, blocked in zip(grads["dense"], grads["blocked"]):
        assert np.abs(dense - blocked).max() <= 1e-12 * np.abs(blocked).max()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_bucket_sum_equals_a_loop_in_edge_order(data):
    """The node sums of attention's backward: through the bucketed tables,
    each key's rows sum to the bits of a loop from zero in ascending row
    order, up to the sign of a zero. Keys come in any order, with no row,
    one row, or most rows on one key, over several buckets (a bucket of
    one key included) and over no rows at all."""
    n_keys = data.draw(st.sampled_from([1, 2, 32, 33, 65]) | st.integers(1, 80))
    keys = data.draw(st.lists(st.integers(0, n_keys - 1), max_size=300))
    if data.draw(st.booleans()):
        hot = data.draw(st.integers(0, n_keys - 1))
        keys = [hot if i % 5 else k for i, k in enumerate(keys)]
    keys = np.array(keys, dtype=np.int64)
    f = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (keys.shape[0] + 1, f)
    rows = rng.normal(size=shape) * np.exp(rng.uniform(-8.0, 8.0, size=shape))
    rows[rng.uniform(size=rows.shape) < 0.1] = -0.0
    rows[-1] = 0.0  # the zero row the tables pad with
    got = tg._bucket_sum(rows, tg._bucket_tables(keys, n_keys, keys.shape[0]), n_keys)
    want = np.zeros((n_keys, f))
    for i, k in enumerate(keys):
        want[k] += rows[i]
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


@pytest.mark.parametrize("which", ["src", "dst"])
@pytest.mark.parametrize("bad", ["negative", "too-large", "non-integer", "wrong-length"])
def test_edge_attention_refuses_out_of_range_indices(which, bad):
    """The plan's check, when it is built, is the only index guard: the
    gathers run in np.take's clip mode, so an index out of range must
    raise, never clip, and so must a non-integer index or one side of
    another length."""
    inputs = _attention_inputs(np.random.default_rng(79), heads=2)
    idx = {"src": _ATT_SRC.copy(), "dst": _ATT_DST.copy()}
    limit = {"src": inputs[0].shape[0], "dst": inputs[1].shape[0]}[which]
    error, match = IndexError, "out of range"
    if bad == "non-integer":
        idx[which] = idx[which] + 0.5
        match = "must be integers"
    elif bad == "wrong-length":
        idx[which] = idx[which][:-1]
        error, match = DimensionError, "per edge"
    else:
        idx[which][-1] = -1 if bad == "negative" else limit
    with pytest.raises(error, match=match):
        _attention_plan(inputs, idx["src"], idx["dst"])


@pytest.mark.parametrize("side", [0, 1, 2], ids=["sources", "destinations", "edges"])
def test_edge_attention_refuses_a_plan_of_other_sizes(side):
    """A plan checks its indices against its own sizes only, so inputs with
    another number of source, destination or edge rows are refused."""
    inputs = _attention_inputs(np.random.default_rng(81), heads=2)
    plan = _attention_plan(inputs)
    inputs[side] = tg.Tensor(np.ones((inputs[side].shape[0] + 1, 4)))
    with pytest.raises(DimensionError, match="edge_attention over a plan"):
        tg.edge_attention(*inputs, plan, 0.2)


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
    inputs, src, dst = _large_attention_case(rng)
    plan = _attention_plan(inputs, src, dst)
    w = tg.Tensor(rng.normal(size=(_N_DST, _HEADS * _DH)))
    tracemalloc.start()
    try:
        with tg.Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out, alpha = tg.edge_attention(*inputs, plan, 0.2)
            total = tg.sum_all(tg.mul(out, w))
            del out, alpha
        tape.backward(total)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in inputs)
    assert peak <= _PARENT_ATTENTION_PEAK, peak


# Graph conv over 3 sources, 2 targets and 2 relations: aggregate row
# t*2 + r. Edges, in ascending order, (source -> row, coefficient):
# 0 -> 0 (0.5), 1 -> 0 (0.25), 1 -> 1 (1.0), 0 -> 2 (2.0). Row 3 has no
# in-edge and source 2 no out-edge; their empty slots read row 0 and are
# zeroed.
_CONV_EDGES = ((0, 0, 0.5), (1, 0, 0.25), (1, 1, 1.0), (0, 2, 2.0))
# the same edges with row 0's two in-edges apart
_PERMUTED_CONV_EDGES = tuple(_CONV_EDGES[i] for i in (0, 2, 3, 1))


def _conv_plan(edges):
    sources, rows, coeff = (np.array(column) for column in zip(*edges))
    return tg.ConvPlan(rows, sources, coeff, 4, 3)


_CONV_PLAN = _conv_plan(_CONV_EDGES)


def _conv_inputs(rng):
    """(x_src, edge_agg, weight, bias) for the plans above, taking gradients:
    one [2, 4, 5] weight and one [2, 5] bias for the two relations."""
    def t(*shape):
        return tg.Tensor(rng.normal(size=shape), requires_grad=True)
    return t(3, 4), t(4, 4), t(2, 4, 5), t(2, 5)


def _conv_matrix(edges):
    """The dense [4, 3] matrix S of the edges' coefficients."""
    s = np.zeros((4, 3))
    for source, row, c in edges:
        s[row, source] += c
    return s


def test_edge_conv_matches_dense_form():
    x, edge_agg, weight, bias = _conv_inputs(np.random.default_rng(90))
    out = tg.edge_conv(x, edge_agg, weight, bias, _CONV_PLAN)
    agg = _conv_matrix(_CONV_EDGES) @ x.data + edge_agg.data
    expected = agg.reshape(2, 8) @ weight.data.reshape(8, 5) + bias.data[0] + bias.data[1]
    assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()


def test_plan_of_non_contiguous_in_edges_matches_dense_form():
    """Built from edges whose rows' in-edges are not contiguous, the plan
    still gives S: the edge term S e and the conv over it match the dense
    form and pass the gradient check."""
    edges = _PERMUTED_CONV_EDGES
    plan = _conv_plan(edges)
    rng = np.random.default_rng(96)
    x, _, weight, bias = _conv_inputs(rng)
    e = tg.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    s = _conv_matrix(edges)
    s_edges = np.zeros((4, 4))  # S over the edges: [rows, E]
    for i, (_, row, c) in enumerate(edges):
        s_edges[row, i] = c
    term = tg.segment_sum(e, plan, plan.n_rows)
    want_term = s_edges @ e.data
    assert np.abs(term.data - want_term).max() <= 1e-12 * np.abs(want_term).max()
    out = tg.edge_conv(x, term, weight, bias, plan)
    agg = s @ x.data + want_term
    expected = agg.reshape(2, 8) @ weight.data.reshape(8, 5) + bias.data[0] + bias.data[1]
    assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()
    mix = tg.Tensor(np.random.default_rng(97).normal(size=(2, 5)))
    check_gradients(lambda: tg.sum_all(tg.mul(
        tg.edge_conv(x, tg.segment_sum(e, plan, plan.n_rows), weight, bias, plan), mix)),
        [x, e, weight, bias])


def test_edge_conv_without_sources_gives_the_edge_term_and_zero_gradients():
    """With no source rows every slot is empty: the aggregate is the edge
    term alone, and x_src's gradient has no rows."""
    rng = np.random.default_rng(94)
    x = tg.Tensor(np.zeros((0, 4)), requires_grad=True)
    edge_agg = tg.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    weight = tg.Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    bias = tg.Tensor(rng.normal(size=(2, 5)))
    plan = tg.ConvPlan([], [], [], 4, 0)
    with tg.Tape() as tape:
        out = tg.edge_conv(x, edge_agg, weight, bias, plan)
        total = tg.sum_all(out)
    expected = (edge_agg.data.reshape(2, 8) @ weight.data.reshape(8, 5)
                + (bias.data[0] + bias.data[1]))
    assert out.data.tobytes() == expected.tobytes()
    tape.backward(total)
    assert x.grad.shape == (0, 4)
    g_agg = (np.ones((2, 5)) @ weight.data.reshape(8, 5).T).reshape(4, 4)
    assert edge_agg.grad.tobytes() == g_agg.tobytes()


def test_edge_conv_adds_the_source_gradient_onto_the_held_one():
    x, edge_agg, weight, bias = _conv_inputs(np.random.default_rng(93))
    with tg.Tape() as tape:
        out = tg.sum_all(tg.add(tg.sum_all(tg.edge_conv(x, edge_agg, weight, bias,
                                                        _CONV_PLAN)), tg.sum_all(x)))
    tape.backward(out)
    # the aggregate's gradient, then per source its out-edges' share of it,
    # plus one from sum(x)
    g_agg = (np.ones((2, 5)) @ weight.data.reshape(8, 5).T).reshape(4, 4)
    expected = np.ones((3, 4))
    for s, row, c in _CONV_EDGES:
        expected[s] += c * g_agg[row]
    assert np.abs(x.grad - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(edge_agg.grad - g_agg).max() <= 1e-12 * np.abs(g_agg).max()


@pytest.mark.parametrize("w_shape, b_shape", [
    ((2, 4, 5), (1, 5)), ((2, 3, 5), (2, 5)), ((8, 5), (2, 5)), ((0, 4, 5), (0, 5)),
    ((3, 4, 5), (3, 5))],
    ids=["one-bias-row", "weight-rows", "flat-weight", "no-relation", "rows-not-divisible"])
def test_edge_conv_refuses_a_weight_or_bias_that_does_not_fit(w_shape, b_shape):
    """The weight must be one [R >= 1, n_in, n_out] stack and the bias one
    [R, n_out], with R dividing the plan's rows."""
    x, edge_agg, _, _ = _conv_inputs(np.random.default_rng(95))
    with pytest.raises(DimensionError, match="edge_conv"):
        tg.edge_conv(x, edge_agg, tg.Tensor(np.zeros(w_shape)), tg.Tensor(np.zeros(b_shape)),
                     _CONV_PLAN)


@pytest.mark.parametrize("column, bad", [(1, -1), (1, 4), (0, -1), (0, 3)],
                         ids=["target--1", "target-4", "source--1", "source-3"])
def test_conv_plan_refuses_out_of_range_indices(column, bad):
    """The tables are gathered with mode="clip", so an index out of range
    must raise when the plan is built, never clip."""
    edges = [list(edge) for edge in _CONV_EDGES]
    edges[0][column] = bad
    with pytest.raises(IndexError, match="out of range"):
        _conv_plan(edges)


@pytest.mark.parametrize("coeff", [np.ones(3), np.ones(5), np.ones((4, 1))],
                         ids=["short", "long", "column"])
def test_conv_plan_refuses_bad_coefficients(coeff):
    """The coefficients count the edges: targets and sources of another
    length are refused against them."""
    with pytest.raises(DimensionError, match="per edge"):
        tg.ConvPlan([0, 0, 1, 2], [0, 1, 1, 0], coeff, 4, 3)


def _dense_form(index, empty, scaled, n):
    """The [D, n_keys] index of a table into n rows plus a zero row n, which
    every empty slot picks, and its [D, n_keys, 1] coefficients: listed
    ones, 0 in empty slots and 1 elsewhere; the dense form the lists
    replace."""
    index, coeff = index.copy(), np.ones(index.shape + (1,))
    for d, ((rows, c), keys) in enumerate(zip(scaled, empty)):
        coeff[d, rows] = c
        coeff[d, keys] = 0.0
        index[d, keys] = n
    return index, coeff


@pytest.mark.parametrize("table", [0, 2])
def test_slot_sums_equal_the_dense_coefficient_form_bitwise(table):
    """Multiplying only the listed rows and zeroing the empty slots gives
    the bits of multiplying every row by its dense coefficient, an empty
    slot picking a zero row, for the in-table (0) and the out-table (2), a
    negative zero included."""
    plan = _CONV_PLAN
    index, empty, scaled, n = ((plan.in_sources, plan.in_empty, plan.in_coeff, plan.n_src)
                               if table == 0 else
                               (plan.out_rows, plan.out_empty, plan.out_coeff, plan.n_rows))
    assert any(keys.size for keys in empty)
    rows = np.random.default_rng(91).normal(size=(n, 4))
    rows[0, 0] = -0.0  # row 0 is also what the empty slots gather
    dense_index, coeff = _dense_form(index, empty, scaled, n)
    padded = np.concatenate([rows, np.zeros((1, 4))])
    want = coeff[0] * padded[dense_index[0]]
    for d in range(1, index.shape[0]):
        want += coeff[d] * padded[dense_index[d]]
    assert tg._slot_sum(rows, index, empty, scaled).tobytes() == want.tobytes()


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
    check_gradients(lambda: tg.sum_all(tg.mul(tg.mul(a, s), w)), [a, s])


@pytest.mark.parametrize("op", [tg.add, tg.sub, tg.mul])
def test_column_broadcast_gradients(op):
    """An [n, 1] column broadcasts over the columns, and its gradient is the
    row sums; a column of another length, or two columns, still raise."""
    rng = np.random.default_rng(38)
    a = tg.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    col = tg.Tensor(rng.normal(size=(5, 1)), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(5, 3)))
    numpy_op = {tg.add: np.add, tg.sub: np.subtract, tg.mul: np.multiply}[op]
    assert np.array_equal(op(a, col).data, numpy_op(a.data, col.data))
    check_gradients(lambda: tg.sum_all(tg.mul(op(a, col), w)), [a, col])
    for shape in ((6, 1), (5, 2)):
        with pytest.raises(DimensionError):
            op(a, tg.Tensor(np.zeros(shape)))


@pytest.mark.parametrize("b_shape", [(3, 1, 4), (5, 4)])
@pytest.mark.parametrize("op", [tg.add, tg.sub, tg.mul])
def test_stack_broadcast_gradients(op, b_shape):
    """Over a [B, n, f] stack, a [B, 1, f] row per index or an [n, f]
    matrix every index shares broadcasts, and its gradient is the sum over
    the rows or over the indices; [B, f], a single row, an [f] vector, a
    per-row column and one index's [1, n, f] still raise."""
    rng = np.random.default_rng(39)
    a = tg.Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
    b = tg.Tensor(rng.normal(size=b_shape), requires_grad=True)
    w = rng.normal(size=(3, 5, 4))
    numpy_op = {tg.add: np.add, tg.sub: np.subtract, tg.mul: np.multiply}[op]
    assert np.array_equal(op(a, b).data, numpy_op(a.data, b.data))
    with tg.Tape() as tape:
        loss = tg.sum_all(tg.mul(op(a, b), tg.Tensor(w)))
    tape.backward(loss)
    g_b = {tg.add: w, tg.sub: -w, tg.mul: w * a.data}[op]
    summed = g_b.sum(axis=1, keepdims=True) if b_shape == (3, 1, 4) else g_b.sum(axis=0)
    assert b.grad.tobytes() == summed.tobytes()
    a.zero_grad()
    b.zero_grad()
    check_gradients(lambda: tg.sum_all(tg.mul(op(a, b), tg.Tensor(w))), [a, b])
    for shape in ((3, 4), (1, 4), (4,), (3, 5, 1), (1, 5, 4)):
        with pytest.raises(DimensionError):
            op(a, tg.Tensor(np.zeros(shape)))


def test_stack_values_and_gradients():
    rng = np.random.default_rng(42)
    a = tg.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = tg.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    assert tg.stack([a, b]).data.tobytes() == np.stack([a.data, b.data]).tobytes()
    w = tg.Tensor(rng.normal(size=(2, 2, 3)))
    check_gradients(lambda: tg.sum_all(tg.mul(tg.stack([a, b]), w)), [a, b])


def test_stack_of_one_tensor_twice_takes_both_gradients():
    rng = np.random.default_rng(43)
    a = tg.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = rng.normal(size=(3, 2, 3))
    with tg.Tape() as tape:
        loss = tg.sum_all(tg.mul(tg.stack([a, a, a]), tg.Tensor(w)))
    tape.backward(loss)
    assert a.grad.tobytes() == (w[0] + w[1] + w[2]).tobytes()
    a.zero_grad()
    check_gradients(lambda: tg.sum_all(tg.mul(tg.stack([a, a, a]), tg.Tensor(w))), [a])


def test_stack_refuses_unequal_shapes_and_a_rank_over_the_limit():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(3, 2\)"):
        tg.stack([tg.Tensor(np.zeros((2, 3))), tg.Tensor(np.zeros((3, 2)))])
    with pytest.raises(DimensionError):
        tg.stack([tg.Tensor(np.zeros((1, 1, 1, 1)))])


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
    # small linear -> relu_norm -> edge sum block, checked end to end
    rng = np.random.default_rng(47)
    x = tg.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    bias = tg.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    gain = tg.Tensor(np.ones(4), requires_grad=True)
    offset = tg.Tensor(np.zeros(4), requires_grad=True)
    plan = _sum_plan([0, 1, 1, 2, 0, 2], 3)
    mixer = tg.Tensor(rng.normal(size=(3, 4)))

    def build():
        h = tg.relu_norm(tg.add(tg.matmul(x, w), bias), gain, offset)
        pooled = tg.segment_sum(h, plan, 3)
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
            out = tg.sum_all(tg.segment_sum(h, _sum_plan(targets, 5), 5))
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


def _default_model_scenes(n_scenes, agents=4, lanes=2):
    """Default configuration, synthetic scenes (4 agents and 2 lanes unless
    given), and initial parameters whose head output layers are not zero
    (so every parameter takes a gradient)."""
    cfg = RunConfig()
    spec = SyntheticSpec(scenes=n_scenes, agents=agents, lanes=lanes, t_obs=cfg.model.t_obs,
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


# Traced memory, in bytes, of the taped forward below at its end and peak
# of its backward, at the commit before the GCN relations' and the head
# modes' parameters were stacked: 11,527,637 and 12,822,709, the largest of
# this file run whole, this test alone and the whole suite (numpy 2.4.6,
# Python 3.11.7). The change reads 7.63 MB and 10.12 MB. A bound of 1.25x
# the end-of-forward memory (14.41 MB there) tightened whenever the forward
# came to hold less.
_PARENT_END_OF_FORWARD = 11_527_637
_PARENT_BACKWARD_PEAK = 12_822_709


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
    assert end_of_forward <= _PARENT_END_OF_FORWARD, end_of_forward
    assert peak <= _PARENT_BACKWARD_PEAK, (peak, end_of_forward)
    # the tape and the loss are still alive: only the leaves' gradients remain
    assert after <= 1.5 * param_bytes, (after, param_bytes)


# Peak traced memory, in bytes, of the untaped forward below at the commit
# before untaped attention calls kept one row block of pre-activations and
# pair weights were scattered head-major: 18,980,241 when this file runs
# whole and when this test runs alone (numpy 2.4.6, Python 3.11.7), about
# 2 [E, f] float64 arrays of the 18,568-edge scene. The change reads
# 15,043,424.
_PARENT_FORWARD_PEAK = 18_980_241


def test_untaped_forward_peak_memory_not_above_parent():
    """Inference on an 8-agent/16-lane scene, the predict workload's size:
    one untaped forward (after a first one) peaks no higher than before."""
    cfg = RunConfig()
    spec = SyntheticSpec(scenes=1, agents=8, lanes=16, t_obs=cfg.model.t_obs,
                         t_f=cfg.model.t_f, dt=0.1, noise=0.05, curved=True)
    (sample,) = prepare_samples(generate_synthetic(spec, 5), cfg)
    params = init_parameters(cfg.model, 1)
    forward(sample.cache, params, cfg.model)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pred = forward(sample.cache, params, cfg.model)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert not pred.trajectories.requires_grad
    assert peak <= _PARENT_FORWARD_PEAK, peak


def test_default_scene_records_one_tape_record_per_attention_conv():
    # one record per attention conv and per GCN conv; with 30 single ops per
    # attention conv a scene recorded 645, with 10 per GCN conv 392, with
    # the loss's masked smooth-L1 and one-hot winner score 234, with a
    # multiply and a scatter for each GCN call-site's edge term 229, and with
    # the head's latent gathered from scene to agent_id order 227, with the
    # latent read out in agent_id order 226, with ReLU, residual and
    # LayerNorm one record per merge and head block 164, and with the head's
    # K modes run as stacks of per-mode products, 32 records for any K, 113,
    # and with each head layer's K modes held as one parameter, so that no
    # forward stacks its weights, 101
    cfg, (sample,), params = _default_model_scenes(1)
    with tg.Tape() as tape:
        total_loss(forward(sample.cache, params, cfg.model), sample.gt, sample.mask, cfg.loss)
    assert len(tape._records) <= 101


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
