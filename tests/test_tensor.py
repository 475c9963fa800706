"""Engine ops: forward values, gradient rules, tape behaviour, optimizer."""

import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradient_check, wrap_input
from hsifreq import tensor as T
from hsifreq.cassi import random_mask, simulate
from hsifreq.dct import dct2_forward, dct2_inverse
from hsifreq.layers import merge_tokens
from hsifreq.network import NetConfig
from hsifreq.optim import Adam, cosine_lr
from hsifreq.tensor import Param, ShapeError, Tape, Tensor
from hsifreq.unfolding import UnfoldingNet, loss


class TestBmmSharedMatrix:
    """bmm's [n, M, K] x [K, N] form, which Linear runs on [1, 1, nin] rows."""

    def test_identity(self):
        a = Tensor(np.eye(2)[None])
        out = T.bmm(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, np.eye(2, dtype=np.float32)[None])

    def test_hand_product(self):
        out = T.bmm(Tensor([[[1.0, 2.0], [3.0, 4.0]]]), Tensor([[0.0], [1.0]]))
        assert np.array_equal(out.data, np.array([[[2.0], [4.0]]], dtype=np.float32))

    def test_zero_annihilates(self, rng):
        z = Tensor(np.zeros((2, 3, 4)))
        b = Tensor(rng.standard_normal((4, 5)))
        assert np.all(T.bmm(z, b).data == 0.0)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2, 3\).*\(2, 3\)"):
            T.bmm(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape,nout", [((1, 1, 1), 28), ((1, 1, 16), 32),
                                              ((1, 1, 32), 6), ((1024, 64, 28), 28)])
    def test_weight_gradient_is_tensordots(self, rng, dtype, a_shape, nout):
        # the Linear shapes and a 256x256 token projection: the GEMM that
        # tensordot ran, bytes and strides
        a = rng.standard_normal(a_shape).astype(dtype)
        b = rng.standard_normal((a_shape[2], nout)).astype(dtype)
        g = rng.standard_normal(a_shape[:2] + (nout,)).astype(dtype)
        with Tape() as tape:
            T.bmm(Tensor(a), Tensor(b))
        _, db = tape.nodes[-1].backward_fn(g)
        expect = np.tensordot(a, g, axes=([0, 1], [0, 1]))
        assert db.dtype == expect.dtype and db.strides == expect.strides
        assert db.tobytes() == expect.tobytes()

    def test_identity_associativity_bitwise(self, rng):
        a = Tensor(rng.standard_normal((1, 4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        i = Tensor(np.eye(4, dtype=np.float32))
        left = T.bmm(T.bmm(a, i), b)
        right = T.bmm(a, b)
        assert np.array_equal(left.data, right.data)


class TestSoftmax:
    """Along the last axis of a tensor of rank 2 or more."""

    def test_uniform(self):
        out = T.softmax(Tensor([[3.0, 3.0, 3.0, 3.0]]))
        assert np.allclose(out.data, 0.25)

    def test_closed_form_ratio(self):
        out = T.softmax(Tensor([[0.0, math.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-7)

    def test_saturation_direction(self):
        out = T.softmax(Tensor([[20.0, 0.0]], dtype=np.float64))
        assert out.data[0, 0] > 1.0 - 1e-8

    def test_vector_rejected(self):
        with pytest.raises(ShapeError, match="rank 2"):
            T.softmax(Tensor(np.zeros(4)))

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, n, m):
        vals = np.random.default_rng(n * 13 + m * 7).normal(size=(m, n)) * 30
        out = T.softmax(Tensor(vals))
        sums = out.data.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-6)


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).item() == 0.0

    def test_asymptote(self):
        out = T.gelu(Tensor([10.0], dtype=np.float64)).item()
        assert abs(out - 10.0) / 10.0 < 1e-6

    def test_scalar_formula_at_one(self):
        expect = 0.5 * (1.0 + math.tanh(math.sqrt(2 / math.pi) * (1 + 0.044715)))
        assert abs(T.gelu(Tensor([1.0], dtype=np.float64)).item() - expect) < 1e-12


def zero_bias(k) -> Tensor:
    """A zero bias for kernel ``k``'s output channels."""
    return Tensor(np.zeros(k.shape[3], dtype=k.dtype))


class TestConv2d:
    def test_one_by_one_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 6, 3)))
        k = Tensor(np.eye(3).reshape(1, 1, 3, 3))
        out = T.conv2d(x, k, zero_bias(k))
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_depthwise_ones_on_constant(self):
        x = Tensor(np.full((6, 6, 2), 2.5))
        k = Tensor(np.ones((3, 3, 1, 2)))
        out = T.conv2d(x, k, zero_bias(k))
        assert np.allclose(out.data[1:-1, 1:-1, :], 9 * 2.5, atol=1e-5)

    def test_depthwise_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 4, 2))
        k = rng.standard_normal((3, 3, 1, 2))
        out = T.conv2d(Tensor(x), Tensor(k), zero_bias(k)).data
        expect = np.zeros_like(out)
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        for i in range(4):
            for j in range(4):
                for c in range(2):
                    acc = 0.0
                    for u in range(3):
                        for v in range(3):
                            acc += xp[i + u, j + v, c] * k[u, v, 0, c]
                    expect[i, j, c] = acc
        assert np.allclose(out, expect, atol=1e-5)

    def test_full_conv_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 5, 3))
        k = rng.standard_normal((3, 3, 3, 2))
        out = T.conv2d(Tensor(x), Tensor(k), zero_bias(k)).data
        expect = np.zeros((4, 5, 2))
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        for i in range(4):
            for j in range(5):
                for o in range(2):
                    expect[i, j, o] = np.sum(xp[i:i + 3, j:j + 3, :] * k[:, :, :, o])
        assert np.allclose(out, expect, atol=1e-5)

    @pytest.mark.parametrize("image,kernel", [
        ((4, 4, 2), (3, 3, 1, 4)),     # depth-wise keeps Cout == Cin
        ((4, 4, 4), (3, 3, 2, 4)),     # neither dense nor depth-wise
        ((4, 4, 2), (3, 2, 2, 2)),     # not square
        ((4, 4, 2), (2, 2, 1, 2)),     # an even side is dense only
        ((5, 4, 2), (2, 2, 2, 2)),     # an even side must divide H and W
    ], ids=["depthwise-cout", "channels", "square", "even-depthwise", "even-divides"])
    def test_kernel_must_fit(self, image, kernel):
        k = Tensor(np.zeros(kernel))
        with pytest.raises(ShapeError, match="does not fit"):
            T.conv2d(Tensor(np.zeros(image)), k, zero_bias(k))

    def test_transpose_needs_square_kernel(self):
        k = Tensor(np.zeros((2, 3, 2, 2)))
        with pytest.raises(ShapeError):
            T.conv2d_transpose(Tensor(np.zeros((4, 4, 2))), k, zero_bias(k))

    def test_transpose_then_strided_conv_shapes(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 3)))
        kt = Tensor(rng.standard_normal((2, 2, 3, 5)))
        up = T.conv2d_transpose(x, kt, zero_bias(kt))
        assert up.shape == (8, 8, 5)
        kd = Tensor(rng.standard_normal((2, 2, 5, 3)))
        down = T.conv2d(up, kd, zero_bias(kd))
        assert down.shape == (4, 4, 3)


class TestBackward:
    def test_sum_gives_ones(self, f64):
        p = Param(np.arange(6.0).reshape(2, 3), name="p")
        with Tape() as tape:
            tape.backward(T.sum_all(p.value), [p])
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_squared_norm_gives_2p(self, f64):
        p = Param(np.array([1.0, -2.0, 0.5]), name="p")
        with Tape() as tape:
            tape.backward(T.sum_all(T.mul(p.value, p.value)), [p])
        assert np.allclose(p.grad, 2 * p.value.data)

    def test_non_scalar_loss_rejected(self):
        p = Param(np.ones(3))
        with Tape() as tape:
            out = T.mul(p.value, p.value)
            with pytest.raises(ShapeError):
                tape.backward(out, [p])

    def test_unreachable_param_keeps_zero_grad(self, f64):
        p = Param(np.ones(3), name="used")
        q = Param(np.ones(3), name="unused")
        with Tape() as tape:
            tape.backward(T.sum_all(p.value), [p, q])
        assert np.all(q.grad == 0.0)

    def test_composite_matches_finite_differences(self, f64, rng):
        w = Param(rng.standard_normal((3, 3)), name="w")
        x = wrap_input(rng.standard_normal((1, 4, 3)))

        def build():
            h = T.gelu(T.bmm(x.value, w.value))
            s = T.softmax(h)
            return T.sqrt(T.sum_all(T.mul(s, h)))

        gradient_check(build, [w, x], rel_tol=1e-5, eps=1e-6, samples=9)


@st.composite
def operand_shapes(draw):
    """A left shape of rank 1-4, and a right shape that is a single element,
    a trailing suffix of the left one, or any other shape."""
    dims = st.integers(1, 4)
    left = tuple(draw(st.lists(dims, min_size=1, max_size=4)))
    kind = draw(st.sampled_from(["single", "suffix", "other"]))
    if kind == "single":
        right = (1,) * draw(st.integers(0, 4))
    elif kind == "suffix":
        right = left[draw(st.integers(0, len(left))):]
    else:
        right = tuple(draw(st.lists(dims, min_size=1, max_size=4)))
    return left, right


class TestOpGradients:
    """Central finite differences for each differentiable op at 64-bit."""

    def test_elementwise_and_reductions(self, f64, rng):
        a = wrap_input(rng.standard_normal((3, 4)) + 2.0, "a")
        b = wrap_input(rng.standard_normal((3, 4)) + 3.0, "b")
        s = wrap_input(np.array(0.7), "s")

        def build():
            z = T.div(T.mul(a.value, b.value), T.add(s.value, Tensor(np.full((3, 4), 2.0))))
            z = T.sub(z, a.value)
            return T.sum_all(T.sqrt(T.add(T.mul(z, z), 1.0)))

        gradient_check(build, [a, b, s], rel_tol=1e-5, samples=8)

    def test_activations(self, f64, rng):
        x = wrap_input(rng.standard_normal((5, 3)), "x")

        def build():
            z = T.add(T.gelu(x.value), T.sigmoid(x.value))
            z = T.add(z, T.softplus(x.value))
            return T.sum_all(T.mul(z, T.softmax(x.value)))

        gradient_check(build, [x], rel_tol=1e-5, samples=10)

    def test_layer_norm(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 4, 3)), "x")
        g = Param(0.5 + rng.random(3), name="gamma")
        b = Param(rng.standard_normal(3), name="beta")

        def build():
            return T.sum_all(T.mul(T.layer_norm(x.value, g.value, b.value),
                                   Tensor(np.arange(48.0).reshape(4, 4, 3))))

        gradient_check(build, [x, g, b], rel_tol=1e-5, samples=8)

    def test_bmm_forms(self, f64, rng):
        a = wrap_input(rng.standard_normal((1, 1, 3)), "a")
        b = wrap_input(rng.standard_normal((3, 2)), "b")
        c = wrap_input(rng.standard_normal((2, 4, 3)), "c")
        d = wrap_input(rng.standard_normal((2, 3, 2)), "d")

        def build():
            m = T.bmm(a.value, b.value)
            n = T.bmm(c.value, d.value)
            n2 = T.bmm(c.value, b.value)
            return T.add(T.sum_all(T.mul(m, m)),
                         T.add(T.sum_all(T.mul(n, n)), T.sum_all(n2)))

        gradient_check(build, [a, b, c, d], rel_tol=1e-5, samples=6)

    def test_layout_ops(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 6, 2)), "x")
        p = wrap_input(rng.standard_normal((2, 3, 3)), "p")
        lg = wrap_input(rng.standard_normal((3, 2, 3, 3)), "logits")

        def build():
            t = T.transpose(T.reshape(x.value, (2, 2, 6, 2)), (1, 0, 2, 3))
            t = T.reshape(t, (4, 6, 2))
            cat = T.concat([t, x.value])
            biased = T.add(T.mul(lg.value, 0.7), p.value)
            return T.add(T.sum_all(T.mul(cat, cat)), T.sum_all(T.mul(biased, biased)))

        gradient_check(build, [x, p, lg], rel_tol=1e-5, samples=8)

    def test_attention(self, f64, rng):
        q = wrap_input(rng.standard_normal((2, 2, 3, 2)), "q")
        k = wrap_input(rng.standard_normal((2, 2, 5, 2)), "k")
        v = wrap_input(rng.standard_normal((2, 2, 5, 3)), "v")
        p = wrap_input(rng.standard_normal((2, 3, 5)), "pos")

        def build():
            out = T.attention(q.value, k.value, v.value, 0.7, p.value)
            return T.sum_all(T.mul(out, Tensor(np.arange(36.0).reshape(2, 2, 3, 3))))

        gradient_check(build, [q, k, v, p], rel_tol=1e-5, samples=8)

    def test_head_views(self, f64, rng):
        # attention and both bmm forms on head views of token-layout arrays
        tq, tk, tv = (wrap_input(rng.standard_normal((2, 5, 6)), n) for n in "qkv")
        p = wrap_input(rng.standard_normal((3, 5, 5)), "pos")
        w = Tensor(rng.standard_normal((2, 5, 6)))

        def build():
            q, k, v = (T.head_view(t.value, 3) for t in (tq, tk, tv))
            mixed = T.bmm(v, T.softmax(T.bmm(T.transpose(q, (0, 1, 3, 2)), k)))
            mixed = T.transpose(mixed, (0, 2, 1, 3))
            out = T.transpose(T.attention(q, k, v, 0.7, p.value), (0, 2, 1, 3))
            return T.sum_all(T.mul(T.add(T.reshape(out, w.shape), T.reshape(mixed, w.shape)),
                                   w))

        gradient_check(build, [tq, tk, tv, p], rel_tol=1e-5, samples=8)

    def test_conv_ops(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 4, 2)), "x")
        k1 = Param(rng.standard_normal((3, 3, 2, 3)), name="k1")
        b1 = Param(rng.standard_normal(3), name="b1")
        kd = Param(rng.standard_normal((3, 3, 1, 2)), name="kd")
        bd = Param(rng.standard_normal(2), name="bd")
        ks = Param(rng.standard_normal((2, 2, 2, 4)), name="ks")
        bs = Param(rng.standard_normal(4), name="bs")
        kt = Param(rng.standard_normal((2, 2, 2, 3)), name="kt")
        bt = Param(rng.standard_normal(3), name="bt")
        kp = Param(rng.standard_normal((1, 1, 2, 5)), name="kp")
        bp = Param(rng.standard_normal(5), name="bp")

        def build():
            c1 = T.conv2d(x.value, k1.value, b1.value)
            c2 = T.conv2d(x.value, kd.value, bd.value)
            c3 = T.conv2d(x.value, ks.value, bs.value)
            c4 = T.conv2d_transpose(x.value, kt.value, bt.value)
            c5 = T.conv2d(x.value, kp.value, bp.value)
            return T.add(T.add(T.add(T.sum_all(T.mul(c1, c1)), T.sum_all(T.mul(c2, c2))),
                               T.add(T.sum_all(T.mul(c3, c3)), T.sum_all(T.mul(c4, c4)))),
                         T.sum_all(T.mul(c5, c5)))

        gradient_check(build, [x, k1, b1, kd, bd, ks, bs, kt, bt, kp, bp],
                       rel_tol=1e-5, samples=6)

    def test_misc_ops(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 4, 3)), "x")
        y = wrap_input(rng.standard_normal((4, 4, 3)), "y")
        s = wrap_input(rng.standard_normal((4, 4)), "s")
        b = Param(rng.standard_normal(3), name="bias")
        c = Param(0.5 + rng.random(3), name="gains")

        def build():
            z = T.gate_blend(x.value, y.value, s.value)
            z = T.add(z, b.value)
            z = T.mul(z, c.value)
            v = T.spatial_mean(z)
            picked = T.take_scalar(v, 1)
            return T.add(T.sum_all(T.mul(v, v)), T.mul(picked, picked))

        gradient_check(build, [x, y, s, b, c], rel_tol=1e-5, samples=8)

    def test_per_channel_right_operand_of_sub_and_div(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 4, 3)), "x")
        b = Param(rng.standard_normal(3), name="offset")
        c = Param(0.5 + rng.random(3), name="divisor")

        def build():
            z = T.div(T.sub(x.value, b.value), c.value)
            return T.sum_all(T.mul(z, z))

        gradient_check(build, [x, b, c], rel_tol=1e-5, samples=8)

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    @pytest.mark.parametrize("left,right", [((4, 4, 3), (4,)), ((4, 4, 3), (4, 4)),
                                            ((4, 4, 3), (1, 3)), ((3,), (4, 4, 3))],
                             ids=["channels-plus-one", "leading-axes", "leading-one",
                                  "per-channel-left"])
    def test_other_broadcasts_name_both_shapes(self, op, left, right):
        with pytest.raises(ShapeError, match=re.escape(f"{left} and {right}")):
            op(Tensor(np.zeros(left)), Tensor(np.ones(right)))

    @given(shapes=operand_shapes(), name=st.sampled_from(["add", "sub", "mul", "div"]))
    @settings(max_examples=200, deadline=None)
    def test_one_broadcasting_rule(self, shapes, name):
        # a single element on either side, or a right operand of the left's
        # trailing axes, gives numpy's bytes and gradients summed back to each
        # operand's shape; every other pair raises, naming both shapes
        left, right = shapes
        gen = np.random.default_rng(len(left) * 10 + len(right))
        a = gen.standard_normal(left)
        b = np.asarray(gen.standard_normal(right) + 2.0)  # no 0 divisor
        allowed = (left == right or a.size == 1 or b.size == 1
                   or (len(right) <= len(left) and left[len(left) - len(right):] == right))
        op, (formula, grad_a, grad_b) = getattr(T, name), PARENT_ARITH[name]
        ta, tb = Tensor(a), Tensor(b)
        if not allowed:
            with pytest.raises(ShapeError, match=re.escape(f"{left} and {right}")):
                op(ta, tb)
            return
        with Tape() as tape:
            out = op(ta, tb)
            upstream = gen.standard_normal(out.shape)
            grads = tape.backward(T.sum_all(T.mul(out, Tensor(upstream))))
        expect = np.asarray(formula(a, b))
        assert (out.dtype, out.shape) == (expect.dtype, expect.shape)
        assert out.data.tobytes() == expect.tobytes()
        for t, grad in ((ta, grad_a), (tb, grad_b)):
            full = np.broadcast_to(grad(upstream, a, b), out.shape)
            lead = full.ndim - t.ndim
            kept = tuple(i + lead for i, n in enumerate(t.shape) if n == 1)
            want = full.sum(axis=tuple(range(lead)) + kept, keepdims=True)
            got = grads[t.serial]
            assert got.shape == t.shape
            assert np.allclose(got, want.reshape(t.shape), rtol=1e-12, atol=1e-12)


# The parent engine's formulas, kept as the bitwise reference for the blocked
# and GEMM-based ops.  Each returns (forward value, input gradients) for the
# upstream gradient g.

def parent_gelu(x, g):
    c0, c1 = math.sqrt(2.0 / math.pi), 0.044715
    x2 = x * x
    t = np.tanh(c0 * (x + c1 * x2 * x))
    du = c0 * (1.0 + 3.0 * c1 * x2)
    return 0.5 * x * (1.0 + t), [g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)]


def parent_softmax(x, g, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    return y, [y * (g - (g * y).sum(axis=axis, keepdims=True))]


def parent_scale_add_tiled(logits, pos, s, g):
    """The parent's scale_add_heads, logits*s + pos[head], over [n*heads, L, M]
    logits, or [n, heads, L, M] ones: the same arithmetic in the same memory
    order."""
    n = logits.size // pos.size
    out = logits * s + np.tile(pos, (n, 1, 1)).reshape(logits.shape)
    return out, [g * s, g.reshape((n,) + pos.shape).sum(axis=0)]


def parent_attention(q, k, v, pos, s, g):
    """The composed chain transpose, bmm, logits*s + pos, softmax, bmm, over
    one batch axis [n*heads] or two [n, heads]."""
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    logits = q @ kt
    da = g @ v.swapaxes(-1, -2)
    sl, _ = parent_scale_add_tiled(logits, pos, s, da)
    p, [dsl] = parent_softmax(sl, da, -1)
    _, [dlog, dpos] = parent_scale_add_tiled(logits, pos, s, dsl)
    dq = dlog @ kt.swapaxes(-1, -2)
    dk = (q.swapaxes(-1, -2) @ dlog).swapaxes(-1, -2)
    return p @ v, [dq, dk, p.swapaxes(-1, -2) @ g, dpos]


def parent_conv2d(x, k, bias, g, groups=1, padding="same", stride=1):
    kh, kw = k.shape[:2]
    h, w = x.shape[:2]
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    if padding == "same":
        xp = np.pad(x, ((pt, kh - 1 - pt), (pl, kw - 1 - pl), (0, 0)))
    else:
        pt = pl = 0
        xp = x
    hout = (xp.shape[0] - kh) // stride + 1
    wout = (xp.shape[1] - kw) // stride + 1
    out = np.zeros((hout, wout, k.shape[3]), dtype=x.dtype)
    dk = np.zeros_like(k)
    dxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            xs = xp[u:u + stride * hout:stride, v:v + stride * wout:stride]
            if groups != 1:
                out += xs * k[u, v, 0]
                dk[u, v, 0] = (xs * g).sum(axis=(0, 1))
                dxs = g * k[u, v, 0]
            else:
                out += np.tensordot(xs, k[u, v], axes=([2], [0]))
                dk[u, v] = np.tensordot(xs, g, axes=([0, 1], [0, 1]))
                dxs = np.tensordot(g, k[u, v], axes=([2], [1]))
            dxp[u:u + stride * hout:stride, v:v + stride * wout:stride] += dxs
    dx = dxp[pt:pt + h, pl:pl + w] if padding == "same" else dxp
    return out + bias, [dx, dk, g.sum(axis=(0, 1))]


def parent_layer_norm(x, gamma, beta, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    lead = tuple(range(x.ndim - 1))
    dxhat = g * gamma
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gamma + beta, [dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


def parent_add_bias(x, b, g):
    """The per-channel bias op that ``add`` replaced: leading axes summed."""
    lead = tuple(range(x.ndim - 1))
    return x + b, [g, g.sum(axis=lead)]


def parent_channel_scale(x, s, g):
    """The per-channel gain op that ``mul`` replaced."""
    lead = tuple(range(x.ndim - 1))
    return x * s, [g * s, (g * x).sum(axis=lead)]


def parent_reduce_to(g, shape):
    """The parent's sum of a broadcast operand's gradient back to its shape:
    over the leading axes, as the per-channel ops summed a [C] operand's and
    scale_add_heads the token axis of a [heads, L, M] bias."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.sum(g).reshape(shape)
    return g.sum(axis=tuple(range(g.ndim - len(shape))))


# the parent's four arithmetic ops: forward formula and the unreduced
# gradient of each operand
PARENT_ARITH = {
    "add": (lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (lambda a, b: a / b, lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b)),
}


def parent_gate_chain(a, b, s, g):
    """The blend composed on the tape as a*s + b*(1 - s) from per-pixel
    scales, a subtraction and an add; the tape visits the b branch first, so
    the gradient of s accumulates as (-sum g*b) + sum g*a."""
    sd, cd = s[:, :, None], (1.0 - s)[:, :, None]
    ds = -(g * b).sum(axis=2)
    ds = ds + (g * a).sum(axis=2)
    return a * sd + b * cd, [g * sd, g * cd, ds]


def parent_merge_heads_tokens(x, g, h, w, k, heads):
    """Heads into channels, then tokens into the image: two copies, each a
    reshape, transpose, reshape."""
    nh, length, ch = x.shape
    n, c = nh // heads, heads * ch
    t = np.ascontiguousarray(x.reshape(n, heads, length, ch).transpose(0, 2, 1, 3))
    t = np.ascontiguousarray(t.reshape(h // k, w // k, k, k, c).transpose(0, 2, 1, 3, 4))
    gt = g.reshape(h // k, k, w // k, k, c).transpose(0, 2, 1, 3, 4).reshape(n, length, c)
    gx = gt.reshape(n, length, heads, ch).transpose(0, 2, 1, 3).reshape(nh, length, ch)
    return t.reshape(h, w, c), [gx]


def parent_split_heads(x, heads):
    """[n, L, C] -> [n*heads, L, C/heads], the parent's head copy."""
    n, length, c = x.shape
    t = np.ascontiguousarray(x.reshape(n, length, heads, c // heads).transpose(0, 2, 1, 3))
    return t.reshape(n * heads, length, c // heads)


def parent_split_heads_grad(g, heads):
    """The gradient of :func:`parent_split_heads`: reshape, transposed view,
    and a reshape that copies."""
    nh, length, ch = g.shape
    n = nh // heads
    return g.reshape(n, heads, length, ch).transpose(0, 2, 1, 3).reshape(n, length, heads * ch)


def parent_space_chain(tq, tk, tv, pos, g, s, h, w, k, heads):
    """The parent's space attention from the q/k/v projections [n, L, C] to
    the [H,W,C] image: head copies, the fused op, and the head/token merge."""
    q, kk, v = (parent_split_heads(t, heads) for t in (tq, tk, tv))
    _, [gm] = parent_merge_heads_tokens(q, g, h, w, k, heads)  # g's share only
    mixed, [dq, dk, dv, dpos] = parent_attention(q, kk, v, pos, s, gm)
    out, _ = parent_merge_heads_tokens(mixed, g, h, w, k, heads)
    return out, [parent_split_heads_grad(d, heads) for d in (dq, dk, dv)] + [dpos]


def parent_freq_chain(tq, tk, tv, pos, g, s, h, w, k, heads):
    """The parent's spectral attention from the q/k/v projections to the
    image: head copies, the transpose, bmm, logits*s + pos, softmax and bmm
    ops, the head/token merge, and the tape's backward of each in turn."""
    q, kk, v = (parent_split_heads(t, heads) for t in (tq, tk, tv))
    qt = np.ascontiguousarray(q.transpose(0, 2, 1))
    logits = qt @ kk
    sl, _ = parent_scale_add_tiled(logits, pos, s, logits)
    attn, _ = parent_softmax(sl, sl, -1)
    out, [gm] = parent_merge_heads_tokens(v @ attn, g, h, w, k, heads)
    dv = gm @ attn.transpose(0, 2, 1)
    _, [dsl] = parent_softmax(sl, v.transpose(0, 2, 1) @ gm, -1)
    _, [dlog, dpos] = parent_scale_add_tiled(logits, pos, s, dsl)
    dq = (dlog @ kk.transpose(0, 2, 1)).transpose(0, 2, 1)
    dk = qt.transpose(0, 2, 1) @ dlog
    return out, [parent_split_heads_grad(d, heads) for d in (dq, dk, dv)] + [dpos]


def _rows(row_bytes: int) -> int:
    """A leading-axis length of 2.5 blocks: several blocks and a ragged one."""
    return 5 * T._BLOCK_BYTES // (2 * row_bytes)


class TestBlockedOpsMatchParentFormulas:
    """gelu, softmax, layer_norm, the attention-logits op, the fused
    attention, the gate blend, the head/token merge and every conv2d path
    equal the parent's formulas bit for bit, forward and backward, on inputs
    that span several blocks and end in a ragged one.  The upstream gradient
    arrives both contiguous and as a transposed view, as it does from the DCT
    in a block; gradient strides must match too, because later reductions sum
    in stride order."""

    @staticmethod
    def run_op(op, inputs, g_seed, transposed):
        gen = np.random.default_rng(g_seed)
        dtype = inputs[0].dtype
        tensors = [Tensor(a) for a in inputs]
        with T.using_dtype(dtype), Tape() as tape:
            out = op(*tensors)
            if transposed:
                upstream = Tensor(gen.standard_normal(out.shape[::-1]).astype(dtype))
                seen = T.transpose(out, tuple(range(out.ndim))[::-1])
            else:
                upstream = Tensor(gen.standard_normal(out.shape).astype(dtype))
                seen = out
            grads = tape.backward(T.sum_all(T.mul(seen, upstream)))
        g = upstream.data.transpose(tuple(range(out.ndim))[::-1]) if transposed \
            else upstream.data
        return out.data, [grads[t.serial] for t in tensors], g

    def check(self, op, reference, inputs):
        dtype = inputs[0].dtype
        for transposed in (False, True):
            out, grads, g = self.run_op(op, inputs, 7, transposed)
            expect_out, expect_grads = reference(*inputs, g)
            assert out.dtype == dtype and np.array_equal(out, expect_out)
            for got, expect in zip(grads, expect_grads, strict=True):
                assert got.dtype == dtype
                assert got.strides == expect.strides
                assert np.array_equal(got, expect)

    def data(self, rng, *shape, dtype=np.float32):
        return (3 * rng.standard_normal(shape)).astype(dtype)

    def test_gelu(self, rng):
        x = self.data(rng, _rows(4 * 6 * 8), 6, 8)
        self.check(T.gelu, parent_gelu, [x])

    def test_per_channel_add_and_mul(self, rng):
        x = self.data(rng, _rows(4 * 6 * 8), 6, 8)
        c = self.data(rng, 8)
        self.check(T.add, parent_add_bias, [x, c])
        self.check(T.mul, parent_channel_scale, [x, c])

    # (left shape, right shape) of the broadcasts the arithmetic ops allow;
    # 7 leading rows end the blocks raggedly
    ARITH_FORMS = {
        "full": ((7, 6, 8), (7, 6, 8)),
        "per-channel": ((7, 6, 8), (8,)),
        "trailing-axes": ((7, 6, 8), (6, 8)),
        "single-element": ((7, 6, 8), (1,)),
        "0-d": ((7, 6, 8), ()),
        "left single-element": ((1,), (7, 6, 8)),
        "left 0-d": ((), (7, 6, 8)),
        "both 0-d": ((), ()),
    }

    @pytest.mark.parametrize("form", ARITH_FORMS)
    @pytest.mark.parametrize("name", PARENT_ARITH)
    def test_arithmetic_ops(self, monkeypatch, rng, name, form):
        """Each op against the parent's formula at every dtype mix, over one
        block and several, on one slot and two: equal bytes, dtypes and
        strides, forward and backward, for a contiguous and a transposed
        upstream gradient."""
        op, (formula, grad_a, grad_b) = getattr(T, name), PARENT_ARITH[name]
        left, right = self.ARITH_FORMS[form]
        seen = []
        over_blocks = T._over_blocks

        def spy(blocks, body):
            seen.append(len(blocks))
            over_blocks(blocks, body)

        monkeypatch.setattr(T, "_over_blocks", spy)
        default = T._BLOCK_BYTES
        for da, db in [(np.float32, np.float32), (np.float64, np.float64),
                       (np.float32, np.float64), (np.float64, np.float32)]:
            a = np.asarray(self.data(rng, *left, dtype=da))
            b = self.data(rng, *right, dtype=db)
            b = np.asarray(b + np.where(b < 0, -0.5, 0.5).astype(db))  # no 0 divisor
            expect = np.asarray(formula(a, b))
            for several, block_bytes in enumerate((default, 2 * 6 * 8 * 4)):
                monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
                for slots in (1, 2):
                    monkeypatch.setattr(T, "_SLOTS", slots)
                    seen.clear()
                    with Tape() as tape:
                        out = op(Tensor(a), Tensor(b)).data
                    assert len(seen) == 1 and (seen[0] > 1) == (several and out.ndim > 0)
                    assert (out.dtype, out.strides) == (expect.dtype, expect.strides)
                    assert out.tobytes() == expect.tobytes()
                    g = np.asarray(self.data(rng, *out.shape[::-1], dtype=out.dtype)).T
                    for gg in (g.copy(), g):  # contiguous, then a transposed view
                        got = tape.nodes[-1].backward_fn(gg)
                        want = (parent_reduce_to(grad_a(gg, a, b), a.shape),
                                parent_reduce_to(grad_b(gg, a, b), b.shape))
                        for x, e in zip(got, want, strict=True):
                            x, e = np.asarray(x), np.asarray(e)
                            assert (x.dtype, x.strides) == (e.dtype, e.strides)
                            assert x.tobytes() == e.tobytes()

    def test_softmax_last_axis(self, rng):
        x = self.data(rng, _rows(4 * 5 * 16), 5, 16)
        self.check(T.softmax, lambda a, g: parent_softmax(a, g, -1), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_special_values(self, rng, dtype):
        # the row max reads a transposed copy: rows holding NaN, +-inf, 0.0
        # and -0.0 keep the parent's bits, NaN positions included
        x = self.data(rng, 6, 5, 9, dtype=dtype)
        x[0, 0, 3], x[1, 2] = np.nan, -np.inf
        x[2, 1, 4], x[3, 0], x[3, 1, ::2] = np.inf, 0.0, -0.0
        with np.errstate(invalid="ignore"):
            out = T.softmax(Tensor(x)).data
            expect, _ = parent_softmax(x, x, -1)
        assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize("several", [False, True], ids=["one-block", "several-blocks"])
    def test_scaled_logits_plus_head_bias(self, monkeypatch, rng, several, slots):
        # the spectral layer's mul by a scalar and trailing-axes add of a
        # [heads, L, M] bias equal the parent's scale_add_heads formula
        heads, length = 2, 8
        logits = self.data(rng, _rows(4 * heads * length * length), heads, length, length)
        pos = self.data(rng, heads, length, length)
        if not several:
            monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * logits.nbytes)
        monkeypatch.setattr(T, "_SLOTS", slots)
        seen = []
        over_blocks = T._over_blocks

        def spy(blocks, body):
            seen.append(len(blocks))
            over_blocks(blocks, body)

        monkeypatch.setattr(T, "_over_blocks", spy)
        self.check(lambda a, b: T.add(T.mul(a, 0.125), b),
                   lambda a, b, g: parent_scale_add_tiled(a, b, 0.125, g), [logits, pos])
        assert seen and all((n > 1) == several for n in seen)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_attention(self, rng, heads):
        length, c = 64, 7
        n = _rows(4 * heads * length * length)
        q, k, v = (self.data(rng, n, heads, length, c) for _ in range(3))
        pos = self.data(rng, heads, length, length)
        s = 1.0 / math.sqrt(c)
        self.check(lambda *t: T.attention(*t[:3], s, t[3]),
                   lambda *a: parent_attention(*a[:4], s, a[4]), [q, k, v, pos])

    @pytest.mark.parametrize("tokens", [16, 18])
    def test_attention_desk_shape(self, rng, tokens):
        # 16 tokens: a 32x32 desk image in 8x8 tokens, 4 heads of C = 6;
        # 18 tokens run the backward over several blocks ending in a ragged one
        heads, length, c = 4, 64, 6
        q, k, v = (self.data(rng, tokens, heads, length, c) for _ in range(3))
        pos = self.data(rng, heads, length, length)
        s = 1.0 / math.sqrt(c)
        self.check(lambda *t: T.attention(*t[:3], s, t[3]),
                   lambda *a: parent_attention(*a[:4], s, a[4]), [q, k, v, pos])

    def test_attention_backward_holds_no_full_logits(self, rng):
        # at the desk shape the kept probabilities are one 1 MB [n, heads,
        # L, M] array; the backward's temporaries and gradients stay below
        # another
        heads, length, c = 4, 64, 6
        nh = 16 * heads
        q, k, v = (Tensor(self.data(rng, 16, heads, length, c)) for _ in range(3))
        pos = Tensor(self.data(rng, heads, length, length))
        g = self.data(rng, 16, heads, length, c)
        with Tape() as tape:
            T.attention(q, k, v, 0.5, pos)
        tracemalloc.start()
        try:
            tape.nodes[-1].backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nh * length * length * 4

    def test_attention_without_tape_holds_no_full_logits(self, rng):
        # a 64x64x8 image in 8x8 tokens, two heads: 64 tokens of L = 64
        heads, length, c = 2, 64, 4
        nh = heads * 64
        q, k, v = (self.data(rng, 64, heads, length, c) for _ in range(3))
        pos = self.data(rng, heads, length, length)
        full = nh * length * length * 4
        tracemalloc.start()
        try:
            T.attention(Tensor(q), Tensor(k), Tensor(v), 0.5, Tensor(pos))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [5, 0])
    def test_layer_norm(self, rng, dtype, rows):
        # rows=5: one block; 0: several blocks and a ragged last one
        c = 28
        rows = rows or _rows(4 * 48 * c)
        x = self.data(rng, rows, 48, c, dtype=dtype) + 2.0
        gamma = self.data(rng, c, dtype=dtype)
        beta = self.data(rng, c, dtype=dtype)
        self.check(T.layer_norm, parent_layer_norm, [x, gamma, beta])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,cout", [(29, 28), (29, 16), (24, 8), (9, 24)])
    def test_dense_conv2d_row_blocks(self, rng, dtype, cin, cout):
        # the dense k x k shapes the network runs, over about four row blocks
        rows = 4 * T._BLOCK_BYTES // (4 * 40 * cout) + 3
        x = self.data(rng, rows, 40, cin, dtype=dtype)
        k = self.data(rng, 3, 3, cin, cout, dtype=dtype)
        b = self.data(rng, cout, dtype=dtype)
        self.check(T.conv2d, parent_conv2d, [x, k, b])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ksize,stride", [(3, 1), (2, 2)])
    def test_conv2d_without_padded_copy(self, rng, dtype, ksize, stride):
        # depth-wise "same" (top, bottom and both side pads, per row block)
        # and dense strided "valid", each over several blocks and a ragged one
        c = 12
        rows = stride * _rows(4 * 32 * c) + 1 - (stride - 1)
        x = self.data(rng, rows, 2 * 32, c, dtype=dtype)
        kwargs = dict(groups=c, padding="same") if stride == 1 \
            else dict(groups=1, padding="valid", stride=stride)
        k = self.data(rng, ksize, ksize, 1 if stride == 1 else c, c, dtype=dtype)
        b = self.data(rng, c, dtype=dtype)
        self.check(T.conv2d,
                   lambda xa, ka, ba, g: parent_conv2d(xa, ka, ba, g, **kwargs), [x, k, b])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depthwise_conv2d_one_row_blocks(self, rng, dtype, monkeypatch):
        # a 5x5 kernel pads two rows: with one-row blocks the second block
        # still starts inside the top padding
        monkeypatch.setattr(T, "_BLOCK_BYTES", 1)
        c = 3
        x = self.data(rng, 7, 9, c, dtype=dtype)
        k = self.data(rng, 5, 5, 1, c, dtype=dtype)
        b = self.data(rng, c, dtype=dtype)
        self.check(T.conv2d,
                   lambda xa, ka, ba, g: parent_conv2d(xa, ka, ba, g, groups=c), [x, k, b])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depthwise_conv2d_signed_zeros_and_non_finite(self, rng, dtype):
        # each tap's products add into dx as one run whose zero columns land
        # inside dx for the right-most taps; with 0, -0.0, NaN and inf taps
        # and -0.0 in g the gradients must still carry the parent's bits
        c = 3
        x = self.data(rng, 7, 9, c, dtype=dtype)
        k = self.data(rng, 3, 3, 1, c, dtype=dtype)
        k[0, 0], k[1, 0, 0, 0], k[0, 2, 0, 1], k[2, 2, 0, 2] = 0.0, -0.0, np.nan, np.inf
        b = self.data(rng, c, dtype=dtype)
        g = self.data(rng, 7, 9, c, dtype=dtype)
        g[0], g[3, 4] = -0.0, -0.0
        with np.errstate(invalid="ignore"):
            with Tape() as tape:
                T.conv2d(Tensor(x), Tensor(k), Tensor(b))
            for gg in (g, np.asfortranarray(g)):
                got = tape.nodes[-1].backward_fn(gg)
                _, expect = parent_conv2d(x, k, b, gg, groups=c)
                for a, e in zip(got, expect, strict=True):
                    assert a.strides == e.strides
                    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(e).tobytes()

    def test_conv2d_forward_holds_no_padded_image(self, rng):
        # output plus a few blocks; a padded copy of the input would add 1x
        x = Tensor(self.data(rng, 16 * T._BLOCK_BYTES // (4 * 64 * 16), 64, 16))
        k = Tensor(self.data(rng, 3, 3, 1, 16))
        b = Tensor(self.data(rng, 16))
        tracemalloc.start()
        try:
            T.conv2d(x, k, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gate_blend(self, rng, dtype):
        rows = _rows(4 * 24 * 8)
        a, b = (self.data(rng, rows, 24, 8, dtype=dtype) for _ in range(2))
        s = rng.random((rows, 24)).astype(dtype)
        self.check(T.gate_blend, parent_gate_chain, [a, b, s])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_merge_heads_tokens(self, rng, dtype):
        # the head view of [n, L, C] tokens merged into the image, against
        # the parent's head copy and its head/token merge
        h, w, k, heads, ch = 32, 48, 8, 4, 3
        x = self.data(rng, (h // k) * (w // k), k * k, heads * ch, dtype=dtype)

        def parent(a, g):
            out, [gx] = parent_merge_heads_tokens(parent_split_heads(a, heads), g,
                                                  h, w, k, heads)
            return out, [parent_split_heads_grad(gx, heads)]

        self.check(lambda t: merge_tokens(T.head_view(t, heads), h, w, k), parent, [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ch", [6, 7, 12, 14])
    @pytest.mark.parametrize("space", [True, False], ids=["space", "freq"])
    def test_attention_on_head_views(self, rng, dtype, ch, space):
        # both attention products as the layers run them, from q/k/v
        # projections through head views to the merged image, against the
        # parent's head copies, chain and merge; 21 tokens of 8x8 end the
        # blocks of both passes raggedly at either dtype
        h, w, k, heads = 24, 56, 8, 4
        c = heads * ch
        tq, tk, tv = (self.data(rng, (h // k) * (w // k), k * k, c, dtype=dtype)
                      for _ in range(3))
        side = k * k if space else ch
        pos = self.data(rng, heads, side, side, dtype=dtype)
        s = 1.0 / math.sqrt(ch if space else c)

        def op(*t):
            q, kk, v = (T.head_view(a, heads) for a in t[:3])
            if space:
                mixed = T.attention(q, kk, v, s, t[3])
            else:
                logits = T.bmm(T.transpose(q, (0, 1, 3, 2)), kk)
                mixed = T.bmm(v, T.softmax(T.add(T.mul(logits, s), t[3])))
            return merge_tokens(mixed, h, w, k)

        chain = parent_space_chain if space else parent_freq_chain
        self.check(op, lambda *a: chain(*a, s, h, w, k, heads), [tq, tk, tv, pos])

    @pytest.mark.parametrize("ksize,cin,cout,groups,padding,stride", [
        (1, 6, 7, 1, "same", 1),       # point-wise
        # dense; at 56 -> 56 channels a GEMM per image row sums differently
        # from one GEMM over the whole image on some BLAS builds
        (3, 56, 56, 1, "same", 1),
        (3, 6, 6, 6, "same", 1),       # depth-wise
        (2, 6, 12, 1, "valid", 2),     # strided down-sampling
    ])
    def test_conv2d(self, rng, ksize, cin, cout, groups, padding, stride):
        x = self.data(rng, stride * _rows(4 * 32 * cin) + 1, 2 * 32, cin)
        if stride == 2:
            x = x[:-1]
        k = self.data(rng, ksize, ksize, cin // groups, cout)
        b = self.data(rng, cout)
        kwargs = dict(groups=groups, padding=padding, stride=stride)
        self.check(T.conv2d,
                   lambda xa, ka, ba, g: parent_conv2d(xa, ka, ba, g, **kwargs), [x, k, b])


class TestTape:
    def test_topological_order(self, rng):
        p = Param(rng.standard_normal((3, 3)))
        with Tape() as tape:
            h = T.bmm(T.reshape(p.value, (1, 3, 3)), p.value)
            T.sum_all(T.gelu(h))
        produced_at = {}
        for i, node in enumerate(tape.nodes):
            for pid in node.parent_serials:
                if pid in produced_at:
                    assert produced_at[pid] < i
            produced_at[node.out_serial] = i

    def test_backward_visits_each_node_once(self, rng):
        p = Param(rng.standard_normal(4), name="p")
        calls = []
        with Tape() as tape:
            a = T.mul(p.value, p.value)
            b = T.add(a, a)  # diamond: a consumed twice
            out = T.sum_all(b)
            for node in tape.nodes:
                orig = node.backward_fn

                def counted(g, orig=orig, nid=id(node)):
                    calls.append(nid)
                    return orig(g)

                node.backward_fn = counted
            tape.backward(out, [p])
        assert len(calls) == len(set(calls)) == len(tape.nodes)
        assert np.allclose(p.grad, 4 * p.value.data)

    def test_no_closure_holds_a_tensor(self, rng):
        # a desk-scale K=3 training step: 32x32x8, width 24
        cfg = NetConfig(height=32, width=32, bands=8, token=8, heads=4, base_width=24,
                        stages=3)
        net = UnfoldingNet(cfg, random_mask(32, 32, seed=0), seed=1)
        x = rng.random((32, 32, 8))
        with Tape() as tape:
            z = net.forward(simulate(x, net.sensing))
            tape.backward(loss(z, x.astype(z.dtype)), net.params())
        held = []
        for node in tape.nodes:
            for cell in node.backward_fn.__closure__ or ():
                value = cell.cell_contents
                items = value if isinstance(value, (list, tuple)) else (value,)
                held += [node.backward_fn.__qualname__
                         for item in items if isinstance(item, Tensor)]
        assert not held, sorted(set(held))

    def test_chain_of_layout_ops_pins_no_copies(self, rng):
        x = Tensor(rng.standard_normal((1024, 1024)).astype(np.float32))  # 4 MB
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = x
                for _ in range(8):
                    y = T.transpose(y, (1, 0))
                tape.backward(T.sum_all(y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.data.nbytes

    def test_reused_ids_leave_gradients_unchanged(self, rng):
        # Tensors dropped mid-forward free their ids, and the constants made
        # after them take those ids; the gradient must not notice.
        data = rng.standard_normal((3, 4))
        consts = [rng.standard_normal((3, 4)) for _ in range(20)]

        def grad(drops):
            p = Param(data.copy(), name="p")
            dropped, made_after = set(), set()
            with Tape() as tape:
                h = T.mul(p.value, p.value)
                for _ in range(drops):
                    dropped.add(id(T.mul(T.reshape(h, (4, 3)), 3.0)))
                out = h
                for c in consts:
                    ct = Tensor(c)
                    made_after.add(id(ct))
                    out = T.add(T.mul(out, ct), h)
                tape.backward(T.sum_all(out), [p])
            return p.grad, dropped & made_after

        expect, _ = grad(0)
        # whether a constant lands on a freed id depends on the allocator's
        # state, which every earlier test moves: vary the drops until one does
        for drops in range(1000, 2000, 100):
            got, reused = grad(drops)
            assert np.array_equal(got, expect)
            if reused:
                break
        assert reused  # the case under test did occur

    def test_no_nesting(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((6, 6, 4)).astype(np.float32))
            k = Tensor(rng.standard_normal((3, 3, 4, 4)).astype(np.float32))
            return T.softmax(T.conv2d(x, k, zero_bias(k))).data

        assert np.array_equal(run(), run())


class TestContextState:
    """The active tape, the default dtype and the FLOP counter belong to the
    thread (context) that set them."""

    @staticmethod
    def forward(x):
        h = T.gelu(T.bmm(T.reshape(x.value, (1,) + x.shape), x.value))
        return T.sum_all(T.softmax(h))

    def test_threads_keep_their_own_tape_dtype_and_flops(self, rng):
        data = rng.standard_normal((4, 4)).astype(np.float32)
        x = Param(data.copy(), name="x")
        with Tape() as expect_tape:
            expect_tape.backward(self.forward(x), [x])
        expect_grad, x.grad[...] = x.grad.copy(), 0

        results, errors = {}, []
        start = threading.Barrier(4)

        def worker(i):
            try:
                xi = Param(data.copy(), name="x")
                start.wait(timeout=30)
                with T.count_flops() as flops:
                    for _ in range(20):
                        xi.zero_grad()
                        with Tape() as tape:
                            tape.backward(self.forward(xi), [xi])
                results[i] = (len(tape.nodes), flops[0], xi.grad.copy(), Tensor([1.0]).dtype)
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with T.using_dtype(np.float64), T.count_flops() as main_flops, Tape() as main_tape:
                self.forward(Param(np.eye(2)))
                threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                main_nodes = len(main_tape.nodes)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert main_nodes == len(expect_tape.nodes) and main_flops[0] == 2 * 2 * 2 * 2
        for nodes, flops, grad, dtype in results.values():
            assert nodes == len(expect_tape.nodes)
            assert flops == 20 * 2 * 4 * 4 * 4
            assert dtype == np.float32
            assert np.array_equal(grad, expect_grad)
        assert len(results) == 4


def _split_case(name, rng, dtype, nblocks):
    """(op, inputs, _BLOCK_BYTES) for one op that splits its blocks: the
    block size gives the leading-block ops ``nblocks`` blocks at two slots, a
    ragged last one at three; None keeps the size for the GEMM ops, which
    split their rows once per slot."""
    isz = np.dtype(dtype).itemsize

    def data(*shape):
        return (3 * rng.standard_normal(shape)).astype(dtype)

    def leading(row_bytes):
        return 2 * row_bytes * -(-7 // nblocks)  # 7 rows in steps of 4 or 3

    cases = {
        "gelu": lambda: (T.gelu, [data(7, 6, 5)], leading(30 * isz)),
        "add": lambda: (T.add, [data(7, 6, 5), data(7, 6, 5)], leading(30 * isz)),
        "add_scalar": lambda: (T.add, [data(7, 6, 5), data(1)], leading(30 * isz)),
        "sub": lambda: (T.sub, [data(7, 6, 5), data(7, 6, 5)], leading(30 * isz)),
        "mul_channel": lambda: (T.mul, [data(7, 6, 5), data(5)], leading(30 * isz)),
        "div": lambda: (T.div, [data(7, 6, 5), data(7, 6, 5) + 10], leading(30 * isz)),
        "layer_norm": lambda: (T.layer_norm, [data(7, 12) + 2, data(12), data(12)],
                               leading(12 * isz)),
        "gate_blend": lambda: (T.gate_blend, [data(7, 6, 5), data(7, 6, 5),
                                              rng.random((7, 6)).astype(dtype)],
                               leading(30 * isz)),
        "attention": lambda: (lambda q, k, v, p: T.attention(q, k, v, 0.5, p),
                              [data(7, 2, 8, 3) for _ in range(3)] + [data(2, 8, 8)],
                              leading(2 * 8 * 8 * isz)),
        # a 5x5 kernel: blocks of 3 or 4 rows start inside the top padding
        "conv2d_depthwise": lambda: (T.conv2d, [data(7, 6, 5), data(5, 5, 1, 5), data(5)],
                                     leading(30 * isz)),
        # 31-row blocks keep each tap's GEMM above the small-matrix cut
        "conv2d_dense": lambda: (T.conv2d, [data(31 * nblocks + 3, 40, 29),
                                            data(3, 3, 29, 28), data(28)], 1),
        "conv2d_pointwise": lambda: (T.conv2d, [data(64, 64, 28), data(1, 1, 28, 28),
                                                data(28)], None),
        "dct2_forward": lambda: (dct2_forward, [data(64, 64, 28)],
                                 2 * (64 // nblocks) * 28 * 64 * isz),
        "dct2_inverse": lambda: (dct2_inverse, [data(64, 64, 28)],
                                 2 * (64 // nblocks) * 28 * 64 * isz),
        "bmm_shared": lambda: (T.bmm, [data(64, 64, 28), data(28, 28)], None),
        "bmm_3d": lambda: (T.bmm, [data(32, 64, 28), data(32, 28, 64)], None),
        "bmm_4d": lambda: (T.bmm, [data(32, 4, 64, 7), data(32, 4, 7, 64)], None),
        "bmm_head_view": lambda: (lambda v, p: T.bmm(T.head_view(v, 4), p),
                                  [data(192, 64, 28), data(192, 4, 7, 7)], None),
    }
    return cases[name]()


_SPLIT_CASES = [(case, nblocks) for nblocks in (2, 3)
                for case in ("gelu", "add", "add_scalar", "sub", "mul_channel", "div",
                             "layer_norm", "gate_blend",
                             "attention", "conv2d_depthwise", "conv2d_dense",
                             "dct2_forward", "dct2_inverse")] \
    + [(case, 2) for case in ("conv2d_pointwise", "bmm_shared", "bmm_3d", "bmm_4d",
                              "bmm_head_view")]


def _worker_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("hsifreq-blocks")]


def _seeded_reconstruct() -> bytes:
    """A perturbed 64x64x28 K=3 network's reconstruction: its ops split at
    two slots (a fresh prior is the identity)."""
    cfg = NetConfig(height=64, width=64, bands=28, token=8, heads=4, stages=3)
    net = UnfoldingNet(cfg, random_mask(64, 64, seed=3), seed=4)
    gen = np.random.default_rng(5)
    for _, p in net.named_params():
        p.assign((p.value.data + 0.01 * gen.standard_normal(p.shape)).astype(p.value.dtype))
    y = simulate(gen.random((64, 64, 28)), net.sensing).astype(np.float32)
    return net.reconstruct(y).tobytes()


def _send_gelu_bytes(x, conn):
    conn.send(T.gelu(x).data.tobytes())
    conn.close()


def _send_slots(conn):
    conn.send(T._SLOTS)
    conn.close()


def _from_forked_child(target, *args):
    """What ``target(*args, conn)`` sends from a forked child."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=args + (send,))
    child.start()
    send.close()
    try:
        assert recv.poll(30), "the forked child did not answer in 30 s"
        sent = recv.recv()
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join(timeout=30)
    assert child.exitcode == 0
    return sent


class TestTwoSlots:
    """Forward ops split their blocks between the calling thread (slot 0) and
    one worker thread (slot 1).  The split changes no byte: values, dtypes
    and strides, forward and backward, equal those of one slot."""

    @staticmethod
    def run(op, inputs):
        tensors = [Tensor(a) for a in inputs]
        plain = op(*tensors).data  # without a tape: block-sized scratch only
        with Tape() as tape:
            out = op(*tensors)
            g = np.random.default_rng(5).standard_normal(out.shape).astype(out.dtype)
            grads = tape.backward(T.sum_all(T.mul(out, Tensor(g))))
        return [plain, out.data] + [grads[t.serial] for t in tensors]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case,nblocks", _SPLIT_CASES)
    def test_split_equals_one_slot(self, monkeypatch, rng, case, nblocks, dtype):
        op, inputs, block_bytes = _split_case(case, rng, dtype, nblocks)
        if block_bytes is not None:
            monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        seen = []
        over_blocks = T._over_blocks

        def spy(blocks, body):
            seen.append((T._SLOTS, len(blocks)))
            over_blocks(blocks, body)

        monkeypatch.setattr(T, "_over_blocks", spy)
        results = {}
        for slots in (1, 2):
            monkeypatch.setattr(T, "_SLOTS", slots)
            results[slots] = self.run(op, inputs)
        assert (2, nblocks) in seen  # the split under test did occur
        for one, two in zip(results[1], results[2], strict=True):
            assert two.dtype == one.dtype and two.shape == one.shape
            assert two.strides == one.strides
            assert two.tobytes() == one.tobytes()

    def test_worker_error_reaches_the_caller(self, monkeypatch, rng):
        ran = []

        def failing(b, slot):
            ran.append((b.start, slot))
            if slot == 1:
                raise ValueError("in the worker's half")

        blocks = [slice(i, i + 1) for i in range(4)]
        monkeypatch.setattr(T, "_SLOTS", 2)
        with pytest.raises(ValueError, match="worker's half"):
            T._over_blocks(blocks, failing)
        assert sorted(ran) == [(0, 0), (1, 0), (2, 1)]

        # the worker runs the next op's later half
        threads = {}
        T._over_blocks(blocks, lambda b, slot: threads.setdefault(slot, set()).add(
            threading.current_thread()))
        assert threads[0] == {threading.current_thread()}
        assert threads[1] == set(_worker_threads()) and len(threads[1]) == 1
        x = Tensor(rng.standard_normal((7, 6, 5)).astype(np.float32))
        monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 4 * 30 * 4)
        monkeypatch.setattr(T, "_SLOTS", 1)
        expect = T.gelu(x).data
        monkeypatch.setattr(T, "_SLOTS", 2)
        assert T.gelu(x).data.tobytes() == expect.tobytes()

    def test_one_slot_runs_every_block_here(self, monkeypatch):
        ran = []
        monkeypatch.setattr(T, "_SLOTS", 1)
        T._over_blocks([slice(i, i + 1) for i in range(3)],
                       lambda b, slot: ran.append((b.start, slot, threading.current_thread())))
        assert ran == [(i, 0, threading.current_thread()) for i in range(3)]

    def test_threads_share_the_worker(self, monkeypatch, rng):
        # more callers than CPUs, each splitting ops between itself and the
        # one worker under a short switch interval
        monkeypatch.setattr(T, "_BLOCK_BYTES", 4 * 8 * 8 * 4)
        x = Tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        q, k, v = (Tensor(rng.standard_normal((32, 2, 8, 4)).astype(np.float32))
                   for _ in range(3))
        pos = Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32))

        def ops():
            return [T.gelu(x).data, T.layer_norm(x, Tensor(np.ones(8, np.float32)),
                                                 Tensor(np.zeros(8, np.float32))).data,
                    T.attention(q, k, v, 0.5, pos).data]

        monkeypatch.setattr(T, "_SLOTS", 1)
        expect = [a.tobytes() for a in ops()]
        monkeypatch.setattr(T, "_SLOTS", 2)
        errors, done = [], []
        start = threading.Barrier(4)

        def caller():
            try:
                start.wait(timeout=30)
                for _ in range(20):
                    assert [a.tobytes() for a in ops()] == expect
                done.append(True)
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(done) == 4
        assert len(_worker_threads()) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")  # a threaded parent
    def test_forked_child_gets_its_own_worker(self, monkeypatch, rng):
        monkeypatch.setattr(T, "_BLOCK_BYTES", 4 * 30 * 4)
        monkeypatch.setattr(T, "_SLOTS", 2)
        # the child counts two CPUs, so it splits gelu too
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        x = Tensor(rng.standard_normal((9, 6, 5)).astype(np.float32))
        expect = T.gelu(x).data.tobytes()
        assert _worker_threads()  # started before the fork
        assert _from_forked_child(_send_gelu_bytes, x) == expect

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")  # a threaded parent
    def test_forked_child_counts_its_own_cpus(self, monkeypatch):
        slots = T._SLOTS
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _from_forked_child(_send_slots) == 1
        assert T._SLOTS == slots

    @pytest.mark.parametrize("case", ["gelu", "conv2d_dense", "dct2_forward", "attention"])
    def test_ops_do_not_ask_for_the_cpu_count(self, monkeypatch, rng, case):
        op, inputs, block_bytes = _split_case(case, rng, np.float32, 2)
        monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(T, "_SLOTS", 2)
        expect = self.run(op, inputs)

        def no_count(*args):
            raise AssertionError("an op asked for the CPU count")

        monkeypatch.setattr(os, "sched_getaffinity", no_count, raising=False)
        monkeypatch.setattr(os, "cpu_count", no_count)
        for one, two in zip(expect, self.run(op, inputs), strict=True):
            assert two.strides == one.strides and two.tobytes() == one.tobytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or T._SLOTS < 2,
                        reason="needs CPU affinity and two CPUs")
    def test_one_cpu_process_writes_the_same_bytes(self, tmp_path):
        expect = _seeded_reconstruct()
        assert _worker_threads()  # this process split the ops
        out = tmp_path / "cube.bin"
        cpu = min(os.sched_getaffinity(0))
        code = (
            "import os, sys\n"
            f"os.sched_setaffinity(0, {{{cpu}}})\n"
            "from test_tensor import _seeded_reconstruct, _worker_threads\n"
            f"open({str(out)!r}, 'wb').write(_seeded_reconstruct())\n"
            "sys.exit(3 if _worker_threads() else 0)\n")
        tests = Path(__file__).resolve().parent
        src = Path(T.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(src)]))
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr  # 3: the worker started
        assert out.read_bytes() == expect


class TestAdam:
    def test_zero_grad_fixed_point(self):
        p = Param(np.array([1.0, -2.0]))
        opt = Adam([p])
        before = p.value.data.copy()
        for _ in range(5):
            opt.step(0.1)
        assert np.array_equal(p.value.data, before)

    def test_one_step_closed_form(self):
        g = np.array([0.3, -0.7])
        p = Param(np.zeros(2))
        opt = Adam([p])
        p.grad[...] = g
        opt.step(0.01)
        # with zero state and bias correction: update = lr * g / (|g| + eps)
        expect = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.value.data, expect, atol=1e-9)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -0.01])
    def test_step_rejects_a_bad_rate_and_leaves_the_weights(self, lr):
        p = Param(np.array([1.0, -2.0]))
        opt = Adam([p])
        p.grad[...] = [0.3, -0.7]
        before = p.value.data.copy()
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            opt.step(lr)
        assert np.array_equal(p.value.data, before) and opt.t == 0
        opt.step(0.0)
        assert np.array_equal(p.value.data, before)

    def test_minimizes_quadratic(self):
        p = Param(np.array([1.0]))
        opt = Adam([p])
        for _ in range(200):
            opt.zero_grad()
            p.grad[...] = 2.0 * p.value.data
            opt.step(0.1)
        assert abs(p.value.data[0]) < 1e-2


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 4e-4) == pytest.approx(4e-4)
        assert cosine_lr(100, 100, 4e-4) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(50, 100, 4e-4) == pytest.approx(2e-4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1e-3)

    def test_empty_schedule(self):
        with pytest.raises(ValueError, match="total"):
            cosine_lr(0, 0, 1e-3)


class TestDtypeSwitch:
    def test_float32_default_and_float64_context(self):
        assert Tensor([1.0]).dtype == np.float32
        with T.using_dtype(np.float64):
            assert Tensor([1.0]).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32

    def test_nested_contexts_unwind_on_error_and_reject_other_dtypes(self):
        with pytest.raises(RuntimeError, match="inner"):
            with T.using_dtype(np.float64), T.using_dtype(np.float64):
                assert Tensor([1.0]).dtype == np.float64
                raise RuntimeError("inner")
        assert Tensor([1.0]).dtype == np.float32
        with pytest.raises(ValueError, match="unsupported dtype"):
            with T.using_dtype(np.float16):
                pass
        assert Tensor([1.0]).dtype == np.float32

    def test_scalar_broadcast_only(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
