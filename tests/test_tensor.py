"""Engine ops: forward values, gradient rules, tape behaviour, optimizer."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradient_check, wrap_input
from hsifreq import tensor as T
from hsifreq.cassi import random_mask, simulate
from hsifreq.layers import _merge_heads_tokens
from hsifreq.network import NetConfig
from hsifreq.optim import Adam, cosine_lr
from hsifreq.tensor import Param, ShapeError, Tape, Tensor
from hsifreq.unfolding import UnfoldingNet, loss


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        out = T.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, np.eye(2, dtype=np.float32))

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        assert np.array_equal(out.data, np.array([[2.0], [4.0]], dtype=np.float32))

    def test_zero_annihilates(self, rng):
        z = Tensor(np.zeros((3, 4)))
        b = Tensor(rng.standard_normal((4, 5)))
        assert np.all(T.matmul(z, b).data == 0.0)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_identity_associativity_bitwise(self, rng):
        a = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        i = Tensor(np.eye(4, dtype=np.float32))
        left = T.matmul(T.matmul(a, i), b)
        right = T.matmul(a, b)
        assert np.array_equal(left.data, right.data)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([3.0, 3.0, 3.0, 3.0]), axis=0)
        assert np.allclose(out.data, 0.25)

    def test_closed_form_ratio(self):
        out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-7)

    def test_saturation_direction(self):
        out = T.softmax(Tensor([20.0, 0.0], dtype=np.float64), axis=0)
        assert out.data[0] > 1.0 - 1e-8

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros((2, 2))), axis=5)

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_slices_sum_to_one(self, n, m, axis):
        vals = np.random.default_rng(n * 13 + m * 7 + axis).normal(size=(m, n)) * 30
        out = T.softmax(Tensor(vals), axis=axis)
        sums = out.data.sum(axis=axis)
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
        x = wrap_input(rng.standard_normal((4, 3)))

        def build():
            h = T.gelu(T.matmul(x.value, w.value))
            s = T.softmax(h, axis=-1)
            return T.sqrt(T.sum_all(T.mul(s, h)))

        gradient_check(build, [w, x], rel_tol=1e-5, eps=1e-6, samples=9)


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
            return T.sum_all(T.mul(z, T.softmax(x.value, axis=-1)))

        gradient_check(build, [x], rel_tol=1e-5, samples=10)

    def test_layer_norm(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 4, 3)), "x")
        g = Param(0.5 + rng.random(3), name="gamma")
        b = Param(rng.standard_normal(3), name="beta")

        def build():
            return T.sum_all(T.mul(T.layer_norm(x.value, g.value, b.value),
                                   Tensor(np.arange(48.0).reshape(4, 4, 3))))

        gradient_check(build, [x, g, b], rel_tol=1e-5, samples=8)

    def test_matmul_bmm(self, f64, rng):
        a = wrap_input(rng.standard_normal((4, 3)), "a")
        b = wrap_input(rng.standard_normal((3, 2)), "b")
        c = wrap_input(rng.standard_normal((2, 4, 3)), "c")
        d = wrap_input(rng.standard_normal((2, 3, 2)), "d")

        def build():
            m = T.matmul(a.value, b.value)
            n = T.bmm(c.value, d.value)
            n2 = T.bmm(c.value, b.value)
            return T.add(T.sum_all(T.mul(m, m)),
                         T.add(T.sum_all(T.mul(n, n)), T.sum_all(n2)))

        gradient_check(build, [a, b, c, d], rel_tol=1e-5, samples=6)

    def test_layout_ops(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 6, 2)), "x")
        p = wrap_input(rng.standard_normal((2, 3, 3)), "p")
        lg = wrap_input(rng.standard_normal((6, 3, 3)), "logits")

        def build():
            t = T.transpose(T.reshape(x.value, (2, 2, 6, 2)), (1, 0, 2, 3))
            t = T.reshape(t, (4, 6, 2))
            cat = T.concat([t, x.value], axis=2)
            biased = T.scale_add_heads(lg.value, 0.7, p.value)
            return T.add(T.sum_all(T.mul(cat, cat)), T.sum_all(T.mul(biased, biased)))

        gradient_check(build, [x, p, lg], rel_tol=1e-5, samples=8)

    def test_attention(self, f64, rng):
        q = wrap_input(rng.standard_normal((4, 3, 2)), "q")
        k = wrap_input(rng.standard_normal((4, 5, 2)), "k")
        v = wrap_input(rng.standard_normal((4, 5, 3)), "v")
        p = wrap_input(rng.standard_normal((2, 3, 5)), "pos")

        def build():
            out = T.attention(q.value, k.value, v.value, 0.7, p.value)
            return T.sum_all(T.mul(out, Tensor(np.arange(36.0).reshape(4, 3, 3))))

        gradient_check(build, [q, k, v, p], rel_tol=1e-5, samples=8)

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
            z = T.add_bias(z, b.value)
            z = T.channel_scale(z, c.value)
            v = T.spatial_mean(z)
            picked = T.take_scalar(v, 1)
            return T.add(T.sum_all(T.mul(v, v)), T.mul(picked, picked))

        gradient_check(build, [x, y, s, b, c], rel_tol=1e-5, samples=8)


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
    n = logits.shape[0] // pos.shape[0]
    out = logits * s + np.tile(pos, (n, 1, 1))
    return out, [g * s, g.reshape((n,) + pos.shape).sum(axis=0)]


def parent_attention(q, k, v, pos, s, g):
    """The composed chain transpose, bmm, scale_add_heads, softmax, bmm."""
    kt = np.ascontiguousarray(k.transpose(0, 2, 1))
    logits = q @ kt
    da = g @ v.transpose(0, 2, 1)
    sl, _ = parent_scale_add_tiled(logits, pos, s, da)
    p, [dsl] = parent_softmax(sl, da, -1)
    _, [dlog, dpos] = parent_scale_add_tiled(logits, pos, s, dsl)
    dq = dlog @ kt.transpose(0, 2, 1)
    dk = (q.transpose(0, 2, 1) @ dlog).transpose(0, 2, 1)
    return p @ v, [dq, dk, p.transpose(0, 2, 1) @ g, dpos]


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

    def test_softmax_last_axis(self, rng):
        x = self.data(rng, _rows(4 * 5 * 16), 5, 16)
        self.check(lambda t: T.softmax(t, axis=-1),
                   lambda a, g: parent_softmax(a, g, -1), [x])

    def test_softmax_leading_axis(self, rng):
        x = self.data(rng, 9, 40, 50)
        self.check(lambda t: T.softmax(t, axis=0),
                   lambda a, g: parent_softmax(a, g, 0), [x])

    def test_scale_add_heads(self, rng):
        heads, length = 2, 8
        logits = self.data(rng, heads * _rows(4 * heads * length * length), length, length)
        pos = self.data(rng, heads, length, length)
        self.check(lambda a, b: T.scale_add_heads(a, 0.125, b),
                   lambda a, b, g: parent_scale_add_tiled(a, b, 0.125, g), [logits, pos])

    @pytest.mark.parametrize("heads", [1, 4])
    def test_attention(self, rng, heads):
        length, c = 64, 7
        nh = heads * _rows(4 * heads * length * length)
        q, k, v = (self.data(rng, nh, length, c) for _ in range(3))
        pos = self.data(rng, heads, length, length)
        s = 1.0 / math.sqrt(c)
        self.check(lambda *t: T.attention(*t[:3], s, t[3]),
                   lambda *a: parent_attention(*a[:4], s, a[4]), [q, k, v, pos])

    @pytest.mark.parametrize("tokens", [16, 18])
    def test_attention_desk_shape(self, rng, tokens):
        # 16 tokens: a 32x32 desk image in 8x8 tokens, 4 heads of C = 6;
        # 18 tokens run the backward over several blocks ending in a ragged one
        heads, length, c = 4, 64, 6
        q, k, v = (self.data(rng, tokens * heads, length, c) for _ in range(3))
        pos = self.data(rng, heads, length, length)
        s = 1.0 / math.sqrt(c)
        self.check(lambda *t: T.attention(*t[:3], s, t[3]),
                   lambda *a: parent_attention(*a[:4], s, a[4]), [q, k, v, pos])

    def test_attention_backward_holds_no_full_logits(self, rng):
        # at the desk shape the kept probabilities are one 1 MB [nh, L, M]
        # array; the backward's temporaries and gradients stay below another
        heads, length, c = 4, 64, 6
        nh = 16 * heads
        q, k, v = (Tensor(self.data(rng, nh, length, c)) for _ in range(3))
        pos = Tensor(self.data(rng, heads, length, length))
        g = self.data(rng, nh, length, c)
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
        q, k, v = (self.data(rng, nh, length, c) for _ in range(3))
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
        h, w, k, heads, ch = 32, 48, 8, 4, 3
        x = self.data(rng, (h // k) * (w // k) * heads, k * k, ch, dtype=dtype)
        self.check(lambda t: _merge_heads_tokens(t, h, w, k),
                   lambda a, g: parent_merge_heads_tokens(a, g, h, w, k, heads), [x])

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
            h = T.matmul(p.value, p.value)
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

        def grad(drop):
            p = Param(data.copy(), name="p")
            dropped, made_after = set(), set()
            with Tape() as tape:
                h = T.mul(p.value, p.value)
                for _ in range(1000 if drop else 0):
                    dropped.add(id(T.scale(T.reshape(h, (4, 3)), 3.0)))
                out = h
                for c in consts:
                    ct = Tensor(c)
                    made_after.add(id(ct))
                    out = T.add(T.mul(out, ct), h)
                tape.backward(T.sum_all(out), [p])
            return p.grad, dropped & made_after

        expect, _ = grad(drop=False)
        got, reused = grad(drop=True)
        assert reused  # the case under test did occur
        assert np.array_equal(got, expect)

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
            return T.softmax(T.conv2d(x, k, zero_bias(k)), axis=-1).data

        assert np.array_equal(run(), run())


class TestContextState:
    """The active tape, the default dtype and the FLOP counter belong to the
    thread (context) that set them."""

    @staticmethod
    def forward(x):
        h = T.gelu(T.matmul(x.value, x.value))
        return T.sum_all(T.softmax(h, axis=-1))

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


class TestAdam:
    def test_zero_grad_fixed_point(self):
        p = Param(np.array([1.0, -2.0]))
        opt = Adam([p], lr=0.1)
        before = p.value.data.copy()
        for _ in range(5):
            opt.step()
        assert np.array_equal(p.value.data, before)

    def test_one_step_closed_form(self):
        g = np.array([0.3, -0.7])
        p = Param(np.zeros(2))
        opt = Adam([p], lr=0.01, eps=1e-8)
        p.grad[...] = g
        opt.step()
        # with zero state and bias correction: update = lr * g / (|g| + eps)
        expect = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.value.data, expect, atol=1e-9)

    def test_minimizes_quadratic(self):
        p = Param(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            p.grad[...] = 2.0 * p.value.data
            opt.step()
        assert abs(p.value.data[0]) < 1e-2


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 4e-4) == pytest.approx(4e-4)
        assert cosine_lr(100, 100, 4e-4) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(50, 100, 4e-4) == pytest.approx(2e-4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1e-3)


class TestDtypeSwitch:
    def test_float32_default_and_float64_context(self):
        assert Tensor([1.0]).dtype == np.float32
        with T.using_dtype(np.float64):
            assert Tensor([1.0]).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32

    def test_scalar_broadcast_only(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
