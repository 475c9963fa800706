"""Network blocks: trivial-weight identities, hand oracles, locality,
residual structure, gradients, and the attention complexity contract."""

import math
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import gradient_check, wrap_input
from hsifreq import tensor as T
from hsifreq.dct import dct2_cube
from hsifreq.cassi import SensingConfig, random_mask, simulate
from hsifreq.hsio import SceneSpec, gen_scene
from hsifreq.layers import (Conv2d, DualDomainBlock, FreqLocalMixer, FreqSpectralAttention,
                            Layer, Linear, SpaceAttention, attention_maps, gate_merge,
                            merge_tokens, split_tokens)
from hsifreq.network import NetConfig, PriorNet, StepEstimator
from hsifreq.tensor import Param, Tape, Tensor, xavier_uniform
from hsifreq.unfolding import UnfoldingNet


def identity_conv(conv, c):
    conv.weight.assign(np.eye(c).reshape(1, 1, c, c).astype(conv.weight.value.dtype))
    conv.bias.assign(np.zeros(c, dtype=conv.bias.value.dtype))


def zero_params(layer):
    for _, p in layer.named_params():
        p.assign(np.zeros(p.shape, dtype=p.value.dtype))


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def saf_oracle(x, wq, wk, wv, pos, token, heads):
    """Plain-numpy re-derivation of the frequency channel attention (no out conv)."""
    h, w, c = x.shape
    k = token
    ch = c // heads
    out = np.zeros_like(x)
    for bi in range(h // k):
        for bj in range(w // k):
            f = x[bi * k:(bi + 1) * k, bj * k:(bj + 1) * k, :].reshape(k * k, c)
            q, kk, v = f @ wq, f @ wk, f @ wv
            cols = []
            for hh in range(heads):
                sl = slice(hh * ch, (hh + 1) * ch)
                logits = q[:, sl].T @ kk[:, sl] / math.sqrt(c) + pos[hh]
                cols.append(v[:, sl] @ np_softmax(logits))
            block = np.concatenate(cols, axis=-1).reshape(k, k, c)
            out[bi * k:(bi + 1) * k, bj * k:(bj + 1) * k, :] = block
    return out


def space_oracle(x, wq, wk, wv, pos, token, heads):
    """Plain-numpy re-derivation of the windowed positional attention (no out conv)."""
    h, w, c = x.shape
    k = token
    ch = c // heads
    out = np.zeros_like(x)
    for bi in range(h // k):
        for bj in range(w // k):
            f = x[bi * k:(bi + 1) * k, bj * k:(bj + 1) * k, :].reshape(k * k, c)
            q, kk, v = f @ wq, f @ wk, f @ wv
            cols = []
            for hh in range(heads):
                sl = slice(hh * ch, (hh + 1) * ch)
                logits = q[:, sl] @ kk[:, sl].T / math.sqrt(ch) + pos[hh]
                cols.append(np_softmax(logits) @ v[:, sl])
            block = np.concatenate(cols, axis=-1).reshape(k, k, c)
            out[bi * k:(bi + 1) * k, bj * k:(bj + 1) * k, :] = block
    return out


@pytest.mark.parametrize("cls,side", [(SpaceAttention, 16), (FreqSpectralAttention, 4)])
def test_attention_param_layout_and_seeded_init(cls, side):
    # param names and order fix the CMDW tensor order; the projections and
    # the out conv are consecutive draws from the layer's rng
    c, k, heads = 8, 4, 2
    layer = cls(c, k, heads, np.random.default_rng(5))
    assert [n for n, _ in layer.named_params()] == \
        ["wq", "wk", "wv", "pos", "out.weight", "out.bias"]
    assert layer.pos.shape == (heads, side, side)
    rng = np.random.default_rng(5)
    for p in (layer.wq, layer.wk, layer.wv):
        assert np.array_equal(p.value.data, xavier_uniform((c, c), c, c, rng))
    assert np.array_equal(layer.out.weight.value.data,
                          xavier_uniform((1, 1, c, c), c, c, rng))


class TestTokenLayout:
    def test_split_merge_round_trip(self, rng):
        x = Tensor(rng.standard_normal((8, 12, 6)))
        back = merge_tokens(T.head_view(split_tokens(x, 4), 2), 8, 12, 4)
        assert np.array_equal(back.data, x.data)

    def test_split_needs_divisibility(self, rng):
        with pytest.raises(T.ShapeError):
            split_tokens(Tensor(rng.standard_normal((8, 9, 3))), 4)


class TestFreqSpectralAttention:
    def test_uniform_attention_gives_channel_mean(self, f64, rng):
        c, k = 4, 4
        saf = FreqSpectralAttention(c, k, heads=1, rng=rng)
        saf.wq.assign(np.zeros((c, c)))
        saf.wk.assign(np.zeros((c, c)))
        saf.wv.assign(np.eye(c))
        identity_conv(saf.out, c)
        x = rng.standard_normal((8, 8, c))
        out = saf(Tensor(x)).data
        expect = np.repeat(x.mean(axis=2, keepdims=True), c, axis=2)
        assert np.allclose(out, expect, atol=1e-12)

    def test_matches_hand_oracle_single_cube(self, f64, rng):
        c, k = 2, 2
        saf = FreqSpectralAttention(c, k, heads=1, rng=rng)
        wq = np.array([[0.5, -0.2], [0.1, 0.3]])
        wk = np.array([[0.2, 0.4], [-0.3, 0.6]])
        wv = np.array([[1.0, 0.5], [-0.5, 0.25]])
        pos = np.array([[[0.1, -0.1], [0.2, 0.0]]])
        saf.wq.assign(wq)
        saf.wk.assign(wk)
        saf.wv.assign(wv)
        saf.pos.assign(pos)
        identity_conv(saf.out, c)
        x = rng.standard_normal((2, 2, 2))
        out = saf(Tensor(x)).data
        assert np.allclose(out, saf_oracle(x, wq, wk, wv, pos, k, 1), atol=1e-12)

    def test_matches_hand_oracle_multihead_multicube(self, f64, rng):
        c, k, heads = 4, 2, 2
        saf = FreqSpectralAttention(c, k, heads=heads, rng=rng)
        saf.pos.assign(rng.standard_normal((heads, 2, 2)))
        identity_conv(saf.out, c)
        x = rng.standard_normal((4, 6, c))
        out = saf(Tensor(x)).data
        expect = saf_oracle(x, saf.wq.value.data, saf.wk.value.data,
                            saf.wv.value.data, saf.pos.value.data, k, heads)
        assert np.allclose(out, expect, atol=1e-12)

    def test_cube_locality(self, f64, rng):
        c, k = 4, 4
        saf = FreqSpectralAttention(c, k, heads=2, rng=rng)
        x = rng.standard_normal((8, 8, c))
        base = saf(Tensor(x)).data
        poked = x.copy()
        poked[6, 6, :] += 5.0  # inside cube (1,1)
        out = saf(Tensor(poked)).data
        assert np.allclose(out[:4, :4, :], base[:4, :4, :], atol=1e-12)
        assert not np.allclose(out[4:, 4:, :], base[4:, 4:, :])

    def test_complexity_scales_with_area(self, rng):
        c, k = 8, 4
        saf = FreqSpectralAttention(c, k, heads=2, rng=rng)
        with T.count_flops() as small:
            saf(Tensor(rng.standard_normal((16, 16, c))))
        with T.count_flops() as big:
            saf(Tensor(rng.standard_normal((32, 16, c))))
        ratio = big[0] / small[0]
        assert 1.9 < ratio < 2.1

    def test_gradients(self, f64, rng):
        c, k = 4, 2
        saf = FreqSpectralAttention(c, k, heads=2, rng=rng)
        x = wrap_input(rng.standard_normal((4, 4, c)), "x")
        weight = Tensor(rng.standard_normal((4, 4, c)))

        def build():
            return T.sum_all(T.mul(saf(x.value), weight))

        gradient_check(build, [x] + saf.params(), rel_tol=1e-4, samples=4)


class TestFreqLocalMixer:
    def test_zero_weights_residual_identity(self, f64, rng):
        mixer = FreqLocalMixer(3, rng)
        zero_params(mixer)
        x = rng.standard_normal((5, 5, 3))
        assert np.array_equal(mixer(Tensor(x)).data, x)

    def test_single_pixel_center_tap(self, f64, rng):
        c = 3
        mixer = FreqLocalMixer(c, rng)
        x = rng.standard_normal((1, 1, c))
        out = mixer(Tensor(x)).data

        def g(v):
            u = math.sqrt(2 / math.pi) * (v + 0.044715 * v ** 3)
            return 0.5 * v * (1 + np.tanh(u))

        win = mixer.conv_in.weight.value.data[0, 0]
        bin_ = mixer.conv_in.bias.value.data
        dwc = mixer.dw.weight.value.data[1, 1, 0]  # center tap of the 3x3 kernel
        bdw = mixer.dw.bias.value.data
        wm = mixer.conv_mid.weight.value.data[0, 0]
        bm = mixer.conv_mid.bias.value.data
        wo = mixer.conv_out.weight.value.data[0, 0]
        bo = mixer.conv_out.bias.value.data
        v = x[0, 0]
        spat = g(g(v @ win + bin_) * dwc + bdw)
        spec = g((spat + v) @ wm + bm) @ wo + bo
        assert np.allclose(out[0, 0], spec + spat + v, atol=1e-12)

    def test_matches_engine_composition(self, f64, rng):
        c = 4
        mixer = FreqLocalMixer(c, rng)
        x = rng.standard_normal((6, 6, c))
        out = mixer(Tensor(x)).data
        t = Tensor(x)
        spat = T.gelu(mixer.dw(T.gelu(mixer.conv_in(t))))
        spec = mixer.conv_out(T.gelu(mixer.conv_mid(T.add(spat, t))))
        expect = T.add(T.add(spec, spat), t).data
        assert np.array_equal(out, expect)

    def test_gradients(self, f64, rng):
        mixer = FreqLocalMixer(3, rng)
        x = wrap_input(rng.standard_normal((4, 4, 3)), "x")

        def build():
            out = mixer(x.value)
            return T.sum_all(T.mul(out, out))

        gradient_check(build, [x] + mixer.params(), rel_tol=1e-4, samples=4)


class TestGateMerge:
    def test_saturated_selects_attention_branch(self, rng):
        a = Tensor(rng.standard_normal((4, 4, 3)))
        b = Tensor(rng.standard_normal((4, 4, 3)))
        out = gate_merge(a, b, Tensor(np.full((4, 4), 20.0)))
        assert np.max(np.abs(out.data - a.data)) < 1e-6

    def test_zero_logits_exact_mean(self, rng):
        a = Tensor(rng.standard_normal((4, 4, 3)).astype(np.float64))
        b = Tensor(rng.standard_normal((4, 4, 3)).astype(np.float64))
        out = gate_merge(a, b, Tensor(np.zeros((4, 4))))
        assert np.allclose(out.data, (a.data + b.data) / 2.0, atol=1e-12)

    def test_equal_branches_fixed_point(self, rng):
        a = Tensor(rng.standard_normal((4, 4, 3)))
        out = gate_merge(a, a, Tensor(rng.standard_normal((4, 4))))
        assert np.allclose(out.data, a.data, atol=1e-6)

    def test_convex_bounds(self, rng):
        a = rng.standard_normal((5, 5, 2))
        b = rng.standard_normal((5, 5, 2))
        out = gate_merge(Tensor(a), Tensor(b),
                         Tensor(rng.standard_normal((5, 5)))).data
        lo = np.minimum(a, b) - 1e-6
        hi = np.maximum(a, b) + 1e-6
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_shape_mismatch(self, rng):
        with pytest.raises(T.ShapeError):
            gate_merge(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((4, 4, 2))),
                       Tensor(np.zeros((2, 2))))


class TestSpaceAttention:
    def test_uniform_attention_gives_token_mean(self, f64, rng):
        c, k = 3, 4
        attn = SpaceAttention(c, k, heads=1, rng=rng)
        attn.wq.assign(np.zeros((c, c)))
        attn.wk.assign(np.zeros((c, c)))
        attn.wv.assign(np.eye(c))
        identity_conv(attn.out, c)
        x = rng.standard_normal((4, 8, c))
        out = attn(Tensor(x)).data
        for bj in range(2):
            token = x[:, bj * 4:(bj + 1) * 4, :]
            mean = token.reshape(-1, c).mean(axis=0)
            assert np.allclose(out[:, bj * 4:(bj + 1) * 4, :], mean, atol=1e-12)

    def test_single_pixel_token_is_value_path(self, f64, rng):
        c = 4
        attn = SpaceAttention(c, 1, heads=2, rng=rng)
        attn.wv.assign(np.eye(c))
        identity_conv(attn.out, c)
        x = rng.standard_normal((3, 3, c))
        assert np.allclose(attn(Tensor(x)).data, x, atol=1e-12)

    def test_matches_hand_oracle(self, f64, rng):
        c, k, heads = 2, 2, 1
        attn = SpaceAttention(c, k, heads=heads, rng=rng)
        attn.pos.assign(rng.standard_normal((1, 4, 4)))
        identity_conv(attn.out, c)
        x = rng.standard_normal((2, 2, c))
        expect = space_oracle(x, attn.wq.value.data, attn.wk.value.data,
                              attn.wv.value.data, attn.pos.value.data, k, heads)
        assert np.allclose(attn(Tensor(x)).data, expect, atol=1e-12)

    def test_token_locality(self, f64, rng):
        c, k = 2, 4
        attn = SpaceAttention(c, k, heads=1, rng=rng)
        x = rng.standard_normal((8, 8, c))
        base = attn(Tensor(x)).data
        poked = x.copy()
        poked[0, 0, :] += 3.0  # token (0,0)
        out = attn(Tensor(poked)).data
        assert np.allclose(out[4:, 4:, :], base[4:, 4:, :], atol=1e-12)

    def test_gradients(self, f64, rng):
        c, k = 4, 2
        attn = SpaceAttention(c, k, heads=2, rng=rng)
        x = wrap_input(rng.standard_normal((4, 4, c)), "x")

        def build():
            out = attn(x.value)
            return T.sum_all(T.mul(out, out))

        gradient_check(build, [x] + attn.params(), rel_tol=1e-4, samples=4)


# The parent's attention layers, composed from the tape ops as they ran
# before head views: head copies, the transpose, bmm, the scaled logits plus
# the position bias (mul, then a trailing-axes add), softmax and bmm chain,
# and the one-copy head/token merge.

def parent_split_heads(x, heads):
    """[n, L, C] -> [n*heads, L, C/heads]; batch index is token*heads + head."""
    n, length, c = x.shape
    t = T.reshape(x, (n, length, heads, c // heads))
    t = T.transpose(t, (0, 2, 1, 3))
    return T.reshape(t, (n * heads, length, c // heads))


def parent_merge_heads_tokens(x, h, w, k):
    """[n*heads, K*K, C/heads] -> [H,W,C] in one copy."""
    nh, length, ch = x.shape
    heads = nh // ((h // k) * (w // k))
    t = T.reshape(x, (h // k, w // k, heads, k, k, ch))
    t = T.transpose(t, (0, 3, 1, 4, 2, 5))
    return T.reshape(t, (h, w, heads * ch))


def parent_scale_add_heads(logits, s, pos):
    """logits*s + pos[i % heads] for [n*heads, L, M] logits."""
    split = (logits.shape[0] // pos.shape[0],) + pos.shape
    return T.reshape(T.add(T.mul(T.reshape(logits, split), s), pos), logits.shape)


def parent_attention_layer(layer, x):
    """The parent's call of an attention layer on ``x``: its output and its
    [n*heads, L, M] probabilities."""
    h, w, c = x.shape
    tokens = split_tokens(x, layer.token)
    q, kk, v = (parent_split_heads(T.bmm(tokens, p.value), layer.heads)
                for p in (layer.wq, layer.wk, layer.wv))
    if isinstance(layer, SpaceAttention):
        logits, s = T.bmm(q, T.transpose(kk, (0, 2, 1))), 1.0 / math.sqrt(c / layer.heads)
    else:
        logits, s = T.bmm(T.transpose(q, (0, 2, 1)), kk), 1.0 / math.sqrt(c)
    attn = T.softmax(parent_scale_add_heads(logits, s, layer.pos.value))
    mixed = T.bmm(attn, v) if isinstance(layer, SpaceAttention) else T.bmm(v, attn)
    return layer.out(parent_merge_heads_tokens(mixed, h, w, layer.token)), attn


def composed_attention_probs(layer, x):
    """The probabilities of an attention layer's call on ``x``, by the composed
    transpose, bmm, mul, add and softmax ops."""
    return parent_attention_layer(layer, x)[1].data


def all_layers(layer):
    yield layer
    for attr in vars(layer).values():
        for item in attr if isinstance(attr, (list, tuple)) else [attr]:
            if isinstance(item, Layer):
                yield from all_layers(item)


class TestAttentionMaps:
    @pytest.fixture
    def net_and_y(self):
        cfg = NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=2,
                        share_params=False)
        mask = random_mask(16, 16, seed=3)
        net = UnfoldingNet(cfg, mask, seed=4)
        rng = np.random.default_rng(5)
        for _, p in net.named_params():
            p.assign((p.value.data + 0.1 * rng.standard_normal(p.shape)).astype(p.value.dtype))
        scene = gen_scene(SceneSpec(kind="cosine-modes", height=16, width=16, bands=4, seed=6))
        return net, simulate(scene, SensingConfig(mask, cfg.dispersion_step, 4))

    @pytest.mark.parametrize("taped", [False, True])
    def test_maps_equal_mean_of_composed_probabilities(self, net_and_y, monkeypatch, taped):
        net, y = net_and_y
        inputs = {}
        for cls in (SpaceAttention, FreqSpectralAttention):
            def seen(layer, x, call=cls.__call__):
                inputs[layer] = x
                return call(layer, x)
            monkeypatch.setattr(cls, "__call__", seen)
        with attention_maps() as maps, Tape() if taped else nullcontext():
            net.forward(y)
        assert len(maps) == 2 * 3 * 2 and maps.keys() == inputs.keys()
        for layer, x in inputs.items():
            expect = composed_attention_probs(layer, x).mean(axis=0)
            assert maps[layer].dtype == np.float32 and np.array_equal(maps[layer], expect)

    def test_no_attention_state_outside_the_context(self, net_and_y):
        net, y = net_and_y
        with attention_maps() as maps:
            pass
        before = {id(layer): dict(vars(layer)) for layer in all_layers(net)}
        net.forward(y)
        for layer in all_layers(net):
            after = vars(layer)
            assert after.keys() == before[id(layer)].keys()
            assert all(after[name] is value for name, value in before[id(layer)].items())
        assert maps == {}


class TestAttentionLayersMatchParentComposition:
    """Both attention layers, on head views of the token layout, equal the
    parent's composition bit for bit: the output, the attention map of a
    taped and of an untaped call, and the gradient of the input and of every
    param, strides included.  21 tokens of 8x8 end the fused op's blocks
    raggedly at either dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ch", [6, 7, 12, 14])
    @pytest.mark.parametrize("cls", [SpaceAttention, FreqSpectralAttention])
    def test_matches_parent(self, cls, ch, dtype):
        heads, k, h, w = 4, 8, 24, 56
        gen = np.random.default_rng(ch)
        with T.using_dtype(dtype):
            layer = cls(heads * ch, k, heads, gen)
            layer.pos.assign(gen.standard_normal(layer.pos.shape))
            layer.out.bias.assign(gen.standard_normal(layer.out.bias.shape))
            x = Tensor(3 * gen.standard_normal((h, w, heads * ch)), dtype=dtype)
            upstream = Tensor(gen.standard_normal(x.shape), dtype=dtype)
            runs = []
            for call in (lambda t: (layer(t), None), lambda t: parent_attention_layer(layer, t)):
                with attention_maps() as maps, Tape() as tape:
                    out, attn = call(x)
                    grads = tape.backward(T.sum_all(T.mul(out, upstream)))
                mean_map = maps[layer] if attn is None else attn.data.mean(axis=0)
                runs.append((out.data, mean_map,
                             [grads[t.serial] for t in [x] + [p.value for p in layer.params()]]))
            with attention_maps() as maps:
                layer(x)
        (out, mean_map, got), (expect_out, expect_map, expect) = runs
        assert out.dtype == dtype and np.array_equal(out, expect_out)
        assert mean_map.dtype == dtype and mean_map.shape == expect_map.shape
        assert mean_map.tobytes() == expect_map.tobytes() == maps[layer].tobytes()
        assert len(got) == len(expect) == 7
        for a, e in zip(got, expect):
            assert a.dtype == dtype and a.strides == e.strides
            assert np.array_equal(a, e)


class TestDualDomainBlock:
    def test_residual_identity_when_zeroed(self, f64, rng):
        block = DualDomainBlock(4, 2, 2, 8, 8, rng)
        zero_params(block.proj)
        zero_params(block.ffn_out)
        x = rng.standard_normal((8, 8, 4))
        out = block(Tensor(x)).data
        assert np.max(np.abs(out - x)) < 1e-6

    def test_gradient_check_full_block(self, f64, rng):
        block = DualDomainBlock(4, 4, 2, 8, 8, rng)
        x = wrap_input(rng.standard_normal((8, 8, 4)), "x")
        weight = Tensor(rng.standard_normal((8, 8, 4)))

        def build():
            return T.sum_all(T.mul(block(x.value), weight))

        gradient_check(build, [x] + block.params(), rel_tol=1e-5, samples=3)

    def test_scaled_input_composition(self, f64, rng):
        # frequency branch composed from independently tested pieces
        block = DualDomainBlock(4, 2, 2, 4, 4, rng)
        x = rng.standard_normal((4, 4, 4))
        xn = T.layer_norm(Tensor(x), block.ln1.gamma.value, block.ln1.beta.value)
        f_in = Tensor(dct2_cube(xn.data))
        f_merged = gate_merge(block.freq_attn(f_in), block.freq_mix(f_in),
                              block.gate_logits.value)
        from hsifreq.dct import idct2_cube
        x_freq = idct2_cube(f_merged.data)
        mix = block.space_attn(xn).data + x_freq
        expect = x + block.proj(Tensor(mix)).data
        y = T.gelu(block.ffn_in(block.ln2(Tensor(expect))))
        expect2 = expect + block.ffn_out(T.gelu(block.ffn_dw(y))).data
        assert np.allclose(block(Tensor(x)).data, expect2, atol=1e-10)

    def test_other_resolution_rejected(self, rng):
        block = DualDomainBlock(4, 2, 2, 8, 8, rng)
        with pytest.raises(T.ShapeError):
            block(Tensor(rng.standard_normal((4, 4, 4)).astype(np.float32)))


class TestPriorNet:
    def cfg(self, h=16, w=16, c=4, token=4, heads=2, stages=1):
        return NetConfig(height=h, width=w, bands=c, token=token, heads=heads,
                         stages=stages)

    def test_identity_at_init(self, f64, rng):
        prior = PriorNet(self.cfg(), np.random.default_rng(0))
        x = rng.standard_normal((16, 16, 4))
        out = prior(Tensor(x), Tensor(np.asarray(0.7))).data
        assert np.array_equal(out, x)  # zero-initialized output conv

    def test_shape_contract(self):
        cfg = NetConfig(height=64, width=64, bands=28, token=8, heads=4)
        prior = PriorNet(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((64, 64, 28)).astype(np.float32)
        out = prior(Tensor(x), Tensor(np.asarray(1.0, dtype=np.float32)))
        assert out.shape == (64, 64, 28)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            NetConfig(height=20, width=16, bands=4, token=4)

    def test_gradient_check(self, f64, rng):
        prior = PriorNet(self.cfg(), np.random.default_rng(0))
        # make the output conv non-zero so its path is exercised
        prior.out.weight.assign(0.05 * rng.standard_normal(prior.out.weight.shape))
        x = wrap_input(rng.standard_normal((16, 16, 4)), "x")
        beta = wrap_input(np.asarray(0.8), "beta")
        weight = Tensor(rng.standard_normal((16, 16, 4)))

        def build():
            return T.sum_all(T.mul(prior(x.value, beta.value), weight))

        gradient_check(build, [x, beta] + prior.params(), rel_tol=1e-4, samples=2)

    def test_conv_kernels_follow_the_layout_rule(self):
        # the desk shape: 1x1 and 3x3 dense, 3x3 depth-wise and the 2x2 dense
        # down-sampler are the only kernels, and the down-sampler halves H, W
        cfg = NetConfig(height=32, width=32, bands=8, token=8, heads=4, base_width=24)
        prior = PriorNet(cfg, np.random.default_rng(0))

        def layers(layer):
            yield layer
            for attr in vars(layer).values():
                if isinstance(attr, Layer):
                    yield from layers(attr)

        kinds = set()
        for conv in (lay for lay in layers(prior) if isinstance(lay, Conv2d)):
            s, side, cpg, cout = conv.weight.shape
            assert side == s and conv.bias.shape == (cout,)
            kinds.add((s, "depth-wise" if cpg == 1 else "dense"))
        assert kinds == {(1, "dense"), (3, "dense"), (3, "depth-wise"), (2, "dense")}
        x = Tensor(np.zeros((32, 32, 24), dtype=np.float32))
        assert prior.down(x).shape == (16, 16, 48)

    def test_param_count_deterministic(self):
        a = PriorNet(self.cfg(), np.random.default_rng(0)).param_count()
        b = PriorNet(self.cfg(), np.random.default_rng(99)).param_count()
        assert a == b > 0


class TestLinear:
    """Linear on a [1, 1, nin] row, through bmm, is bit for bit the plain
    numpy products: out = x @ w + b, dx = g @ w^T, dw = x^T @ g, db = g."""

    # the network's three: est_hidden 16 -> 32 and 32 -> 2K at K = 3 in the
    # step estimator, and the prior's 1 -> width at width 28
    @pytest.mark.parametrize("nin, nout", [(16, 32), (32, 6), (1, 28)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_numpy_products(self, rng, nin, nout, dtype):
        with T.using_dtype(dtype):
            lin = Linear(nin, nout, rng)
        lin.bias.assign(rng.standard_normal(nout).astype(dtype))
        x = rng.standard_normal((1, 1, nin)).astype(dtype)
        g = rng.standard_normal((1, 1, nout)).astype(dtype)
        xt = Tensor(x)
        with Tape() as tape:
            out = lin(xt)
            grads = tape.backward(T.sum_all(T.mul(out, Tensor(g))), lin.params())
        w, b = lin.weight.value.data, lin.bias.value.data
        x2, g2 = x[0], g[0]
        assert w.dtype == out.dtype == dtype and out.shape == (1, 1, nout)
        assert np.array_equal(out.data[0], x2 @ w + b)
        assert np.array_equal(grads[xt.serial][0], g2 @ w.T)
        assert np.array_equal(lin.weight.grad, x2.T @ g2)
        assert np.array_equal(lin.bias.grad, g2[0])


class TestStepEstimator:
    def cfg(self, stages=3):
        return NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=stages)

    def test_outputs_positive(self, rng):
        est = StepEstimator(self.cfg(), np.random.default_rng(5))
        for _, p in est.named_params():
            p.assign(rng.standard_normal(p.shape).astype(p.value.dtype))
        z0 = Tensor(rng.random((16, 16, 4)).astype(np.float32))
        alphas, betas = est(z0, rng.random((16, 16)))
        assert len(alphas) == len(betas) == 3
        assert all(a.item() > 0 for a in alphas)
        assert all(b.item() > 0 for b in betas)

    def test_structured_init_scales(self, rng):
        est = StepEstimator(self.cfg(), np.random.default_rng(5))
        z0 = Tensor(rng.random((16, 16, 4)).astype(np.float32))
        alphas, betas = est(z0, rng.random((16, 16)))
        # near-projection data steps, geometrically spread prior steps
        for a in alphas:
            assert 0.001 < a.item() < 0.1
        bvals = [b.item() for b in betas]
        assert bvals[0] < bvals[1] < bvals[2]
        assert bvals[1] == pytest.approx(1.0, rel=0.3)

    def test_determinism(self, rng):
        est = StepEstimator(self.cfg(), np.random.default_rng(5))
        z0 = Tensor(rng.random((16, 16, 4)).astype(np.float32))
        mask = rng.random((16, 16))
        a1, _ = est(z0, mask)
        a2, _ = est(z0, mask)
        assert a1[0].item() == a2[0].item()

    def test_gradient_reaches_weights(self, f64, rng):
        est = StepEstimator(self.cfg(stages=2), np.random.default_rng(5))
        z0 = Tensor(rng.random((16, 16, 4)))
        params = est.params()
        with Tape() as tape:
            alphas, betas = est(z0, rng.random((16, 16)))
            total = T.add(T.add(alphas[0], alphas[1]), T.mul(betas[0], betas[1]))
            tape.backward(total, params)
        assert any(np.any(p.grad != 0) for p in params)
