"""Tests for the numpy kernels, including numeric-gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dnn.layers import Activation, PoolMode
from repro.errors import ShapeError
from repro.functional import tensor_ops as ops


def brute_conv(x, w, b, stride, pad, groups=1):
    """O(n^4) reference convolution for cross-checking im2col."""
    out_c, in_cg, k, _ = w.shape
    in_c = x.shape[0]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h, wdt = xp.shape[1:]
    out_h = (h - k) // stride + 1
    out_w = (wdt - k) // stride + 1
    out = np.zeros((out_c, out_h, out_w), dtype=np.float64)
    out_per_group = out_c // groups
    for f in range(out_c):
        g = f // out_per_group
        for i in range(out_h):
            for j in range(out_w):
                patch = xp[
                    g * in_cg : (g + 1) * in_cg,
                    i * stride : i * stride + k,
                    j * stride : j * stride + k,
                ]
                out[f, i, j] = (patch * w[f]).sum() + b[f]
    return out


class TestConvForward:
    @pytest.mark.parametrize(
        "in_c,out_c,size,k,stride,pad,groups",
        [
            (3, 4, 8, 3, 1, 1, 1),
            (2, 6, 9, 3, 2, 0, 1),
            (4, 4, 7, 5, 1, 2, 2),
            (1, 1, 5, 5, 1, 0, 1),
        ],
    )
    def test_matches_brute_force(self, in_c, out_c, size, k, stride, pad,
                                 groups):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (in_c, size, size)).astype(np.float32)
        w = rng.normal(0, 1, (out_c, in_c // groups, k, k)).astype(np.float32)
        b = rng.normal(0, 1, out_c).astype(np.float32)
        got = ops.conv2d_forward(x, w, b, stride, pad, groups)
        want = brute_conv(x, w, b, stride, pad, groups)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_group_mismatch(self):
        x = np.zeros((3, 4, 4), np.float32)
        w = np.zeros((4, 2, 3, 3), np.float32)
        with pytest.raises(ShapeError):
            ops.conv2d_forward(x, w, np.zeros(4, np.float32), groups=2)

    def test_requires_3d(self):
        with pytest.raises(ShapeError):
            ops.conv2d_forward(
                np.zeros((4, 4), np.float32),
                np.zeros((1, 1, 3, 3), np.float32),
                np.zeros(1, np.float32),
            )


class TestConvBackward:
    def test_numeric_gradients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (2, 6, 6)).astype(np.float64)
        w = rng.normal(0, 1, (3, 2, 3, 3)).astype(np.float64)
        b = np.zeros(3)
        grad_out = rng.normal(0, 1, (3, 6, 6)).astype(np.float64)

        gx, gw, gb = ops.conv2d_backward(x, w, grad_out, 1, 1)
        eps = 1e-6

        def loss(xv, wv):
            return (ops.conv2d_forward(xv, wv, b, 1, 1) * grad_out).sum()

        for idx in [(0, 2, 3), (1, 5, 5)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            num = (loss(xp, w) - loss(xm, w)) / (2 * eps)
            assert num == pytest.approx(gx[idx], rel=1e-4, abs=1e-6)
        for idx in [(0, 0, 1, 1), (2, 1, 0, 2)]:
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            num = (loss(x, wp) - loss(x, wm)) / (2 * eps)
            assert num == pytest.approx(gw[idx], rel=1e-4, abs=1e-6)
        np.testing.assert_allclose(gb, grad_out.sum(axis=(1, 2)))

    def test_grouped_gradients_shapes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (4, 5, 5))
        w = rng.normal(0, 1, (6, 2, 3, 3))
        grad = rng.normal(0, 1, (6, 5, 5))
        gx, gw, gb = ops.conv2d_backward(x, w, grad, 1, 1, groups=2)
        assert gx.shape == x.shape
        assert gw.shape == w.shape
        assert gb.shape == (6,)


class TestIm2Col:
    @settings(max_examples=50, deadline=None)
    @given(
        c=st.integers(1, 4),
        size=st.integers(3, 10),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
    )
    def test_col2im_is_adjoint(self, c, size, k, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> — the defining property the
        conv backward pass relies on."""
        if size + 2 * pad < k:
            return
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, (c, size, size))
        cols, out_h, out_w = ops.im2col(x, k, stride, pad)
        y = rng.normal(0, 1, cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * ops.col2im(y, x.shape, k, stride, pad)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-9)


def _conv_block_reference(words, sources, k, stride, pad, shape, bias, fn):
    """Per-instruction execution of one conv block: a ``conv2d_forward``
    per (feature, source) NDCONV, accumulated in place, then the bias
    NDACCUM and the block's NDACTFN."""
    h, w = shape
    zero_bias = np.zeros(1, np.float32)
    acc = []
    for f, srcs in enumerate(sources):
        for s, (plane, kern) in enumerate(srcs):
            out = ops.conv2d_forward(
                words[plane : plane + h * w].reshape(1, h, w),
                words[kern : kern + k * k].reshape(1, 1, k, k),
                zero_bias, stride, pad,
            ).reshape(-1)
            if s == 0:
                acc.append(out.astype(np.float32))
            else:
                acc[f] += out
        acc[f] += bias[f]
    pre = np.concatenate(acc)
    return pre, ops.activate(pre.copy(), fn)


def _conv_block_steps(sources):
    """The fuse pass's step grouping: step ``s`` holds the ``s``-th
    source of every feature that has one, in feature order."""
    steps = []
    for s in range(max(len(srcs) for srcs in sources)):
        feats = tuple(f for f, srcs in enumerate(sources) if len(srcs) > s)
        steps.append((
            feats,
            tuple(sources[f][s][0] for f in feats),
            tuple(sources[f][s][1] for f in feats),
        ))
    return steps


class TestConvBlockKernel:
    """The fused conv-block kernel against per-instruction execution,
    compared byte for byte (signed zeros included)."""

    @settings(max_examples=120, deadline=None)
    @given(
        k=st.sampled_from([1, 3, 5]),
        stride=st.sampled_from([1, 2]),
        data=st.data(),
        n_features=st.integers(1, 5),
        ragged=st.booleans(),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
        fn=st.sampled_from(
            [Activation.RELU, Activation.NONE, Activation.TANH]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_instruction_bytes(
        self, k, stride, data, n_features, ragged, zero_frac, fn, seed
    ):
        # "one-output": a 1x1 output plane, so a one-feature block sums
        # single products (F*N == 1).  "full-width": a kernel as wide as
        # the padded plane, whose unfold stays a view of the buffer.
        layout = data.draw(
            st.sampled_from(["any", "one-output", "full-width"]),
            label="layout",
        )
        if layout == "one-output":
            pad, h, w = 0, k, k
        elif layout == "full-width":
            pad = data.draw(st.integers(0, (k - 1) // 2), label="pad")
            h = data.draw(st.integers(max(1, k - 2 * pad), k + 5), label="h")
            w = k - 2 * pad
        else:
            pad = data.draw(st.integers(0, k - 1), label="pad")
            lo = max(1, k - 2 * pad)  # the smallest plane: a 1-wide output
            h = data.draw(st.integers(lo, lo + 5), label="h")
            w = data.draw(st.integers(lo, lo + 5), label="w")
        # Past 8 steps numpy's pairwise summation could differ from the
        # chain's order of additions.
        n_planes = data.draw(
            st.one_of(st.integers(1, 4), st.integers(9, 130)),
            label="planes",
        )
        rng = np.random.default_rng(seed)
        gap = int(rng.integers(0, 3))
        planes = [7 + i * (h * w + gap) for i in range(n_planes)]
        kern_base = planes[-1] + h * w + gap
        if ragged:
            # Connection-table style: each feature reads its own subset
            # of the planes, in its own order.
            chosen = [
                rng.permutation(n_planes)[: rng.integers(1, n_planes + 1)]
                for _ in range(n_features)
            ]
        else:
            chosen = [np.arange(n_planes)] * n_features
        sources, slot = [], 0
        for picks in chosen:
            srcs = []
            for p in picks:
                srcs.append((planes[p], kern_base + slot * k * k))
                slot += 1
            sources.append(srcs)

        def with_zeros(values):
            # Zeros of both signs, so a -0.0 product could surface.
            mask = rng.random(values.shape) < zero_frac
            values[mask] = np.copysign(0.0, rng.normal(0, 1, mask.sum()))
            return values.astype(np.float32)

        out_h = (h + 2 * pad - k) // stride + 1
        out_w = (w + 2 * pad - k) // stride + 1
        plan = ops.conv_block_plan(
            _conv_block_steps(sources), k, stride, pad, (h, w), n_features
        )
        shared = all(
            len(c) == len(chosen[0]) and (c == chosen[0]).all()
            for c in chosen
        )
        assert (plan.ragged is None) == shared
        windows = np.lib.stride_tricks.sliding_window_view
        # Two calls on one plan: the second must not see the first's
        # planes in the plan's buffers.
        for call in range(2):
            words = with_zeros(rng.normal(0, 1, kern_base + slot * k * k + 5))
            bias = with_zeros(rng.normal(0, 1, (n_features, out_h * out_w)))
            pre, out = ops.conv_block_forward(
                windows(words, h * w), windows(words, k * k), plan,
                bias.reshape(-1), fn,
            )
            want_pre, want_out = _conv_block_reference(
                words, sources, k, stride, pad, (h, w), bias, fn
            )
            assert pre.tobytes() == want_pre.tobytes(), call
            assert out.tobytes() == want_out.tobytes(), call

    def test_plan_extent_covers_every_gather(self):
        steps = [
            ((0, 1), (10, 10), (100, 109)),
            ((0, 1), (26, 26), (118, 127)),
        ]
        plan = ops.conv_block_plan(steps, 3, 1, 1, (4, 4), 2)
        assert plan.ragged is None
        assert plan.extent == (10, 136)

    def test_step_zero_must_cover_every_feature(self):
        with pytest.raises(ShapeError):
            ops.conv_block_plan(
                [((1,), (0,), (16,))], 1, 1, 0, (4, 4), 2
            )


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, arg = ops.pool_forward(x, 2, 2, 0, PoolMode.MAX)
        np.testing.assert_allclose(out[0], [[5, 7], [13, 15]])
        assert arg.shape == (1, 2, 2)

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, arg = ops.pool_forward(x, 2, 2, 0, PoolMode.AVG)
        np.testing.assert_allclose(out[0], [[2.5, 4.5], [10.5, 12.5]])
        assert arg.size == 0

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, arg = ops.pool_forward(x, 2, 2, 0, PoolMode.MAX)
        grad = np.ones_like(out)
        gx = ops.pool_backward(grad, x.shape, 2, 2, 0, PoolMode.MAX, arg)
        assert gx.sum() == 4
        assert gx[0, 1, 1] == 1  # element 5 was a max
        assert gx[0, 0, 0] == 0

    def test_avg_pool_backward_spreads(self):
        grad = np.ones((1, 2, 2))
        gx = ops.pool_backward(
            grad, (1, 4, 4), 2, 2, 0, PoolMode.AVG, np.empty(0)
        )
        np.testing.assert_allclose(gx, np.full((1, 4, 4), 0.25))

    def test_overlapping_max_pool_gradient_numeric(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (2, 5, 5))
        out, arg = ops.pool_forward(x, 3, 2, 0, PoolMode.MAX)
        grad = rng.normal(0, 1, out.shape)
        gx = ops.pool_backward(grad, x.shape, 3, 2, 0, PoolMode.MAX, arg)
        eps = 1e-6
        idx = (1, 2, 2)
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        lp = (ops.pool_forward(xp, 3, 2, 0, PoolMode.MAX)[0] * grad).sum()
        lm = (ops.pool_forward(xm, 3, 2, 0, PoolMode.MAX)[0] * grad).sum()
        assert (lp - lm) / (2 * eps) == pytest.approx(gx[idx], abs=1e-5)

    @settings(max_examples=150, deadline=None)
    @given(
        c=st.integers(1, 3),
        h=st.integers(1, 7),
        w=st.integers(1, 7),
        window=st.integers(1, 4),
        stride=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_max_gather_through_the_grid(self, c, h, w, window, stride, seed):
        """A max reduce through a prebuilt :func:`pool_grid` chooses the
        same words, bit for bit, as ``take_along_axis`` at the argmax:
        the first of tied values, a zero's sign, a NaN's payload."""
        window = min(window, h, w)
        rng = np.random.default_rng(seed)
        words = rng.choice(
            np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, -np.inf],
                     dtype=np.float32),
            size=c * h * w,
        )
        nan = words.view(np.uint32)
        nan[np.isnan(words)] |= rng.integers(1, 2**10, np.isnan(words).sum(),
                                             dtype=np.uint32)
        windows = ops.pool_windows(words.reshape(c, h, w), window, stride)
        flat = windows.reshape(*windows.shape[:3], window * window)
        arg = flat.argmax(axis=3)
        want = np.take_along_axis(flat, arg[..., None], axis=3)[..., 0]
        for grid in (ops.pool_grid(windows), None):
            out, got_arg = ops.pool_reduce(windows, PoolMode.MAX, grid)
            assert out.shape == want.shape
            assert out.tobytes() == want.tobytes()
            assert np.array_equal(got_arg, arg)

    def test_global_pool_roundtrip(self):
        x = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        out = ops.global_pool_forward(x)
        np.testing.assert_allclose(out.reshape(-1), [1.5, 5.5])
        gx = ops.global_pool_backward(np.ones((2, 1, 1)), x.shape)
        np.testing.assert_allclose(gx, np.full(x.shape, 0.25))


class TestFC:
    def test_forward(self):
        x = np.array([1.0, 2.0], np.float32).reshape(2, 1, 1)
        w = np.array([[1.0, 0.0], [0.0, 3.0], [1.0, 1.0]], np.float32)
        b = np.array([0.0, 1.0, 0.0], np.float32)
        out = ops.fc_forward(x, w, b)
        np.testing.assert_allclose(out, [1.0, 7.0, 3.0])

    def test_backward_is_outer_product(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (3, 2, 2))
        w = rng.normal(0, 1, (5, 12))
        g = rng.normal(0, 1, 5)
        gx, gw, gb = ops.fc_backward(x, w, g)
        np.testing.assert_allclose(gw, np.outer(g, x.reshape(-1)))
        np.testing.assert_allclose(gx.reshape(-1), w.T @ g)
        np.testing.assert_allclose(gb, g)


class TestActivations:
    @pytest.mark.parametrize(
        "fn", [Activation.RELU, Activation.TANH, Activation.SIGMOID]
    )
    def test_derivative_numeric(self, fn):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 32)
        x = x[np.abs(x) > 1e-3]  # avoid ReLU kink
        eps = 1e-6
        act = ops.activate(x, fn)
        grad = ops.activate_backward(np.ones_like(x), act, fn)
        num = (ops.activate(x + eps, fn) - ops.activate(x - eps, fn)) / (
            2 * eps
        )
        np.testing.assert_allclose(grad, num, atol=1e-5)

    def test_softmax_sums_to_one(self):
        out = ops.activate(np.array([1.0, 2.0, 3.0]), Activation.SOFTMAX)
        assert out.sum() == pytest.approx(1.0)
        assert out.argmax() == 2

    def test_softmax_stable_for_large_logits(self):
        out = ops.activate(np.array([1000.0, 1001.0]), Activation.SOFTMAX)
        assert np.isfinite(out).all()

    def test_none_passthrough(self):
        x = np.array([-1.0, 2.0])
        np.testing.assert_allclose(ops.activate(x, Activation.NONE), x)

    def test_cross_entropy_gradient(self):
        p = ops.activate(np.array([0.1, 0.5, 0.2]), Activation.SOFTMAX)
        loss, grad = ops.softmax_cross_entropy(p, 1)
        assert loss == pytest.approx(-np.log(p[1]))
        np.testing.assert_allclose(grad, p - np.eye(3)[1])
