"""Numpy implementations of the DNN kernels (forward and backward).

These are the golden-model counterparts of the hardware kernels in
Fig 5: nD-convolution, matrix multiply, accumulation, sampling,
activation functions and the element-wise products of the WG step.
Layout convention: feature volumes are ``(count, height, width)`` arrays
(single image; the trainer loops or vectorises over the batch axis).

Convolutions are computed via im2col so that forward, input-gradient and
weight-gradient all reduce to matrix multiplies — the same decomposition
the CompHeavy tile realises with its 2D-PE array.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.dnn.layers import Activation, PoolMode
from repro.errors import ShapeError


def _check_3d(x: np.ndarray, name: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{name} must be 3-D (count, h, w), got {x.shape}")


def pad_spatial(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial dimensions of a feature volume."""
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad)))


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (C,H,W) into columns of shape (C*k*k, out_h*out_w)."""
    _check_3d(x, "im2col input")
    c, h, w = x.shape
    xp = pad_spatial(x, pad)
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kernel} stride {stride} pad {pad} does not fit "
            f"{x.shape}"
        )
    windows = _conv_windows(xp, kernel, stride)
    return windows.reshape(c * kernel * kernel, out_h * out_w), out_h, out_w


def _conv_windows(xp: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Every kernel-window offset of the padded planes ``xp`` (C,Hp,Wp)
    as one stride-tricks view of shape (C, k, k, out_h, out_w).  The
    kernel must fit the padded planes."""
    c, hp, wp = xp.shape
    out_h = (hp - kernel) // stride + 1
    out_w = (wp - kernel) // stride + 1
    s0, s1, s2 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (c, kernel, kernel, out_h, out_w),
        (s0, s1, s2, s1 * stride, s2 * stride),
    )


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into a (C,H,W) volume, accumulating overlaps —
    the adjoint of :func:`im2col`."""
    c, h, w = x_shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols = cols.reshape(c, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        for kj in range(kernel):
            xp[
                :,
                ki : ki + out_h * stride : stride,
                kj : kj + out_w * stride : stride,
            ] += cols[:, ki, kj]
    if pad:
        return xp[:, pad:-pad, pad:-pad]
    return xp


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------
def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """2-D convolution.  ``weights`` is (out_c, in_c//groups, k, k)."""
    _check_3d(x, "conv input")
    out_c, in_cg, k, _ = weights.shape
    in_c = x.shape[0]
    if in_c % groups or out_c % groups or in_cg != in_c // groups:
        raise ShapeError(
            f"conv groups mismatch: x={x.shape}, w={weights.shape}, "
            f"groups={groups}"
        )
    out_per_group = out_c // groups
    outputs = []
    for g in range(groups):
        xg = x[g * in_cg : (g + 1) * in_cg]
        wg = weights[g * out_per_group : (g + 1) * out_per_group]
        cols, out_h, out_w = im2col(xg, k, stride, pad)
        res = wg.reshape(out_per_group, -1) @ cols
        outputs.append(res.reshape(out_per_group, out_h, out_w))
    out = np.concatenate(outputs, axis=0)
    return out + bias[:, None, None]


def conv2d_backward(
    x: np.ndarray,
    weights: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a 2-D convolution.

    Returns ``(grad_x, grad_w, grad_b)`` — the BP and WG steps of the
    paper's Fig 3 in one call.
    """
    out_c, in_cg, k, _ = weights.shape
    in_c = x.shape[0]
    out_per_group = out_c // groups
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(weights)
    for g in range(groups):
        xg = x[g * in_cg : (g + 1) * in_cg]
        wg = weights[g * out_per_group : (g + 1) * out_per_group]
        gg = grad_out[g * out_per_group : (g + 1) * out_per_group]
        cols, out_h, out_w = im2col(xg, k, stride, pad)
        gflat = gg.reshape(out_per_group, -1)
        grad_w[g * out_per_group : (g + 1) * out_per_group] = (
            gflat @ cols.T
        ).reshape(out_per_group, in_cg, k, k)
        gcols = wg.reshape(out_per_group, -1).T @ gflat
        grad_x[g * in_cg : (g + 1) * in_cg] = col2im(
            gcols, xg.shape, k, stride, pad
        )
    grad_b = grad_out.sum(axis=(1, 2))
    return grad_x, grad_w, grad_b


#: One step of a ragged conv block: (features or None, plane indices,
#: kernel slice) — see :class:`ConvBlockPlan`.
_RaggedStep = Tuple[Optional[np.ndarray], np.ndarray, slice]

#: A conv block's padded plane buffer, as the two views a call uses:
#: (interior, windows) — see :class:`ConvBlockPlan`.
_Unfold = Tuple[np.ndarray, np.ndarray]


class ConvBlockPlan(NamedTuple):
    """The static gather plan of one fused conv block and its scratch
    buffers, built once by :func:`conv_block_plan` and replayed by
    :func:`conv_block_forward`.

    ``planes`` holds the word address of every source plane the block
    reads.  In a *shared* block (``ragged is None``) step ``s`` reads
    plane ``planes[s]`` for every feature and ``kernels`` is the
    (steps, features) grid of kernel addresses.  In a *ragged* block
    ``planes`` holds each distinct plane once, ``kernels`` is flat in
    step order, and ``ragged`` lists per step ``(features, plane
    indices, kernel slice)``, with ``features`` None for step 0, which
    covers every feature in order.

    ``unfolds`` holds the padded plane buffers — one for a shared
    block, one per step for a ragged block, each sized for the planes
    it unfolds — as ``(interior, windows)`` views: the (planes, h, w)
    interior each call copies its gathered planes into, and the
    (planes, k, k, out_h, out_w) im2col window view over the whole
    buffer.  The zero border is never written.  A plan is therefore
    per-superop scratch: the engine builds one per fused conv block at
    decode, and two blocks must not share one.
    """

    kernel: int
    stride: int
    pad: int
    in_shape: Tuple[int, int]
    planes: np.ndarray
    kernels: np.ndarray
    ragged: Optional[Tuple[_RaggedStep, ...]]
    unfolds: Tuple[_Unfold, ...]

    @property
    def extent(self) -> Tuple[int, int]:
        """The half-open word range the block's gathers read."""
        h, w = self.in_shape
        return (
            int(min(self.planes.min(), self.kernels.min())),
            int(max(
                self.planes.max() + h * w,
                self.kernels.max() + self.kernel * self.kernel,
            )),
        )


def _unfold(
    n_planes: int, kernel: int, stride: int, pad: int, in_shape
) -> _Unfold:
    """A zeroed buffer of ``n_planes`` padded planes and its two views.

    The buffer is C-contiguous float32 of exactly the shape
    :func:`pad_spatial` returns for the gathered planes, so the window
    view has the strides :func:`im2col` gives one plane: its reshape
    to (C, k*k, out_h*out_w) stays a view where the windows tile as one
    (a kernel as wide as the padded plane), else copies.  Those strides
    decide whether ``matmul`` calls BLAS or its own loop, and the two
    round differently."""
    h, w = in_shape
    buf = np.zeros((n_planes, h + 2 * pad, w + 2 * pad), np.float32)
    return (
        buf[:, pad : pad + h, pad : pad + w],
        _conv_windows(buf, kernel, stride),
    )


def conv_block_plan(
    steps,
    kernel: int,
    stride: int,
    pad: int,
    in_shape: Tuple[int, int],
    n_features: int,
) -> ConvBlockPlan:
    """Build the gather plan of a fused conv block from its ``steps``.

    ``steps`` lists one entry per input-source *step* ``i`` — the
    ``i``-th source of every output feature that has at least ``i+1``
    sources — as ``(feature_indices, in_addrs, kernel_addrs)``.  Step 0
    must cover all ``n_features`` features in order (the code generator
    emits each feature's first source with ``is_accum=0``).

    A block is *shared* when every step covers every feature and all
    of them read one plane, as every plain or grouped convolution does;
    connection-table convolutions are *ragged*.  The plan owns the
    block's plane buffers (see :class:`ConvBlockPlan`).
    """
    h, w = in_shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kernel} stride {stride} pad {pad} does not fit "
            f"{in_shape}"
        )
    if not steps or tuple(steps[0][0]) != tuple(range(n_features)):
        raise ShapeError(
            f"conv block step 0 must cover features 0..{n_features - 1} "
            "in order"
        )
    if all(
        len(feats) == n_features and len(set(in_addrs)) == 1
        for feats, in_addrs, _ in steps
    ):
        return ConvBlockPlan(
            kernel, stride, pad, in_shape,
            np.array([in_addrs[0] for _, in_addrs, _ in steps], np.intp),
            np.array([k_addrs for _, _, k_addrs in steps], np.intp),
            None,
            (_unfold(len(steps), kernel, stride, pad, in_shape),),
        )
    distinct: Dict[int, int] = {}
    ragged = []
    lo = 0
    for i, (feats, in_addrs, _) in enumerate(steps):
        idx = [distinct.setdefault(a, len(distinct)) for a in in_addrs]
        ragged.append((
            None if i == 0 else np.array(feats, np.intp),
            np.array(idx, np.intp),
            slice(lo, lo + len(feats)),
        ))
        lo += len(feats)
    return ConvBlockPlan(
        kernel, stride, pad, in_shape,
        np.array(list(distinct), np.intp),
        np.array([a for _, _, k_addrs in steps for a in k_addrs], np.intp),
        tuple(ragged),
        tuple(
            _unfold(len(idx), kernel, stride, pad, in_shape)
            for _, idx, _ in ragged
        ),
    )


def _plane_cols(planes: np.ndarray, unfold: _Unfold) -> np.ndarray:
    """Copy the gathered planes (a row of ``h*w`` words each) into a
    plan buffer's interior and unfold each into its own im2col matrix:
    returns (C, k*k, out_h*out_w), a view of the buffer or a copy as
    :func:`_unfold` describes."""
    interior, windows = unfold
    interior[...] = planes.reshape(interior.shape)
    c, k, _, out_h, out_w = windows.shape
    return windows.reshape(c, k * k, out_h * out_w)


def _step_sum(contrib: np.ndarray) -> np.ndarray:
    """Sum the (S, F, N) products over their S steps, in step order, as
    the NDCONV ``is_accum`` chain does: one float32 add per step.

    With ``F*N > 1`` numpy's ``add.reduce`` over axis 0 of a
    C-contiguous stack adds one whole step at a time, in step order —
    the same additions as a Python loop over the steps, in one call.
    With ``F*N == 1`` it reduces along the step axis itself and sums
    pairwise with eight partial sums, which rounds differently, so
    that shape keeps the loop.  This is numpy's observed behaviour,
    not a documented one;
    ``tests/test_functional_ops.py::TestConvBlockKernel`` pins it with
    blocks of up to about 130 steps of both shapes."""
    if contrib[0].size > 1:
        return np.add.reduce(contrib, axis=0)
    acc = contrib[0]
    for part in contrib[1:]:
        acc += part
    return acc


def conv_block_forward(
    plane_rows: np.ndarray,
    kernel_rows: np.ndarray,
    plan: ConvBlockPlan,
    bias_block: np.ndarray,
    fn: Activation,
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole-layer fused convolution: every NDCONV/NDACCUM/NDACTFN of
    one conv program slice collapsed into a handful of numpy calls.

    ``plane_rows`` and ``kernel_rows`` are sliding-window views over the
    source scratchpad (``sliding_window_view(words, h * w)`` and
    ``sliding_window_view(words, k * k)``): row ``a`` is the plane or
    kernel stored at word ``a``, so one fancy index per call gathers
    every plane, and one every kernel, from the plan's addresses.  The
    gathered planes are copied into the plan's padded buffer, whose
    zero border and im2col window view were built with the plan: a
    shared block unfolds all its planes together, a ragged block each
    step's share of its planes.

    Every (feature, source) product stays a (1, k*k) @ (k*k, N)
    vector-matrix ``matmul`` on the strides the per-instruction NDCONV
    passes through :func:`conv2d_forward`, so numpy makes the same call
    for it: BLAS gemv, or its own loop for the shapes :func:`_unfold`
    notes.  A shared block broadcasts each step's plane across its
    features in one ``matmul`` instead of copying the plane per
    feature.  Folding the features into an (F, k*k) @ (k*k, N) GEMM
    would be faster still but is *not* bitwise identical to gemv.  The
    ``+ 0.0`` on each product reproduces the zero-bias add in
    :func:`conv2d_forward`, so signed zeros match too, and the steps
    accumulate in source order, as the NDCONV ``is_accum`` chain does
    (:func:`_step_sum`).

    Returns ``(pre, out)``: the pre-activation block (the values the
    per-instruction path leaves in the accumulation scratchpad) and the
    activated output block, both bitwise identical to per-instruction
    execution.
    """
    weights = kernel_rows[plan.kernels]
    if plan.ragged is None:
        # (S, F, 1, k*k) @ (S, 1, k*k, N): one gemv per (step, feature).
        cols = _plane_cols(plane_rows[plan.planes], plan.unfolds[0])
        contrib = np.matmul(weights[:, :, None, :], cols[:, None])[:, :, 0]
        contrib += np.float32(0.0)
        acc = _step_sum(contrib)
    else:
        planes = plane_rows[plan.planes]
        for (feats, idx, kernels), unfold in zip(plan.ragged, plan.unfolds):
            part = np.matmul(
                weights[kernels, None, :], _plane_cols(planes[idx], unfold)
            )[:, 0]
            part += np.float32(0.0)
            if feats is None:
                acc = part
            else:
                acc[feats] += part
    acc += bias_block.reshape(acc.shape)
    pre = acc.reshape(-1)
    return pre, activate(pre.copy(), fn)


def fc_block_forward(
    mat: np.ndarray,
    vec: np.ndarray,
    bias: np.ndarray,
    fn: Activation,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused MATMUL + bias NDACCUM + NDACTFN of one FC program slice.

    Returns ``(pre, out)`` — see :func:`conv_block_forward`; the same
    ``@`` / ``+=`` / :func:`activate` calls the per-instruction path
    makes, in the same order, so results are bitwise identical.
    """
    pre = mat @ vec
    pre += bias
    return pre, activate(pre.copy(), fn)


# ---------------------------------------------------------------------------
# Pooling (SAMP layers)
# ---------------------------------------------------------------------------
def pool_forward(
    x: np.ndarray,
    window: int,
    stride: int,
    pad: int = 0,
    mode: PoolMode = PoolMode.MAX,
) -> Tuple[np.ndarray, np.ndarray]:
    """Down-sampling.  Returns ``(out, argmax)``; ``argmax`` (flat window
    indices) is empty for average pooling."""
    _check_3d(x, "pool input")
    fill = -np.inf if mode is PoolMode.MAX else 0.0
    xp = (
        np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=fill)
        if pad
        else x
    )
    return pool_reduce(pool_windows(xp, window, stride), mode)


def pool_windows(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Every pooling window of the (already padded) planes ``x``
    (C,H,W) as one stride-tricks view of shape (C, out_h, out_w,
    window, window).  The view reads ``x``'s memory, so it can be built
    once over persistent words and reduced after every write to them.
    The window must fit the planes: ``1 <= window <= min(H, W)``."""
    c, h, w = x.shape
    out_h = (h - window) // stride + 1
    out_w = (w - window) // stride + 1
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (c, out_h, out_w, window, window),
        (s0, s1 * stride, s2 * stride, s1, s2),
    )


def pool_grid(windows: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The gather grid of a :func:`pool_windows` view: the channel, row
    and column index of each of its ``(C, out_h, out_w)`` windows, as
    three arrays that broadcast to that shape.  It depends only on the
    view's shape, so a fixed view needs it built once."""
    c, out_h, out_w = windows.shape[:3]
    return (
        np.arange(c).reshape(c, 1, 1),
        np.arange(out_h).reshape(1, out_h, 1),
        np.arange(out_w).reshape(1, 1, out_w),
    )


def pool_reduce(
    windows: np.ndarray,
    mode: PoolMode,
    grid: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce a :func:`pool_windows` view to ``(out, argmax)`` as
    :func:`pool_forward` returns them: each window's value at its
    ``argmax`` (the first of tied values, its zero sign kept), or the
    mean.  A max reduce gathers through ``grid``, the view's
    :func:`pool_grid`, built here when not given.  The per-instruction
    NDSUBSAMP and the fused ``pool_run`` both reduce here."""
    c, out_h, out_w, window, _ = windows.shape
    flat = windows.reshape(c, out_h, out_w, window * window)
    if mode is PoolMode.MAX:
        arg = flat.argmax(axis=3)
        channel, row, col = pool_grid(windows) if grid is None else grid
        return flat[channel, row, col, arg], arg
    return flat.mean(axis=3), np.empty(0, dtype=np.int64)


def pool_backward(
    grad_out: np.ndarray,
    x_shape: Tuple[int, int, int],
    window: int,
    stride: int,
    pad: int,
    mode: PoolMode,
    argmax: np.ndarray,
) -> np.ndarray:
    """Error up-sampling (the paper's BP step for SAMP layers)."""
    c, h, w = x_shape
    out_h, out_w = grad_out.shape[1:]
    gxp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    for i in range(out_h):
        for j in range(out_w):
            hi, wj = i * stride, j * stride
            if mode is PoolMode.MAX:
                idx = argmax[:, i, j]
                di, dj = idx // window, idx % window
                gxp[np.arange(c), hi + di, wj + dj] += grad_out[:, i, j]
            else:
                gxp[:, hi : hi + window, wj : wj + window] += (
                    grad_out[:, i, j][:, None, None] / (window * window)
                )
    if pad:
        return gxp[:, pad:-pad, pad:-pad]
    return gxp


def global_pool_forward(x: np.ndarray) -> np.ndarray:
    """Global average pooling to (C, 1, 1)."""
    _check_3d(x, "global pool input")
    return x.mean(axis=(1, 2), keepdims=True)


def global_pool_backward(
    grad_out: np.ndarray, x_shape: Tuple[int, int, int]
) -> np.ndarray:
    c, h, w = x_shape
    return np.broadcast_to(grad_out / (h * w), x_shape).copy()


# ---------------------------------------------------------------------------
# Fully connected
# ---------------------------------------------------------------------------
def fc_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Vector-matrix multiply: ``weights`` is (out, in); ``x`` flattens."""
    return weights @ x.reshape(-1) + bias


def fc_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the FC layer.  The weight gradient is the outer
    product of the BP error and FP input — the paper's VECMUL kernel."""
    flat = x.reshape(-1)
    grad_w = np.outer(grad_out, flat)
    grad_x = (weights.T @ grad_out).reshape(x.shape)
    return grad_x, grad_w, grad_out.copy()


# ---------------------------------------------------------------------------
# Activation functions (MemHeavy SFU repertoire: ReLU, tanh, sigmoid)
# ---------------------------------------------------------------------------
def activate(x: np.ndarray, fn: Activation) -> np.ndarray:
    if fn is Activation.NONE:
        return x
    if fn is Activation.RELU:
        return np.maximum(x, 0.0)
    if fn is Activation.TANH:
        return np.tanh(x)
    if fn is Activation.SIGMOID:
        return 1.0 / (1.0 + np.exp(-x))
    if fn is Activation.SOFTMAX:
        flat = x.reshape(-1)
        e = np.exp(flat - flat.max())
        return (e / e.sum()).reshape(x.shape)
    raise ShapeError(f"unsupported activation {fn}")


def activate_backward(
    grad_out: np.ndarray, activated: np.ndarray, fn: Activation
) -> np.ndarray:
    """Chain the activation derivative using the *activated* output."""
    if fn is Activation.NONE:
        return grad_out
    if fn is Activation.RELU:
        return grad_out * (activated > 0)
    if fn is Activation.TANH:
        return grad_out * (1.0 - activated**2)
    if fn is Activation.SIGMOID:
        return grad_out * activated * (1.0 - activated)
    if fn is Activation.SOFTMAX:
        # Softmax + cross-entropy is fused in the loss; the pass-through
        # here expects the loss to have produced (p - y) already.
        return grad_out
    raise ShapeError(f"unsupported activation {fn}")


def check_label(target: int, classes: int) -> None:
    """Raise :class:`~repro.errors.ShapeError` unless ``target`` is a
    class index in ``[0, classes)``."""
    if not 0 <= target < classes:
        raise ShapeError(
            f"label {target} outside the {classes} classes [0, {classes})"
        )


def softmax_cross_entropy(
    logits_softmaxed: np.ndarray, target: int
) -> Tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. the pre-softmax logits, given softmax
    outputs and a golden class index."""
    p = logits_softmaxed.reshape(-1)
    check_label(target, p.size)
    loss = -float(np.log(max(p[target], 1e-12)))
    grad = p.copy()
    grad[target] -= 1.0
    return loss, grad.reshape(logits_softmaxed.shape)
