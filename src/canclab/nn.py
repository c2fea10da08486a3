"""Minimal deterministic neural-network engine.

Two independently seeded networks drive the co-teaching loops, so this
module is built around three hard guarantees rather than generality:

* bitwise determinism: identical spec + seed -> identical parameters,
  identical batches -> identical updates, across runs;
* per-sample losses (no batch reduction) so samples can be ranked;
* exact analytic gradients of the mean 2-logit softmax cross-entropy,
  tight enough to pass central finite differences in double precision.

Supported layers: valid (unpadded) strided 2D convolution, dense, and
leaky ReLU. No layer names its input width: layer_plan derives every
layer's input shape and weight shape from the spec's input side and
channel count. Data layout is channels-last: (B, H, W, C). Everything is
float64; an input of another precision, such as the float32 masks a
dataset holds, is widened as the network reads it, one chunk at a time.

Entry points: forward(net, x) runs one checked forward over a batch x
of shape (B,H,W,C) in [0,1] and returns (logits, chunks): the (B, 2)
logits and each chunk's caches. per_sample_loss(logits, y) ranks the batch
by those logits against B labels in {0,1}. sgd_step(net, y, fwd, lr, rows)
updates net on the mean cross-entropy over the chosen rows of its own
forward fwd, and loss_and_gradients(net, y, fwd, rows) exposes that loss
and its gradients; rows defaults to the whole batch. Unchosen rows enter
the backward with a zero gradient, so a step runs no forward of its own,
whatever the choice. predict(net, x) labels any number of rows, and with
twin=True also gives swap_logits(net)'s labels from the same logits, by
twin_labels. Training never calls predict.

One chunk rule serves forward and predict: the batch is cut into fixed
chunks of _CHUNK = 128 rows, each widened to float64 and forwarded on its
own, so the im2col and dW copies of a forward or a step are one chunk's
whatever B is. A default-network forward + sgd_step on float32 input
peaks under tracemalloc at 17.9 MiB for B=512 and 48.8 MiB for B=2048
(40.3 and 161.3 MiB as one forward); what still grows with B is the
caches the step holds. A step backprops each chunk's slice of the whole batch's
logit gradient through that chunk's caches and adds the gradients up in
chunk order. A batch of at most 128 rows is one chunk. The chunk size is a
declared numerics choice: a larger batch sums its dW and db over chunks,
and OpenBLAS switches to a small-matrix kernel when M*N*K <= 10^6, so a
chunk of a few tail rows can round its logits in the last bits unlike the
same rows inside a larger chunk. A forward stops at the first chunk with a
non-finite activation, so the NumericError of a batch of several chunks
names that chunk's first bad layer, which need not be the first bad layer
over the whole batch. Backprop stops at the first parametric layer's
weights: no gradient with respect to the network input is formed.

A conv layer's forward gathers its im2col matrix with one np.take over a
cached table of tap offsets (_taps). That matrix is, value for value and
in the same C-contiguous layout, the one np.tensordot over the windows
view builds by a strided reshape copy, and it meets the same weight matrix
in the same np.dot, so the result is bitwise tensordot's; the gather is
only faster. The cache keeps the windows view for the backward's dW
tensordot. The conv bias is tiled over each sample's whole output and
added full-width, which gives every sum that broadcasting it over the
innermost axis of O elements gives.

Every elementwise pass is branch-free: np.where on activation signs
branches on each element, and its speed depends on the sign pattern of the
data. Leaky ReLU with slope a, which layer_plan holds to [0, 1], is
np.maximum(x, a * x): for x > 0, a * x <= x, and otherwise a * x >= x,
signed zeros included, so it equals np.where(x > 0, x, a * x) bit for bit.
Its cache holds that activation, not the pre-activation, which is freed:
the activation is > 0 exactly where the pre-activation is. The backward
multiplies by (activation > 0) * (1 - a) + a, which is exactly 1.0 or
exactly a, because fl(1 - a) + a rounds back to 1 for every a in [0, 1];
d * 1.0 is d, so this is np.where(pre > 0, d, a * d) bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import math
import re
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError

# Rows per chunk of every forward and backward (see the module docstring).
# Fixed, so reruns are bitwise identical. A default-network predict chunk
# peaks near 6.0 MiB under tracemalloc (7.0 MiB from float32 input), 5 MB
# of it conv1's im2col matrix. A training step adds to one chunk's working
# set the caches it holds for the step, 20.6 KiB a row on float32 input.
_CHUNK = 128


def _fix_malloc_thresholds():
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    By default glibc maps every block above an mmap threshold afresh and
    raises that threshold to the largest mapped block freed so far. After
    the streamed dataset build it can sit below the im2col and dW
    temporaries (2.5 MB at B=64, and at most 5 MB, a full 128-row chunk's,
    at any B), which are then mapped and page-faulted anew on every
    forward. Setting either threshold switches the adaptation off and
    leaves the other at its 128 KiB default, so both are set. A C library
    without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_fix_malloc_thresholds()


# ---------------------------------------------------------------------------
# layer descriptors and the network spec


@dataclass(frozen=True)
class Conv:
    """Valid 2D convolution: `channels` output maps, square kernel, stride."""

    channels: int
    kernel_size: int
    stride: int = 1


@dataclass(frozen=True)
class Dense:
    """Fully connected layer with out_dim outputs; its input width is
    whatever the layers before it flatten to (layer_plan)."""

    out_dim: int


@dataclass(frozen=True)
class LeakyRelu:
    """max(x, slope * x), with slope in [0, 1] (layer_plan checks it)."""

    slope: float = 0.1


LayerDesc = Conv | Dense | LeakyRelu


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture + seed. Fully determines the parameters."""

    input_size: int
    channels: int
    layers: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        layer_plan(self)  # validates dimensions eagerly


_LAYER_KINDS = {"conv": (Conv, int), "dense": (Dense, int), "lrelu": (LeakyRelu, float)}
_LAYER_RE = re.compile(rf"^({'|'.join(_LAYER_KINDS)})\(([^()]*)\)$")


def parse_layers(text: str) -> tuple:
    """Parse the layer grammar: ``conv(C,K,S) lrelu(a) dense(OUT)``.

    Tokens are whitespace-separated; conv stride defaults to 1 and the
    lrelu slope, which must lie in [0, 1], to 0.1. A dense layer names only
    its output width. Too many or too few arguments are a ConfigError.
    """
    layers = []
    for token in text.split():
        m = _LAYER_RE.match(token)
        if m is None:
            raise ConfigError(f"cannot parse network layer {token!r}")
        kind, cast = _LAYER_KINDS[m.group(1)]
        args = [a.strip() for a in m.group(2).split(",") if a.strip()]
        try:
            layers.append(kind(*map(cast, args)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad arguments in network layer {token!r}") from exc
    if not layers:
        raise ConfigError("network description is empty")
    return tuple(layers)


def layer_plan(spec: NetworkSpec):
    """Walk the layer list from the (input_size, input_size, channels)
    input, the one place every width and weight shape is derived.

    Returns a list of (layer, in_shape, weight_shape) entries: in_shape is
    (H, W, C) for spatial tensors or (D,) once flattened; weight_shape is
    (k, k, C, O) for a conv, (prod(in_shape), O) for a dense layer and
    None for lrelu. Raises ConfigError on any inconsistency, including a
    final output != 2 and an lrelu slope outside [0, 1].
    """
    if spec.input_size < 1 or spec.channels < 1:
        raise ConfigError("input_size and channels must be >= 1")
    shape = (spec.input_size, spec.input_size, spec.channels)
    plan = []
    for i, layer in enumerate(spec.layers):
        wshape = None
        if isinstance(layer, Conv):
            if len(shape) != 3:
                raise ConfigError(f"layer {i}: conv after flatten is not supported")
            h, w, c = shape
            k, s = layer.kernel_size, layer.stride
            if k < 1 or s < 1 or layer.channels < 1:
                raise ConfigError(f"layer {i}: conv parameters must be positive")
            if h < k or w < k:
                raise ConfigError(f"layer {i}: kernel {k} larger than input {h}x{w}")
            wshape = (k, k, c, layer.channels)
            out = ((h - k) // s + 1, (w - k) // s + 1, layer.channels)
        elif isinstance(layer, Dense):
            if layer.out_dim < 1:
                raise ConfigError(f"layer {i}: dense out_dim must be >= 1")
            wshape = (math.prod(shape), layer.out_dim)
            out = (layer.out_dim,)
        elif isinstance(layer, LeakyRelu):
            # the branch-free forms are exact only in [0, 1]; -0.0 is out, as
            # its backward factor would come out +0.0
            if not (0.0 <= layer.slope <= 1.0 and math.copysign(1.0, layer.slope) > 0):
                raise ConfigError(f"layer {i}: lrelu slope must be in [0, 1], got {layer.slope}")
            out = shape
        else:
            raise ConfigError(f"layer {i}: unknown layer type {type(layer).__name__}")
        plan.append((layer, shape, wshape))
        shape = out
    if shape != (2,):
        raise ConfigError(f"network must end in exactly 2 logits, got shape {shape}")
    return plan


# ---------------------------------------------------------------------------
# network value


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable parameter snapshot; updates produce new Network values."""

    spec: NetworkSpec
    params: tuple  # one (W, b) pair per parametric layer, in layer order


def init_network(spec: NetworkSpec) -> Network:
    """Draw parameters deterministically from spec.seed, He-uniform, in
    layer order: weights of each shape layer_plan gives ~ U(-l, +l) with
    l = sqrt(6 / fan_in), fan_in the product of all but the last weight
    axis; biases 0."""
    rng = np.random.default_rng(spec.seed)
    params = []
    for _, _, wshape in layer_plan(spec):
        if wshape is not None:
            limit = math.sqrt(6.0 / math.prod(wshape[:-1]))
            params.append((rng.uniform(-limit, limit, size=wshape), np.zeros(wshape[-1])))
    return Network(spec=spec, params=tuple(params))


# ---------------------------------------------------------------------------
# forward / backward


def _check_input(net: Network, x) -> np.ndarray:
    """x as an array (B,H,W,C) with B >= 1 matching net's input, at its
    own precision; raises ValueError otherwise."""
    x = np.asarray(x)
    expect = (net.spec.input_size, net.spec.input_size, net.spec.channels)
    if x.ndim != 4 or x.shape[1:] != expect:
        raise ValueError(f"input shape {x.shape} does not match spec input {expect}")
    if len(x) < 1:
        raise ValueError("batch must contain at least one sample")
    return x


@functools.lru_cache(maxsize=64)
def _taps(in_shape: tuple, k: int, s: int) -> np.ndarray:
    """Flat offset, within one sample of shape in_shape = (H, W, C), of
    every tap of every k x k stride-s window, in the (H', W', C, k, k)
    order of the windows view, which is the order tensordot's reshape
    copy of that view lays out."""
    flat = np.arange(math.prod(in_shape)).reshape((1,) + in_shape)
    taps = sliding_window_view(flat, (k, k), axis=(1, 2))[:, ::s, ::s].ravel()
    taps.flags.writeable = False
    return taps


def _forward(net: Network, x: np.ndarray):
    """Run the network, keeping per-layer caches for backprop.

    Returns (logits, caches). Cache entries hold whatever the matching
    backward step needs. Raises NumericError naming the first layer that
    produced a non-finite activation.
    """
    caches = []
    out = x
    p = 0
    # an overflow surfaces below as the NumericError, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(net.spec.layers):
            if isinstance(layer, Conv):
                w, b = net.params[p]
                p += 1
                k, s = layer.kernel_size, layer.stride
                windows = sliding_window_view(out, (k, k), axis=(1, 2))[:, ::s, ::s]  # (B,H',W',C,k,k)
                caches.append(("conv", windows, layer, out.shape))
                cols = np.take(out.reshape(len(out), -1), _taps(out.shape[1:], k, s), axis=1)
                out = np.dot(cols.reshape(-1, w.shape[2] * k * k),
                             w.transpose(2, 0, 1, 3).reshape(-1, layer.channels))
                # free cols, then add b into a fresh array, in tensordot's order:
                # adding in place left another heap layout and 3 MB more peak RSS
                del cols
                hp, wp = windows.shape[1:3]
                out = (out.reshape(len(windows), -1) + np.tile(b, hp * wp)).reshape(
                    windows.shape[:3] + (layer.channels,))
            elif isinstance(layer, Dense):
                w, b = net.params[p]
                p += 1
                pre_shape = out.shape
                flat = out.reshape(out.shape[0], -1)
                caches.append(("dense", flat, pre_shape))
                out = flat @ w + b
            else:  # LeakyRelu
                post = layer.slope * out  # never write into out: it may be the caller's x
                out = np.maximum(out, post, out=post)
                caches.append(("lrelu", out, layer))
            if not np.all(np.isfinite(out)):
                raise NumericError(f"non-finite activations after layer {i}", layer=i)
    return out, caches


def _backward(net: Network, caches, dlogits: np.ndarray):
    """Push dlogits back through the caches; returns grads aligned with
    net.params (list of (dW, db)). Stops at the first parametric layer:
    nothing reads the gradient with respect to the network input."""
    grads = [None] * len(net.params)
    d = dlogits
    p = len(net.params)
    for cache in reversed(caches):
        kind = cache[0]
        if kind == "dense":
            _, flat, pre_shape = cache
            p -= 1
            w, _ = net.params[p]
            grads[p] = (flat.T @ d, d.sum(axis=0))
            if p == 0:
                break
            d = (d @ w.T).reshape(pre_shape)
        elif kind == "conv":
            _, windows, layer, in_shape = cache
            p -= 1
            w, _ = net.params[p]
            k, s = layer.kernel_size, layer.stride
            # dW: contract batch and spatial output dims
            dw = np.tensordot(windows, d, axes=([0, 1, 2], [0, 1, 2]))  # (C,k,k,O)
            dw = dw.transpose(1, 2, 0, 3)
            db = d.sum(axis=(0, 1, 2))
            grads[p] = (dw, db)
            if p == 0:
                break
            n, hp, wp, o = d.shape
            dflat = d.reshape(-1, o)
            # each offset's product is the GEMM tensordot(d, w[u, v],
            # axes=([3], [1])) runs, on the same operands
            wt = np.ascontiguousarray(w.transpose(0, 1, 3, 2))  # (k,k,O,C)
            dx = np.zeros(in_shape)
            for u in range(k):
                for v in range(k):
                    dx[:, u : u + s * hp : s, v : v + s * wp : s, :] += (dflat @ wt[u, v]).reshape(
                        n, hp, wp, -1
                    )
            d = dx
        else:  # lrelu
            _, post, layer = cache
            d = d * ((post > 0) * (1.0 - layer.slope) + layer.slope)
    return grads


def _chunk_forwards(net: Network, x):
    """(logits, caches) of each fixed _CHUNK-row chunk of the batch x, in
    row order, after checking x: the one chunk loop of forward and predict.
    Each chunk is widened to float64 only as it is forwarded."""
    x = _check_input(net, x)
    for start in range(0, len(x), _CHUNK):
        yield _forward(net, x[start : start + _CHUNK].astype(np.float64, copy=False))


def forward(net: Network, x):
    """(logits, chunks) of net on the batch x, checked: the (B, 2) logits
    and each chunk's caches in row order. This is the forward that
    per_sample_loss ranks by and that sgd_step backprops."""
    logits, chunks = zip(*_chunk_forwards(net, x))
    return np.concatenate(logits), list(chunks)


def per_sample_loss(logits: np.ndarray, y) -> np.ndarray:
    """Stable 2-logit softmax cross-entropy of each row of logits against
    its label, length B. No reduction: the co-teaching selection ranks
    these directly.

    loss_i = softplus(z_wrong - z_true); exactly ln 2 at equal logits.
    Raises ValueError unless y holds one label per row.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (len(logits),):
        raise ValueError(f"labels must have length B={len(logits)}, got shape {y.shape}")
    z_true = logits[np.arange(len(y)), y]
    z_wrong = logits[np.arange(len(y)), 1 - y]
    t = z_wrong - z_true
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def twin_labels(logits: np.ndarray) -> np.ndarray:
    """(2, B) labels of (B, 2) logits: each row's argmax, then that of its
    reversed columns, swap_logits' label. Ties go to label 0 in both."""
    return np.stack([np.argmax(logits, axis=1), np.argmax(logits[:, ::-1], axis=1)])


def predict(net: Network, x, twin: bool = False) -> np.ndarray:
    """Argmax label per sample of a raw (B,H,W,C) array; ties resolve to
    label 0. No labels needed, unlike the loss entry points. It forwards
    the chunks forward does, but keeps no chunk's caches past its labels,
    so memory stays bounded whatever B is and reruns are bitwise identical;
    a float32 x is never held widened.

    With twin, a (2, B) array: twin_labels of the same logits. The twin's
    forward differs only in the last dense layer's two output columns, so
    its logits are these reversed and its labels the same."""
    # itemgetter frees each chunk's caches before the next chunk's forward
    labels = [twin_labels(logits) for logits in map(itemgetter(0), _chunk_forwards(net, x))]
    out = np.concatenate(labels, axis=1)
    return out if twin else out[0]


def loss_and_gradients(net: Network, y, fwd, rows=None):
    """Mean cross-entropy over the chosen rows of fwd = forward(net, x)
    against the labels y, plus its exact gradients w.r.t. every parameter.

    rows indexes the chosen rows, each at most once; None chooses all B.
    The other rows enter the backward with a zero gradient. A row outside
    [0, B) is a ValueError. The logit gradient is formed once over the
    whole batch; each chunk backprops its slice of it, and the chunks'
    gradients are summed in chunk order. fwd is left as it is, so it can
    be stepped on again.

    A network whose chunks two processes share (training.train) steps on
    fwd = (logits, chunks, gather) instead: the whole batch's logits, the
    caches of the chunks forwarded here with None for each of the other's,
    and gather, which takes the gradients of the chunks backpropped here
    (None for the other's) and returns every chunk's, so that both
    processes fold the same sum.
    """
    logits, chunks, *gather = fwd
    losses = per_sample_loss(logits, y)
    b, y = len(logits), np.asarray(y, dtype=np.int64)
    if rows is None:
        chosen = np.ones(b, dtype=bool)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and not 0 <= rows.min() <= rows.max() < b:
            raise ValueError(f"chosen rows must lie in [0, {b})")
        chosen = np.zeros(b, dtype=bool)
        chosen[rows] = True
    if not chosen.any():
        raise ValueError("a step needs at least one chosen row")
    expz = np.exp(logits - logits.max(axis=1, keepdims=True))
    dlogits = expz / expz.sum(axis=1, keepdims=True)
    dlogits[np.arange(b), y] -= 1.0
    dlogits[~chosen] = 0.0
    losses = losses[chosen]
    dlogits /= len(losses)
    parts, start = [], 0
    for caches in chunks:
        # each cache entry's array leads with the chunk's rows; a chunk
        # forwarded elsewhere that precedes one forwarded here is full
        n = _CHUNK if caches is None else len(caches[0][1])
        parts.append(None if caches is None else _backward(net, caches, dlogits[start : start + n]))
        start += n
    if gather:
        parts = gather[0](parts)
    grads = parts[0]
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces below as the NumericError
        for part in parts[1:]:
            grads = [(dw + pw, db + pb) for (dw, db), (pw, pb) in zip(grads, part)]
    for i, (dw, db) in enumerate(grads):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise NumericError(f"non-finite gradient in parametric layer {i}", layer=i)
    return float(losses.mean()), grads


def sgd_step(net: Network, y, fwd, lr: float, rows=None) -> Network:
    """One plain gradient step on loss_and_gradients(net, y, fwd, rows)."""
    if lr < 0:
        raise ConfigError("learning rate must be >= 0")
    _, grads = loss_and_gradients(net, y, fwd, rows)
    new_params = tuple(
        (w - lr * dw, b - lr * db) for (w, b), (dw, db) in zip(net.params, grads)
    )
    return replace(net, params=new_params)


def swap_logits(net: Network) -> Network:
    """The same network with its two output logits swapped, so it predicts
    1 - label wherever net's logits are not tied (ties go to label 0 in
    both). layer_plan guarantees the last parametric layer is the dense
    layer that produces the two logits; only its output columns move, and
    net is left as it is."""
    w, b = net.params[-1]
    return replace(net, params=net.params[:-1] + ((w[:, ::-1].copy(), b[::-1].copy()),))
