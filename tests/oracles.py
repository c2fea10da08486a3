"""Reference implementations that the package no longer ships, kept as
independent oracles for the tests."""

import os
import struct
from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from canclab import (ConfigError, MaskDataset, NetworkSpec, build_mask_dataset, confusion,
                     forward, generate_scene, init_network, inject, make_transition,
                     parse_layers, predict, prf1, select_clean, sgd_step)
from canclab.data import _label_patches, _split_indices
from canclab.nn import Conv, Dense, _backward, _forward
from canclab.training import derive_train_seeds

CHUNK = 128  # rows per chunk of canclab.nn's forward and backward


def zeroed(net):
    """net with every weight and bias zero, so that every sample's two
    logits are equal."""
    return replace(net, params=tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in net.params))


def inverse_cdf_noise(labels, matrix, rng):
    """Draw each observed label from its true label's column of the
    column-stochastic matrix: the first row whose cumulative column sum
    exceeds one uniform draw, one draw per sample in array order.

    Written separately from canclab.noise.apply_noise, which compares one
    draw against T[0, y] and so holds for 2 x 2 matrices only; this one
    takes any number of classes.
    """
    y = np.asarray(labels, dtype=np.int64)
    cdf = np.cumsum(matrix, axis=0)
    u = rng.random(y.shape[0])
    return np.argmax(u[None, :] < cdf[:, y], axis=0).astype(np.int64)


def coteaching_teach(net, fwd, y, peer_losses, r, s, lr):
    """One network's half of a cross-teaching step without swapping: its
    step is the mean loss, over its own rank forward fwd, of the rows its
    peer's losses rank lowest.

    Written separately from canclab.training._teach, whose signature and
    result it shares so that it can stand in for it; s must be 0.
    """
    assert s == 0.0, "the co-teaching oracle has no swap step"
    clean = select_clean(peer_losses, r)
    return sgd_step(net, y, fwd, lr, clean), clean, np.empty(0, dtype=np.int64)


def network_metrics(net, ds):
    """The metrics of one network's predictions against the dataset's
    stored labels.

    Written separately from canclab.training.dataset_metrics, which scores
    a network and its swap_logits twin from one forward.
    """
    return prf1(confusion(ds.labels, predict(net, ds.patches)))


def vanilla_replay(train_ds, config):
    """The network after each epoch of a vanilla train() run: one network
    from the first init seed, one shuffle of the rows per epoch, and on each
    batch a plain step over all of its rows as labelled, with no ranking
    and no selection.

    Written separately from canclab.training's loop, which runs vanilla as
    a network that teaches itself at R = 1, S = 0.
    """
    shuffle_seed, init_seed, _ = derive_train_seeds(config.seed)
    rng = np.random.default_rng(shuffle_seed)
    net = init_network(NetworkSpec(train_ds.m, train_ds.channels, parse_layers(config.network),
                                   seed=init_seed))
    after = []
    for _ in range(config.t_max):
        perm = rng.permutation(len(train_ds))
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start : start + config.batch_size]
            x, y = train_ds.patches[idx], train_ds.labels[idx]
            net = sgd_step(net, y, forward(net, x), config.lr)
        after.append(net)
    return after


def gather_and_forward_step(net, x, y, clean, swap, lr):
    """The peer step as a second forward over the chosen rows only: gather
    the clean rows as labelled, then the swap rows with flipped labels, run
    a fresh forward over that smaller batch, and step on its mean
    cross-entropy. Over CHUNK rows, the forward and backward run chunk by
    chunk, as chunk_order_backward does.

    Written separately from canclab.nn.sgd_step, which backprops the
    ranking forward over the whole batch with the unchosen rows zeroed.
    """
    rows = np.concatenate([clean, swap])
    labels = np.concatenate([y[clean], 1 - y[swap]])

    def dlogits_of(logits):
        expz = np.exp(logits - logits.max(axis=1, keepdims=True))
        dlogits = expz / expz.sum(axis=1, keepdims=True)
        dlogits[np.arange(len(rows)), labels] -= 1.0
        return dlogits / len(rows)

    if len(rows) > CHUNK:
        chunks = chunk_forwards(net, x[rows])
        logits = np.concatenate([logits for logits, _ in chunks])
        grads = chunk_order_backward(net, chunks, dlogits_of(logits))
    else:
        logits, caches = _forward(net, x[rows])
        grads = _backward(net, caches, dlogits_of(logits))
    return replace(
        net, params=tuple((w - lr * dw, b - lr * db) for (w, b), (dw, db) in zip(net.params, grads))
    )


def chunk_forwards(net, x):
    """(logits, caches) of _forward over each CHUNK-row chunk of x, in row
    order."""
    return [_forward(net, x[start : start + CHUNK]) for start in range(0, len(x), CHUNK)]


def chunk_order_backward(net, chunks, dlogits):
    """The gradients of a batch forwarded as chunks = chunk_forwards(net,
    x): full_backward of each chunk's slice of the whole batch's dlogits,
    added up from the first chunk to the last.

    Written separately from canclab.nn.loss_and_gradients, which backprops
    with _backward and forms dlogits itself.
    """
    grads, start = None, 0
    for _, caches in chunks:
        n = len(caches[0][1])
        part = full_backward(net, caches, dlogits[start : start + n])
        start += n
        grads = part if grads is None else [(gw + pw, gb + pb)
                                            for (gw, gb), (pw, pb) in zip(grads, part)]
    return grads


def tensordot_forward(net, x):
    """The forward with each conv layer as one tensordot over the windows
    view, which copies the windows into its im2col matrix by a strided
    reshape.

    Written separately from canclab.nn._forward, whose signature, result
    and caches it shares; that one gathers the same matrix with np.take,
    adds the bias over whole rows and forms each leaky ReLU without
    np.where. Like it, each lrelu cache holds the activation it returns.
    """
    caches = []
    out = x
    p = 0
    for layer in net.spec.layers:
        if isinstance(layer, Conv):
            w, b = net.params[p]
            p += 1
            s = layer.stride
            windows = sliding_window_view(out, (layer.kernel_size, layer.kernel_size), axis=(1, 2))
            windows = windows[:, ::s, ::s]  # (B, H', W', C, k, k)
            caches.append(("conv", windows, layer, out.shape))
            out = np.tensordot(windows, w, axes=([3, 4, 5], [2, 0, 1])) + b
        elif isinstance(layer, Dense):
            w, b = net.params[p]
            p += 1
            pre_shape = out.shape
            flat = out.reshape(out.shape[0], -1)
            caches.append(("dense", flat, pre_shape))
            out = flat @ w + b
        else:  # LeakyRelu
            out = np.where(out > 0, out, layer.slope * out)
            caches.append(("lrelu", out, layer))
    return out, caches


def full_backward(net, caches, dlogits):
    """Backprop through every cached layer, the network input included.

    Written separately from canclab.nn._backward, whose signature and
    result it shares; unlike it, this one forms every conv layer's input
    gradient, the unused one of the network input too, with one tensordot
    per kernel offset.
    """
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
            d = (d @ w.T).reshape(pre_shape)
        elif kind == "conv":
            _, windows, layer, in_shape = cache
            p -= 1
            w, _ = net.params[p]
            k, s = layer.kernel_size, layer.stride
            dw = np.tensordot(windows, d, axes=([0, 1, 2], [0, 1, 2]))  # (C,k,k,O)
            grads[p] = (dw.transpose(1, 2, 0, 3), d.sum(axis=(0, 1, 2)))
            _, hp, wp, _ = d.shape
            dx = np.zeros(in_shape)
            for u in range(k):
                for v in range(k):
                    dx[:, u : u + s * hp : s, v : v + s * wp : s, :] += np.tensordot(
                        d, w[u, v], axes=([3], [1])
                    )
            d = dx
        else:  # lrelu
            _, pre, layer = cache
            d = np.where(pre > 0, d, layer.slope * d)
    return grads


def concatenated_mask_dataset(scenes, m, tau_label):
    """Tile each scene into its own float32 copies, label them, and
    concatenate the per-scene arrays: scene-major, then row-major within
    the scene.

    Written separately from canclab.data.build_mask_dataset, which writes
    each scene's masks into one preallocated array as the scenes arrive.
    """
    all_patches, labels, sids, rows, cols = [], [], [], [], []
    for scene in scenes:
        n, c = scene.size, scene.image.shape[2]
        if m < 1 or n % m != 0:
            raise ConfigError(f"mask size {m} does not divide scene size {n}")
        g = n // m
        patches = scene.image.reshape(g, m, g, m, c).transpose(0, 2, 1, 3, 4).reshape(g * g, m, m, c)
        gt_patches = scene.gt.reshape(g, m, g, m).transpose(0, 2, 1, 3).reshape(g * g, m, m)
        r, col = np.divmod(np.arange(g * g), g)
        all_patches.append(patches.astype(np.float32))
        labels.append(_label_patches(gt_patches, tau_label))
        sids.append(np.full(g * g, scene.scene_id, dtype=np.int64))
        rows.append(r.astype(np.int64))
        cols.append(col.astype(np.int64))
    if not all_patches:
        raise ConfigError("no scenes given")
    return MaskDataset(
        patches=np.concatenate(all_patches),
        labels=np.concatenate(labels),
        scene_ids=np.concatenate(sids),
        rows=np.concatenate(rows),
        cols=np.concatenate(cols),
    )


def build_then_split(scenes, m, tau_label, fractions, seed):
    """The (train, modelsel, eval) partitions as a run once made them: the
    whole mask dataset first, then each partition copied out of it by
    fancy indexing.

    Written separately from canclab.data.build_mask_dataset, which
    scatters each scene's masks straight into the partitions' arrays and
    never builds the whole.
    """
    whole = concatenated_mask_dataset(scenes, m, tau_label)
    return tuple(
        MaskDataset(
            patches=whole.patches[idx],
            labels=whole.labels[idx],
            scene_ids=whole.scene_ids[idx],
            rows=whole.rows[idx],
            cols=whole.cols[idx],
        )
        for idx in _split_indices(whole.scene_ids, fractions, seed)
    )


def whole_dataset_gen_data(cfg, out):
    """gen-data's four files as it once wrote them: the whole mask dataset
    built first, each partition copied out of it at DataConfig's split
    indices, label noise injected as prepare_data injects it, and each file
    written as one array of records, the whole as full.bin.

    Written separately from canclab.harness.gen_data, which writes the
    partitions that prepare_data builds, in bounded chunks of records, and
    assembles full.bin from them by scene and grid position.
    """
    d, noise = cfg.data, cfg.noise
    scenes = (generate_scene(d, scene_id=i) for i in range(d.n_scenes))
    whole = build_mask_dataset(scenes, d.n_scenes, d.m, d.tau_label)
    train, modelsel, eval_ = (whole.take(idx) for idx in d.split_indices())
    if noise.type != "none":
        t = make_transition(noise.type, noise.epsilon)
        train = inject(train, t, np.random.SeedSequence((noise.seed, 0)))
        if noise.noise_modelsel:
            modelsel = inject(modelsel, t, np.random.SeedSequence((noise.seed, 1)))
    for fname, ds in (("full.bin", whole), ("train.bin", train), ("modelsel.bin", modelsel),
                      ("eval.bin", eval_)):
        m, c, n = d.m, d.channels, len(ds)
        records = np.empty(n, dtype=[("label", "u1"), ("clean", "u1"), ("scene", "<i4"),
                                     ("row", "<i4"), ("col", "<i4"), ("patch", "<f4", (m, m, c))])
        records["label"] = ds.labels
        records["clean"] = 255 if ds.clean_labels is None else ds.clean_labels
        records["scene"], records["row"], records["col"] = ds.scene_ids, ds.rows, ds.cols
        records["patch"] = ds.patches
        with open(os.path.join(out, fname), "wb") as fh:
            fh.write(struct.pack("<4sIIII", b"CANC", 3, m, c, n))
            fh.write(records.tobytes())
