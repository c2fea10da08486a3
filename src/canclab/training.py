"""Noise-robust training loops: vanilla, co-teaching, and co-teaching with
active label swapping (CANC).

All three cross-teach: each network ranks the mini-batch by its own
per-sample loss on the labels as given, and network k learns from the
losses of network (k + 1) % len(nets), its peer in a pair or itself when
alone. Those losses pick the low-loss fraction R as presumed-clean and the
top-loss fraction S, whose binary labels flip, for one SGD step on their
union. Vanilla is one network at R = 1, S = 0, co-teaching a pair at S = 0
and CANC a pair at the configured S; canc_iteration is the pair's step.
Each network's step has two halves: _rank (its forward and per-sample
losses) and _teach (the sets chosen from its teacher's losses, then its SGD
step). Selections always use pre-update parameters, so a pair's two updates
are order-independent and the whole loop is bitwise reproducible from its
seeds. Two networks meet only through their B logits, and the 128-row
chunks of one network's step only through the logits and a gradient sum
in chunk order, which is what lets train() split an iteration's
(network, chunk) forwards across two processes.

Each epoch shuffles the training set once and cuts the permutation into
batch_size chunks, the last one possibly shorter, so every row is fed
exactly once per epoch.

R follows a schedule that starts at 1 (first epoch trains on everything)
and decays linearly to a floor of 1 - tau_f at epoch t_k.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericError
from .data import MaskDataset
from .metrics import PRF1, confusion, prf1
from .nn import (_CHUNK, Network, NetworkSpec, forward, init_network, parse_layers,
                 per_sample_loss, predict, sgd_step, swap_logits, twin_labels)

ALGORITHMS = ("vanilla", "coteaching", "canc")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the data: the algorithm, its
    schedule, and the network's layer list. The masks give the network its
    input shape, so a layer list that cannot fit them fails in train()
    (and, on a synthetic source, in run_experiment before any scene)."""

    algo: str = "canc"
    network: str = "conv(6,5,2) lrelu(0.1) conv(12,3,2) lrelu(0.1) dense(2)"
    lr: float = 0.05
    t_max: int = 30
    t_k: int = 10
    batch_size: int = 64
    tau_f: float = 0.45
    swap_rate: float = 0.05
    ablation_s_equals_1_minus_r: bool = False  # S = 1 - R(T) in place of swap_rate
    persist_swaps: bool = False
    seed: int = 2  # fans out into the shuffle and two init seeds

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}, expected one of {ALGORITHMS}")
        parse_layers(self.network)
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.t_max < 1 or self.t_k < 1:
            raise ConfigError("t_max and t_k must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"[train] seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.tau_f < 1.0:
            raise ConfigError("tau_f must be in [0,1)")
        if not 0.0 <= self.swap_rate <= 1.0:
            raise ConfigError("swap_rate must be in [0,1]")
        # keeps clean and swap sets disjoint even once R bottoms out at
        # 1 - tau_f; the ablation pins S to the schedule instead
        fixed_s = not self.ablation_s_equals_1_minus_r
        if self.algo == "canc" and fixed_s and self.swap_rate > self.tau_f:
            raise ConfigError(
                f"swap_rate {self.swap_rate} must not exceed tau_f {self.tau_f}"
            )


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch training diagnostics plus metrics on both splits.

    Metrics come from the epoch's candidate: whichever network scored
    further from chance on the model-selection split, max(a, 1 - a) for
    accuracy a (ties go to network 1), read through swap_logits when that
    scores higher, in which case inverted is set. Train-split metrics score
    the candidate network's running predictions against the stored (noisy)
    labels, the only ones a trainer may see: each row as its rank forward
    saw it this epoch, before the batch's step, through the twin if inverted.
    """

    epoch: int
    remember_rate: float
    swap_rate: float
    n_clean: int
    n_swapped: int
    swap_correct_fraction: float
    train_metrics: PRF1
    modelsel_metrics: PRF1
    inverted: bool


@dataclass(frozen=True, eq=False)
class IterationDiag:
    """Batch-local index sets chosen in one cross-teaching iteration.

    clean_for_m2/swap_for_m2 were selected by network 1 (they update
    network 2), and vice versa.
    """

    clean_for_m2: np.ndarray
    swap_for_m2: np.ndarray
    clean_for_m1: np.ndarray
    swap_for_m1: np.ndarray


@dataclass(frozen=True, eq=False)
class TrainResult:
    best_network: Network
    best_epoch: int
    best_accuracy: float
    final_networks: tuple
    records: tuple


def remember_rate(t: int, t_k: int, tau_f: float) -> float:
    """R(t) = 1 - min(t/t_k * tau_f, tau_f): 1 at t=0, floor 1-tau_f from t_k on."""
    if t_k < 1:
        raise ConfigError("t_k must be >= 1")
    if t < 0:
        raise ConfigError("epoch index must be >= 0")
    return 1.0 - min(t / t_k * tau_f, tau_f)


def _check_losses(losses) -> np.ndarray:
    v = np.asarray(losses, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ConfigError("losses must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite loss encountered during selection")
    return v


def select_clean(losses, r: float) -> np.ndarray:
    """Indices of the max(1, floor(r*n)) smallest losses, ascending index
    order; loss ties resolve to the lower index."""
    v = _check_losses(losses)
    if not 0.0 < r <= 1.0:
        raise ConfigError(f"remember rate must be in (0,1], got {r}")
    k = max(1, int(math.floor(r * v.size)))
    chosen = np.argsort(v, kind="stable")[:k]
    return np.sort(chosen)


def select_swap(losses, s: float) -> np.ndarray:
    """Indices of the floor(s*n) largest losses, ascending index order;
    loss ties resolve to the lower index."""
    v = _check_losses(losses)
    if not 0.0 <= s <= 1.0:
        raise ConfigError(f"swap rate must be in [0,1], got {s}")
    k = int(math.floor(s * v.size))
    chosen = np.argsort(-v, kind="stable")[:k]
    return np.sort(chosen)


def flip_labels(labels, idx) -> np.ndarray:
    """Copy of the binary label vector with 1 - label at each idx."""
    y = np.asarray(labels, dtype=np.int64).copy()
    sel = np.asarray(idx, dtype=np.int64)
    if sel.size:
        if sel.min() < 0 or sel.max() >= y.size:
            raise IndexError(f"flip index outside [0,{y.size})")
        y[sel] = 1 - y[sel]
    return y


def _select_sets(losses, r: float, s: float) -> tuple:
    clean = select_clean(losses, r)
    swap = select_swap(losses, s)
    # loss ties plus the 1-sample clean floor can collide the sets; the
    # swap decision wins and the index leaves the clean set
    if swap.size and clean.size:
        clean = np.setdiff1d(clean, swap, assume_unique=True)
        if clean.size == 0:
            clean = np.setdiff1d(select_clean(losses, 1.0), swap, assume_unique=True)[:1]
    return clean, swap


def _rank(net: Network, x, y):
    """A network's rank half of a cross-teaching step: its forward over the
    batch and its per-sample losses on the labels as given."""
    fwd = forward(net, x)
    return fwd, per_sample_loss(fwd[0], y)


def _teach(net: Network, fwd, y, teacher_losses, r: float, s: float, lr: float):
    """A network's teach half: the clean fraction r and the swap fraction s
    chosen from its teacher's losses, then one SGD step on their union over
    its own rank forward fwd, swapped rows against their flipped labels.
    Returns (new network, clean, swap)."""
    clean, swap = _select_sets(teacher_losses, r, s)
    new = sgd_step(net, flip_labels(y, swap), fwd, lr, np.concatenate([clean, swap]))
    return new, clean, swap


class _Alone:
    """The peer of a process that runs every forward: nothing to trade."""

    half = None
    teaching = False

    def trade(self, payload) -> dict:
        return {}


def _shares(n_nets: int, b: int, half) -> dict:
    """Network k -> the rows of a b-row batch that this process forwards.
    An iteration's forwards are its (network, _CHUNK-row chunk) pairs in
    that order; a forked pair cuts them into two contiguous halves, the
    first and larger one the parent's (half 0) and the rest the worker's
    (half 1), while a process alone (half None) runs them all."""
    # an empty batch is one chunk, so that forward rejects it
    units = [(k, j) for k in range(n_nets) for j in range(max(1, -(-b // _CHUNK)))]
    if half is not None:
        cut = -(-len(units) // 2)
        units = units[cut:] if half else units[:cut]
    spans = {}
    for k, j in units:
        spans.setdefault(k, []).append(j)
    return {k: slice(js[0] * _CHUNK, (js[-1] + 1) * _CHUNK) for k, js in spans.items()}


def _cross_teach(nets: list, steps: dict, peer, x, y, r: float, s: float, lr: float):
    """One cross-teaching iteration of nets on the batch (x, y), stepping
    the networks in steps in place; network k is taught by the losses of
    network (k + 1) % len(nets). This process runs the forwards _shares
    gives peer.half and trades their logits with peer, which ran the rest.
    steps[k] is true when peer steps network k too: each process then
    backprops its own chunks and the pair trades their gradients, so both
    fold the one-process sum (nn.loss_and_gradients). Errors come in the
    one-process order: the forwards in (network, chunk) order, selection,
    then the steps in reverse network order. Returns each network's
    (clean, swap) sets by k, which this process chooses itself for a
    network it does not step, and each network's logits."""
    rows = _shares(len(nets), len(x), peer.half)
    ranked = {k: _rank(nets[k], x[part], y[part]) for k, part in rows.items()}
    logits = {k: fwd[0] for k, (fwd, _) in ranked.items()}
    losses = {k: loss for k, (_, loss) in ranked.items()}
    theirs = peer.trade(logits)
    peer.teaching = True
    for k, z in theirs.items():
        if k in logits:  # the parent's chunks come first
            logits[k] = np.concatenate((logits[k], z) if peer.half == 0 else (z, logits[k]))
        else:
            logits[k] = z
        losses[k] = per_sample_loss(logits[k], y)
    teacher = [losses[(k + 1) % len(nets)] for k in range(len(nets))]
    for v in teacher:  # selection's own check, made before any step
        _check_losses(v)
    sets = {}
    for k in sorted(steps, reverse=True):
        chunks = [None] * -(-len(x) // _CHUNK)
        if k in ranked:
            j = rows[k].start // _CHUNK
            chunks[j : j + len(ranked[k][0][1])] = ranked[k][0][1]
        fwd = (logits[k], chunks, peer.gather) if steps[k] else (logits[k], chunks)
        nets[k], *sets[k] = _teach(nets[k], fwd, y, teacher[k], r, s, lr)
    for k in set(range(len(nets))).difference(steps):
        sets[k] = _select_sets(teacher[k], r, s)
    peer.teaching = False
    return sets, logits


def canc_iteration(m1: Network, m2: Network, x, y, r: float, s: float, lr: float):
    """One cross-teaching step with active label swapping on the batch
    (x, y).

    Each network ranks the batch by its own per-sample loss on the labels
    as given, takes the low-loss fraction r as clean and the top-loss
    fraction s for flipping, and the peer does one SGD step on the union:
    the mean cross-entropy over those rows of the peer's own ranking
    forward, swapped rows against their flipped labels. Both rankings use
    pre-update parameters, and each network runs one forward. s must not
    exceed 1 - r; at s = 1 - r the sets can still collide on loss ties,
    and any collision resolves in favor of the swap.
    """
    if s > 1.0 - r + 1e-12:
        raise ConfigError(f"swap rate {s} exceeds 1 - remember rate {1.0 - r}")
    nets = [m1, m2]
    sets, _ = _cross_teach(nets, {0: False, 1: False}, _Alone(), x, y, r, s, lr)
    return nets[0], nets[1], IterationDiag(*sets[1], *sets[0])


def dataset_metrics(net: Network, ds: MaskDataset) -> tuple:
    """The metrics of net and of swap_logits(net) against the dataset's
    stored labels, both read from one chunked forward of net (see
    predict)."""
    return tuple(prf1(confusion(ds.labels, p)) for p in predict(net, ds.patches, twin=True))


def derive_train_seeds(seed: int) -> tuple:
    """Fan one train seed out into (shuffle, init1, init2) seeds."""
    state = np.random.SeedSequence(seed).generate_state(3)
    return tuple(int(x) for x in state)


def train(train_ds: MaskDataset, modelsel_ds: MaskDataset, config: TrainConfig) -> TrainResult:
    """Run one training job and return the best snapshot by model-selection
    accuracy plus all epoch records.

    The networks are config.network sized to the training masks' side and
    channel count, with the default init; a layer list that does not fit
    them is a ConfigError.

    vanilla trains one network that teaches itself at R = 1, S = 0: every
    row as labelled. coteaching and canc train two networks that cross-teach
    as canc_iteration does, coteaching at S = 0 and canc at the configured
    swap rate. With persist_swaps,
    flips write back to a private working copy of the labels (the input
    dataset is untouched).

    Model selection is up to label polarity. Above 1/2 symmetric noise the
    training labels fit the inverted concept as well as a lower noise rate
    fits the true one, so only the model-selection split can tell the two
    apart. Each epoch's candidate is the network scoring max(a, 1 - a) on
    it; if that network scores a < 1/2 and its swap_logits twin, scored
    exactly from the same forward, does better, the twin replaces it as
    the candidate, in the record's metrics and as best_network. The twin
    never feeds back into training: final_networks and every selection and
    swap are the same as without it.

    With more than one (network, 128-row chunk) forward an iteration (two
    networks, or one whose batches exceed 128 rows), at least two CPUs, the
    fork start method and a process that is not daemonic (a daemonic one,
    such as a multiprocessing.Pool worker, may have no children), a forked
    worker process runs the second half of each iteration's forwards and
    this one the first, in (network, chunk) order: network 2 and network
    1 of a pair, or the last floor(c/2) and the first ceil(c/2) of one
    network's c chunks, so a batch of one chunk is all this process's. The
    two run the same loop in lockstep. Each iteration they trade their
    logits; both then choose every selection. A network split between
    them is stepped in both: each backprops its own chunks, they trade the
    chunks' gradients, and both add them up in chunk order and apply the
    same update. Once each epoch they trade their networks with the
    model-selection and training-split scores of the networks whose first
    chunk they forward. While they run, each caps OpenBLAS at half the
    CPUs. Elsewhere one process runs every forward. The results are the
    same bit for bit, errors included: a run raises the error that one
    process would raise first, and no process outlives it.
    """
    if len(train_ds) == 0 or len(modelsel_ds) == 0:
        raise ConfigError("train and model-selection sets must be non-empty")
    shuffle_seed, init_seed_1, init_seed_2 = derive_train_seeds(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    spec = NetworkSpec(train_ds.m, train_ds.channels, parse_layers(config.network))
    nets = [init_network(replace(spec, seed=init_seed_1))]
    if config.algo != "vanilla":
        nets.append(init_network(replace(spec, seed=init_seed_2)))
    job = (train_ds, modelsel_ds, config, nets, shuffle_rng)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    daemon = multiprocessing.current_process().daemon  # a daemonic process may not fork
    forwards = len(nets) * -(-min(config.batch_size, len(train_ds)) // _CHUNK)  # of a full batch
    if forwards < 2 or cpus < 2 or daemon or "fork" not in multiprocessing.get_all_start_methods():
        return _train_loop(*job, _Alone())

    # fork, not spawn: the worker shares the datasets copy-on-write and
    # inherits this process's state; OpenBLAS rebuilds its threads in it
    ctx = multiprocessing.get_context("fork")
    link, far_end = ctx.Pipe()
    peer = _Peer(link, half=0)
    with _blas_threads_at_most(max(1, cpus // 2)):
        worker = ctx.Process(target=_worker, args=(job, far_end, link), daemon=True)
        worker.start()
        far_end.close()
        try:
            return _train_loop(*job, peer)
        except _Failure as failed:
            raise failed.error from None
        except Exception as exc:
            theirs = peer.report(exc)
            if isinstance(theirs, _Failure) and theirs.early:
                raise theirs.error from None
            raise
        finally:
            link.close()
            worker.join()


def _worker(job: tuple, conn, parent_end):
    """The second half's process in a forked pair. An error it raises goes
    to the parent in place of its next payload, and it then exits quietly."""
    parent_end.close()  # else the parent's exit would not end conn
    peer = _Peer(conn, half=1)
    try:
        _train_loop(*job, peer)
    except _Failure:
        pass  # the parent failed first and already holds this process's payload
    except Exception as exc:  # noqa: BLE001 - the parent raises it or an earlier one
        peer.report(exc)
    finally:
        conn.close()


class _Failure(Exception):
    """Sent in place of a process's next payload once it has raised error.
    early marks an error from selection or the sender's own step: in the
    one-process order it precedes anything the receiver raised since the
    last trade, while an error from the sender's next forward follows it."""

    def __init__(self, error: Exception, early: bool):
        super().__init__(error, early)
        self.error, self.early = error, early


class _Peer:
    """The other process of a forked pair, in lockstep with this one; half
    is this process's half of the forwards (see _shares). The parent (half
    0) sends before it receives and the worker after, so the two never
    both wait to send on a full pipe."""

    teaching = False  # set by _cross_teach between the logit trade and the steps

    def __init__(self, conn, half: int):
        self.conn, self.half = conn, half

    def _swap(self, payload):
        if self.half == 0:
            self.conn.send(payload)
            return self.conn.recv()
        theirs = self.conn.recv()
        self.conn.send(payload)
        return theirs

    def trade(self, payload: dict) -> dict:
        """This process's payload out, the peer's back; raises the peer's
        _Failure if it sent one."""
        try:
            theirs = self._swap(payload)
        except (EOFError, OSError) as exc:
            raise RuntimeError("the other process of the training pair has exited") from exc
        if isinstance(theirs, _Failure):
            raise theirs
        return theirs

    def gather(self, parts: list) -> list:
        """Every chunk's gradients of a step on a network that both
        processes step, from this process's (None for the peer's chunks)."""
        return [mine if mine is not None else peers for mine, peers in zip(parts, self.trade(parts))]

    def report(self, error: Exception):
        """Send error as this process's failure at the next trade; returns
        the peer's message there, or None if the peer is gone."""
        try:
            return self._swap(_Failure(error, self.teaching))
        except (EOFError, OSError):
            return None


def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None when no
    OpenBLAS that answers is mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, (ctypes.c_int,)
                return get, put
    return None


@contextmanager
def _blas_threads_at_most(n: int):
    """Cap OpenBLAS at n threads for the block, then restore its count. Two
    processes that each keep a thread per CPU contend for the CPUs."""
    calls = _openblas_threads()
    old = calls[0]() if calls else 0
    if old > n:
        calls[1](n)
    try:
        yield
    finally:
        if old > n:
            calls[1](old)


def _train_loop(train_ds, modelsel_ds, config, nets, shuffle_rng, peer) -> TrainResult:
    """train()'s loop over peer.half's forwards (_shares), trading with
    peer for the others; every process of a run returns the same result.
    A process steps each network it forwards a chunk of in a full batch,
    and scores each network whose first chunk it forwards."""
    n = len(train_ds)
    labels_work = train_ds.labels.copy()
    clean_ref = train_ds.clean_labels  # may be None; diagnostics only
    full = min(config.batch_size, n)
    other = {} if peer.half is None else _shares(len(nets), full, 1 - peer.half)
    steps = {k: k in other for k in _shares(len(nets), full, peer.half)}
    # per-row twin_labels of each network scored here, whose first chunk is this process's
    seen = {k: np.empty((2, n), dtype=np.int64) for k in _shares(len(nets), 1, peer.half)}

    best_net, best_epoch, best_acc = nets[0], -1, -np.inf
    records = []
    for epoch in range(config.t_max):
        # the epoch's (R, S): vanilla (1, 0), coteaching (R(T), 0), canc (R(T), S_eff)
        r = 1.0 if config.algo == "vanilla" else remember_rate(epoch, config.t_k, config.tau_f)
        if config.algo != "canc":
            s_eff = 0.0
        elif config.ablation_s_equals_1_minus_r:
            s_eff = 1.0 - r
        else:
            s_eff = min(config.swap_rate, 1.0 - r)

        n_clean = n_swapped = n_swap_correct = 0
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            x, y = train_ds.patches[idx], labels_work[idx]
            sets, logits = _cross_teach(nets, steps, peer, x, y, r, s_eff, config.lr)
            for k in seen:
                seen[k][:, idx] = twin_labels(logits[k])
            n_clean += sum(len(clean) for clean, _ in sets.values())
            swapped_local = np.concatenate([swap for _, swap in sets.values()])
            n_swapped += swapped_local.size
            if swapped_local.size:
                flipped = 1 - y[swapped_local]
                if clean_ref is not None:
                    n_swap_correct += int(np.sum(flipped == clean_ref[idx[swapped_local]]))
                if config.persist_swaps:
                    uniq = np.unique(idx[swapped_local])
                    labels_work[uniq] = 1 - labels_work[uniq]

        # epoch bookkeeping: score both networks on the model-selection
        # split up to polarity (tie -> network 1), then read the pick
        # through its swapped logits if that scores higher
        scored = {k: (nets[k], dataset_metrics(nets[k], modelsel_ds),
                      tuple(prf1(confusion(train_ds.labels, p)) for p in seen[k])) for k in seen}
        scored.update(peer.trade(scored))
        ordered = [scored[k] for k in range(len(nets))]
        nets[:] = [net for net, _, _ in ordered]
        polarity_free = [max(m.accuracy, 1.0 - m.accuracy) for _, (m, _), _ in ordered]
        pick = polarity_free.index(max(polarity_free))
        candidate, (modelsel_metrics, twin_metrics), (train_metrics, twin_train) = ordered[pick]
        inverted = modelsel_metrics.accuracy < min(0.5, twin_metrics.accuracy)
        if inverted:
            candidate, modelsel_metrics, train_metrics = swap_logits(candidate), twin_metrics, twin_train
        swap_fraction = n_swap_correct / n_swapped if (n_swapped and clean_ref is not None) else math.nan
        records.append(
            EpochRecord(
                epoch=epoch,
                remember_rate=r,
                swap_rate=s_eff,
                n_clean=n_clean,
                n_swapped=n_swapped,
                swap_correct_fraction=swap_fraction,
                train_metrics=train_metrics,
                modelsel_metrics=modelsel_metrics,
                inverted=inverted,
            )
        )
        if modelsel_metrics.accuracy > best_acc:
            best_net, best_epoch, best_acc = candidate, epoch, modelsel_metrics.accuracy

    return TrainResult(
        best_network=best_net,
        best_epoch=best_epoch,
        best_accuracy=float(best_acc),
        final_networks=tuple(nets),
        records=tuple(records),
    )
