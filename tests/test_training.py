"""Training loop tests: schedule, selection oracles, label flipping, the
cross-teaching iterations, and the full train() contract."""

import json
import math
import multiprocessing
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from canclab import (
    ConfigError,
    MaskDataset,
    NetworkSpec,
    NumericError,
    TrainConfig,
    confusion,
    dataset_metrics,
    flip_labels,
    forward,
    init_network,
    parse_layers,
    per_sample_loss,
    predict,
    prf1,
    remember_rate,
    select_clean,
    select_swap,
    sgd_step,
    swap_logits,
    train,
)
from canclab import nn, training
from canclab.config import load_config
from canclab.harness import prepare_data
from oracles import (coteaching_teach, gather_and_forward_step, network_metrics, pair_iteration,
                     vanilla_replay, zeroed)

NETWORK = "conv(3,3,2) lrelu(0.1) dense(2)"
SPEC = NetworkSpec(input_size=8, channels=1, layers=parse_layers(NETWORK))


def rand_batch(n=10, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 8, 8, 1))
    y = rng.integers(0, 2, size=n)
    return x, y


def toy_dataset(n=64, seed=0, noisy=False):
    """Separable toy task: mean brightness above 0.5 means label 1."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    base = np.where(y[:, None, None, None] == 1, 0.75, 0.25)
    patches = np.clip(base + rng.normal(0, 0.05, size=(n, 8, 8, 1)), 0, 1)
    labels = y.copy()
    clean = None
    if noisy:
        clean = y.copy()
        flip = rng.random(n) < 0.2
        labels = np.where(flip, 1 - y, y)
    return MaskDataset(
        patches=patches,
        labels=labels.astype(np.int64),
        scene_ids=np.zeros(n, dtype=np.int64),
        rows=np.arange(n, dtype=np.int64),
        cols=np.zeros(n, dtype=np.int64),
        clean_labels=clean,
    )


def params_equal(a, b):
    return all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a.params, b.params)
    )


# ---------------------------------------------------------------------------
# remember rate


def test_remember_rate_reference_points():
    assert remember_rate(0, 10, 0.45) == 1.0
    assert remember_rate(10, 10, 0.45) == pytest.approx(0.55, abs=1e-15)
    assert remember_rate(5, 10, 0.45) == pytest.approx(0.775, abs=1e-15)


def test_remember_rate_monotone_with_floor():
    prev = 2.0
    for t in range(0, 30):
        r = remember_rate(t, 10, 0.3)
        assert r <= prev
        assert 1 - 0.3 <= r <= 1.0
        prev = r
    assert remember_rate(25, 10, 0.3) == remember_rate(10, 10, 0.3)


def test_remember_rate_validation():
    with pytest.raises(ConfigError):
        remember_rate(1, 0, 0.3)
    with pytest.raises(ConfigError):
        remember_rate(-1, 5, 0.3)


# ---------------------------------------------------------------------------
# selection


def test_select_clean_reference():
    losses = np.array([0.9, 0.1, 0.5, 0.3])
    assert select_clean(losses, 0.5).tolist() == [1, 3]
    assert select_clean(losses, 1.0).tolist() == [0, 1, 2, 3]


def test_select_clean_floor_of_one():
    losses = np.array([0.9, 0.1, 0.5, 0.3])
    assert select_clean(losses, 0.01).tolist() == [1]


def test_select_swap_reference():
    losses = np.array([0.9, 0.1, 0.5, 0.3])
    assert select_swap(losses, 0.25).tolist() == [0]
    assert select_swap(losses, 0.0).tolist() == []


def test_selection_tie_break_prefers_lower_index():
    losses = np.array([0.5, 0.5, 0.5, 0.5])
    assert select_clean(losses, 0.5).tolist() == [0, 1]
    assert select_swap(losses, 0.5).tolist() == [0, 1]


def test_selection_matches_full_sort_oracle():
    rng = np.random.default_rng(12)
    losses = rng.uniform(size=1000)
    order = sorted(range(1000), key=lambda i: (losses[i], i))
    for rate in (0.1, 0.3, 0.7, 0.9):
        k = int(math.floor(rate * 1000))
        assert select_clean(losses, rate).tolist() == sorted(order[:k])
        order_desc = sorted(range(1000), key=lambda i: (-losses[i], i))
        assert select_swap(losses, rate).tolist() == sorted(order_desc[:k])


def test_selection_rejects_non_finite():
    with pytest.raises(NumericError):
        select_clean(np.array([0.1, np.nan]), 0.5)
    with pytest.raises(NumericError):
        select_swap(np.array([np.inf, 0.2]), 0.5)


def test_selection_rate_bounds():
    losses = np.array([0.1, 0.2])
    with pytest.raises(ConfigError):
        select_clean(losses, 0.0)
    with pytest.raises(ConfigError):
        select_clean(losses, 1.1)
    with pytest.raises(ConfigError):
        select_swap(losses, -0.1)


def test_disjointness_when_rates_fit():
    rng = np.random.default_rng(5)
    for _ in range(50):
        losses = rng.uniform(size=40)
        clean = set(select_clean(losses, 0.6).tolist())
        swap = set(select_swap(losses, 0.4).tolist())
        assert not clean & swap


# ---------------------------------------------------------------------------
# flips


def test_flip_labels_reference():
    assert flip_labels([0, 1, 0], []).tolist() == [0, 1, 0]
    assert flip_labels([0, 1, 0], [0, 1]).tolist() == [1, 0, 0]


def test_flip_labels_is_involution_and_pure():
    labels = np.array([0, 1, 1, 0, 1])
    idx = np.array([0, 2, 4])
    once = flip_labels(labels, idx)
    twice = flip_labels(once, idx)
    assert np.array_equal(twice, labels)
    assert labels.tolist() == [0, 1, 1, 0, 1]  # input untouched


def test_flip_labels_out_of_range():
    with pytest.raises(IndexError):
        flip_labels([0, 1], [2])


# ---------------------------------------------------------------------------
# iterations


def test_canc_iteration_counts():
    m1 = init_network(replace(SPEC, seed=1))
    m2 = init_network(replace(SPEC, seed=2))
    x, y = rand_batch(n=10, seed=3)
    _, _, diag = pair_iteration(m1, m2, x, y, r=0.6, s=0.2, lr=0.1)
    assert len(diag.clean_for_m2) == 6 and len(diag.swap_for_m2) == 2
    assert len(diag.clean_for_m1) == 6 and len(diag.swap_for_m1) == 2


def manual_update(selector_net, updated_net, x, y, r, s, lr):
    """The peer update spelled out: rank losses, pick clean + swap sets,
    flip the swap labels, and step the updated network on the mean loss
    over those rows of its own forward over the batch."""
    losses = per_sample_loss(forward(selector_net, x)[0], y)
    clean = select_clean(losses, r)
    swap = select_swap(losses, s)
    rows = np.concatenate([clean, swap])
    return sgd_step(updated_net, flip_labels(y, swap), forward(updated_net, x), lr, rows)


def test_canc_iteration_matches_manual_assembly_oracle():
    """The peer update must equal: rank losses, pick clean + swap sets,
    flip the swap labels, step on the mean loss over those rows."""
    m1 = init_network(replace(SPEC, seed=1))
    m2 = init_network(replace(SPEC, seed=2))
    x, y = rand_batch(n=12, seed=4)
    r, s, lr = 0.5, 0.25, 0.2

    m1_new, m2_new, _ = pair_iteration(m1, m2, x, y, r, s, lr)

    oracle_m2 = manual_update(m1, m2, x, y, r, s, lr)
    oracle_m1 = manual_update(m2, m1, x, y, r, s, lr)
    for got, want in ((m2_new, oracle_m2), (m1_new, oracle_m1)):
        for (wg, bg), (ww, bw) in zip(got.params, want.params):
            assert np.allclose(wg, ww, rtol=1e-12, atol=0)
            assert np.allclose(bg, bw, rtol=1e-12, atol=0)


def test_canc_iteration_forwards_each_network_once(monkeypatch):
    """Each network runs one forward over the batch, which both ranks the
    batch and carries the network's step, and the step is bitwise the
    rank, pick, flip, SGD recipe."""
    spec = NetworkSpec(
        input_size=32,
        channels=1,
        layers=parse_layers("conv(6,5,2) lrelu(0.1) conv(12,3,2) lrelu(0.1) dense(2)"),
    )
    m1 = init_network(replace(spec, seed=1))
    m2 = init_network(replace(spec, seed=2))
    rng = np.random.default_rng(8)
    x, y = rng.uniform(0, 1, size=(64, 32, 32, 1)), rng.integers(0, 2, size=64)
    r, s, lr = 0.3, 0.1, 0.05

    rows_seen = []
    real_forward = nn._forward

    def counting_forward(net, x):
        rows_seen.append(len(x))
        return real_forward(net, x)

    with monkeypatch.context() as mp:
        mp.setattr(nn, "_forward", counting_forward)
        m1_new, m2_new, _ = pair_iteration(m1, m2, x, y, r, s, lr)
    # one forward per network over the whole batch, none for the steps
    assert rows_seen == [64, 64]
    assert params_equal(m2_new, manual_update(m1, m2, x, y, r, s, lr))
    assert params_equal(m1_new, manual_update(m2, m1, x, y, r, s, lr))


STEP_GRID_NETS = {
    "default": (32, "conv(6,5,2) lrelu(0.1) conv(12,3,2) lrelu(0.1) dense(2)"),
    "smoke": (16, "conv(4,5,2) lrelu(0.1) conv(8,3,1) lrelu(0.1) dense(2)"),
    "criterion6": (16, "conv(3,3,2) lrelu(0.1) dense(2)"),
    "two_dense": (16, "conv(3,3,2) lrelu(0.1) dense(8) lrelu(0.1) dense(2)"),
}
STEP_GRID_RATES = ((1.0, 0.0), (0.9, 0.05), (0.75, 0.1), (0.5, 0.25), (0.55, 0.45))


def bytes_equal(a, b):
    return all(
        wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
        for (wa, ba), (wb, bb) in zip(a.params, b.params)
    )


@pytest.mark.parametrize("b", [1, 2, 7, 33, 64, 256, 512])
@pytest.mark.parametrize("name", sorted(STEP_GRID_NETS))
def test_peer_step_matches_gather_and_forward_oracle(name, b):
    """The step on the ranking forward against a fresh forward over only
    the chosen rows: bitwise when every row is chosen (the vanilla step,
    and CANC at R = 1, S = 0), and within 1e-13 otherwise, where the two
    run GEMMs of different sizes."""
    size, layers = STEP_GRID_NETS[name]
    spec = NetworkSpec(input_size=size, channels=1, layers=parse_layers(layers))
    everyone, nobody, lr = np.arange(b), np.empty(0, dtype=np.int64), 0.05
    for seed in range(3):
        m1 = init_network(replace(spec, seed=2 * seed + 1))
        m2 = init_network(replace(spec, seed=2 * seed + 2))
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(0, 1, size=(b, size, size, 1)), rng.integers(0, 2, size=b)
        want = gather_and_forward_step(m1, x, y, everyone, nobody, lr)
        assert bytes_equal(sgd_step(m1, y, forward(m1, x), lr), want)
        for r, s in STEP_GRID_RATES:
            new1, new2, diag = pair_iteration(m1, m2, x, y, r, s, lr)
            want1 = gather_and_forward_step(m1, x, y, diag.clean_for_m1, diag.swap_for_m1, lr)
            want2 = gather_and_forward_step(m2, x, y, diag.clean_for_m2, diag.swap_for_m2, lr)
            for got, want in ((new1, want1), (new2, want2)):
                if r == 1.0:
                    assert bytes_equal(got, want)
                for (wg, bg), (ww, bw) in zip(got.params, want.params):
                    assert np.max(np.abs(wg - ww)) <= 1e-13
                    assert np.max(np.abs(bg - bw)) <= 1e-13


def test_canc_s_zero_bitwise_equals_coteaching_iteration():
    m1 = init_network(replace(SPEC, seed=1))
    m2 = init_network(replace(SPEC, seed=2))
    x, y = rand_batch(n=10, seed=5)
    a1, a2, _ = pair_iteration(m1, m2, x, y, r=0.7, s=0.0, lr=0.3)
    fwd_1, fwd_2 = forward(m1, x), forward(m2, x)
    losses_1, losses_2 = per_sample_loss(fwd_1[0], y), per_sample_loss(fwd_2[0], y)
    b1, _, _ = coteaching_teach(m1, fwd_1, y, losses_2, r=0.7, s=0.0, lr=0.3)
    b2, _, _ = coteaching_teach(m2, fwd_2, y, losses_1, r=0.7, s=0.0, lr=0.3)
    assert params_equal(a1, b1) and params_equal(a2, b2)


def test_cross_update_direction():
    """M1 must be changed only by M2's selection and vice versa."""
    m1 = init_network(replace(SPEC, seed=1))
    m2 = init_network(replace(SPEC, seed=2))
    x, y = rand_batch(n=10, seed=6)
    fwd_1, fwd_2 = forward(m1, x), forward(m2, x)
    new1, new2, _ = pair_iteration(m1, m2, x, y, r=0.5, s=0.0, lr=0.1)

    sel2 = select_clean(per_sample_loss(fwd_2[0], y), 0.5)
    expect1 = sgd_step(m1, y, fwd_1, 0.1, sel2)
    assert params_equal(new1, expect1)
    sel1 = select_clean(per_sample_loss(fwd_1[0], y), 0.5)
    expect2 = sgd_step(m2, y, fwd_2, 0.1, sel1)
    assert params_equal(new2, expect2)
    # and the selections genuinely differ between the two networks here
    assert sel1.tolist() != sel2.tolist()


def test_canc_iteration_rejects_overflowing_swap():
    m1 = init_network(replace(SPEC, seed=1))
    m2 = init_network(replace(SPEC, seed=2))
    with pytest.raises(ConfigError):
        pair_iteration(m1, m2, *rand_batch(), r=0.8, s=0.5, lr=0.1)


def test_canc_iteration_loss_ties_swap_wins():
    # zero weights give every row the loss ln 2: at r = s = 0.5 the lowest
    # five and the highest five indices are both rows 0-4, the swap keeps
    # them and the clean set falls back to its one-row floor, row 5
    zeros = zeroed(init_network(SPEC))
    _, _, diag = pair_iteration(zeros, zeros, *rand_batch(n=10, seed=7), r=0.5, s=0.5, lr=0.1)
    assert diag.clean_for_m2.tolist() == [5]
    assert diag.swap_for_m2.tolist() == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# train()


def base_config(**kw):
    cfg = dict(
        algo="canc", network=NETWORK, lr=0.2, t_max=4, t_k=2, batch_size=16, tau_f=0.4,
        swap_rate=0.1, seed=10,
    )
    cfg.update(kw)
    return TrainConfig(**cfg)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        base_config(algo="magic")
    with pytest.raises(ConfigError):
        base_config(tau_f=1.0)
    with pytest.raises(ConfigError):
        base_config(t_max=0)
    # S_eff = min(swap_rate, 1 - R) keeps the sets disjoint: no cap at tau_f
    base_config(swap_rate=1.0, tau_f=0.4)


def test_train_single_iteration_layout():
    ds = toy_dataset(n=32, seed=1)
    cfg = base_config(algo="coteaching", t_max=1, batch_size=32, swap_rate=0.0)
    result = train(ds, ds, cfg)
    assert len(result.records) == 1
    assert result.records[0].epoch == 0
    assert result.records[0].remember_rate == 1.0
    assert result.records[0].n_clean == 2 * 32  # both networks, full batch at R=1
    assert result.best_epoch == 0


def test_train_feeds_every_row_once_per_epoch(monkeypatch):
    # n = 50 at B = 16: three full batches and a last one of 2 rows, each
    # epoch one permutation of all 50 rows
    ds = toy_dataset(n=50, seed=1)
    fed = []
    real_forward = training.forward

    def recording_forward(net, x):
        fed.append(x)
        return real_forward(net, x)

    # vanilla's one network teaches itself every row: R = 1 and S = 0
    taught = []
    real_teach = training._teach

    def recording_teach(net, fwd, y, teacher_losses, r, s, lr):
        taught.append((r, s))
        return real_teach(net, fwd, y, teacher_losses, r, s, lr)

    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(training, "_teach", recording_teach)
    result = train(ds, ds, base_config(algo="vanilla", t_max=3, batch_size=16))
    assert [len(x) for x in fed] == [16, 16, 16, 2] * 3
    assert taught == [(1.0, 0.0)] * 12
    assert [rec.n_clean for rec in result.records] == [50, 50, 50]
    assert all(rec.remember_rate == 1.0 and rec.swap_rate == 0.0 for rec in result.records)
    row_of = {ds.patches[i].tobytes(): i for i in range(len(ds))}
    assert len(row_of) == 50  # every patch tells its row
    for epoch in range(3):
        rows = [row_of[p.tobytes()] for x in fed[4 * epoch : 4 * epoch + 4] for p in x]
        assert sorted(rows) == list(range(50))


def test_train_determinism():
    ds = toy_dataset(n=48, seed=2, noisy=True)
    cfg = base_config()
    a = train(ds, ds, cfg)
    b = train(ds, ds, cfg)
    assert repr(a.records) == repr(b.records)
    assert params_equal(a.best_network, b.best_network)
    for na, nb in zip(a.final_networks, b.final_networks):
        assert params_equal(na, nb)


def test_train_seed_changes_trajectory():
    ds = toy_dataset(n=48, seed=2, noisy=True)
    a = train(ds, ds, base_config())
    b = train(ds, ds, base_config(seed=99))
    assert repr(a.records) != repr(b.records)


def test_train_canc_s_zero_bitwise_equals_coteaching(monkeypatch):
    ds = toy_dataset(n=48, seed=3, noisy=True)
    a = train(ds, ds, base_config(algo="canc", swap_rate=0.0))
    # co-teaching runs the independent oracle half, not _teach, in both
    # processes of a forked pair
    monkeypatch.setattr(training, "_teach", coteaching_teach)
    b = train(ds, ds, base_config(algo="coteaching", swap_rate=0.0))
    assert repr(a.records) == repr(b.records)
    for na, nb in zip(a.final_networks, b.final_networks):
        assert params_equal(na, nb)


def test_train_vanilla_bitwise_equals_plain_sgd_replay():
    # 50 rows at B = 16 end each epoch on a 2-row batch
    ds = toy_dataset(n=50, seed=4, noisy=True)
    cfg = base_config(algo="vanilla", t_max=6)
    result = train(ds, ds, cfg)
    after = vanilla_replay(ds, cfg)
    assert len(result.final_networks) == 1 and bytes_equal(result.final_networks[0], after[-1])
    # this run's best epoch comes before the last, and its candidate is the twin
    assert result.best_epoch < cfg.t_max - 1 and result.records[result.best_epoch].inverted
    assert bytes_equal(result.best_network, swap_logits(after[result.best_epoch]))


def test_train_does_not_mutate_dataset_labels():
    ds = toy_dataset(n=48, seed=4, noisy=True)
    before = ds.labels.copy()
    train(ds, ds, base_config(t_max=3))
    assert np.array_equal(ds.labels, before)


def test_train_learns_separable_task():
    ds = toy_dataset(n=96, seed=5)
    cfg = base_config(algo="vanilla", t_max=12, t_k=2, lr=0.5, swap_rate=0.0)
    result = train(ds, ds, cfg)
    assert result.best_accuracy > 0.9


def test_train_swap_stats_reported():
    ds = toy_dataset(n=64, seed=6, noisy=True)
    cfg = base_config(t_max=4, t_k=1, swap_rate=0.3, tau_f=0.4)
    result = train(ds, ds, cfg)
    later = result.records[-1]
    assert later.swap_rate == pytest.approx(0.3)
    assert later.n_swapped > 0
    assert 0.0 <= later.swap_correct_fraction <= 1.0


def test_train_first_epoch_swaps_nothing():
    # R(0) = 1 leaves no room below the clean set, so S is clipped to 0
    ds = toy_dataset(n=64, seed=7, noisy=True)
    cfg = base_config(t_max=2, t_k=2, swap_rate=0.3, tau_f=0.4)
    result = train(ds, ds, cfg)
    assert result.records[0].swap_rate == 0.0
    assert result.records[0].n_swapped == 0
    assert result.records[1].n_swapped > 0


def test_train_one_minus_r_mode_tracks_schedule():
    ds = toy_dataset(n=64, seed=8, noisy=True)
    cfg = base_config(t_max=3, t_k=2, swap_rate=1.0, tau_f=0.4)
    result = train(ds, ds, cfg)
    for rec in result.records:
        assert rec.swap_rate == pytest.approx(1.0 - rec.remember_rate)


def test_train_rejects_empty_sets():
    ds = toy_dataset(n=16, seed=10)
    empty = ds.take(np.array([], dtype=np.int64))
    with pytest.raises(ConfigError):
        train(empty, ds, base_config())
    with pytest.raises(ConfigError):
        train(ds, empty, base_config())


def test_train_best_snapshot_matches_records():
    ds = toy_dataset(n=64, seed=11, noisy=True)
    result = train(ds, ds, base_config(t_max=5))
    best_from_records = max(rec.modelsel_metrics.accuracy for rec in result.records)
    assert result.best_accuracy == best_from_records
    assert result.records[result.best_epoch].modelsel_metrics.accuracy == best_from_records


def inverted_task(n):
    """Training labels all inverted against a clean model-selection split,
    so some epochs pick the swapped-logit twin."""
    clean = toy_dataset(n=n, seed=12)
    return replace(clean, labels=1 - clean.labels), toy_dataset(n=64, seed=13)


@pytest.mark.parametrize("algo", ["vanilla", "coteaching", "canc"])
def test_train_selects_up_to_polarity_on_clean_modelsel(algo):
    # every training label inverted: the networks learn 1 - truth, and only
    # the clean model-selection split can tell
    flipped, modelsel = inverted_task(96)
    cfg = base_config(algo=algo, t_max=6, lr=0.5)
    result = train(flipped, modelsel, cfg)
    best = result.records[result.best_epoch]
    assert result.best_accuracy > 0.5
    assert best.inverted
    pred = predict(result.best_network, modelsel.patches)
    assert np.mean(pred == modelsel.labels) == best.modelsel_metrics.accuracy == result.best_accuracy
    # the twin is only read, never trained on: the final networks still
    # predict the inverted concept
    for net in result.final_networks:
        assert np.mean(predict(net, modelsel.patches) == modelsel.labels) < 0.5


@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize("algo", ["vanilla", "canc"])
def test_train_row_replays_the_rank_forwards(monkeypatch, algo, inverted):
    """A record's train metrics score the picked network's running fit:
    each row labelled by that network's own rank forward in the epoch,
    before its batch's step, through the swapped logits on inverted
    epochs. Replayed by hand from the recorded logits and the shuffle."""
    if inverted:
        train_ds, modelsel = inverted_task(96)
    else:
        train_ds = modelsel = toy_dataset(n=96, seed=2, noisy=True)
    cfg = base_config(algo=algo, t_max=6, lr=0.5)
    shuffle_seed, seed_1 = training.derive_train_seeds(cfg.seed)[:2]
    logits, accuracy = {1: [], 2: []}, {1: [], 2: []}
    real_forward, real_metrics = training.forward, training.dataset_metrics

    def recording_forward(net, x):
        fwd = real_forward(net, x)
        logits[1 if net.spec.seed == seed_1 else 2].append(fwd[0])
        return fwd

    def recording_metrics(net, ds):
        out = real_metrics(net, ds)
        accuracy[1 if net.spec.seed == seed_1 else 2].append(out[0].accuracy)
        return out

    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(training, "dataset_metrics", recording_metrics)
    result = run_pair(monkeypatch, train_ds, cfg, 1, modelsel)
    assert [rec.inverted for rec in result.records] == [inverted] * cfg.t_max
    n, b = len(train_ds), cfg.batch_size
    per_epoch = -(-n // b)
    rng = np.random.default_rng(shuffle_seed)
    for rec in result.records:
        perm = rng.permutation(n)
        worth = {k: max(a[rec.epoch], 1 - a[rec.epoch]) for k, a in accuracy.items() if a}
        pick = 2 if worth.get(2, -1) > worth[1] else 1
        labels = [None] * n
        batches = logits[pick][per_epoch * rec.epoch : per_epoch * (rec.epoch + 1)]
        for start, z in zip(range(0, n, b), batches):
            for row, (z0, z1) in zip(perm[start : start + b], z):
                if rec.inverted:
                    z0, z1 = z1, z0
                labels[row] = 1 if z1 > z0 else 0
        assert repr(rec.train_metrics) == repr(prf1(confusion(train_ds.labels, labels)))


@pytest.mark.parametrize("b", [1, 7, 64, 256, 512])
def test_twin_metrics_from_logits_equal_the_twin_forwards(b):
    """Model selection reads swap_logits(net)'s labels from net's own
    logits, reversed; for 20 inits of the default network they, and the
    metrics built on them, must be the twin's own forward's. A network
    whose every logit pair ties predicts 0 both ways."""
    size = 32
    spec = NetworkSpec(size, 1, parse_layers(TrainConfig().network))
    rng = np.random.default_rng(b)
    ds = MaskDataset(
        patches=rng.uniform(0.0, 1.0, size=(b, size, size, 1)),
        labels=rng.integers(0, 2, size=b),
        scene_ids=np.zeros(b, dtype=np.int64),
        rows=np.arange(b, dtype=np.int64),
        cols=np.zeros(b, dtype=np.int64),
    )
    both_classes = 0
    for seed in range(20):
        net = init_network(replace(spec, seed=seed))
        labels, twin_labels = predict(net, ds.patches, twin=True)
        assert np.array_equal(twin_labels, predict(swap_logits(net), ds.patches))
        both_classes += 0 < labels.sum() < b
        want = (network_metrics(net, ds), network_metrics(swap_logits(net), ds))
        assert repr(dataset_metrics(net, ds)) == repr(want)
    assert b == 1 or both_classes > 0
    tied = replace(net, params=net.params[:-1] + (tuple(map(np.zeros_like, net.params[-1])),))
    assert np.all(predict(tied, ds.patches, twin=True) == 0)
    want = (network_metrics(swap_logits(tied), ds),) * 2
    assert repr(dataset_metrics(tied, ds)) == repr(want)


# ---------------------------------------------------------------------------
# the forked pair: network 2 in a worker process

PAIR_ROWS = 261  # 9 iterations an epoch at B=32, which the fault table's epoch-end cases count


def run_pair(monkeypatch, ds, cfg, cpus, modelsel=None):
    """train()'s result, or the NumericError it raised, with cpus CPUs in
    the affinity mask: 2 forks network 2's owner, 1 keeps both networks
    in this process. Either way no process outlives the call. modelsel
    defaults to ds."""
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        try:
            outcome = train(ds, ds if modelsel is None else modelsel, cfg)
        except NumericError as exc:
            outcome = exc
    assert multiprocessing.active_children() == []
    return outcome


def network_bytes(net):
    return b"".join(w.tobytes() + b.tobytes() for w, b in net.params)


def test_forked_pair_matches_one_process_bit_for_bit(monkeypatch):
    ds = toy_dataset(n=PAIR_ROWS, seed=8, noisy=True)
    cfg = base_config(t_max=3, t_k=1, batch_size=128, swap_rate=0.2)
    blas = training._openblas_threads()
    seen = []  # (pid, network seed, BLAS threads) of each rank in this process
    real_rank = training._rank

    def rank(net, x, y):
        seen.append((os.getpid(), net.spec.seed, blas[0]() if blas else None))
        return real_rank(net, x, y)

    monkeypatch.setattr(training, "_rank", rank)
    old = blas[0]() if blas else None
    try:
        if blas:
            blas[1](2)
        forked = run_pair(monkeypatch, ds, cfg, 2)
        forked_seen, restored = list(seen), blas[0]() if blas else None
        one = run_pair(monkeypatch, ds, cfg, 1)
    finally:
        if blas:
            blas[1](old)
    assert repr(forked.records) == repr(one.records)
    assert any(rec.n_swapped for rec in one.records)
    assert (forked.best_epoch, forked.best_accuracy) == (one.best_epoch, one.best_accuracy)
    assert len(forked.final_networks) == 2
    for got, want in zip((forked.best_network, *forked.final_networks),
                         (one.best_network, *one.final_networks)):
        assert network_bytes(got) == network_bytes(want)
    # the worker ranked network 2, this process network 1 at one BLAS
    # thread of its two; the one-process pair ranked both at two
    seed_1, seed_2 = training.derive_train_seeds(cfg.seed)[1:]
    threads = (1, 2) if blas else (None, None)
    assert set(forked_seen) == {(os.getpid(), seed_1, threads[0])}
    assert set(seen[len(forked_seen):]) == {(os.getpid(), seed, threads[1]) for seed in (seed_1, seed_2)}
    assert restored == threads[1]


def split_halves(batch):
    """The parent's and the worker's rows of one network's batch: the
    first ceil(c/2) of its c chunks, then the rest."""
    chunks = -(-len(batch) // nn._CHUNK)
    cut = -(-chunks // 2) * nn._CHUNK
    return batch[:cut], batch[cut:]


@pytest.mark.parametrize("b, n", [
    (256, 2 * 256 + 5),  # the last batch is 5 rows, one chunk, all the parent's
    (200, PAIR_ROWS),  # a 128 + 72 split, then a last batch of 61 rows
])
def test_split_network_matches_one_process_bit_for_bit(monkeypatch, tmp_path, b, n):
    """Vanilla's one network at B > 128 splits each batch's chunks across
    the forked pair. The parent trades the logits and the chunks'
    gradients once each an iteration, and its network and scores once an
    epoch, and the run is the one-process run bit for bit."""
    ds = toy_dataset(n=n, seed=8, noisy=True)
    cfg = base_config(algo="vanilla", t_max=3, batch_size=b)
    row_of = {ds.patches[i].tobytes(): i for i in range(n)}
    blas = training._openblas_threads()
    log = tmp_path / "ranks"  # both processes append (pid, BLAS threads, rows) of each rank
    real_rank, real_trade, trades = training._rank, training._Peer.trade, []

    def rank(net, x, y):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), blas[0]() if blas else None,
                                 [row_of[p.tobytes()] for p in x]]) + "\n")
        return real_rank(net, x, y)

    def trade(peer, payload):
        trades.append(payload)  # the worker's trades land in its own copy
        return real_trade(peer, payload)

    monkeypatch.setattr(training, "_rank", rank)
    monkeypatch.setattr(training._Peer, "trade", trade)
    old = blas[0]() if blas else None
    try:
        if blas:
            blas[1](2)
        forked = run_pair(monkeypatch, ds, cfg, 2)
        restored = blas[0]() if blas else None
        forked_ranks = [json.loads(line) for line in log.read_text().splitlines()]
        log.unlink()
        one = run_pair(monkeypatch, ds, cfg, 1)
        one_ranks = [json.loads(line) for line in log.read_text().splitlines()]
    finally:
        if blas:
            blas[1](old)
    assert repr(forked.records) == repr(one.records)
    assert (forked.best_epoch, forked.best_accuracy) == (one.best_epoch, one.best_accuracy)
    assert len(forked.final_networks) == 1
    for got, want in zip((forked.best_network, *forked.final_networks),
                         (one.best_network, *one.final_networks)):
        assert network_bytes(got) == network_bytes(want)
    assert len(trades) == cfg.t_max * (2 * -(-n // b) + 1)
    # the parent forwarded the first half of each batch and the worker the
    # rest, each at one BLAS thread of two; one process forwarded it all at two
    rng = np.random.default_rng(training.derive_train_seeds(cfg.seed)[0])
    batches = [perm[start : start + b].tolist() for perm in (rng.permutation(n) for _ in range(cfg.t_max))
               for start in range(0, n, b)]
    halves = [split_halves(batch) for batch in batches]
    threads = (1, 2) if blas else (None, None)
    parent = os.getpid()
    assert [rows for pid, _, rows in forked_ranks if pid == parent] == [first for first, _ in halves]
    assert [rows for pid, _, rows in forked_ranks if pid != parent] == [rest for _, rest in halves if rest]
    assert len({pid for pid, _, _ in forked_ranks}) == 2
    assert {blas_threads for _, blas_threads, _ in forked_ranks} == {threads[0]}
    assert one_ranks == [[parent, threads[1], batch] for batch in batches]
    assert restored == threads[1]


@pytest.mark.parametrize("bad, raised", [
    ((200,), 200),  # in the worker's half alone
    ((5, 200), 5),  # in both halves: the parent's chunk comes first
])
def test_split_network_raises_the_one_process_forward_error(monkeypatch, bad, raised):
    """A chunk forward that fails, here at the rows at positions bad of the
    first batch, raises the error of the first failing chunk, as one
    process does. At B=256 the parent forwards rows 0-127 of a batch and
    the worker rows 128-255."""
    ds = toy_dataset(n=2 * 256 + 5, seed=8, noisy=True)
    cfg = base_config(algo="vanilla", t_max=1, batch_size=256)
    perm = np.random.default_rng(training.derive_train_seeds(cfg.seed)[0]).permutation(len(ds))
    marked = {ds.patches[perm[i]].tobytes(): perm[i] for i in bad}
    real_forward = nn._forward

    def forward(net, x):
        hits = [marked[p.tobytes()] for p in x if p.tobytes() in marked]
        if hits:
            raise NumericError(f"non-finite activations in the chunk of row {hits[0]}")
        return real_forward(net, x)

    monkeypatch.setattr(nn, "_forward", forward)
    forked, one = run_pair(monkeypatch, ds, cfg, 2), run_pair(monkeypatch, ds, cfg, 1)
    assert isinstance(one, NumericError) and str(one).endswith(f"row {perm[raised]}")
    assert isinstance(forked, NumericError) and str(forked) == str(one)


def test_split_network_raises_the_one_process_error_of_a_non_finite_sum(monkeypatch):
    """Every chunk's dense dW is finite, 1e308 in each entry, but the sum of
    two chunks' overflows. Both processes of the pair fold the traded
    gradients and raise one process's NumericError, with no numpy warning."""
    ds = toy_dataset(n=PAIR_ROWS, seed=8, noisy=True)
    cfg = base_config(algo="vanilla", t_max=1, batch_size=256)
    real_backward = nn._backward

    def backward(net, caches, dlogits):
        grads = real_backward(net, caches, dlogits)
        return grads[:-1] + [(np.full_like(grads[-1][0], 1e308), grads[-1][1])]

    monkeypatch.setattr(nn, "_backward", backward)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the worker inherits the filter
        forked, one = run_pair(monkeypatch, ds, cfg, 2), run_pair(monkeypatch, ds, cfg, 1)
    assert isinstance(one, NumericError) and str(one) == "non-finite gradient in parametric layer 1"
    assert isinstance(forked, NumericError) and str(forked) == str(one)


def test_forked_pair_trades_once_per_iteration_and_once_per_epoch(monkeypatch):
    """The parent trades logits each iteration and, at each epoch's end,
    its network with both its scores in one trade; on epochs that pick the
    twin too, the pair's records are the one-process records."""
    train_ds, modelsel = inverted_task(PAIR_ROWS)
    cfg = base_config(t_max=3, batch_size=32, lr=0.5)
    trades, real_trade = [], training._Peer.trade

    def trade(peer, payload):
        trades.append(sorted(payload))  # the worker's trades land in its own copy
        return real_trade(peer, payload)

    monkeypatch.setattr(training._Peer, "trade", trade)
    forked = run_pair(monkeypatch, train_ds, cfg, 2, modelsel)
    one = run_pair(monkeypatch, train_ds, cfg, 1, modelsel)
    assert len(trades) == cfg.t_max * (9 + 1)
    assert repr(forked.records) == repr(one.records)
    assert any(rec.inverted for rec in one.records)
    assert any(rec.n_swapped for rec in one.records)


@pytest.mark.parametrize("faults, raised", [
    ({("sgd_step", 2): 5}, "sgd_step of network 2"),
    # network 2's step comes before network 1's step in the same iteration
    ({("sgd_step", 2): 5, ("sgd_step", 1): 5}, "sgd_step of network 2"),
    # ... and before network 1's next forward
    ({("sgd_step", 2): 5, ("forward", 1): 6}, "sgd_step of network 2"),
    # network 1's step comes before network 2's next forward
    ({("sgd_step", 1): 5, ("forward", 2): 6}, "sgd_step of network 1"),
    ({("forward", 2): 3, ("forward", 1): 4}, "forward of network 2"),
    # at an epoch's end: PAIR_ROWS = 261 rows at B=32 are 9 iterations
    ({("dataset_metrics", 2): 1, ("dataset_metrics", 1): 1}, "dataset_metrics of network 1"),
    ({("sgd_step", 2): 9, ("dataset_metrics", 1): 1}, "sgd_step of network 2"),
    ({("dataset_metrics", 2): 1, ("forward", 1): 10}, "dataset_metrics of network 2"),
])
def test_forked_pair_raises_the_one_process_error(monkeypatch, faults, raised):
    ds = toy_dataset(n=PAIR_ROWS, seed=8, noisy=True)
    cfg = base_config(t_max=2, t_k=1, batch_size=32, swap_rate=0.2)
    seed_1 = training.derive_train_seeds(cfg.seed)[1]
    calls = {}

    def faulty(name, real):
        def call(net, *args, **kwargs):
            key = (name, 1 if net.spec.seed == seed_1 else 2)
            calls[key] = calls.get(key, 0) + 1
            if faults.get(key) == calls[key]:
                raise NumericError(f"{name} of network {key[1]}, call {calls[key]}")
            return real(net, *args, **kwargs)
        return call

    real_loop = training._train_loop

    def loop(*args):  # each run of the loop counts afresh: the pair's, its rerun's, one process's
        calls.clear()
        return real_loop(*args)

    for name in ("forward", "sgd_step", "dataset_metrics"):
        monkeypatch.setattr(training, name, faulty(name, getattr(training, name)))
    monkeypatch.setattr(training, "_train_loop", loop)
    forked, one = run_pair(monkeypatch, ds, cfg, 2), run_pair(monkeypatch, ds, cfg, 1)
    assert isinstance(one, NumericError) and str(one).startswith(raised)
    assert isinstance(forked, NumericError) and str(forked) == str(one)


def test_a_dead_worker_leaves_the_one_process_run(monkeypatch):
    """A worker that dies at its 4th forward ends the pair, and train()
    returns the one-process run's result, with no process left behind."""
    ds = toy_dataset(n=PAIR_ROWS, seed=8, noisy=True)
    cfg = base_config(t_max=2, batch_size=32, swap_rate=0.2)
    parent, real_forward, calls = os.getpid(), training.forward, []

    def forward(net, x):
        calls.append(len(x))  # the worker's calls land in its own copy
        if os.getpid() != parent and len(calls) == 4:
            os._exit(1)
        return real_forward(net, x)

    monkeypatch.setattr(training, "forward", forward)
    forked, one = run_pair(monkeypatch, ds, cfg, 2), run_pair(monkeypatch, ds, cfg, 1)
    assert repr(forked.records) == repr(one.records)
    assert (forked.best_epoch, forked.best_accuracy) == (one.best_epoch, one.best_accuracy)
    for got, want in zip((forked.best_network, *forked.final_networks),
                         (one.best_network, *one.final_networks)):
        assert network_bytes(got) == network_bytes(want)
    assert multiprocessing.active_children() == []


def test_forked_worker_runs_the_patched_teach_half(monkeypatch):
    """The worker that owns network 2 inherits a patch of the teach half,
    so one wrong only outside this process changes the run."""
    ds = toy_dataset(n=PAIR_ROWS, seed=8, noisy=True)
    cfg = base_config(t_max=1, batch_size=128)
    parent, real_teach = os.getpid(), training._teach

    def teach(net, fwd, y, peer_losses, r, s, lr):
        return real_teach(net, fwd, y, peer_losses, r, s, 2 * lr if os.getpid() != parent else lr)

    monkeypatch.setattr(training, "_teach", teach)
    forked, one = run_pair(monkeypatch, ds, cfg, 2), run_pair(monkeypatch, ds, cfg, 1)
    assert network_bytes(forked.final_networks[0]) == network_bytes(one.final_networks[0])
    assert network_bytes(forked.final_networks[1]) != network_bytes(one.final_networks[1])


SMOKE_INI = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "configs", "smoke.ini")


def test_train_in_a_pool_worker_matches_the_forked_pair_bit_for_bit(monkeypatch):
    """A multiprocessing.Pool worker is daemonic and may have no children,
    so train() there keeps both networks in its own process; the result is
    the forked pair's, which train() gives outside the pool."""
    cfg = load_config(SMOKE_INI)
    train_cfg = replace(cfg.train, algo="canc", t_max=1)
    train_ds, modelsel_ds, _ = prepare_data(cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # the pool inherits it
    here = train(train_ds, modelsel_ds, train_cfg)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply(train, (train_ds, modelsel_ds, train_cfg))
        pool.close()
        pool.join()
    assert repr(pooled.records) == repr(here.records)
    assert (pooled.best_epoch, pooled.best_accuracy) == (here.best_epoch, here.best_accuracy)
    for got, want in zip((pooled.best_network, *pooled.final_networks),
                         (here.best_network, *here.final_networks)):
        assert network_bytes(got) == network_bytes(want)
