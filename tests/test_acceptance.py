"""End-to-end acceptance checks.

Each test exercises one numbered behavioral guarantee of the package and
reports a single PASS/FAIL line. Lines print inline (visible under -s or on
failure) and are replayed after the run by the conftest terminal-summary
hook, so a plain `pytest -v` always shows the whole gate at a glance.
Tolerances are pinned in the assertions; the helper only reports, it never
loosens a check.
"""

import math
import os
import time
from dataclasses import astuple, replace

import numpy as np

from canclab import (
    NetworkSpec,
    Scene,
    TrainConfig,
    antisymmetric_matrix,
    apply_noise,
    build_mask_dataset,
    confusion,
    forward,
    generate_scene,
    loss_and_gradients,
    make_transition,
    parse_layers,
    prf1,
    remember_rate,
    select_clean,
    select_swap,
    sp_iou,
    symmetric_matrix,
    train,
)
from canclab import training
from canclab.config import load_config
from canclab.data import DataConfig
from canclab.harness import prepare_data, run_experiment
from canclab.nn import init_network
from oracles import coteaching_teach

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


RESULTS = []  # (num, ok, title), replayed by conftest after capture ends


def _report(num, title, ok):
    RESULTS.append((num, ok, title))
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {title}")
    assert ok, f"criterion {num} failed: {title}"


def test_criterion_01_noise_matrices_bit_exact():
    sym = symmetric_matrix(0.35).matrix
    anti = antisymmetric_matrix(0.35).matrix
    ok = np.array_equal(sym, np.array([[0.65, 0.35], [0.35, 0.65]])) and np.array_equal(
        anti, np.array([[0.65, 0.0], [0.35, 1.0]])
    )
    _report(1, "noise matrices match printed examples exactly", ok)


def test_criterion_02_empirical_flip_frequencies():
    t0 = time.time()
    n = 100000
    ok = True
    for eps in (0.15, 0.35, 0.45, 0.55):
        for kind in ("symmetric", "antisymmetric"):
            t = make_transition(kind, eps)
            for true_class in (0, 1):
                rng = np.random.default_rng(
                    np.random.SeedSequence((17, int(eps * 100), true_class))
                )
                y = np.full(n, true_class, dtype=np.int64)
                observed = apply_noise(y, t, rng)
                freq = np.bincount(observed, minlength=2) / n
                ok = ok and np.all(np.abs(freq - t.matrix[:, true_class]) <= 0.01)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(2, f"flip frequencies within 0.01 over 100000 draws/class ({elapsed:.2f} s)", ok)


def test_criterion_03_gradients_finite_difference():
    t0 = time.time()
    spec = NetworkSpec(
        input_size=8,
        channels=1,
        layers=parse_layers("conv(3,3,2) lrelu(0.1) conv(4,3,1) lrelu(0.2) dense(2)"),
        seed=11,
    )
    rng = np.random.default_rng(5)
    net = init_network(spec)
    x = np.clip(rng.normal(0.3, 0.2, (6, 8, 8, 1)), 0.0, 1.0)
    y = rng.integers(0, 2, 6)
    # the whole batch, and a peer step's masked mean: 4 of 6 rows chosen,
    # one of them with its label flipped
    y_peer = y.copy()
    y_peer[3] = 1 - y_peer[3]
    h = 1e-5
    worst = 0.0
    for labels, rows in ((y, None), (y_peer, [0, 2, 3, 5])):
        _, grads = loss_and_gradients(net, labels, forward(net, x), rows)
        for li, (dw, db) in enumerate(grads):
            for arr, g in ((net.params[li][0], dw), (net.params[li][1], db)):
                for idx in np.ndindex(*arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up, _ = loss_and_gradients(net, labels, forward(net, x), rows)
                    arr[idx] = orig - h
                    dn, _ = loss_and_gradients(net, labels, forward(net, x), rows)
                    arr[idx] = orig
                    fd = (up - dn) / (2 * h)
                    rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
                    worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _report(
        3,
        f"finite differences agree, whole batch and 4 of 6 rows "
        f"(max rel err {worst:.2e}, {elapsed:.1f} s)",
        ok,
    )


def test_criterion_04_selection_matches_full_sort_oracles():
    rng = np.random.default_rng(23)
    losses = rng.normal(0.0, 1.0, 1000)
    order = np.argsort(losses, kind="stable")
    ok = True
    for rate in np.arange(0.1, 0.95, 0.1):
        k_clean = max(1, int(math.floor(rate * losses.size)))
        k_swap = int(math.floor(rate * losses.size))
        clean_oracle = np.sort(order[:k_clean])
        swap_oracle = np.sort(np.argsort(-losses, kind="stable")[:k_swap])
        ok = ok and np.array_equal(select_clean(losses, rate), clean_oracle)
        ok = ok and np.array_equal(select_swap(losses, rate), swap_oracle)
    _report(4, "clean/swap selection equals full-sort prefix/suffix oracles", ok)


def test_criterion_05_remember_rate_schedule_exact():
    ok = True
    for t_k in (1, 3, 7, 10, 50):
        for tau_f in (0.0, 0.05, 0.25, 0.45, 0.55, 1.0):
            for t in (0, 1, 2, t_k - 1, t_k, t_k + 1, 3 * t_k):
                if t < 0:
                    continue
                expected = 1.0 - min(t / t_k * tau_f, tau_f)
                ok = ok and abs(remember_rate(t, t_k, tau_f) - expected) <= 1e-12
    ok = ok and remember_rate(0, 10, 0.45) == 1.0
    ok = ok and abs(remember_rate(10, 10, 0.45) - 0.55) <= 1e-12
    ok = ok and abs(remember_rate(99, 10, 0.45) - 0.55) <= 1e-12
    _report(5, "remember rate matches closed form to 1e-12 incl. endpoints", ok)


def _tiny_dataset(seed=3, n_scenes=4, size=128, m=16):
    params = DataConfig(scene_size=size, seed=seed)
    scenes = [generate_scene(params, scene_id=i) for i in range(n_scenes)]
    ds = build_mask_dataset(scenes, n_scenes, m=m, tau_label=0.01)
    rng = np.random.default_rng(7)
    noisy = apply_noise(ds.labels, symmetric_matrix(0.35), rng)
    return ds.with_labels(noisy, clean_labels=ds.labels)


def test_criterion_06_canc_s0_reduces_to_coteaching(monkeypatch):
    ds = _tiny_dataset()
    results = {}
    for algo in ("coteaching", "canc"):
        cfg = TrainConfig(
            algo=algo,
            network="conv(3,3,2) lrelu(0.1) dense(2)",
            lr=0.05,
            t_max=4,
            t_k=2,
            batch_size=32,
            tau_f=0.4,
            swap_rate=0.0,
            seed=101,
        )
        with monkeypatch.context() as mp:
            # co-teaching runs the independent reference half in place of
            # each network's teach half, in whichever process owns it, so
            # the check never compares a function with itself
            if algo == "coteaching":
                mp.setattr(training, "_teach", coteaching_teach)
            results[algo] = train(ds, ds, cfg)
    a, b = results["coteaching"], results["canc"]
    ok = repr(a.records) == repr(b.records)
    for net_a, net_b in zip(a.final_networks, b.final_networks):
        for (wa, ba), (wb, bb) in zip(net_a.params, net_b.params):
            ok = ok and wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
    _report(6, "CANC with S=0 is bitwise identical to co-teaching", ok)


def test_criterion_07_metric_semantics():
    y_true = np.array([1] * 5 + [0] * 5)
    y_pred = np.zeros(10, dtype=np.int64)
    counts = confusion(y_true, y_pred)
    acc, p, r, f1 = astuple(prf1(counts))
    degenerate_ok = (
        counts.tp == 0
        and counts.fp == 0
        and math.isnan(p)
        and r == 0.0
        and math.isnan(f1)
        and acc == 0.5
    )
    ones = np.ones(10, dtype=np.int64)
    zeros = np.zeros(4, dtype=np.int64)
    examples_ok = (
        sp_iou(ones, ones) == 1.0
        and sp_iou(zeros, zeros) == 1.0
        and sp_iou(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])) == 0.5
    )
    _report(7, "degenerate prf1 NaN pattern and the three sp_iou examples", degenerate_ok and examples_ok)


def test_criterion_08_noise_robustness_trends():
    base = load_config(os.path.join(CONFIG_DIR, "default.ini"))
    budget = 600.0
    results = {}
    for case, algo, kind, eps in (
        ("sym_canc", "canc", "symmetric", 0.55),
        ("sym_vanilla", "vanilla", "symmetric", 0.55),
        ("anti_canc", "canc", "antisymmetric", 0.45),
        ("anti_coteaching", "coteaching", "antisymmetric", 0.45),
    ):
        cfg = replace(
            base,
            noise=replace(base.noise, type=kind, epsilon=eps),
            train=replace(base.train, algo=algo),
        )
        t0 = time.time()
        tr_ds, ms_ds, _ = prepare_data(cfg)
        res = train(tr_ds, ms_ds, cfg.train)
        elapsed = time.time() - t0
        assert elapsed < budget, f"{case} took {elapsed:.0f} s"
        results[case] = res.best_accuracy
    sym_gap = results["sym_canc"] - results["sym_vanilla"]
    anti_gap = results["anti_canc"] - results["anti_coteaching"]
    ok = sym_gap >= 0.10 and anti_gap >= -0.02
    _report(
        8,
        f"symmetric 0.55 gap {sym_gap:+.4f} (need >= +0.10), "
        f"antisymmetric 0.45 gap {anti_gap:+.4f} (need >= -0.02)",
        ok,
    )


def test_criterion_09_rerun_byte_identical(tmp_path):
    cfg_path = os.path.join(CONFIG_DIR, "smoke.ini")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(load_config(cfg_path), out_dir=str(out))
        outputs.append({
            f: (out / f).read_bytes() for f in ("epochs.csv", "sp_iou.json", "summary.json")
        })
    ok = outputs[0] == outputs[1]
    _report(9, "repeated run produces byte-identical CSV/JSON", ok)


def test_criterion_10_labeling_boundaries_and_tiling():
    # one 64 x 64 scene cut into four 32 x 32 masks with 0, 10, 11 and 0
    # building pixels, labelled by the one tiling and labelling path
    m, tau = 32, 0.01
    gt = np.zeros((2 * m, 2 * m), dtype=np.uint8)
    gt[0, m : m + 10] = 1
    gt[m, :11] = 1
    scene = Scene(image=np.zeros((2 * m, 2 * m, 1)), gt=gt)
    boundaries_ok = build_mask_dataset([scene], 1, m, tau).labels.tolist() == [0, 0, 1, 0]
    scene = generate_scene(DataConfig(scene_size=2048, seed=9), scene_id=0)
    n_masks = len(build_mask_dataset([scene], 1, 8, tau))
    count_ok = n_masks == 65536 and (8192 // 32) ** 2 == (2048 // 8) ** 2 == 65536
    _report(10, "boundary masks 0/10/11 px -> 0/0/1; 65536-mask tiling (scaled grid)", boundaries_ok and count_ok)
