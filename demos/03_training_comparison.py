"""Train the three algorithms on one noisy dataset and compare.

Uses a reduced preset so the whole demo finishes in about 15 s.
Run from the repository root:
    python3 demos/03_training_comparison.py
"""

import numpy as np

from canclab import (
    DataConfig,
    TrainConfig,
    build_mask_dataset,
    generate_scene,
    inject,
    make_transition,
    train,
)
from canclab.data import split_dataset

params = DataConfig(scene_size=256, seed=0, building_count=(8, 20), building_side=(16, 48))
scenes = (generate_scene(params, scene_id=i) for i in range(8))
ds = build_mask_dataset(scenes, 8, m=16, tau_label=0.01)
tr, ms, ev = split_dataset(ds, (0.7, 0.15, 0.15), seed=0)
tr = inject(tr, make_transition("symmetric", 0.35), seed=1)

print(f"train {tr.labels.size} masks ({np.mean(tr.labels != tr.clean_labels):.3f} flipped), "
      f"modelsel {ms.labels.size}, eval {ev.labels.size}")

for algo in ("vanilla", "coteaching", "canc"):
    cfg = TrainConfig(
        algo=algo, network="conv(4,5,2) lrelu(0.1) conv(8,3,1) lrelu(0.1) dense(2)",
        lr=0.05, t_max=30, t_k=8, batch_size=32, tau_f=0.35, swap_rate=0.1, seed=2,
    )
    res = train(tr, ms, cfg)
    last = res.records[-1]
    print(f"\n{algo}")
    print(f"  best modelsel accuracy {res.best_accuracy:.4f} at epoch {res.best_epoch}")
    print(f"  final epoch: running train acc {last.train_metrics.accuracy:.4f}, "
          f"modelsel acc {last.modelsel_metrics.accuracy:.4f}")
    if algo == "canc":
        swaps = [r.n_swapped for r in res.records]
        good = [r.swap_correct_fraction for r in res.records if r.n_swapped > 0]
        print(f"  swapped per epoch {swaps}")
        print(f"  fraction of swaps that corrected a wrong label, last epoch: {good[-1]:.3f}")
