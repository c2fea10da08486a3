"""Generate a few synthetic scenes and inspect the mask pipeline.

Run from the repository root:
    python3 demos/01_scene_gallery.py
"""

import numpy as np

from canclab import DataConfig, build_mask_dataset, generate_scene

params = DataConfig(scene_size=256, seed=0)
scenes = [generate_scene(params, scene_id=i) for i in range(4)]

print("scene gallery")
for s in scenes:
    gt_frac = float(np.mean(s.gt))
    print(
        f"  scene {s.scene_id}: image {s.image.shape}, intensity "
        f"[{s.image.min():.3f}, {s.image.max():.3f}], built-up pixel fraction {gt_frac:.3f}"
    )

m = 16
ds = build_mask_dataset(scenes, len(scenes), m=m, tau_label=0.01)
first = ds.scene_ids == scenes[0].scene_id
positions = np.stack([ds.rows[first], ds.cols[first]], axis=1)
print(f"\ntiling scene 0 at m={m}: {int(first.sum())} masks of {ds.m}x{ds.m}")
print(f"  first positions (row, col): {positions[:4].tolist()}")

pos = int(ds.labels.sum())
print(f"\ndataset over {len(scenes)} scenes: {ds.labels.size} masks, {pos} positive "
      f"({pos / ds.labels.size:.3f})")

# The label threshold is inclusive: a mask needs >= tau * m^2 bright pixels.
need = int(np.ceil(0.01 * m * m))
print(f"  positive means >= {need} of {m * m} pixels are built-up at tau_label=0.01")
