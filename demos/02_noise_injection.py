"""Show the two noise models and verify empirical flip rates.

Run from the repository root:
    python3 demos/02_noise_injection.py
"""

import numpy as np

from canclab import (
    DataConfig,
    build_mask_dataset,
    generate_scene,
    inject,
    make_transition,
    symmetric_matrix,
    antisymmetric_matrix,
)

print("symmetric, epsilon=0.35 (prob of observed row given true column):")
print(symmetric_matrix(0.35).matrix)
print("\nantisymmetric, epsilon=0.35 (only class 0 flips, one direction):")
print(antisymmetric_matrix(0.35).matrix)

# scenes are drawn one at a time as the build consumes them
scenes = (generate_scene(DataConfig(scene_size=256, seed=3), scene_id=i) for i in range(6))
ds = build_mask_dataset(scenes, 6, m=16, tau_label=0.01)

for kind in ("symmetric", "antisymmetric"):
    t = make_transition(kind, 0.45)
    noisy = inject(ds, t, seed=11)
    flipped = noisy.labels != ds.labels
    frac = float(np.mean(flipped))
    per_class = [
        float(np.mean(flipped[ds.labels == c])) for c in (0, 1)
    ]
    print(f"\n{kind} eps=0.45 on {ds.labels.size} masks:")
    print(f"  overall flipped fraction {frac:.4f}")
    print(f"  flip rate given true 0: {per_class[0]:.4f}, given true 1: {per_class[1]:.4f}")

# Anti-symmetric noise only corrupts true negatives; positives keep label 1.
