"""The benchmark's workloads: ``configs/default.ini`` plus a few overrides.

Every workload keeps the shipped data, noise and network. A workload seed n
shifts each of the config's three seeds (data, noise, train) by n, so seed 0
is the config as shipped.
"""

from __future__ import annotations

import configparser
import io
import os

# Two epochs are the fewest that exercise every training step: epoch 0 has
# R = 1 and no swaps, epoch 1 ranks, selects and swaps (R = 0.975,
# S = 0.025 under the shipped t_k and tau_f). They keep one pass of
# canc_sym055 near 5 s, so a run holds several repeats.
EPOCHS = 2

WORKLOADS = {
    "canc_sym055": {
        "kind": "train",
        "why": "the paper's headline cell: CANC, symmetric eps 0.55, B=64, two networks; "
        "rank forward, peer SGD, selection and per-epoch eval all do real work",
        "overrides": {"train": {"t_max": EPOCHS}},
    },
    "vanilla_b512": {
        "kind": "train",
        "why": "same data and network, one network at B=512: no ranking forward and no "
        "selection, few large SGD steps, a larger eval share",
        "overrides": {"train": {"algo": "vanilla", "batch_size": 512, "t_max": EPOCHS}},
    },
    "datagen_io": {
        "kind": "datagen",
        "why": "gen-data at m=8 (81,920 masks) then reading all four files back: "
        "labelling and the per-record file format do all the work, nn and training none",
        "overrides": {"data": {"m": 8}},
    },
}

SEEDED_SECTIONS = ("data", "noise", "train")


def config_text(config_path: str, workload: str, seed: int) -> str:
    """INI text of the workload's config for workload seed ``seed``."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(config_path, encoding="utf-8") as fh:
        cp.read_file(fh)
    for section in SEEDED_SECTIONS:
        cp[section]["seed"] = str(cp.getint(section, "seed") + seed)
    for section, values in WORKLOADS[workload]["overrides"].items():
        for key, value in values.items():
            cp[section][key] = str(value)
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def default_config(root: str) -> str:
    return os.path.join(root, "configs", "default.ini")
