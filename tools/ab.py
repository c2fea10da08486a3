"""Compare a base commit with a change: report digests, then benchmark pairs.

    python3 tools/ab.py REV [--workload W [W ...]] [--pairs N] [--seed K]
                            [--seconds S] [--trace 0|1] [--networks]

Archives REV (the base) and HEAD (the change) with `git archive` into one
temporary directory, so each side runs from its committed files only. Then
it does two things:

* It runs tools/report_digest.py in both trees and prints every digest
  line, flagging each one that differs and each one that only the change
  prints (added). Two trees whose reports should agree byte for byte show
  no DIFF flag; only a differing line or one the change lacks makes the
  exit status 1. With --networks it does the same for the sha256 of the
  best and final networks of criterion 8's four cells and of a vanilla
  cell at batch_size 512 (five full configs/default.ini runs per tree,
  minutes each).
* For each workload it runs N pairs of `perfbench/run.py --workload W
  --seed K --seconds S --trace T`, one run per tree, alternating which tree
  goes first, and reads the JSON line each run prints last. Between pairs
  the two trees trade directories by renaming, so each side runs half its
  pairs from each path: the path alone can move peak_rss_mb by about 1 MB
  with every file byte-identical. For each metric it prints both sides'
  medians and quartiles over the pairs and how many pairs the change won,
  in the direction BENCHMARK.json gives.

Every run gets OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1:
compiling bytecode moves peak RSS by a few MB. A run fails when it exits
without a result line or when any of its repeats fails; each side's
failures are counted and printed. A metric is marked "claim" only under the
benchmark's rule: at least ten pairs run, the change failing no more runs
than the base, the change winning at least nine tenths of all pairs run (a
pair with a failed run and a tie count as no win), and the medians over
the pairs where both runs succeeded apart, in the better direction, by more
than the base's interquartile range, computed as perfbench/run.py computes
it. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load_quartiles():
    """perfbench/run.py's _quartiles, so the claim rule uses the benchmark's own."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._quartiles


_quartiles = _load_quartiles()


def directions() -> dict:
    """metric name -> 'higher' or 'lower', from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def env() -> dict:
    out = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    out.pop("PYTHONPATH", None)  # each tree imports its own src/
    return out


def archive(rev: str, dest: Path) -> Path:
    """The files of rev, extracted into dest."""
    dest.mkdir()
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                          capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)
    return dest


def trade_paths(trees: dict):
    """Rename the base and change trees to each other's directories."""
    base, change = trees["base"], trees["change"]
    hold = base.with_name(base.name + ".trading")
    base.rename(hold)
    change.rename(base)
    hold.rename(change)
    trees["base"], trees["change"] = change, base


def digest_lines(tree: Path) -> list:
    proc = subprocess.run([sys.executable, "tools/report_digest.py"], cwd=tree, env=env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


# (name, algo, noise, epsilon, batch_size): criterion 8's cells as
# tests/test_acceptance.py runs them, then one whose batches of four 128-row
# chunks the forked pair splits
NETWORK_CELLS = (
    ("sym_canc", "canc", "symmetric", 0.55, 64),
    ("sym_vanilla", "vanilla", "symmetric", 0.55, 64),
    ("anti_canc", "canc", "antisymmetric", 0.45, 64),
    ("anti_coteaching", "coteaching", "antisymmetric", 0.45, 64),
    ("sym_vanilla_b512", "vanilla", "symmetric", 0.55, 512),
)

# run in a tree with the cells as JSON in argv[1]; prints "<cell> <network> <sha256>"
NETWORK_SCRIPT = """
import hashlib, json, sys
from dataclasses import replace
sys.path.insert(0, "src")
from canclab import train
from canclab.config import load_config
from canclab.harness import prepare_data
base = load_config("configs/default.ini")
for cell, algo, kind, eps, batch_size in json.loads(sys.argv[1]):
    cfg = replace(base, noise=replace(base.noise, type=kind, epsilon=eps),
                  train=replace(base.train, algo=algo, batch_size=batch_size))
    res = train(*prepare_data(cfg)[:2], cfg.train)
    named = [("best", res.best_network)]
    named += [(f"final{i + 1}", net) for i, net in enumerate(res.final_networks)]
    for name, net in named:
        h = hashlib.sha256()
        for w, b in net.params:
            h.update(w.tobytes())
            h.update(b.tobytes())
        print(cell, name, h.hexdigest(), flush=True)
"""


def network_lines(tree: Path) -> list:
    proc = subprocess.run([sys.executable, "-c", NETWORK_SCRIPT, json.dumps(NETWORK_CELLS)],
                          cwd=tree, env=env(), capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def compare_digests(base: list, change: list, what: str = "digest") -> int:
    """Print both trees' digest lines side by side; returns how many differ.
    A line that only the change prints (a run its script added) is counted
    as added, not as differing; a line the change lacks differs."""
    differ = added = 0
    for i in range(max(len(base), len(change))):
        b = base[i] if i < len(base) else "(none)"
        c = change[i] if i < len(change) else "(none)"
        if b == c:
            print(f"  same  {b}")
        elif i >= len(base):
            added += 1
            print(f"  ADDED change {c}")
        else:
            differ += 1
            print(f"  DIFF  base   {b}\n        change {c}")
    print(f"{what}: {max(len(base), len(change))} lines, {differ} differ, {added} added")
    return differ


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last JSON line of one perfbench run in tree, or {"error": ...}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env(), capture_output=True, text=True,
                              timeout=3 * seconds + 600)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"error": f"exit {proc.returncode}: {tail}"}
    if not result.get("correct"):
        result["error"] = f"failed {result.get('failed')} of {result.get('attempted')} repeats"
    return result


def summarize(pairs, better: dict) -> list:
    """One row per metric that every good pair reports on both sides.

    pairs is a list of (base, change) results as perfbench/run.py prints
    them, with "error" set on a failed run; better maps a metric name to
    'higher' or 'lower'. A good pair is one where both runs succeeded. A row
    holds each side's median and quartiles over the good pairs, the
    change's wins, the number of pairs run, each side's failed runs, and
    whether the change may claim a gain by the benchmark's rule.
    """
    good = [(b, c) for b, c in pairs if "error" not in b and "error" not in c]
    if not good:
        return []
    failed = {"base": sum("error" in b for b, _ in pairs),
              "change": sum("error" in c for _, c in pairs)}
    names = [n for n in good[0][0]["metrics"]
             if n in better and all(n in b["metrics"] and n in c["metrics"] for b, c in good)]
    rows = []
    for name in names:
        sign = 1.0 if better[name] == "higher" else -1.0
        base = [b["metrics"][name]["value"] for b, _ in good]
        change = [c["metrics"][name]["value"] for _, c in good]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        (bq1, bq3), (cq1, cq3) = _quartiles(base), _quartiles(change)
        gap = sign * (statistics.median(change) - statistics.median(base))
        rows.append({
            "metric": name,
            "unit": good[0][0]["metrics"][name]["unit"],
            "better": better[name],
            "base": (statistics.median(base), bq1, bq3),
            "change": (statistics.median(change), cq1, cq3),
            "wins": wins,
            "pairs": len(pairs),
            "failed": failed,
            "claim": (len(pairs) >= MIN_PAIRS and failed["change"] <= failed["base"]
                      and wins >= WIN_SHARE * len(pairs) and gap > bq3 - bq1),
        })
    return rows


def print_rows(rows):
    if rows:
        print("failed runs: base {base}, change {change}".format(**rows[0]["failed"]))
    print(f"{'metric':<32}{'base median [q1-q3]':>34}{'change median [q1-q3]':>34}"
          f"{'wins':>8}  claim")
    for r in rows:
        b = "{:.5g} [{:.5g}-{:.5g}]".format(*r["base"])
        c = "{:.5g} [{:.5g}-{:.5g}]".format(*r["change"])
        print(f"{r['metric']:<32}{b:>34}{c:>34}{r['wins']:>4}/{r['pairs']:<3}  "
              f"{'claim' if r['claim'] else '-'}")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the base commit")
    ap.add_argument("--workload", action="extend", nargs="+",
                    help="one or more names, repeatable; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--networks", action="store_true",
                    help="also compare the hashes of criterion 8's best and final networks")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = args.workload or [m["name"] for m in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    with tempfile.TemporaryDirectory(prefix="canclab-ab-") as tmp:
        trees = {"base": archive(args.rev, Path(tmp) / "base"),
                 "change": archive("HEAD", Path(tmp) / "change")}
        print(f"base {args.rev}, change HEAD, trees in {tmp}", flush=True)
        differ = compare_digests(digest_lines(trees["base"]), digest_lines(trees["change"]))
        if args.networks:
            differ += compare_digests(network_lines(trees["base"]), network_lines(trees["change"]),
                                      "networks")
        better = directions()
        for workload in workloads if args.pairs else []:
            print(f"\nworkload {workload} seed {args.seed} trace {args.trace}: "
                  f"{args.pairs} pairs of {args.seconds:g} s", flush=True)
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got = {side: bench_run(trees[side], workload, args.seed, args.seconds, args.trace)
                       for side in order}
                pairs.append((got["base"], got["change"]))
                shown = {side: got[side].get("error") or {n: m["value"] for n, m in
                                                          got[side]["metrics"].items()}
                         for side in ("base", "change")}
                print(f"pair {i} ({order[0]} first, base in {trees['base'].name}/): "
                      f"{json.dumps(shown)}", flush=True)
                trade_paths(trees)
            print_rows(summarize(pairs, better))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
