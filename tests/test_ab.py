"""tools/ab.py's pair summary on canned perfbench result lines; no
workload runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(masks_per_s, peak_rss_mb):
    """One perfbench/run.py result line, as parsed JSON."""
    return json.loads(json.dumps({
        "correct": True, "attempted": 5, "failed": 0,
        "metrics": {"masks_per_s": {"value": masks_per_s, "unit": "1/s"},
                    "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}},
    }))


BETTER = {"masks_per_s": "higher", "peak_rss_mb": "lower"}


def by_metric(rows):
    return {r["metric"]: r for r in rows}


def test_summary_claims_a_clear_gain_and_counts_wins_by_direction(ab):
    pairs = [(line(1000 + i, 170.0), line(1300 + i, 170.0 - (i % 2))) for i in range(10)]
    rows = by_metric(ab.summarize(pairs, BETTER))
    speed, rss = rows["masks_per_s"], rows["peak_rss_mb"]
    assert (speed["wins"], speed["pairs"], speed["claim"]) == (10, 10, True)
    assert speed["base"][0] == 1004.5 and speed["change"][0] == 1304.5
    # lower is better for memory; the five ties count for neither side
    assert (rss["wins"], rss["claim"]) == (5, False)


def test_summary_claims_nothing_from_identical_trees_or_few_pairs(ab):
    same = [(line(1000 + i, 170.0), line(1000 + i, 170.0)) for i in range(10)]
    assert not any(r["claim"] or r["wins"] for r in ab.summarize(same, BETTER))
    # one tiny pair: a win, but no claim below ten pairs
    (one,) = [r for r in ab.summarize([(line(1000, 170.0), line(2000, 170.0))], BETTER)
              if r["metric"] == "masks_per_s"]
    assert (one["wins"], one["claim"]) == (1, False)


def test_summary_needs_nine_tenths_and_a_gap_beyond_the_base_spread(ab):
    # 8 of 10 wins is too few, however large the gain
    eight = [(line(1000, 170.0), line(2000 if i < 8 else 900, 170.0)) for i in range(10)]
    assert not by_metric(ab.summarize(eight, BETTER))["masks_per_s"]["claim"]
    # 10 of 10 wins, but by less than the base's interquartile range
    wide = [(line(1000 + 100 * i, 170.0), line(1001 + 100 * i, 170.0)) for i in range(10)]
    row = by_metric(ab.summarize(wide, BETTER))["masks_per_s"]
    assert row["wins"] == 10 and not row["claim"]


def test_summary_withholds_the_claim_when_the_change_fails_more(ab, capsys):
    pairs = [(line(1000, 170.0), {"error": "exit 1: boom"})] + [
        (line(1000, 170.0), line(1200, 160.0)) for _ in range(10)
    ]
    rows = by_metric(ab.summarize(pairs, BETTER))
    # medians over the 10 good pairs, but the share of wins over all 11 run
    assert rows["masks_per_s"]["pairs"] == 11 and rows["masks_per_s"]["wins"] == 10
    assert rows["masks_per_s"]["failed"] == {"base": 0, "change": 1}
    assert not rows["masks_per_s"]["claim"] and not rows["peak_rss_mb"]["claim"]
    ab.print_rows(list(rows.values()))
    assert "failed runs: base 0, change 1" in capsys.readouterr().out
    assert ab.summarize([({"error": "x"}, line(1, 1))], BETTER) == []


def test_summary_counts_a_failed_pair_against_the_win_share(ab):
    # the base failed twice: the change fails no more, but 10 wins of 12 is too few
    pairs = [({"error": "failed 1 of 5 repeats"}, line(1200, 160.0))] * 2 + [
        (line(1000, 170.0), line(1200, 160.0)) for _ in range(10)
    ]
    row = by_metric(ab.summarize(pairs, BETTER))["masks_per_s"]
    assert (row["wins"], row["pairs"], row["claim"]) == (10, 12, False)
    # one base failure in 11 pairs: 10 wins is still nine tenths
    row = by_metric(ab.summarize(pairs[1:], BETTER))["masks_per_s"]
    assert (row["wins"], row["pairs"], row["failed"], row["claim"]) == (
        10, 11, {"base": 1, "change": 0}, True)


def test_network_hashes_flag_each_differing_or_missing_network(ab, capsys):
    base = [f"{cell} {net} {'a' * 64}" for cell, *_ in ab.NETWORK_CELLS
            for net in ("best", "final1", "final2")]
    change = base[:4] + [base[4][:-1] + "b"] + base[5:]
    assert [ab.compare_digests(base, side, "networks") for side in (base, change, base[:-1])] == [0, 1, 1]
    out = capsys.readouterr().out
    assert "networks: 15 lines, 0 differ, 0 added" in out
    assert out.count("networks: 15 lines, 1 differ, 0 added") == 2
    assert out.count("DIFF") == 2
    assert f"DIFF  base   {base[4]}\n        change {change[4]}" in out
    assert f"DIFF  base   {base[-1]}\n        change (none)" in out


def test_digest_lines_only_the_change_prints_count_as_added(ab, capsys):
    base = [f"smoke {f} {'a' * 64}" for f in ("epochs.csv", "sp_iou.json", "summary.json")]
    appended = base + ["late full.bin " + "c" * 64, "late eval.bin " + "d" * 64]
    changed = base[:1] + [base[1][:-1] + "b"] + base[2:] + appended[3:]
    assert [ab.compare_digests(base, side) for side in (appended, changed, base[:-1])] == [0, 1, 1]
    out = capsys.readouterr().out
    assert out.count("digest: 5 lines, 0 differ, 2 added") == 1
    assert out.count("digest: 5 lines, 1 differ, 2 added") == 1
    assert "digest: 3 lines, 1 differ, 0 added" in out
    assert out.count(f"ADDED change {appended[3]}") == 2
    assert f"DIFF  base   {base[1]}\n        change {changed[1]}" in out
    assert f"DIFF  base   {base[2]}\n        change (none)" in out


def test_trade_paths_swaps_the_trees_directories(ab, tmp_path):
    trees = {side: tmp_path / side for side in ("base", "change")}
    for side, tree in trees.items():
        tree.mkdir()
        (tree / "SIDE").write_text(side)
    ab.trade_paths(trees)
    assert trees == {"base": tmp_path / "change", "change": tmp_path / "base"}
    assert {side: (tree / "SIDE").read_text() for side, tree in trees.items()} == {
        "base": "base", "change": "change"}
    ab.trade_paths(trees)
    assert trees == {"base": tmp_path / "base", "change": tmp_path / "change"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base", "change"]


def test_workload_takes_several_names_and_repeats(ab):
    assert ab.parse_args(["HEAD~1"]).workload is None
    for argv in (["--workload", "vanilla_b512", "canc_sym055"],
                 ["--workload", "vanilla_b512", "--workload", "canc_sym055"]):
        args = ab.parse_args(["HEAD~1", *argv, "--pairs", "3"])
        assert (args.workload, args.pairs) == (["vanilla_b512", "canc_sym055"], 3)
