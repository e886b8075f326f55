import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_multigrid_build():
    """bench/multigrid_build.py as a module; importing it runs nothing."""
    spec = importlib.util.spec_from_file_location("multigrid_build", ROOT / "bench" / "multigrid_build.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_five_pairs_with_one_reversed_read_unresolved():
    # the raw fixture builds of bench/BENCH_one_structure.json, on levels that
    # are bit-identical on both sides: the quartile ranges separate (+3.4%),
    # but the change is slower in only 4 of the 5 pairs
    compare = load_multigrid_build().compare
    raw = json.loads((ROOT / "bench" / "BENCH_one_structure.json").read_text())["fixture_builds_s"]["raw"]
    parent, change = raw["parent"]["runs"], raw["change"]["runs"]
    assert [round(t, 4) for t in parent] == [0.6518, 0.6618, 0.7112, 0.6432, 0.6331]
    assert [round(t, 4) for t in change] == [0.6900, 0.6749, 0.6741, 0.6614, 0.6725]
    assert compare(parent, change)["resolved"] is False


def test_ten_pairs_resolve_only_when_one_side_wins_nine():
    compare = load_multigrid_build().compare
    parent = [1.0 + 0.01 * k for k in range(10)]
    slower = [1.1 * t for t in parent]
    entry = compare(parent, slower)
    assert entry["resolved"] is True and entry["change_pct"] > 9.9
    assert compare(slower, parent)["resolved"] is True
    # one pair reversed still wins 9 of 10; a tie in a second pair counts for
    # neither side, so 8 of 10 do not resolve
    one_reversed = [*slower[:9], 0.99]
    assert compare(parent, one_reversed)["resolved"] is True
    assert compare(parent, [*one_reversed[:8], parent[8], 0.99])["resolved"] is False
