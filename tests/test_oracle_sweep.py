"""A slice of ``tools/oracle_sweep.py`` in tier-1: every group at small m."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_sweep.py"


def test_oracle_sweep_slice_finds_no_violation():
    spec = importlib.util.spec_from_file_location("oracle_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    results = tool.sweep(sizes=(3, 4, 6, 8))
    assert list(results) == ["dp", "rank", "gauge", "norm"]
    for group, (modes, violations) in results.items():
        assert violations == [], group
        # the slice reaches every path of the group
        assert set(modes) == {"dp": {"exact-dp"}, "norm": {"bounds", "exact-oracle"}}.get(
            group, {"bounds", "exact-dp", "exact-oracle"}), group
