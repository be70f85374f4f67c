"""A slice of ``tools/oracle_sweep.py`` in tier-1: every group at small m,
the certify group on its witnesses at m = 8, and the criteria on ladders
up to delta_n = 2^10."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_sweep.py"


def test_oracle_sweep_slice_finds_no_violation():
    spec = importlib.util.spec_from_file_location("oracle_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    results = tool.sweep(sizes=(3, 4, 6, 8), top=1 << 10)
    assert list(results) == ["dp", "rank", "gauge", "norm", "certify", "criteria"]
    for group, (modes, violations) in results.items():
        assert violations == [], group
        # the slice reaches every path of the group; a witness at m = 8 is
        # within the engine's cross-check, which is exact there, and every
        # criterion scan is within the scan budget, so exact
        assert set(modes) == {"dp": {"exact-dp"}, "norm": {"bounds", "exact-oracle"},
                              "certify": {"exact-dp", "exact-oracle"},
                              "criteria": {"exact"}}.get(
            group, {"bounds", "exact-dp", "exact-oracle"}), group
