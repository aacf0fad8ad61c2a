"""The committed ladder script runs against this checkout's sources, so a
change to what it calls breaks a test, not only the next benchmark."""
from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
spec = importlib.util.spec_from_file_location("sim_ladder", ROOT / "tools" / "sim_ladder.py")
sim_ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sim_ladder)


@pytest.mark.parametrize("point", [(12, 64, 0, False), (12, 64, 0, True), (18, 32, 2, False)],
                         ids=["12x64", "12x64+store", "18x32+2edges"])
def test_run_point_completes_on_this_checkout(point):
    assert point in sim_ladder.POINTS
    row = sim_ladder.run_point(str(ROOT / "src"), *point)
    assert row["complete"] and row["slots"] > 0
    assert row["simulate_s"] > 0 and row["traced_peak_mb"] > 0
