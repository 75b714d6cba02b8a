"""Repeatability of the benchmark's counters, reports and layer shares.

Each workload is traced three times (seed 1 twice, seed 2 once), which takes
about eight minutes on two cores:

    python3 -m pytest perfbench/test_perfbench.py
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# counters that must repeat exactly, besides every *.calls and *.nodes
EXACT = ("identities.entries", "mordell.value_cache.hit_ratio")

# the layer each workload was chosen to load, and its least self-time share
DOMINANT = {
    "series_edge": ("qseries", 0.6),
    "mf5_complex": ("mordell", 0.9),
    "stokes_lateral": ("mordell", 0.9),
}
SHARE_SLACK = 0.1  # largest change of any layer's share between seeds


@functools.cache
def traced(workload, seed, rep=0):
    """One traced run; `rep` tells apart runs of the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=900)
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def counters(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith((".calls", ".nodes")) or k in EXACT}


def shares(result):
    m = result["metrics"]
    return {layer: m[layer + ".self_s"]["value"] / m["trace.wall_s"]["value"]
            for layer in LAYERS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counters_and_reports(workload):
    info_a, a = traced(workload, 1)
    info_b, b = traced(workload, 1, rep=1)
    assert a["correct"] and b["correct"]
    assert counters(a) == counters(b)
    assert info_a["report_sha256"] == info_b["report_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_moves_points_keeps_layer_shares(workload):
    info_a, a = traced(workload, 1)
    info_c, c = traced(workload, 2)
    assert c["correct"]
    assert info_a["points"] != info_c["points"]
    sa, sc = shares(a), shares(c)
    layer, floor = DOMINANT[workload]
    assert min(sa[layer], sc[layer]) >= floor
    assert all(abs(sa[k] - sc[k]) <= SHARE_SLACK for k in LAYERS)
