"""Every grid pool entry of the bench gives the verdict that
bench/reference.json recorded for it.  A moved verdict would otherwise
show only in a bench run's correct_frac."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, size", [("grid-exact", 1728),
                                        ("grid-float", 6144)])
def test_grid_pool_verdicts_match_the_reference(name, size, tmp_path):
    workload = load_workloads().WORKLOADS[name]()
    recorded = json.loads((BENCH / "reference.json").read_text())
    recorded = recorded["workloads"][name]
    assert recorded["pool_sha256"] == workload.pool_sha256()
    workload.prepare(str(tmp_path))
    moved = []
    for s, stratum in enumerate(workload.strata):
        for v in range(len(stratum)):
            problem = workload.check(workload.run((s, v, None)),
                                     recorded["refs"][s][v])
            if problem:
                moved.append(f"{name} stratum {s} variant {v}: {problem}")
    assert sum(map(len, workload.strata)) == size
    assert not moved, "\n".join(moved[:20])
