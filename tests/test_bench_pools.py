"""Every grid pool entry of the bench gives the verdict that
bench/reference.json recorded for it and the whole record that
tests/golden/pools.json holds the digest of, and a fixed set of CLI
runs writes the bytes that tests/golden/cli.json holds the digests of.
A moved record would otherwise show only in a bench run's correct_frac,
and only when its verdict moved.  tests/golden/record.py re-records the
golden files."""

import json

import pytest

from golden import record


@pytest.mark.parametrize("name, size", [("grid-exact", 1728),
                                        ("grid-float", 6144)])
def test_grid_pool_verdicts_match_the_reference(name, size, tmp_path):
    workload = record.load_workloads().WORKLOADS[name]()
    recorded = json.loads((record.BENCH / "reference.json").read_text())
    recorded = recorded["workloads"][name]
    golden = json.loads((record.GOLDEN / "pools.json").read_text())[name]
    assert recorded["pool_sha256"] == workload.pool_sha256()
    workload.prepare(str(tmp_path))
    moved, changed = [], []
    for s, stratum in enumerate(workload.strata):
        digests = []
        for v in range(len(stratum)):
            output = workload.run((s, v, None))
            problem = workload.check(output, recorded["refs"][s][v])
            if problem:
                moved.append(f"{name} stratum {s} variant {v}: {problem}")
            digests.append(record.record_digest(output))
        want = golden[s].split()
        if digests != want:
            v = next((v for v, pair in enumerate(zip(digests, want))
                      if pair[0] != pair[1]), min(len(digests), len(want)))
            changed.append(f"{name} stratum {s}: variant {v} is the first "
                           "whose record differs from the golden one")
    assert sum(map(len, workload.strata)) == size
    assert not moved, "\n".join(moved[:20])
    assert not changed, "\n".join(changed)


@pytest.mark.parametrize("argv", record.CLI_SET, ids=" ".join)
def test_cli_outputs_match_the_golden_bytes(argv, tmp_path, monkeypatch):
    """stdout, --json and --out of each run, from a fresh directory with
    relative output names, since the JSON config records the paths."""
    monkeypatch.chdir(tmp_path)
    golden = json.loads((record.GOLDEN / "cli.json").read_text())
    assert record.cli_digests(argv) == golden[" ".join(argv)]
