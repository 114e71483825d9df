"""Record tests/golden/pools.json and tests/golden/cli.json, the digests
that tests/test_bench_pools.py compares a checkout's outputs with.

    PYTHONPATH=src python3 tests/golden/record.py [--check]

With --check it recomputes both files and writes nothing: it prints each
start (workload, stratum, variant) and each CLI line whose digests
differ from the recorded ones, and exits 1 when any does.  It needs only
the standard library, so it also runs on interpreters that have no
pytest, such as the oldest Python the package supports.

pools.json holds, per grid workload of the bench and per stratum of its
pool, one line of digests, one per start: the sha256, cut to 16 hex
digits, of the repr of the start's termination, points, bit lengths,
`exact` and classification.  cli.json holds, per command line of
CLI_SET, the exit code and the sha256 of its stdout, --json bytes and
--out bytes (pentagon-verify has no --out), run in process through
`cli.main` from a fresh directory with relative output names.

Re-record only in a change that lists every moved start in CHANGES.md:
a re-recording is never a way to make a failing check pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import tempfile
from pathlib import Path

from symtiling import cli

GOLDEN = Path(__file__).resolve().parent
BENCH = GOLDEN.parents[1] / "bench"
POOLS = ("grid-exact", "grid-float")
CLI_SET = (
    ("grid-orbit", "--t", "1/3", "--seed", "5"),
    ("grid-orbit", "--t", "7/11", "--seed", "3"),
    ("grid-orbit", "--angle", "pi/5", "--seed", "5"),
    ("grid-orbit", "--angle", "pi/4", "--seed", "5"),
    ("grid-portrait", "--t", "3/7", "--resolution", "8x8"),
    ("grid-portrait", "--angle", "pi/5", "--resolution", "8x8"),
    ("sunburst-solve", "--n", "7", "--seed", "3"),
    ("sunburst-solve", "--n", "6", "--seed", "4", "--free"),
    ("sunburst-solve", "--n", "32", "--seed", "1"),
    ("linkage-convert", "--n", "7", "--seed", "3"),
    ("linkage-convert", "--n", "24", "--seed", "2"),
    ("moduli-embed", "--n", "5", "--seed", "4"),
    ("moduli-embed", "--n", "32", "--seed", "1"),
    ("pentagon-verify",),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_workloads():
    """bench/workloads.py, which is not a package module."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_digest(output) -> str:
    """The digest of one grid pool run, the (record, classification) that
    a bench grid workload's `run` returns."""
    record, classification = output
    text = repr((record.termination, record.a_points, record.b_points,
                 record.bit_lengths, record.exact, classification))
    return sha256(text.encode())[:16]


def cli_digests(argv) -> dict:
    """Exit code and digests of one CLI_SET run, in the current
    directory, which it leaves its output files in: --json and --out,
    or --json alone for pentagon-verify, which draws no figure."""
    paths = {"json": "out.json"}
    if argv[0] != "pentagon-verify":
        paths["out"] = "out.ppm" if argv[0] == "grid-portrait" else "out.svg"
    args = list(argv)
    for key, path in paths.items():
        args += (f"--{key}", path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    return {"code": code, "stdout": sha256(stdout.getvalue().encode()),
            **{key: sha256(Path(path).read_bytes())
               for key, path in paths.items()}}


def digests() -> dict:
    """The contents of pools.json and cli.json for this checkout, keyed
    by file name."""
    workloads = load_workloads().WORKLOADS
    pools = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in POOLS:
            workload = workloads[name]()
            workload.prepare(workdir)
            pools[name] = [" ".join(record_digest(workload.run((s, v, None)))
                                    for v in range(len(stratum)))
                           for s, stratum in enumerate(workload.strata)]
        home = os.getcwd()
        os.chdir(workdir)
        try:
            runs = {" ".join(argv): cli_digests(argv) for argv in CLI_SET}
        finally:
            os.chdir(home)
    return {"pools.json": pools, "cli.json": runs}


def moved(files: dict) -> list:
    """One line per start and per CLI line whose digests in files differ
    from the recorded files'."""
    lines = []
    pools = json.loads((GOLDEN / "pools.json").read_text())
    for name in sorted(set(pools) | set(files["pools.json"])):
        old, new = pools.get(name, []), files["pools.json"].get(name, [])
        for s in range(max(len(old), len(new))):
            was = old[s].split() if s < len(old) else []
            now = new[s].split() if s < len(new) else []
            for v in range(max(len(was), len(now))):
                pair = [d[v] if v < len(d) else None for d in (was, now)]
                if pair[0] != pair[1]:
                    lines.append(f"{name} stratum {s} variant {v}: "
                                 f"{pair[0]} -> {pair[1]}")
    runs = json.loads((GOLDEN / "cli.json").read_text())
    for argv in sorted(set(runs) | set(files["cli.json"])):
        old, new = runs.get(argv, {}), files["cli.json"].get(argv, {})
        keys = sorted(k for k in set(old) | set(new)
                      if old.get(k) != new.get(k))
        if keys:
            lines.append(f"cli {argv}: {', '.join(keys)} moved")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded files and write "
                        "nothing; exit 1 on any difference")
    args = parser.parse_args(argv)
    files = digests()
    if args.check:
        lines = moved(files)
        for line in lines:
            print(line)
        print(f"{len(lines)} digests moved")
        return 1 if lines else 0
    for name, data in files.items():
        with open(GOLDEN / name, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
