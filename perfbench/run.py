"""Run one workload of the benchmark of record and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 15 --trace 0

``--trace 0`` repeats the timed grid (tracing off) for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` runs one timed grid
and then serial traced passes for ``--seconds``, printing the
per-layer metrics of the median pass.  Either way one serial pass
checks the parallel grid's outcome digest, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, as declared in
``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Timed grids per ``--trace 0`` run, at least; more while time remains.
MIN_REPS = 3
#: Fresh-interpreter ``import repro`` probes behind ``setup_s``.
IMPORT_PROBES = 5
#: Cache fills behind ``cached-rerun``'s ``setup_s``.
FILL_REPS = 3
DEFAULT_SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must lie in [0, 2**31)")
    return args


def import_probe() -> float:
    """Wall time of a fresh interpreter that imports ``repro`` and exits."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], env=env,
                   check=True)
    return perf_counter() - start


class Run:
    """One benchmark run: its scratch directory, checks and counters."""

    def __init__(self, workload: bench.Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.workers = min(2, bench.available_cpus())
        self.attempted = 0
        self.failed = 0
        self.filled = None
        self.fill_digests = []
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"cache-{self._dirs}"

    def cache_root(self):
        """The run cache a grid of this workload uses (None: no cache)."""
        if self.workload.run_cache == "fresh":
            return self.fresh_dir()
        return self.filled

    def setup(self) -> float:
        """Prepare the workload; returns the median preparation time.

        Only ``cached-rerun`` has preparation: a paper-grid pass fills
        the run cache its grids then read.  It is repeated and the
        last fill kept.
        """
        if self.workload.run_cache != "filled":
            return 0.0
        times = []
        for _ in range(FILL_REPS):
            root = self.fresh_dir()
            start = perf_counter()
            fill = bench.timed_grid(bench.WORKLOADS["paper-grid"], self.seed,
                                    self.workers, root)
            times.append(perf_counter() - start)
            self.count(fill.cells, fill.failed_cells + fill.unexpected_cache)
            self.fill_digests.append(fill.digest)
            if self.filled is not None:
                shutil.rmtree(self.filled)
            self.filled = root
        return statistics.median(times)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def _with_cache(self, run_pass):
        """Call ``run_pass(cache_root)``; a fresh cache is removed after."""
        root = self.cache_root()
        try:
            return run_pass(root)
        finally:
            if root is not None and root != self.filled:
                shutil.rmtree(root, ignore_errors=True)

    def grid(self) -> bench.GridPass:
        return self._with_cache(lambda root: bench.timed_grid(
            self.workload, self.seed, self.workers, root))

    def traced(self) -> bench.TracedPass:
        traced = self._with_cache(lambda root: bench.traced_pass(
            self.workload, self.seed, root))
        self.count(len(traced.results), self.workload.unexpected_lookups(
            traced.cache_hits, traced.cache_misses))
        return traced

    def check(self, reference: str, grids, pinned: dict) -> None:
        """Count outcome-digest mismatches against the serial pass."""
        for grid in grids:
            self.count(grid.cells, grid.failed_cells + grid.unexpected_cache
                       + (grid.digest != reference))
        self.failed += sum(d != reference for d in self.fill_digests)
        if self.seed == DEFAULT_SEED:
            self.failed += reference != pinned[self.workload.name]


def measure(args, spec: dict) -> dict:
    load_average = os.getloadavg()
    workload = bench.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    pinned = json.loads((HERE / "pinned.json").read_text())["digests"]
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        run = Run(workload, args.seed, Path(scratch))
        print("fingerprint " + json.dumps(
            bench.fingerprint(load_average, run.workers), sort_keys=True))
        import_s = statistics.median(
            import_probe() for _ in range(IMPORT_PROBES))
        setup_s = import_s + run.setup()

        grids = []
        passes = []
        begin = perf_counter()
        if args.trace == 0:
            while (len(grids) < MIN_REPS
                   or perf_counter() - begin < args.seconds):
                grids.append(run.grid())
            passes.append(run.traced())
        else:
            grids.append(run.grid())
            begin = perf_counter()
            while not passes or perf_counter() - begin < args.seconds:
                passes.append(run.traced())
        reference = passes[0].digest
        for traced in passes[1:]:
            run.failed += traced.digest != reference
        run.check(reference, grids, pinned)
        rss = bench.peak_rss_mib()

    print(grids[0].tables)
    print(f"digest {workload.name} {reference}")
    print("grid wall_s " + " ".join(f"{g.wall_s:.4f}" for g in grids))
    error_rate = run.failed / run.attempted
    print(f"error_rate = {error_rate} ratio "
          f"({run.failed} of {run.attempted} cells)")
    if args.trace == 0:
        walls = [g.wall_s for g in grids]
        values = {
            "wall_s": statistics.median(walls),
            "accesses_per_s": statistics.median(
                g.cells * bench.TRACE_LENGTH / g.wall_s for g in grids),
            "setup_s": setup_s,
            "peak_rss_mib": rss,
        }
        declared = spec["end_to_end"]
    else:
        median_pass = sorted(passes, key=lambda p: p.wall_s)[
            (len(passes) - 1) // 2]
        values = bench.layer_metrics(median_pass, grids[0].wall_s,
                                     run.workers, error_rate)
        declared = spec["per_layer"]
    names = [entry["name"] for entry in declared]
    if set(values) != set(names):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(names))}")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        print(f"{name} = {values[name]} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench.validate_spec(spec)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args, spec)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
