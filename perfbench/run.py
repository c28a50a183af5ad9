"""Layered benchmark of blockhyperg: block fits, all-subsets search and
consistency replicates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src``. Each workload runs in this one process as a closed loop: one
caller, one operation at a time, BLAS pinned to one thread. The seed picks
the workload's input set from the reference pool (see workloads.py); the
set is run in whole passes, and another pass starts only if it is expected
to finish within ``--seconds``. Every output is checked against
``reference.json`` after its pass.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
``setup_s`` is the median of fresh interpreters that each import the
library and run the workload's warm-up operation. With ``--trace 1`` every
op of the set runs once plain and once traced, and the per-layer metrics
are printed. ``--smoke`` swaps in a tiny input set for the self-check.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# pin BLAS before anything can import numpy
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_PROBES = 7
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny input set, for the self-check")
    ap.add_argument("--probe", metavar="SPEC",
                    help=argparse.SUPPRESS)  # set-up probe, internal
    return ap.parse_args(argv)


def probe(spec_path: str) -> int:
    """Fresh-interpreter set-up: import the library, run the warm-up op."""
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    from blockhyperg import cli, experiments
    workloads.execute(spec, cli, experiments)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(workload: str, spec_path: Path) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--probe", str(spec_path)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])
                   ["setup_s"])
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blockhyperg").glob("*.py*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs since boot; None where /proc/stat has no steal column."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_record(start_load: float, start_steal: float | None) -> dict:
    import numpy
    import scipy

    from blockhyperg import kernels

    steal_end = steal_seconds()
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "kernels_backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load1_start": start_load,
        # stolen time moves the timings without any change in the code
        "steal_s": (None if None in (start_steal, steal_end)
                    else round(steal_end - start_steal, 2)),
        "load1_end": os.getloadavg()[0],
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def tail(lat: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it.

    Returns (value, percentile, ops beyond it); with TAIL_BEYOND ops or
    fewer there is no such percentile and the maximum is returned.
    """
    s = sorted(lat)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Harness:
    """The workload's prepared ops, their references and the run loop."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        import check

        from blockhyperg import cli, experiments

        self.check = check
        self.cli, self.experiments = cli, experiments
        keys = workloads.choose_items(args.workload, args.seed, args.smoke)
        self.digest = hashlib.sha256(json.dumps(keys).encode()).hexdigest()
        self.specs = [workloads.prepare(k, str(workdir / f"op{i:03d}"))
                      for i, k in enumerate(keys)]
        wkey = workloads.warmup_key(args.workload)
        self.warmup = workloads.prepare(wkey, str(workdir / "warmup"))
        self.probe_spec = workloads.prepare(wkey, str(workdir / "probe"))
        with open(HERE / "reference.json") as fh:
            items = json.load(fh)["items"]
        self.refs = {k: items[k] for k in keys + [wkey]}
        self.attempted = 0
        self.failed = 0

    def run_op(self, spec: dict, call=None):
        """Execute one op; returns (raw result or None, seconds)."""
        t0 = time.perf_counter()
        try:
            raw = (call or workloads.execute)(spec, self.cli,
                                              self.experiments)
        except Exception:  # a library failure is a counted, reported miss
            raw = None
            traceback.print_exc(file=sys.stderr)
        return raw, time.perf_counter() - t0

    def verify(self, spec: dict, raw) -> None:
        """Check one op's output; a miss is printed and counted."""
        self.attempted += 1
        if raw is None:
            problems = ["raised an exception"]
        else:
            out = workloads.collect(spec, raw)
            problems = self.check.compare(spec["key"], out,
                                          self.refs[spec["key"]])
        if problems:
            self.failed += 1
            for p in problems:
                print(f"MISS {spec['key']}: {p}")

    def one_pass(self) -> tuple[float, float, list[float]]:
        """Run every op once; returns (wall s, CPU s, latency per op)."""
        lat, raws = [], []
        c0 = time.process_time()
        t0 = time.perf_counter()
        for spec in self.specs:
            raw, dt = self.run_op(spec)
            raws.append(raw)
            lat.append(dt)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        for spec, raw in zip(self.specs, raws):
            self.verify(spec, raw)
        return wall, cpu, lat

    def warm(self) -> None:
        raw, _ = self.run_op(self.warmup)
        self.verify(self.warmup, raw)


def timed(h: Harness, seconds: float) -> dict:
    """Whole passes while the next one is expected to fit in `seconds`."""
    walls, cpus, lats = [], [], [[] for _ in h.specs]
    start = time.perf_counter()
    while True:
        wall, cpu, lat = h.one_pass()
        walls.append(wall)
        cpus.append(cpu)
        for i, v in enumerate(lat):
            lats[i].append(v)
        if time.perf_counter() - start + wall > seconds:
            break
    per_op = [statistics.median(v) for v in lats]
    by_cat: dict[str, list[float]] = {}
    for spec, v in zip(h.specs, per_op):
        by_cat.setdefault(spec["key"].split("/")[1], []).append(v)
    print("op ms by category: " + ", ".join(
        f"{c} {1e3 * statistics.median(v):.0f}x{len(v)}"
        for c, v in sorted(by_cat.items(), key=lambda cv: -max(cv[1]))))
    t_val, t_pct, t_beyond = tail(per_op)
    # CPU time well below wall time means the worker waited for a core
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}s" for w in walls)
          + " (cpu " + " ".join(f"{c:.3f}s" for c in cpus) + ")")
    print(f"op_tail_ms is p{t_pct:.1f} of {len(per_op)} ops "
          f"({t_beyond} beyond it)")
    return {"wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * t_val}


def traced(h: Harness) -> tuple[dict, object]:
    """Every op twice, once plain and once with every layer wrapped.

    The two runs of an op are adjacent and their order alternates from op
    to op, so drift in the machine's speed and an op's first-run cache
    fills fall on both sides alike; trace.overhead_ratio compares the two
    sums.
    """
    import tracing

    tracer = tracing.Tracer()

    def call(spec, cli, experiments):
        return tracer.span("harness.op", workloads.execute, spec, cli,
                           experiments)

    wall = untraced_wall = 0.0
    faults = sys_s = 0.0
    for i, spec in enumerate(h.specs):
        tracer.op = i
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if not on:
                raw, dt = h.run_op(spec)
                untraced_wall += dt
            else:
                before = resource.getrusage(resource.RUSAGE_SELF)
                tracer.install()
                try:
                    raw, dt = h.run_op(spec, call)
                finally:
                    tracer.uninstall()
                after = resource.getrusage(resource.RUSAGE_SELF)
                wall += dt
                faults += after.ru_minflt - before.ru_minflt
                sys_s += after.ru_stime - before.ru_stime
            h.verify(spec, raw)
    m = tracing.layer_metrics(tracer)
    # freeing and re-faulting large batches shows up here, not in a layer
    m["trace.minor_faults"] = faults
    m["trace.sys_s"] = sys_s
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_ratio"] = wall / untraced_wall - 1.0
    return m, tracer


def write_spans(tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, op, _ in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockhyperg" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.probe)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    load_start = os.getloadavg()[0]
    steal_start = steal_seconds()
    t0 = time.perf_counter()
    import blockhyperg  # noqa: F401
    worker_import_s = time.perf_counter() - t0

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        h = Harness(args, workdir)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
              f"{' smoke' if args.smoke else ''}: {len(h.specs)} ops, "
              f"inputs {h.digest[:16]}")
        h.warm()
        if args.trace:
            values, tracer = traced(h)
            write_spans(tracer, OUT / f"spans-{args.workload}-"
                        f"seed{args.seed}.jsonl")
        else:
            values = timed(h, args.seconds)
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            spec_path = workdir / "probe-spec.json"
            spec_path.write_text(json.dumps(h.probe_spec))
            probes = measure_setup(args.workload, spec_path)
            print("setup probes " + " ".join(f"{v:.3f}s" for v in probes))
            values["setup_s"] = statistics.median(probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(load_start, steal_start)
    record["worker_import_s"] = worker_import_s
    print("record " + json.dumps(record, sort_keys=True))
    ratio = h.failed / h.attempted
    print(f"fail_ratio = {ratio:.6g} ratio ({h.failed} failed of "
          f"{h.attempted} attempted)")
    metrics = {}
    for spec in wanted:
        # a layer the workload never entered has no spans: its count and
        # time are 0; an end-to-end metric is always measured
        v = float(values.get(spec["name"], 0.0) if args.trace
                  else values[spec["name"]])
        metrics[spec["name"]] = {"value": v, "unit": spec["unit"]}
        print(f"metric {spec['name']} = {v:.6g} {spec['unit']}")
    print(json.dumps({"correct": h.failed == 0, "attempted": h.attempted,
                      "failed": h.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
