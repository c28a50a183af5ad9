"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload in smoke mode and confirms that:

- every metric named in BENCHMARK.json is printed with its unit, in the
  untraced and in the traced run;
- no operation fails (fail_ratio 0) at the reference commit;
- another seed changes the inputs but not the set of metrics;
- the traced self times of all layers add up to the traced wall_s, the
  library's layers (all but the harness's own per-op span) cover at least
  99% of it, and no span's self time is negative.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)
SUM_RTOL = 0.01  # traced self times vs traced wall_s
MIN_COVER = 0.99  # share of traced wall_s in the library's layers
CLOCK_EPS = 1e-9  # s; self times below -CLOCK_EPS count as negative


def run(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def min_self_time(path: Path) -> float:
    """The smallest span self time in a spans file written by run.py."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    self_t = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_t[parent] -= end - start
    return min(self_t)


def check_trace(w: str, seed: int, m: dict) -> list[str]:
    bad = []
    wall = m["trace.wall_s"]
    layers = sum(v for k, v in m.items() if k.startswith("layer."))
    if abs(layers - wall) > SUM_RTOL * wall:
        bad.append(f"{w}: layer self times sum to {layers:.4f}s, traced "
                   f"wall_s is {wall:.4f}s")
    named = layers - m["layer.harness.self_s"]
    if named < MIN_COVER * wall:
        bad.append(f"{w}: library layers cover {named:.4f}s of traced "
                   f"wall_s {wall:.4f}s")
    low = min_self_time(HERE / "_out" / f"spans-{w}-seed{seed}.jsonl")
    if low < -CLOCK_EPS:
        bad.append(f"{w}: a span has negative self time {low:.3g}s")
    return bad


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {t: {m["name"]: m["unit"] for m in bench[key]}
              for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for w in (wl["name"] for wl in bench["workloads"]):
        heads = {}
        for seed, trace in ((SEEDS[0], 0), (SEEDS[1], 0), (SEEDS[0], 1)):
            head, result = run(w, seed, trace)
            heads[seed, trace] = head
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{w} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{w} seed {seed} trace {trace}: "
                                f"{result['failed']} of "
                                f"{result['attempted']} ops failed")
            if trace:
                problems += check_trace(w, seed, {
                    k: v["value"] for k, v in result["metrics"].items()})
            print(f"ok {w} seed {seed} trace {trace}: {head}")
        digest = {s: heads[s, 0].rsplit("inputs ", 1)[1] for s in SEEDS}
        if digest[SEEDS[0]] == digest[SEEDS[1]]:
            problems.append(f"{w}: seeds {SEEDS} gave the same inputs")
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
