"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --workload noise_merge --seeds 11 12 13 14 15

Runs the benchmark once per seed (``--trace 0``, ``run_seconds`` from
``BENCHMARK.json``), one run after another, and prints for each
end-to-end metric the median, the quartiles and the spread: the distance
between the first and third quartile over the median.  A spread is
steady when it is below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchlib import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        spread = quartile_spread(xs)
        print(f"{args.workload} {m['name']}: median {q2:.4g} "
              f"[{q1:.4g}, {q3:.4g}] spread {spread:.3f} bound {m['bound']} "
              f"({spread / m['bound']:.2f} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
