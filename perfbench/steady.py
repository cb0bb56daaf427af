"""Check that the benchmark is steady: run it on several seeds and compare
each end-to-end metric's spread with its bound.

    python3 perfbench/steady.py --workload paper_cydra5 --seeds 1 2 3 4 5

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median.  A metric is steady when its spread stays below
a third of the bound in ``BENCHMARK.json``; ``setup_s`` is reported but
not held to that.  Exits non-zero when a run fails or a metric is not
steady.  ``--json`` writes every run's result for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        done = subprocess.run(
            spec["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(lines[-2])["env"] if len(lines) > 1 else {}
        results.append({"seed": seed, "env": env, **result})
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        ), flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)

    steady = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        share = spread(values) if len(values) >= 2 else 0.0
        ok = share < bound / 3 or name == "setup_s"
        steady &= ok
        print(
            f"{name:22s} median {statistics.median(values):12.5g}  spread "
            f"{100 * share:6.2f}%  bound/3 {100 * bound / 3:6.2f}%  "
            f"{'ok' if ok else 'NOT STEADY'}"
        )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
