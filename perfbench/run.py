"""Benchmark driver: one loop from source text to a verified kernel.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_cydra5 --seed 1993 \\
        --seconds 24 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json``; what each one
means is in ``perfbench/README.md``.  The run

1. with ``--trace 0``, starts five fresh interpreters that only set up
   (imports, registry machines, cache open) and times each from launch
   to ready (``setup_s``);
2. runs two measuring processes one after the other, each for half of
   ``--seconds`` and each over at least two whole passes of the workload,
   with different ``PYTHONHASHSEED`` values.  Their deterministic tallies
   must agree exactly; with ``--trace 1`` the second process records a
   span around every layer call and the first gives the untraced time
   the tracing overhead is measured against;
3. checks every output (schedules valid, all three simulators equal,
   cache hits equal their misses, no failures), checks the traced run's
   layer split, prints one line with the environment and, last, one
   JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

It exits non-zero when an output check fails, and without printing a
result when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_cydra5", "acyclic_zoo", "batch_rerun")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 75
PROBE_TIMEOUT_S = 30
HASH_SEEDS = ("1", "2")
#: Consecutive loops per "batch" sample of the pipeline workloads.
PIPELINE_GROUP = 4
#: Largest share of the traced wall that may fall outside every span.
MAX_UNATTRIBUTED_SHARE = 0.05
#: RecMII must stay below this share on the acyclic workload.
MAX_ACYCLIC_RECMII_SHARE = 0.02

#: (metric, span name) in the order the layers are called.
LAYER_TIMES = (
    ("frontend.parse_s", "frontend.parse"),
    ("frontend.compile_s", "frontend.compile"),
    ("ir.ddg_s", "ir.ddg"),
    ("bounds.resmii_s", "bounds.resmii"),
    ("bounds.recmii_s", "bounds.recmii"),
    ("bounds.mindist_s", "bounds.mindist"),
    ("bounds.lifetimes_s", "bounds.lifetimes"),
    ("core.schedule_s", "core.schedule"),
    ("core.validate_s", "core.validate"),
    ("regalloc.s", "regalloc"),
    ("codegen.s", "codegen"),
    ("simulator.sequential_s", "simulator.sequential"),
    ("simulator.dataflow_s", "simulator.dataflow"),
    ("simulator.vliw_s", "simulator.vliw"),
    ("service.run_batch_s", "service.run_batch"),
    ("service.cache_get_s", "service.cache_get"),
    ("service.cache_put_s", "service.cache_put"),
    ("bench.check_s", "bench.check"),
)
SIMULATOR_SPANS = ("simulator.sequential", "simulator.dataflow", "simulator.vliw")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not: the program gave a wrong answer)."""


def share_name(metric: str) -> str:
    """``frontend.parse_s`` -> ``frontend.parse_share``, ``regalloc.s`` -> ``regalloc.share``."""
    return metric[:-2] + (".share" if metric.endswith(".s") else "_share")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def run_child(root, config, hash_seed, timeout, work_dir):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["TMPDIR"] = work_dir  # run_batch's scratch dirs stay in the checkout
    config = dict(config, launched_at=time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(config)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{config['mode']} process exceeded {timeout}s") from error
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        raise BenchmarkError(
            f"{config['mode']} process exited {done.returncode}: " + " | ".join(tail)
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = os.path.join(root, "src", "repro", "__init__.py")
    if os.path.realpath(result["repro_file"]) != os.path.realpath(expected):
        raise BenchmarkError(f"measured {result['repro_file']}, not {expected}")
    return result


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(workload, runs, setups, attempted, failed):
    """Each loop (or batch round) is measured once per pass, at least
    twice per process; its time is the median of those measurements,
    which drops the host's short slowdowns that calibration misses."""
    tally = runs[0]["tally"]
    measured = [sample for r in runs for sample in r["sample_ms"]]
    per_item = [0.0] * len(measured[0])
    for position, values in zip(runs[0]["order"], zip(*measured)):
        per_item[position] = statistics.median(values)
    if workload == "batch_rerun":
        sizes = runs[0]["round_sizes"]
        loops = [value for value, size in zip(per_item, sizes) for _ in range(size)]
        groups = per_item
    else:
        # Groups of consecutive population loops: the same loops in every
        # group whatever order the seed processes them in.
        loops = per_item
        groups = [
            sum(per_item[i : i + PIPELINE_GROUP])
            for i in range(0, len(per_item) - PIPELINE_GROUP + 1, PIPELINE_GROUP)
        ]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "loops_per_s": (tally["attempted"] / (sum(per_item) / 1000.0), "1/s"),
        "loop_ms_p50": (percentile(loops, 50), "ms"),
        "loop_ms_p99": (percentile(loops, 99), "ms"),
        "batch_ms_p50": (percentile(groups, 50), "ms"),
        "batch_ms_p90": (percentile(groups, 90), "ms"),
        "ii_over_mii": (ratio(tally["sum_ii"], tally["sum_mii"]), "ratio"),
        "maxlive_over_minavg": (
            ratio(tally["sum_max_live"], tally["sum_min_avg"]), "ratio"
        ),
        "kernel_cycles": (tally["kernel_cycles"], "cycles"),
        "success_ratio": (1.0 - ratio(failed, attempted), "ratio"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return metrics, {"loop_ms": len(loops), "batch_ms": len(groups), "setup_s": len(setups)}


def per_layer(untraced, traced):
    passes = traced["passes"]
    # Layer times are scaled like every other time; shares are of a
    # pass's wall time without the calibration kernel, as measured.
    scale = sum(traced["busy_s"]) / sum(traced["raw_busy_s"])
    wall = statistics.fmean(traced["raw_wall_s"]) * scale
    layer_s = {
        name: value * scale / passes for name, value in traced["layer_s"].items()
    }
    calls = {name: value // passes for name, value in traced["layer_calls"].items()}
    tally = traced["tally"]
    metrics = {}
    covered = 0.0
    for metric, span in LAYER_TIMES:
        seconds = layer_s.get(span, 0.0)
        covered += seconds
        metrics[metric] = (seconds, "s")
        metrics[share_name(metric)] = (100.0 * seconds / wall, "%")
    unattributed = wall - covered
    metrics["unattributed_s"] = (unattributed, "s")
    metrics["unattributed_share"] = (100.0 * unattributed / wall, "%")
    metrics["traced_wall_s"] = (wall, "s")
    metrics["trace_overhead"] = (
        100.0
        * (statistics.fmean(traced["busy_s"]) / statistics.fmean(untraced["busy_s"]) - 1.0),
        "%",
    )
    metrics["machine.build_s"] = (traced["machine_build_s"], "s")
    metrics["service.job_compute_s"] = (traced["job_compute_s"] / passes, "s")
    metrics["service.hit_ratio"] = (ratio(tally["hits"], tally["attempted"]), "ratio")
    metrics["service.jobs_computed"] = (tally["jobs_computed"], "count")
    metrics["frontend.ops"] = (tally["ops"], "count")
    metrics["ir.arcs"] = (tally["arcs"], "count")
    metrics["core.attempts"] = (tally["attempts"], "count")
    metrics["core.placements"] = (tally["placements"], "count")
    metrics["core.ejections"] = (tally["ejections"], "count")
    metrics["regalloc.rr_registers"] = (tally["rr_registers"], "count")
    metrics["regalloc.rr_overshoot"] = (tally["rr_overshoot"], "count")
    metrics["simulator.op_instances"] = (tally["op_instances"], "count")
    metrics["regalloc.calls"] = (calls.get("regalloc", 0), "count")
    metrics["codegen.calls"] = (calls.get("codegen", 0), "count")
    metrics["simulator.calls"] = (
        sum(calls.get(span, 0) for span in SIMULATOR_SPANS), "count"
    )
    return metrics, wall


def validity_problems(workload, metrics, wall):
    """The traced run must show the layer split the workload exists for."""
    problems = []
    program_layers = {
        metric: metrics[metric][0]
        for metric, _ in LAYER_TIMES
        if metric != "bench.check_s"
    }
    recmii_share = metrics["bounds.recmii_s"][0] / wall
    if workload == "paper_cydra5":
        leader = max(program_layers, key=program_layers.get)
        if leader != "bounds.recmii_s":
            problems.append(
                f"bounds.recmii_s is not the largest layer on paper_cydra5 "
                f"({leader} is, {100 * program_layers[leader] / wall:.1f}% vs "
                f"{100 * recmii_share:.1f}%)"
            )
    if workload == "acyclic_zoo" and recmii_share >= MAX_ACYCLIC_RECMII_SHARE:
        problems.append(
            f"bounds.recmii_s is {100 * recmii_share:.2f}% of acyclic_zoo "
            f"(limit {100 * MAX_ACYCLIC_RECMII_SHARE:.0f}%)"
        )
    if workload == "batch_rerun":
        for name in ("regalloc.calls", "codegen.calls", "simulator.calls"):
            if metrics[name][0]:
                problems.append(f"{name} = {metrics[name][0]} on batch_rerun, expected 0")
    share = metrics["unattributed_s"][0] / wall
    if not 0.0 <= share <= MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"layer spans cover {100 * (1 - share):.1f}% of the traced wall "
            f"(unattributed {100 * share:.1f}%, limit {100 * MAX_UNATTRIBUTED_SHARE:.0f}%)"
        )
    return problems


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {root}/src/repro", file=sys.stderr)
        return 2
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    started = time.monotonic()
    config = {
        "mode": "measure",
        "workload": args.workload,
        "seed": args.seed,
        "budget_s": args.seconds / 2.0,
        "traced": False,
        "work_dir": work_dir,
        "spans_out": None,
    }
    try:
        setups = []
        if not args.trace:
            probe = dict(config, mode="setup")
            for _ in range(SETUP_PROBES):
                setups.append(
                    run_child(root, probe, HASH_SEEDS[0], PROBE_TIMEOUT_S, work_dir)[
                        "setup_s"
                    ]
                )
        runs = [run_child(root, config, HASH_SEEDS[0], CHILD_TIMEOUT_S, work_dir)]
        second = dict(config)
        if args.trace:
            second["traced"] = True
            second["spans_out"] = os.path.join(
                work_root, f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
        runs.append(run_child(root, second, HASH_SEEDS[1], CHILD_TIMEOUT_S, work_dir))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = []
    for run, hash_seed in zip(runs, HASH_SEEDS):
        problems += [f"PYTHONHASHSEED={hash_seed}: {e}" for e in run["errors"]]
        if not run["tallies_agree"]:
            problems.append(f"PYTHONHASHSEED={hash_seed}: passes disagree")
    if runs[0]["tally"] != runs[1]["tally"]:
        differing = sorted(
            k for k in runs[0]["tally"] if runs[0]["tally"][k] != runs[1]["tally"][k]
        )
        problems.append(
            f"deterministic metrics differ between PYTHONHASHSEED "
            f"{HASH_SEEDS[0]} and {HASH_SEEDS[1]}: {', '.join(differing)}"
        )

    attempted = sum(r["tally"]["attempted"] * r["passes"] for r in runs)
    failed = sum(r["tally"]["failed"] * r["passes"] for r in runs)
    if args.trace:
        metrics, wall = per_layer(runs[0], runs[1])
        problems += validity_problems(args.workload, metrics, wall)
        samples = {}
    else:
        setups += [r["setup_s"] for r in runs]
        metrics, samples = end_to_end(args.workload, runs, setups, attempted, failed)

    declared = declared_metrics(root, args.trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(
            "error: metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(produced))}, "
            f"extra {sorted(set(produced) - set(declared))}, "
            f"units {sorted(n for n in declared if n in produced and produced[n] != declared[n])}",
            file=sys.stderr,
        )
        return 1

    env = {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loops_per_pass": runs[0]["population"],
        "passes": [r["passes"] for r in runs],
        "timed_samples": sum(len(p) for r in runs for p in r["sample_ms"]),
        "samples_per_percentile": samples,
        "window_s": args.seconds,
        "measured_s": sum(sum(r["wall_s"]) for r in runs),
        "unscaled_loops_per_s": attempted / sum(sum(r["raw_busy_s"]) for r in runs),
        "host_speed": sum(sum(r["busy_s"]) for r in runs)
        / sum(sum(r["raw_busy_s"]) for r in runs),
        "elapsed_s": time.monotonic() - started,
    }
    print(json.dumps({"env": env}, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
