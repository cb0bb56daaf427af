"""The benchmark's workloads and one measured pass over each.

Every workload is a fixed population of loops drawn from the repo's
generated corpora at the paper corpus's generator seed
(:data:`CORPUS_SEED`); ``--seed`` draws everything that varies from run
to run: the order loops are processed in, the memory image the
simulators start from, and the stream of batch requests.  A pass is
one walk over the whole population, so every pass does the same work
and its deterministic tally can be compared exactly.

- ``paper_cydra5``: every sixth loop of the 1,525-loop paper corpus
  (Table 3 class mix, corpus order, so the mix is kept) on cydra5.
- ``acyclic_zoo``: generated "neither"-class loops (no recurrences) on
  all five registry targets.
- ``batch_rerun``: rounds of ``run_batch(jobs=2)`` against one SQLite
  cache that starts empty each pass; each round sends
  :data:`NEW_PER_ROUND` requests never seen before plus repeats of
  requests from earlier rounds.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Tuple

from calibrate import ScaledSamples
from pipeline import Tally, verify_loop

#: Generator seed of every corpus (the paper corpus default).
CORPUS_SEED = 1993
#: paper_cydra5 takes every PAPER_STRIDE-th loop of the paper corpus.
PAPER_STRIDE = 6
#: acyclic_zoo: generated "neither" programs, each on every target.
ZOO_PROGRAMS = 55
#: Whole passes each measuring process makes at least, so that every
#: loop or batch round is timed at least 2 x 2 times.
MIN_PASSES = 2
#: batch_rerun request universe: paper corpus prefix x these targets.
BATCH_PROGRAMS = 120
BATCH_MACHINES = ("cydra5", "vliw-wide", "gpu")
NEW_PER_ROUND = 8
ROUND_SIZE = 40
BATCH_JOBS = 2


def machine_names_for(workload: str) -> Tuple[str, ...]:
    from repro.machine import machine_names

    if workload == "paper_cydra5":
        return ("cydra5",)
    if workload == "acyclic_zoo":
        return tuple(machine_names())
    if workload == "batch_rerun":
        return BATCH_MACHINES
    raise ValueError(f"unknown workload {workload!r}")


def pipeline_items(workload: str, seed: int) -> List[Tuple[int, str, str, str]]:
    """(population index, loop name, source text, machine name), in this
    seed's order."""
    from repro.frontend import render_loop
    from repro.workloads import PAPER_CORPUS_SIZE, generate_corpus_slice, paper_corpus

    if workload == "paper_cydra5":
        programs = paper_corpus(PAPER_CORPUS_SIZE, CORPUS_SEED)[::PAPER_STRIDE]
        pairs = [(program, "cydra5") for program in programs]
    elif workload == "acyclic_zoo":
        programs = generate_corpus_slice(CORPUS_SEED, ZOO_PROGRAMS, "neither")
        pairs = [
            (program, name)
            for program in programs
            for name in machine_names_for(workload)
        ]
    else:
        raise ValueError(f"{workload!r} is not a pipeline workload")
    items = [
        (index, program.name, render_loop(program), name)
        for index, (program, name) in enumerate(pairs)
    ]
    random.Random(seed).shuffle(items)
    return items


def batch_rounds(seed: int):
    """The request universe and this seed's rounds of request ids.

    Which new requests each round sends, and in what order, is fixed, so
    every seed computes the same misses in the same worker chunks; the
    seed draws the repeats that follow them.
    """
    from repro.workloads import paper_corpus

    programs = paper_corpus(BATCH_PROGRAMS, CORPUS_SEED)
    universe = [(p, m) for p in range(len(programs)) for m in BATCH_MACHINES]
    order = list(range(len(universe)))
    random.Random(CORPUS_SEED).shuffle(order)
    rng = random.Random(seed)
    rounds: List[List[int]] = []
    seen: List[int] = []
    for start in range(0, len(order), NEW_PER_ROUND):
        new = order[start : start + NEW_PER_ROUND]
        repeats = rng.choices(seen, k=ROUND_SIZE - len(new)) if seen else []
        rng.shuffle(repeats)
        rounds.append(new + repeats)
        seen.extend(new)
    return programs, universe, rounds


@dataclasses.dataclass
class PassResult:
    """What one pass measured."""

    tally: Tally
    wall_s: float  # elapsed, calibration included
    samples: ScaledSamples  # per loop, or per batch round, in order
    errors: List[str]
    job_compute_s: float = 0.0


def pipeline_pass(items, machines, seed: int, spans) -> PassResult:
    tally = Tally()
    samples = ScaledSamples()
    errors: List[str] = []
    clock = time.perf_counter
    started = clock()
    for _, name, source, machine_name in items:
        spans.set_request(f"{name}@{machine_name}")
        before = clock()
        try:
            reason = verify_loop(source, machines[machine_name], seed, spans, tally)
        except Exception as error:  # one bad loop must not stop the pass
            reason = f"{type(error).__name__}: {error}"
        samples.add((clock() - before) * 1000.0)
        if reason is not None:
            tally.failed += 1
            errors.append(f"{name} on {machine_name}: {reason}")
    samples.calibrate()
    return PassResult(tally, clock() - started, samples, errors)


def _metrics_equal(a, b) -> bool:
    return dataclasses.asdict(a) == dataclasses.asdict(b)


def batch_pass(programs, universe, rounds, machines, cache, spans) -> PassResult:
    """Send every round through ``run_batch`` against ``cache``.

    Every cache hit must equal the metrics computed on that request's
    miss earlier in the pass.
    """
    from repro.service import JOB_CACHED, JOB_OK, run_batch

    tally = Tally()
    computed: Dict[int, object] = {}
    samples = ScaledSamples()
    errors: List[str] = []
    compute = 0.0
    clock = time.perf_counter
    started = clock()
    for number, requests in enumerate(rounds):
        spans.set_request(f"round{number}")
        batch_programs = [programs[universe[rid][0]] for rid in requests]
        batch_machines = [machines[universe[rid][1]] for rid in requests]
        before = clock()
        report = spans.call(
            "service.run_batch",
            run_batch,
            batch_programs,
            machines=batch_machines,
            jobs=BATCH_JOBS,
            cache=cache,
        )
        samples.add((clock() - before) * 1000.0)
        samples.calibrate()
        token = spans.begin("bench.check")
        for rid, result in zip(requests, report.results):
            tally.attempted += 1
            program_index, machine_name = universe[rid]
            if result.status == JOB_CACHED:
                tally.hits += 1
                if rid not in computed:
                    reason = "cache hit for a request never computed"
                elif not _metrics_equal(result.metrics, computed[rid]):
                    reason = "cache hit differs from the result computed on its miss"
                else:
                    reason = None
            elif result.status == JOB_OK:
                tally.jobs_computed += 1
                compute += result.seconds
                computed[rid] = result.metrics
                tally.attempts += result.metrics.attempts
                tally.placements += result.metrics.placements
                tally.ejections += result.metrics.ejections
                reason = None
            else:
                reason = f"job {result.status}: {result.error}"
            metrics = result.metrics
            if reason is None and not metrics.success:
                reason = "no schedule"
            if reason is not None:
                tally.failed += 1
                name = programs[program_index].name
                errors.append(f"round {number} {name}@{machine_name}: {reason}")
                continue
            if result.status == JOB_OK:  # each request is computed once
                tally.add_schedule(
                    metrics.ii, metrics.mii, metrics.max_live, metrics.min_avg,
                    programs[program_index].trip, metrics.stages,
                )
        spans.end(token)
    return PassResult(tally, clock() - started, samples, errors, compute)
