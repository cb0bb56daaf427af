"""One loop from source text to a verified kernel, one layer per span.

``verify_loop`` calls the public entry point of every layer in the
order a compiler user meets them and checks the result against the
sequential reference:

    parse -> compile -> DDG -> ResMII, RecMII, MinDist -> schedule
    -> validate -> MaxLive, MinAvg -> rotating registers -> kernel
    -> sequential, dataflow and VLIW simulation -> compare

Deterministic work and quality counts go into a :class:`Tally`; the
time each call takes goes into the span recorder when tracing is on.
"""

from __future__ import annotations

import dataclasses
import math

from repro.bounds import MinDist, min_avg, recmii, resmii, rr_max_live
from repro.codegen import emit_kernel, generate_kernel
from repro.core import modulo_schedule, validate_schedule
from repro.frontend import compile_loop, parse_loop
from repro.ir import build_ddg
from repro.regalloc import allocate_registers
from repro.simulator import initial_state, run_pipelined, run_sequential
from repro.simulator.vliw import run_vliw

#: Relative tolerance of the simulator comparison (NaN equals NaN).
RELATIVE_TOLERANCE = 1e-9


@dataclasses.dataclass
class Tally:
    """Deterministic sums over the loops (or batch requests) of one pass.

    Every field is an exact integer, so two passes over the same inputs
    must produce equal tallies whatever the hash seed or the timing.
    """

    attempted: int = 0
    failed: int = 0
    sum_ii: int = 0
    sum_mii: int = 0
    sum_max_live: int = 0
    sum_min_avg: int = 0
    kernel_cycles: int = 0
    rr_registers: int = 0
    rr_overshoot: int = 0
    attempts: int = 0
    placements: int = 0
    ejections: int = 0
    op_instances: int = 0
    arcs: int = 0
    ops: int = 0
    hits: int = 0
    jobs_computed: int = 0

    def add_schedule(self, ii, mii, max_live, minavg, trip, stages) -> None:
        self.sum_ii += ii
        self.sum_mii += mii
        self.sum_max_live += max_live
        self.sum_min_avg += minavg
        self.kernel_cycles += (trip + stages - 1) * ii


def values_close(a, b) -> bool:
    """The pipeline-equivalence comparator: NaN equals NaN."""
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RELATIVE_TOLERANCE * max(1.0, abs(a), abs(b))


def count_mismatches(program, reference, other) -> int:
    """Memory cells and live-out scalars where ``other`` differs."""
    mismatches = 0
    for name in program.arrays:
        cells, others = reference.arrays[name], other.arrays[name]
        if cells == others:
            continue
        for a, b in zip(cells, others):
            if not values_close(a, b):
                mismatches += 1
    for name in program.live_out:
        if not values_close(reference.scalars[name], other.scalars[name]):
            mismatches += 1
    return mismatches


def _sequential(program, seed):
    return run_sequential(program, initial_state(program, seed))


def _dataflow(schedule, program, seed):
    return run_pipelined(schedule, initial_state(program, seed))


def _vliw(kernel, program, seed):
    return run_vliw(kernel, initial_state(program, seed))


def _check(program, sequential, dataflow, vliw):
    return (
        count_mismatches(program, sequential, dataflow),
        count_mismatches(program, sequential, vliw),
    )


def verify_loop(source: str, machine, data_seed: int, spans, tally: Tally):
    """Take one loop from source text to a verified kernel.

    Returns None when every check passes, else a one-line reason.
    """
    call = spans.call
    tally.attempted += 1
    program = call("frontend.parse", parse_loop, source)
    loop = call("frontend.compile", compile_loop, program)
    tally.ops += len(loop.real_ops)
    ddg = call("ir.ddg", build_ddg, loop, machine)
    tally.arcs += len(ddg.arcs)
    mii = max(
        call("bounds.resmii", resmii, loop, machine),
        call("bounds.recmii", recmii, ddg),
    )
    mindist = call("bounds.mindist", MinDist, ddg, mii)

    result = call("core.schedule", modulo_schedule, loop, machine, ddg=ddg)
    tally.attempts += result.stats.attempts
    tally.placements += result.stats.placements
    tally.ejections += result.stats.ejections
    if not result.success:
        return f"no schedule (last II {result.last_attempted_ii})"
    if result.mii != mii:
        return f"scheduler MII {result.mii} != bounds MII {mii}"
    schedule = result.schedule
    violations = call("core.validate", validate_schedule, schedule, ddg)
    if violations:
        return f"invalid schedule: {violations[0]}"

    ii = schedule.ii
    if ii != mii:
        mindist = call("bounds.mindist", MinDist, ddg, ii)
    max_live = call("bounds.lifetimes", rr_max_live, loop, ddg, schedule.times, ii)
    minavg = call("bounds.lifetimes", min_avg, loop, ddg, mindist, ii)
    tally.add_schedule(ii, mii, max_live, minavg, program.trip, schedule.stages)

    assignment = call("regalloc", allocate_registers, schedule, ddg)
    tally.rr_registers += assignment.rr_registers
    tally.rr_overshoot += assignment.rr.overshoot
    kernel = call("codegen", generate_kernel, schedule, assignment)
    if not call("codegen", emit_kernel, kernel):
        return "empty kernel text"

    sequential = call("simulator.sequential", _sequential, program, data_seed)
    dataflow = call("simulator.dataflow", _dataflow, schedule, program, data_seed)
    vliw = call("simulator.vliw", _vliw, kernel, program, data_seed)
    tally.op_instances += 2 * program.trip * len(loop.real_ops)
    dataflow_bad, vliw_bad = call("bench.check", _check, program, sequential, dataflow, vliw)
    if dataflow_bad or vliw_bad:
        return (
            f"simulation mismatch: dataflow {dataflow_bad}, vliw {vliw_bad} "
            "locations differ from sequential"
        )
    return None
