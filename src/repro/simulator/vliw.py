"""Register-level VLIW simulator: executes kernel-only code.

This is the deepest validation layer: it runs the *generated kernel*
(one copy, II rows) against real rotating register files, modeling

* rotation: the file rotates once per kernel iteration, so a value
  written through specifier ``s`` is read ``b`` iterations and
  ``delta-stage`` rows later through ``s + stage_delta + b`` — the
  encoding baked in by :mod:`repro.codegen.kernel`;
* staging: an operation at stage sigma executes in kernel iteration m
  for loop iteration ``k = m - sigma`` and is squashed unless
  ``0 <= k < trip`` (the staging-predicate schema of kernel-only code:
  the pipeline fills for the first ``stages-1`` kernel iterations and
  drains for the last);
* write latency: results commit to their physical register
  ``latency`` cycles after issue, and commits are applied before the
  reads of the cycle they land on;
* live-in values: loop-carried uses whose producing iteration precedes
  the loop are preloaded into the exact physical registers the rotation
  will expose to their consumers (the paper's Figure 3 shows the same
  preloaded live-ins at cycle 0).

Running the kernel and comparing memory plus live-out scalars against
the sequential interpreter validates scheduling, register allocation
and code generation together.  (Affine load/store addresses are
computed from the access attributes; indirect accesses go through the
address registers.)
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.codegen.kernel import KernelCode, KernelOp, KernelOperand
from repro.ir.operations import Opcode
from repro.simulator.dataflow import (
    InitFn,
    SimulationError,
    _invariant_value,
    _live_in_value,
    decode,
)
from repro.machine.registers import RotatingFile, StaticFile
from repro.simulator.state import MachineState


class _RegisterFiles:
    """The machine's three register files for one simulation run.

    Uses the real :class:`~repro.machine.registers.RotatingFile`
    substrate: the ICP starts at 0 and decrements once per kernel
    iteration (brtop), so reading encoded specifier ``s`` during kernel
    iteration m resolves to physical ``(s - m) mod size`` — the map the
    code generator encoded against.
    """

    def __init__(self, kernel: KernelCode):
        self.rr = RotatingFile("RR", max(1, kernel.assignment.rr_registers))
        self.icr = RotatingFile("ICR", max(1, kernel.assignment.icr_registers))
        self.gpr = StaticFile("GPR", max(1, kernel.assignment.gpr_registers))
        self.rotations = 0  # kernel iterations completed

    def file_and_size(self, kind: str):
        if kind == "rr":
            return self.rr, self.rr.size
        if kind == "icr":
            return self.icr, self.icr.size
        if kind == "gpr":
            return self.gpr, self.gpr.size
        raise SimulationError(f"no register file {kind!r}")

    def rotate(self) -> None:
        """End-of-kernel-iteration rotation (brtop's ICP decrement)."""
        self.rr.rotate()
        self.icr.rotate()
        self.rotations += 1

    def reader(self, operand: KernelOperand):
        """``(register file, index)`` whose ``read(index)`` gives the
        operand's value, or None for an immediate.

        A rotating file reads through its ICP: after m rotations
        ``ICP == -m mod size``, so specifier ``spec`` resolves to physical
        ``(spec - m) mod size``.
        """
        if operand.kind == "imm":
            return None
        register_file, size = self.file_and_size(operand.kind)
        if operand.kind == "gpr":
            return register_file, operand.spec % size
        return register_file, operand.spec

    def writer(self, kind: str):
        """``(write(physical, value), size)`` for results bound for ``kind``."""
        register_file, size = self.file_and_size(kind)
        if kind == "gpr":
            return register_file.write, size
        return register_file.write_physical, size


def run_vliw(
    kernel: KernelCode,
    state: MachineState,
    trip: Optional[int] = None,
    init_fn: Optional[InitFn] = None,
) -> MachineState:
    """Execute kernel-only code for ``trip`` iterations over ``state``."""
    loop = kernel.loop
    ii, stages = kernel.ii, kernel.stages
    iterations = trip if trip is not None else int(loop.meta.get("trip", 0))
    if iterations <= 0:
        raise ValueError("trip count must be positive")

    initial = state.copy()
    for name, binding in loop.meta.get("scalars", {}).items():
        initial.scalars.setdefault(name, binding)
    files = _RegisterFiles(kernel)
    _preload_gprs(kernel, files, initial)
    _preload_live_ins(kernel, files, initial, init_fn)

    rows = _decode_rows(kernel, files)
    pending = _PendingWrites()
    live_out_values: Dict[str, object] = {}
    loop_control = _LoopControl(stages, iterations)
    stage_active = loop_control.stage_active

    running = True
    m = 0
    while running:
        for row_index in range(ii):
            cycle = m * ii + row_index
            pending.commit_through(cycle)
            for op, stage, semantics, operand_value, dest in rows[row_index]:
                if not stage_active(stage, m):
                    continue  # stage predicate (rotating ICR bit) squashes
                k = m - stage
                if not (0 <= k < iterations):  # hardware/bookkeeping cross-check
                    raise SimulationError(
                        f"stage predicate enabled {op!r} for iteration {k} "
                        f"outside [0, {iterations}) — brtop loop control is broken"
                    )
                result = semantics(op, k, operand_value, state)
                if dest is not None:
                    write, spec, size, latency, live_out_name = dest
                    pending.push(cycle + latency, write, (spec - m) % size, result)
                    if live_out_name is not None and k == iterations - 1:
                        live_out_values[live_out_name] = result
        running = loop_control.brtop(m)
        files.rotate()  # brtop decrements the ICP once per kernel iteration
        m += 1
        if m > iterations + stages + 2:
            raise SimulationError("brtop failed to terminate the pipeline")

    for name, value in live_out_values.items():
        state.scalars[name] = value
    return state


def _decode_rows(kernel: KernelCode, files: _RegisterFiles) -> List[list]:
    """Each kernel row's ops, decoded once for the whole run.

    An entry is ``(op, stage, semantics, operand_value, dest)``; ``dest``
    is None or ``(write, encoded spec, file size, latency, live-out
    name)``.  BRTOP is left out: the loop handles it once per kernel
    iteration.
    """
    machine = kernel.schedule.machine
    live_out_names = {value.vid: name for name, value in kernel.loop.live_out.items()}
    rows = []
    for row in kernel.rows:
        decoded = []
        for kop in row:
            op = kop.op
            if op.opcode is Opcode.BRTOP:
                continue
            dest = None
            if kop.dest is not None:
                write, size = files.writer(kop.dest.kind)
                dest = (
                    write,
                    kop.dest.spec,
                    size,
                    machine.latency(op),
                    live_out_names.get(op.dest.vid),
                )
            decoded.append((op, kop.stage, decode(op), _operand_reader(kop, files), dest))
        rows.append(decoded)
    return rows


def _operand_reader(kop: KernelOp, files: _RegisterFiles):
    """``operand_value(ir_operand, k)`` for one kernel op: reads each IR
    operand through the register (or immediate) it is encoded as."""
    op = kop.op
    encodings = {id(ir): enc for ir, enc in zip(op.operands, kop.operands)}
    if op.predicate is not None and kop.predicate is not None:
        encodings[id(op.predicate)] = kop.predicate
    readers = {key: (encoded, files.reader(encoded)) for key, encoded in encodings.items()}

    def operand_value(ir_operand, k):
        try:
            encoded, reader = readers[id(ir_operand)]
        except KeyError:
            raise SimulationError(f"operand {ir_operand!r} of {op!r} not encoded") from None
        if reader is None:
            return encoded.literal
        register_file, index = reader
        value = register_file.read(index)
        if value is None:
            m = files.rotations
            raise SimulationError(
                f"{op!r} iteration {k}: read of {encoded.render()} "
                f"(physical {(encoded.spec - m) % files.file_and_size(encoded.kind)[1]}) "
                "returned an unwritten register — allocation or codegen is broken"
            )
        return value

    return operand_value


class _PendingWrites:
    """Register writes in flight, applied when their commit cycle comes.

    A heap of ``(commit cycle, sequence, write, physical, value)``; the
    issue sequence number breaks ties, so writes that land on the same
    cycle apply in issue order.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable, int, object]] = []
        self._sequence = 0

    def push(self, commit: int, write: Callable, physical: int, value) -> None:
        heapq.heappush(self._heap, (commit, self._sequence, write, physical, value))
        self._sequence += 1

    def commit_through(self, cycle: int) -> None:
        """Apply every write whose commit cycle is at most ``cycle``."""
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            _, __, write, physical, value = heapq.heappop(heap)
            write(physical, value)


class _LoopControl:
    """Cydra-style `brtop` loop management (§2.1).

    Hardware state: the loop counter LC (remaining new iterations), the
    epilogue stage counter ESC (kernel iterations needed to drain the
    pipeline), and a small rotating file of *staging predicates*.  Once
    per kernel iteration, brtop either starts a new source iteration
    (LC > 0: write True into next iteration's stage-0 predicate) or
    begins draining (write False); the file rotates with the ICP, so
    the bit written for iteration k is read by its stage-sigma ops as
    specifier sigma, sigma kernel iterations later — which is exactly
    how kernel-only code squashes the pipeline fill and drain without
    prologue or epilogue copies.
    """

    def __init__(self, stages: int, trip: int):
        self.size = stages + 1
        self.bits = [False] * self.size
        self.bits[0] = True  # iteration 0's stage-0 predicate, preset
        self.lc = trip - 1
        self.esc = stages - 1

    def stage_active(self, stage: int, m: int) -> bool:
        return self.bits[(stage - m) % self.size]

    def brtop(self, m: int) -> bool:
        """One brtop execution at kernel iteration m.

        Returns False when the pipeline has fully drained.
        """
        if self.lc > 0:
            self.lc -= 1
            start_next = True
        elif self.esc > 0:
            self.esc -= 1
            start_next = False
        else:
            return False
        # Write iteration (m+1)'s stage-0 predicate: physical slot
        # (0 - (m+1)) mod size under the rotating map.
        self.bits[(0 - (m + 1)) % self.size] = start_next
        return True


def _preload_gprs(kernel: KernelCode, files: _RegisterFiles, initial: MachineState) -> None:
    write, size = files.writer("gpr")
    for value in kernel.loop.values:
        if value.is_invariant:
            index = kernel.assignment.gpr[value.vid]
            write(index % size, _invariant_value(value, initial))


def _preload_live_ins(
    kernel: KernelCode,
    files: _RegisterFiles,
    initial: MachineState,
    init_fn: Optional[InitFn],
) -> None:
    """Seed pre-loop value instances into their physical registers.

    Instance (v, j) for j < 0 lives in physical ``(s_phys(v) - j) mod R``
    where ``s_phys`` is the negated allocator specifier — the same map
    the kernel's encoded specifiers resolve through.
    """
    loop = kernel.loop
    max_back: Dict[int, int] = {}
    for op in loop.ops:
        for operand in op.inputs():
            if operand.back > 0 and operand.value.is_variant:
                vid = operand.value.vid
                max_back[vid] = max(max_back.get(vid, 0), operand.back)
    values_by_vid = {value.vid: value for value in loop.values}
    for vid, depth in max_back.items():
        value = values_by_vid[vid]
        kind = "icr" if value.dtype.is_predicate else "rr"
        table = (
            kernel.assignment.icr.specifiers
            if kind == "icr"
            else kernel.assignment.rr.specifiers
        )
        specifier = -table[vid]
        write, size = files.writer(kind)
        for j in range(-depth, 0):
            physical = (specifier - j) % size
            write(physical, _live_in_value(value, j, initial, init_fn))
