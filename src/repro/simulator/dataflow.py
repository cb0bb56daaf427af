"""Pipelined dataflow executor: runs a modulo schedule against memory.

Every operation instance ``(op, k)`` of the software pipeline issues at
global cycle ``time(op) + k * II``.  The executor materializes all
instances for the loop's trip count, sorts them by issue cycle (ties by
textual order — latencies >= 1 guarantee producers sort before their
consumers), and executes them against a :class:`MachineState`.

Cross-iteration operands read the producing instance ``(value, k -
back)``; when that instance precedes the loop (``k - back < 0``), the
value comes from the operand value's *origin*: the initial scalar
binding, the initial array contents, or the address-IV formula — exactly
the live-in values the rotating register file holds at cycle 0 in the
paper's Figure 3.

This is the semantic half of schedule verification; pair it with
:func:`repro.core.validate.validate_schedule` (the timing/resource half)
and a :func:`repro.simulator.sequential.run_sequential` run to prove a
pipelined loop correct end to end.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional

from repro.ir.operations import Opcode, Operation
from repro.ir.values import AddressOrigin, ArrayElementOrigin, Operand, ScalarOrigin, Value
from repro.core.schedule import Schedule
from repro.simulator.state import MachineState, clamp_element, fdiv, fsqrt

#: Optional hook supplying live-in values for loops built without origins
#: (hand-written IR in tests): (value, iteration < 0) -> float.
InitFn = Callable[[Value, int], float]


class SimulationError(RuntimeError):
    """The schedule or loop body is inconsistent with execution."""


#: Marks a value instance the dataflow executor has not computed yet.
_UNSET = object()


def run_pipelined(
    schedule: Schedule,
    state: MachineState,
    trip: Optional[int] = None,
    init_fn: Optional[InitFn] = None,
) -> MachineState:
    """Execute ``schedule`` for ``trip`` iterations over ``state``.

    Mutates and returns ``state``; live-out scalars are written back to
    ``state.scalars`` after the last iteration.
    """
    loop = schedule.loop
    ii = schedule.ii
    iterations = trip if trip is not None else int(loop.meta.get("trip", 0))
    if iterations <= 0:
        raise ValueError("trip count must be positive")
    initial = state.copy()
    for name, binding in loop.meta.get("scalars", {}).items():
        initial.scalars.setdefault(name, binding)

    instances = [
        (schedule.times[op.oid] + k * ii, op.oid, k)
        for op in loop.real_ops
        for k in range(iterations)
        if op.opcode is not Opcode.BRTOP
    ]
    instances.sort()

    # computed[vid][k]: instance k of variant vid (_UNSET until it runs);
    # constants and invariants read through `fixed`, filled on first read.
    computed: Dict[int, list] = {
        value.vid: [_UNSET] * iterations for value in loop.values if value.is_variant
    }
    fixed: Dict[int, object] = {}

    def operand_value(operand: Operand, k: int):
        value = operand.value
        row = computed.get(value.vid)
        if row is None:
            if value.vid not in fixed:
                fixed[value.vid] = (
                    value.literal if value.is_constant else _invariant_value(value, initial)
                )
            return fixed[value.vid]
        producer = k - operand.back
        if producer < 0:
            return _live_in_value(value, producer, initial, init_fn)
        result = row[producer]
        if result is _UNSET:
            raise SimulationError(
                f"{value} consumed in iteration {k} before its instance "
                f"{producer} was computed — the schedule is broken"
            )
        return result

    decoded = {
        op.oid: (op, decode(op), computed[op.dest.vid] if op.dest is not None else None)
        for op in loop.real_ops
    }
    for _, oid, k in instances:
        op, semantics, row = decoded[oid]
        result = semantics(op, k, operand_value, state)
        if row is not None:
            row[k] = result

    for name, value in loop.live_out.items():
        if value.is_variant:
            result = computed[value.vid][iterations - 1]
            if result is _UNSET:
                raise KeyError((value.vid, iterations - 1))
            state.scalars[name] = result
    return state


def _invariant_value(value: Value, initial: MachineState):
    name = value.name
    if name.startswith("&"):
        return 0.0  # array base addresses are modeled in element units
    try:
        return initial.scalars[name]
    except KeyError:
        raise SimulationError(f"invariant {name!r} has no initial binding") from None


def _live_in_value(
    value: Value, iteration: int, initial: MachineState, init_fn: Optional[InitFn]
):
    """Value of a pre-loop instance (iteration < 0), from the origin."""
    origin = value.origin
    if isinstance(origin, ScalarOrigin):
        return initial.scalars[origin.name]
    if isinstance(origin, ArrayElementOrigin):
        cells = initial.arrays[origin.array]
        element = origin.element(iteration)
        if 0 <= element < len(cells):
            return cells[element]
        return 0.0
    if isinstance(origin, AddressOrigin):
        return float(origin.at(iteration))
    if init_fn is not None:
        return init_fn(value, iteration)
    raise SimulationError(
        f"{value} is read {-iteration} iteration(s) before the loop but has "
        "no origin and no init_fn was supplied"
    )


#: ``operand_value(operand, k)``: the value an input operand has in
#: iteration ``k``, supplied by the executor.
OperandValue = Callable[[Operand, int], object]
#: One opcode's semantics: ``(op, k, operand_value, state) -> result``.
Semantics = Callable[[Operation, int, OperandValue, MachineState], object]


def _binary(combine) -> Semantics:
    def semantics(op, k, value, state):
        operands = op.operands
        return combine(value(operands[0], k), value(operands[1], k))

    return semantics


def _unary(apply) -> Semantics:
    def semantics(op, k, value, state):
        return apply(value(op.operands[0], k))

    return semantics


def _mod(op, k, value, state):
    # Every handler reads lazily in a fixed order, because a VLIW read of
    # an unwritten register raises; here the divisor comes first.
    divisor = value(op.operands[1], k)
    return value(op.operands[0], k) % divisor if divisor else 0.0


def _select(op, k, value, state):
    # Only the taken arm is read.
    operands = op.operands
    return value(operands[1], k) if value(operands[0], k) else value(operands[2], k)


def _and(op, k, value, state):
    return bool(value(op.operands[0], k)) and bool(value(op.operands[1], k))


def _or(op, k, value, state):
    return bool(value(op.operands[0], k)) or bool(value(op.operands[1], k))


def _xor(op, k, value, state):
    return bool(value(op.operands[0], k)) != bool(value(op.operands[1], k))


def _load(op, k, value, state):
    cells = state.arrays[op.attrs["array"]]
    return cells[_element_index(op, k, value, cells)]


def _store(op, k, value, state):
    # Predicate, then the stored value, then the address; a squashed
    # store reads nothing else.
    if op.predicate is None or value(op.predicate, k):
        cells = state.arrays[op.attrs["array"]]
        stored = value(op.operands[1], k)
        cells[_element_index(op, k, value, cells)] = stored
    return None


def _cannot_execute(op, k, value, state):
    raise SimulationError(f"cannot execute opcode {op.opcode}")


_ADD = _binary(operator.add)
_SUB = _binary(operator.sub)
_MUL = _binary(operator.mul)
_DIV = _binary(fdiv)

#: Every opcode an executor can run.  BRTOP is loop control, handled by
#: the executors themselves; START/STOP never reach them.
_SEMANTICS: Dict[Opcode, Semantics] = {
    Opcode.ADDR_ADD: _ADD,
    Opcode.ADD_I: _ADD,
    Opcode.ADD_F: _ADD,
    Opcode.ADDR_SUB: _SUB,
    Opcode.SUB_I: _SUB,
    Opcode.SUB_F: _SUB,
    Opcode.ADDR_MUL: _MUL,
    Opcode.MUL_I: _MUL,
    Opcode.MUL_F: _MUL,
    Opcode.DIV_I: _DIV,
    Opcode.DIV_F: _DIV,
    Opcode.MOD_I: _mod,
    Opcode.SQRT_F: _unary(fsqrt),
    Opcode.ABS_F: _unary(abs),
    Opcode.NEG_F: _unary(operator.neg),
    Opcode.MIN_F: _binary(min),
    Opcode.MAX_F: _binary(max),
    Opcode.SELECT: _select,
    Opcode.CMP_LT: _binary(operator.lt),
    Opcode.CMP_LE: _binary(operator.le),
    Opcode.CMP_GT: _binary(operator.gt),
    Opcode.CMP_GE: _binary(operator.ge),
    Opcode.CMP_EQ: _binary(operator.eq),
    Opcode.CMP_NE: _binary(operator.ne),
    Opcode.NOT_B: _unary(operator.not_),
    Opcode.AND_B: _and,
    Opcode.OR_B: _or,
    Opcode.XOR_B: _xor,
    Opcode.LOAD: _load,
    Opcode.STORE: _store,
}


def decode(op: Operation) -> Semantics:
    """The semantics of ``op``, looked up once so that executors call it
    per instance without dispatching on the opcode again.

    An opcode no executor can run decodes to semantics that raise
    :class:`SimulationError` when (and only when) an instance executes.
    """
    return _SEMANTICS.get(op.opcode, _cannot_execute)


def execute_op(op: Operation, k: int, operand_value: OperandValue, state: MachineState):
    """Execute one operation instance against ``state``.

    ``operand_value(operand, k)`` supplies input values — the dataflow
    executor resolves them through the instance table, the register-level
    VLIW simulator through the rotating register files.  Returns the
    result value (None for stores).  Executors running many instances
    call :func:`decode` once per operation instead.
    """
    return decode(op)(op, k, operand_value, state)


def _element_index(op: Operation, k: int, value: OperandValue, cells) -> int:
    if op.attrs.get("gather") or "abs" not in op.attrs:
        # Indirect access (or hand-built IR without affine attributes):
        # the address operand *is* the element index, clamped exactly
        # like the sequential interpreter clamps it.
        return clamp_element(cells, value(op.operands[0], k))
    return int(op.attrs["abs"]) + int(op.attrs["stride"]) * k
