"""Operation semantics shared by the executors, decoded once per run.

Pins what the decode table must keep from the opcode chain it replaced:
every opcode the compiler emits has semantics, anything else raises at
execution, and operands are read lazily and in the same order (a read
of an unwritten register raises in the VLIW simulator, so an extra or
earlier read would change behaviour).  Also pins the VLIW simulator's
pending-write order and the seeded initial memory image.
"""

import pytest

from repro.codegen import generate_kernel
from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import DType, LoopBody, Opcode, Operand, build_ddg
from repro.ir.operations import Operation
from repro.machine import cydra5
from repro.regalloc import allocate_registers
from repro.simulator import MachineState, SimulationError, initial_state, seeded_value, vliw
from repro.simulator.dataflow import _SEMANTICS, decode, execute_op
from repro.simulator.vliw import _PendingWrites
from repro.workloads import named_kernels, paper_corpus


def _op(opcode, operand_count, predicated=False, **attrs):
    loop = LoopBody("probe")
    values = [loop.new_value(f"v{i}", DType.FLOAT) for i in range(operand_count)]
    predicate = Operand(loop.new_value("p", DType.PRED)) if predicated else None
    return Operation(
        oid=0,
        opcode=opcode,
        operands=[Operand(value) for value in values],
        predicate=predicate,
        attrs=attrs,
    )


class _Recorder:
    """operand_value that logs reads and refuses the operands in ``forbidden``."""

    def __init__(self, op, values, forbidden=()):
        self.names = {id(operand): f"arg{i}" for i, operand in enumerate(op.operands)}
        if op.predicate is not None:
            self.names[id(op.predicate)] = "pred"
        self.values = values
        self.forbidden = set(forbidden)
        self.reads = []

    def __call__(self, operand, k):
        name = self.names[id(operand)]
        if name in self.forbidden:
            raise AssertionError(f"{name} must not be read")
        self.reads.append(name)
        return self.values[name]


def test_every_compiled_opcode_has_semantics():
    emitted = set()
    for program in named_kernels() + paper_corpus(len(named_kernels()) + 60):
        emitted.update(op.opcode for op in compile_loop(program).real_ops)
    emitted.discard(Opcode.BRTOP)  # loop control, run by the executors themselves
    assert emitted <= set(_SEMANTICS)
    assert set(_SEMANTICS) == set(Opcode) - {Opcode.START, Opcode.STOP, Opcode.BRTOP}


@pytest.mark.parametrize("opcode", [Opcode.START, Opcode.STOP, Opcode.BRTOP])
def test_other_opcodes_raise_only_when_executed(opcode):
    op = _op(opcode, 0)
    semantics = decode(op)  # decoding alone does not raise
    with pytest.raises(SimulationError, match=f"cannot execute opcode {opcode}"):
        semantics(op, 0, None, None)
    with pytest.raises(SimulationError, match="cannot execute opcode"):
        execute_op(op, 0, None, None)


@pytest.mark.parametrize(
    "condition, taken, untaken", [(True, "arg1", "arg2"), (False, "arg2", "arg1")]
)
def test_select_reads_only_the_taken_arm(condition, taken, untaken):
    op = _op(Opcode.SELECT, 3)
    read = _Recorder(op, {"arg0": condition, "arg1": 1.0, "arg2": 2.0}, forbidden={untaken})
    assert execute_op(op, 0, read, None) == read.values[taken]
    assert read.reads == ["arg0", taken]


def test_store_reads_predicate_then_value_then_address():
    op = _op(Opcode.STORE, 2, predicated=True, array="a", gather=True)
    state = MachineState(arrays={"a": [0.0] * 4}, scalars={})
    read = _Recorder(op, {"pred": True, "arg0": 2.0, "arg1": 7.5})
    assert execute_op(op, 0, read, state) is None
    assert read.reads == ["pred", "arg1", "arg0"]
    assert state.arrays["a"] == [0.0, 0.0, 7.5, 0.0]


def test_squashed_store_reads_nothing_but_its_predicate():
    op = _op(Opcode.STORE, 2, predicated=True, array="a", gather=True)
    state = MachineState(arrays={"a": [0.0] * 4}, scalars={})
    read = _Recorder(op, {"pred": False}, forbidden={"arg0", "arg1"})
    execute_op(op, 0, read, state)
    assert read.reads == ["pred"]
    assert state.arrays["a"] == [0.0] * 4


def test_affine_load_reads_no_operand():
    op = _op(Opcode.LOAD, 1, array="a", abs=1, stride=2)
    state = MachineState(arrays={"a": [0.0, 1.0, 2.0, 3.0, 4.0]}, scalars={})
    read = _Recorder(op, {}, forbidden={"arg0"})
    assert execute_op(op, 1, read, state) == 3.0


def test_mod_reads_divisor_first_and_is_total():
    op = _op(Opcode.MOD_I, 2)
    read = _Recorder(op, {"arg0": 7.0, "arg1": 3.0})
    assert execute_op(op, 0, read, None) == 1.0
    assert read.reads == ["arg1", "arg0"]
    read = _Recorder(op, {"arg0": 7.0, "arg1": 0.0}, forbidden={"arg0"})
    assert execute_op(op, 0, read, None) == 0.0


@pytest.mark.parametrize(
    "opcode, first, expected",
    [(Opcode.AND_B, False, False), (Opcode.OR_B, True, True)],
)
def test_and_or_short_circuit(opcode, first, expected):
    op = _op(opcode, 2)
    read = _Recorder(op, {"arg0": first}, forbidden={"arg1"})
    assert execute_op(op, 0, read, None) is expected


@pytest.mark.parametrize(
    "opcode, a, b, expected",
    [
        (Opcode.ADD_F, 2.0, 3.0, 5.0),
        (Opcode.SUB_I, 2.0, 3.0, -1.0),
        (Opcode.MUL_F, 2.0, 3.0, 6.0),
        (Opcode.DIV_F, 3.0, 0.0, 0.0),
        (Opcode.MIN_F, 2.0, 3.0, 2.0),
        (Opcode.MAX_F, 2.0, 3.0, 3.0),
        (Opcode.CMP_LE, 3.0, 3.0, True),
        (Opcode.CMP_NE, 3.0, 3.0, False),
        (Opcode.XOR_B, 1.0, 0.0, True),
    ],
)
def test_binary_semantics_read_left_then_right(opcode, a, b, expected):
    op = _op(opcode, 2)
    read = _Recorder(op, {"arg0": a, "arg1": b})
    assert execute_op(op, 0, read, None) == expected
    assert read.reads == ["arg0", "arg1"]


def test_same_cycle_writes_apply_in_issue_order():
    applied = []

    def write(physical, value):
        applied.append((physical, value))

    pending = _PendingWrites()
    pending.push(5, write, 0, "first issued")
    pending.push(5, write, 0, "second issued")
    pending.push(4, write, 1, "earlier commit")
    pending.push(6, write, 0, "later commit")
    pending.commit_through(3)
    assert applied == []
    pending.commit_through(5)
    assert applied == [(1, "earlier commit"), (0, "first issued"), (0, "second issued")]
    pending.commit_through(6)
    assert applied[-1] == (0, "later commit")


@pytest.mark.parametrize("seed", [0, 1, 1993])
def test_initial_state_cells_equal_seeded_value(seed):
    for program in named_kernels()[:3]:
        state = initial_state(program, seed=seed)
        for name, cells in state.arrays.items():
            assert len(cells) >= 50
            assert cells == [seeded_value(name, i, seed) for i in range(len(cells))]


def test_vliw_read_of_unwritten_register_keeps_its_message(monkeypatch):
    program = next(p for p in named_kernels() if p.name == "ll1_hydro")
    loop = compile_loop(program)
    machine = cydra5()
    ddg = build_ddg(loop, machine)
    schedule = modulo_schedule(loop, machine, ddg=ddg).schedule
    kernel = generate_kernel(schedule, allocate_registers(schedule, ddg))
    monkeypatch.setattr(vliw, "_preload_live_ins", lambda *args: None)
    with pytest.raises(SimulationError) as raised:
        vliw.run_vliw(kernel, initial_state(program))
    assert str(raised.value) == (
        "[4] &z.1 = addra(&z.1[-1], #1) iteration 0: read of rr[p+1] (physical 1) "
        "returned an unwritten register — allocation or codegen is broken"
    )
