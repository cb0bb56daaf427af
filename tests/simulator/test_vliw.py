"""Register-level VLIW simulation: the deepest end-to-end validation.

compile -> schedule -> allocate rotating registers -> generate kernel
-> run the kernel on rotating register files == sequential execution.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_kernel
from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.regalloc import allocate_registers
from repro.simulator import initial_state, run_sequential, values_close
from repro.simulator.vliw import run_vliw
from repro.workloads import LoopGenerator, named_kernels

MACHINE = cydra5()


def assert_vliw_equivalent(program):
    loop = compile_loop(program)
    ddg = build_ddg(loop, MACHINE)
    result = modulo_schedule(loop, MACHINE, ddg=ddg)
    assert result.success
    kernel = generate_kernel(result.schedule, allocate_registers(result.schedule, ddg))
    sequential = run_sequential(program, initial_state(program))
    register_level = run_vliw(kernel, initial_state(program))
    for name in program.arrays:
        for position, (a, b) in enumerate(
            zip(sequential.arrays[name], register_level.arrays[name])
        ):
            assert values_close(a, b), f"{program.name}: {name}[{position}] {a} vs {b}"
    for name in program.live_out:
        a = sequential.scalars[name]
        b = register_level.scalars[name]
        assert values_close(a, b), f"{program.name}: scalar {name} {a} vs {b}"


@pytest.mark.parametrize("program", named_kernels(), ids=lambda p: p.name)
def test_named_kernels_register_level(program):
    assert_vliw_equivalent(program)


@st.composite
def random_programs(draw):
    seed = draw(st.integers(min_value=0, max_value=5_000))
    klass = draw(st.sampled_from(["neither", "conditional", "recurrence", "both"]))
    return LoopGenerator(seed).generate(f"vliw_{seed}_{klass}", klass)


@given(random_programs())
@settings(max_examples=25, deadline=None)
def test_random_programs_register_level(program):
    assert_vliw_equivalent(program)


def test_bad_trip_rejected():
    program = named_kernels()[2]
    loop = compile_loop(program)
    result = modulo_schedule(loop, MACHINE)
    kernel = generate_kernel(result.schedule)
    with pytest.raises(ValueError):
        run_vliw(kernel, initial_state(program), trip=0)


def test_loop_control_counters():
    """Cydra brtop semantics: LC starts new iterations, ESC drains."""
    from repro.simulator.vliw import _LoopControl

    control = _LoopControl(stages=3, trip=2)
    # Iteration 0's stage-0 predicate is preset.
    assert control.stage_active(0, 0)
    # m=0: LC 1->0, iteration 1 enabled.
    assert control.brtop(0)
    assert control.stage_active(0, 1)  # iteration 1 at stage 0
    assert control.stage_active(1, 1)  # iteration 0 reached stage 1
    # m=1: draining begins (ESC 2 -> 1): no new iteration at m=2.
    assert control.brtop(1)
    assert not control.stage_active(0, 2)
    assert control.stage_active(1, 2)  # iteration 1 at stage 1
    assert control.stage_active(2, 2)  # iteration 0 at stage 2
    # m=2: ESC 1 -> 0; m=3: fully drained.
    assert control.brtop(2)
    assert not control.brtop(3)


def test_pipeline_runs_exactly_trip_plus_stages_minus_one_kernels():
    from repro.simulator.vliw import _LoopControl

    for trip, stages in ((1, 1), (2, 3), (5, 2), (4, 7)):
        control = _LoopControl(stages=stages, trip=trip)
        kernels = 0
        m = 0
        while True:
            kernels += 1
            if not control.brtop(m):
                break
            m += 1
        assert kernels == trip + stages - 1
