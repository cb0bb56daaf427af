"""Shared machine state and arithmetic semantics for the simulators.

Both the sequential reference interpreter and the pipelined executors
use *exactly* these helpers, so a correctly scheduled loop produces
bit-identical results on both (same operations, same evaluation order
within an expression, same totalization of division/sqrt).
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from typing import Dict, List

from repro.frontend.ast import DoLoop


@dataclasses.dataclass
class MachineState:
    """Memory image and scalar environment for one simulation run."""

    arrays: Dict[str, List[float]]
    scalars: Dict[str, float]

    def copy(self) -> "MachineState":
        return MachineState(
            arrays={name: list(cells) for name, cells in self.arrays.items()},
            scalars=dict(self.scalars),
        )


def seeded_value(array: str, index: int, seed: int = 0) -> float:
    """Deterministic pseudo-random array contents in [0.5, 1.5).

    Values stay near 1.0 so products/divisions neither explode nor
    vanish over a simulated loop, and never hit division by zero.
    """
    key = zlib.crc32(f"{array}:{index}:{seed}".encode())
    return 0.5 + (key % 10_000) / 10_000.0


def initial_state(program: DoLoop, seed: int = 0,
                  array_init: Dict[str, List[float]] = None) -> MachineState:
    """Build the pre-loop machine state for a DoLoop program.

    Arrays are sized to cover both the declared size and every element an
    affine reference can touch, then filled deterministically (or from
    ``array_init`` when given — needed e.g. for index arrays driving
    gathers).
    """
    arrays: Dict[str, List[float]] = {}
    max_elements = program.max_elements()
    for name, declared in program.arrays.items():
        size = max(int(declared), max_elements.get(name, 0) + 2)
        if array_init and name in array_init:
            given = array_init[name]
            cells = [float(given[i % len(given)]) for i in range(size)]
        else:
            # seeded_value for every index, with the CRC of the shared
            # "name:" prefix computed once: crc32(b, crc32(a)) == crc32(a + b).
            prefix = zlib.crc32(f"{name}:".encode())
            tail = f":{seed}".encode()
            cells = [
                0.5 + (zlib.crc32(b"%d%b" % (i, tail), prefix) % 10_000) / 10_000.0
                for i in range(size)
            ]
        arrays[name] = cells
    return MachineState(arrays=arrays, scalars=dict(program.scalars))


# ----------------------------------------------------------------------
# Totalized arithmetic (identical in both simulators)
# ----------------------------------------------------------------------
def fdiv(numerator: float, denominator: float) -> float:
    """Division totalized at 0 (a squashed divide never traps)."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def fsqrt(operand: float) -> float:
    """Square root totalized over negatives via |x|."""
    return math.sqrt(abs(operand))


def clamp_element(cells: List[float], index: float) -> int:
    """Round and clamp an indirect index into the array bounds."""
    position = int(round(index))
    if position < 0:
        return 0
    if position >= len(cells):
        return len(cells) - 1
    return position


def values_close(a: float, b: float) -> bool:
    """Whether two executions agree on one value.

    NaN matches NaN, an infinity only matches itself, and finite values
    agree within a 1e-8 relative tolerance.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))
