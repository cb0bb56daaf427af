"""The occupancy-array allocator against the pairwise-overlap packer.

``_CircularOccupancy`` decides fits with one scan of a doubled
occupancy array.  These tests pin it to the pairwise definition it
replaced: the ``fits`` answers agree with ``_arcs_overlap`` on random
arcs, and every fit x ordering pair allocates exactly what the pairwise
packer (kept below as it was) allocated, on real schedules.
"""

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.lifetimes import icr_values, max_live, rr_values, schedule_lifetimes
from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import build_machine, machine_names
from repro.regalloc import FIT_STRATEGIES, ORDERINGS, allocate_rotating
from repro.regalloc.files import _extend_live_ins
from repro.regalloc.rotating import _arcs_overlap, _CircularOccupancy, _order
from repro.workloads import named_kernels, paper_corpus


# ----------------------------------------------------------------------
# The pairwise packer the occupancy array replaced, kept verbatim.
# ----------------------------------------------------------------------
class _PairwiseOccupancy:
    """Occupied arcs on a circle of circumference R * II."""

    def __init__(self, circumference: int):
        self.circumference = circumference
        self.arcs: List[Tuple[int, int]] = []  # (start, length), start in [0, C)

    def fits(self, start: int, length: int) -> bool:
        if length > self.circumference:
            return False
        start %= self.circumference
        for other in self.arcs:
            if _arcs_overlap(self.circumference, start, length, other[0], other[1]):
                return False
        return True

    def place(self, start: int, length: int) -> None:
        self.arcs.append((start % self.circumference, length))

    def ends(self) -> List[int]:
        return [(start + length) % self.circumference for start, length in self.arcs]


def _reference_try_pack(ordered, ii: int, registers: int, fit: str) -> Optional[Dict[int, int]]:
    circumference = registers * ii
    occupancy = _PairwiseOccupancy(circumference)
    specifiers: Dict[int, int] = {}
    for lifetime in ordered:
        specifier = _reference_find_slot(occupancy, lifetime, ii, registers, fit)
        if specifier is None:
            return None
        position = (lifetime.start - specifier * ii) % circumference
        occupancy.place(position, lifetime.length)
        specifiers[lifetime.value.vid] = specifier
    return specifiers


def _reference_find_slot(occupancy, lifetime, ii: int, registers: int, fit: str) -> Optional[int]:
    circumference = registers * ii
    candidates = []
    for specifier in range(registers):
        position = (lifetime.start - specifier * ii) % circumference
        if occupancy.fits(position, lifetime.length):
            candidates.append((specifier, position))
    if not candidates:
        return None
    if fit == "first_fit":
        return candidates[0][0]
    if fit == "end_fit":
        # Prefer positions butting against an existing arc's end.
        ends = set(occupancy.ends())
        for specifier, position in candidates:
            if position in ends:
                return specifier
        return candidates[0][0]
    # best_fit: choose the position leaving the smallest gap to the next
    # occupied arc (tightest packing of the leftover hole).
    best_specifier, best_gap = None, None
    for specifier, position in candidates:
        gap = _reference_gap_after(occupancy, position, lifetime.length)
        if best_gap is None or gap < best_gap:
            best_specifier, best_gap = specifier, gap
    return best_specifier


def _reference_gap_after(occupancy, position: int, length: int) -> int:
    """Distance from the arc's end to the next occupied arc start."""
    c = occupancy.circumference
    end = (position + length) % c
    if not occupancy.arcs:
        return c - length
    best = c
    for other_start, _ in occupancy.arcs:
        distance = (other_start - end) % c
        best = min(best, distance)
    return best


def _reference_allocate(lifetimes, ii: int, fit: str, ordering: str, max_overshoot: int = 64):
    """(registers, specifiers) the pairwise packer chooses."""
    live = [lt for lt in lifetimes if lt.length > 0]
    if not live:
        return 0, {}
    lower_bound = max_live(live, ii)
    ordered = _order(live, ordering)
    floor_r = max(1, lower_bound, *(-(-lt.length // ii) for lt in live))
    for registers in range(floor_r, floor_r + max_overshoot + 1):
        specifiers = _reference_try_pack(ordered, ii, registers, fit)
        if specifiers is not None:
            return registers, specifiers
    raise RuntimeError("reference packer failed")


# ----------------------------------------------------------------------
# fits agrees with the pairwise oracle
# ----------------------------------------------------------------------
@st.composite
def _arc_sets(draw):
    circumference = draw(st.integers(min_value=1, max_value=24))
    arc = st.tuples(
        st.integers(min_value=-3 * circumference, max_value=3 * circumference),
        # 0 .. C + 2 covers empty arcs, length == C and length > C.
        st.integers(min_value=0, max_value=circumference + 2),
    )
    placed = draw(st.lists(arc, max_size=8))
    queries = draw(st.lists(arc, min_size=1, max_size=12))
    return circumference, placed, queries


@given(_arc_sets())
@settings(max_examples=300, deadline=None)
def test_fits_agrees_with_pairwise_overlap(case):
    circumference, placed, queries = case
    occupancy = _CircularOccupancy(circumference)
    oracle = _PairwiseOccupancy(circumference)
    for start, length in placed:
        # Arcs longer than the circle never fit, so the allocator never
        # places one; every other arc (overlapping or not) may be placed.
        if length > circumference:
            continue
        occupancy.place(start, length)
        oracle.place(start, length)
    for start, length in queries:
        assert occupancy.fits(start, length) == oracle.fits(start, length), (
            f"C={circumference} placed={placed} query=({start}, {length})"
        )


def test_fits_edge_cases():
    occupancy = _CircularOccupancy(6)
    assert occupancy.fits(3, 6)  # a full-circle arc fits an empty circle
    assert not occupancy.fits(0, 7)  # longer than the circle: never
    occupancy.place(4, 4)  # wraps: cells 4, 5, 0, 1
    assert occupancy.fits(2, 2)
    assert not occupancy.fits(1, 2)
    assert not occupancy.fits(-1, 1)  # -1 is cell 5
    assert occupancy.fits(9, 0)  # empty arcs never collide
    assert occupancy.ends == {2}


# ----------------------------------------------------------------------
# Allocation equals the pairwise packer's on real schedules
# ----------------------------------------------------------------------
def _corpus() -> List:
    named = named_kernels()
    return named + paper_corpus(len(named) + 40)[len(named):]


def _lifetime_sets():
    """(label, ii, lifetimes) for the RR and ICR files of every schedule.

    Lifetime sets that another schedule already produced are dropped.
    """
    cases, seen = [], set()
    for machine_name in machine_names():
        machine = build_machine(machine_name)
        for program in _corpus():
            loop = compile_loop(program)
            ddg = build_ddg(loop, machine)
            result = modulo_schedule(loop, machine, ddg=ddg)
            if not result.success:
                continue
            schedule = result.schedule
            for kind, values in (("rr", rr_values(loop)), ("icr", icr_values(loop))):
                lifetimes = _extend_live_ins(
                    schedule_lifetimes(loop, ddg, schedule.times, schedule.ii, values),
                    loop,
                    schedule.ii,
                )
                key = (schedule.ii, tuple((lt.value.vid, lt.start, lt.end) for lt in lifetimes))
                if key not in seen:
                    seen.add(key)
                    cases.append((f"{program.name}@{machine_name}:{kind}", schedule.ii, lifetimes))
    return cases


@pytest.fixture(scope="module")
def lifetime_sets():
    return _lifetime_sets()


@pytest.mark.parametrize("fit", FIT_STRATEGIES)
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_allocation_matches_pairwise_packer(lifetime_sets, fit, ordering):
    assert len(lifetime_sets) > 400
    for label, ii, lifetimes in lifetime_sets:
        allocation = allocate_rotating(lifetimes, ii, fit=fit, ordering=ordering)
        registers, specifiers = _reference_allocate(lifetimes, ii, fit, ordering)
        assert (allocation.registers, allocation.specifiers) == (registers, specifiers), label
