"""Rotating-register allocation (the Rau et al. PLDI'92 substrate, §3.2).

In a rotating file of R registers that rotates once per II cycles, give
each value v a *specifier* ``s_v``; instance k of v then lives in
physical register ``(s_v - k) mod R`` for ``[start_v + k*II,
end_v + k*II)``.  Two values collide on some physical register at some
time iff their arcs

    arc(v) = [start_v - s_v * II,  start_v - s_v * II + lifetime_v)

overlap modulo ``R * II``.  Allocation therefore reduces to packing
circular arcs of fixed length whose positions slide only in steps of II
(the phase ``start_v mod II`` is fixed by the schedule) — the "wand"
model.  MaxLive is an absolute lower bound on R; the paper leans on the
empirical result that greedy packing almost always achieves MaxLive (or
overshoots by a register or two), which justifies approximating register
pressure by MaxLive throughout the evaluation.

Strategies reproduced from that paper:

* fits: ``first_fit`` (smallest specifier shift), ``best_fit``
  (tightest surviving gap), ``end_fit`` (butt the arc against an
  existing arc's end);
* orderings: ``start`` (by definition time), ``length`` (longest
  lifetime first), ``adjacency`` (start time, chained so values that
  begin where another ends come next).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from repro.bounds.lifetimes import Lifetime, max_live

FIT_STRATEGIES = ("first_fit", "best_fit", "end_fit")
ORDERINGS = ("start", "length", "adjacency")


@dataclasses.dataclass
class Allocation:
    """Result of rotating allocation for one register file."""

    registers: int  # file size R actually used
    ii: int
    specifiers: Dict[int, int]  # value vid -> specifier s_v
    max_live: int

    @property
    def overshoot(self) -> int:
        """Registers used beyond the MaxLive lower bound."""
        return self.registers - self.max_live


class _CircularOccupancy:
    """Occupied arcs on a circle of circumference C = R * II.

    ``cells`` is a doubled occupancy array: cell ``p`` and its copy
    ``p + C`` are 1 while some placed arc covers position ``p``, so any
    arc starting in ``[0, C)`` with length at most C is the contiguous
    slice ``cells[start:start + length]``.  Two half-open integer arcs
    intersect modulo C exactly when they share a cell, so one C-level
    ``find`` decides a fit exactly as testing the arc against every
    placed arc with :func:`_arcs_overlap` would (the tests check it
    does).
    """

    def __init__(self, circumference: int):
        self.circumference = circumference
        self.cells = bytearray(2 * circumference)
        self.ends: Set[int] = set()  # (start + length) mod C of every placed arc

    def fits(self, start: int, length: int) -> bool:
        if length > self.circumference:
            return False
        start %= self.circumference
        return self.cells.find(1, start, start + length) < 0

    def place(self, start: int, length: int) -> None:
        c = self.circumference
        start %= c
        end = start + min(length, c)  # <= 2C
        cells = self.cells
        cells[start:end] = b"\x01" * (end - start)
        if end <= c:
            cells[start + c:end + c] = b"\x01" * (end - start)
        else:  # the arc wraps: mirror its head onto the second copy
            cells[start + c:] = b"\x01" * (c - start)
            cells[:end - c] = b"\x01" * (end - c)
        self.ends.add((start + length) % c)

    def gap_after(self, position: int, length: int) -> int:
        """Distance from a fitting arc's end to the next occupied cell.

        Placed arcs never overlap, so the first occupied cell at or after
        the end of an arc that fits is some placed arc's start.
        """
        c = self.circumference
        end = (position + length) % c
        found = self.cells.find(1, end, end + c)
        return c - length if found < 0 else found - end


def _arcs_overlap(c: int, a_start: int, a_len: int, b_start: int, b_len: int) -> bool:
    """Do circular arcs [a, a+a_len) and [b, b+b_len) intersect mod c?"""
    if a_len <= 0 or b_len <= 0:
        return False
    delta = (b_start - a_start) % c
    return delta < a_len or (c - delta) < b_len


def allocate_rotating(
    lifetimes: Sequence[Lifetime],
    ii: int,
    fit: str = "end_fit",
    ordering: str = "adjacency",
    max_overshoot: int = 64,
) -> Allocation:
    """Allocate lifetimes to a rotating file of minimal size.

    Grows R from the MaxLive lower bound until greedy packing succeeds;
    raises RuntimeError past ``max_overshoot`` extra registers (never
    observed in practice — the test suite asserts small overshoots).
    """
    if fit not in FIT_STRATEGIES:
        raise ValueError(f"unknown fit {fit!r}; pick from {FIT_STRATEGIES}")
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; pick from {ORDERINGS}")
    live = [lt for lt in lifetimes if lt.length > 0]
    lower_bound = max_live(live, ii)
    if not live:
        return Allocation(registers=0, ii=ii, specifiers={}, max_live=0)
    ordered = _order(live, ordering)
    floor_r = max(1, lower_bound, *(-(-lt.length // ii) for lt in live))
    for registers in range(floor_r, floor_r + max_overshoot + 1):
        specifiers = _try_pack(ordered, ii, registers, fit)
        if specifiers is not None:
            return Allocation(
                registers=registers,
                ii=ii,
                specifiers=specifiers,
                max_live=lower_bound,
            )
    raise RuntimeError(
        f"could not pack {len(live)} lifetimes within MaxLive + {max_overshoot}"
    )


def _order(lifetimes: Sequence[Lifetime], ordering: str) -> List[Lifetime]:
    if ordering == "start":
        return sorted(lifetimes, key=lambda lt: (lt.start, -lt.length))
    if ordering == "length":
        return sorted(lifetimes, key=lambda lt: (-lt.length, lt.start))
    # Adjacency: start-time order, but whenever some remaining value
    # begins exactly where the previously placed one ended, take it next
    # (it can butt against the same gap).
    remaining = sorted(lifetimes, key=lambda lt: (lt.start, -lt.length))
    chained: List[Lifetime] = []
    while remaining:
        if chained:
            previous_end = chained[-1].end
            adjacent = next((lt for lt in remaining if lt.start == previous_end), None)
            if adjacent is not None:
                chained.append(adjacent)
                remaining.remove(adjacent)
                continue
        chained.append(remaining.pop(0))
    return chained


def _try_pack(
    ordered: Sequence[Lifetime], ii: int, registers: int, fit: str
) -> Optional[Dict[int, int]]:
    circumference = registers * ii
    occupancy = _CircularOccupancy(circumference)
    specifiers: Dict[int, int] = {}
    for lifetime in ordered:
        length = lifetime.length
        specifier = _find_slot(occupancy, lifetime.start, length, ii, registers, fit)
        if specifier is None:
            return None
        position = (lifetime.start - specifier * ii) % circumference
        occupancy.place(position, length)
        specifiers[lifetime.value.vid] = specifier
    return specifiers


def _find_slot(
    occupancy: _CircularOccupancy,
    start: int,
    length: int,
    ii: int,
    registers: int,
    fit: str,
) -> Optional[int]:
    """The specifier ``fit`` picks for an arc (None if no position fits).

    Specifier s puts the arc at ``(start - s * II) mod C``; among the
    specifiers that fit, ties always go to the smallest.
    """
    circumference = registers * ii
    if fit == "end_fit":
        # Prefer a position butting against an existing arc's end: only
        # ends congruent to start mod II are reachable, one specifier each.
        butting = sorted(
            ((start - end) % circumference) // ii
            for end in occupancy.ends
            if (end - start) % ii == 0
        )
        for specifier in butting:
            if occupancy.fits(start - specifier * ii, length):
                return specifier
    best: Optional[int] = None
    best_gap: Optional[int] = None
    for specifier in range(registers):
        position = (start - specifier * ii) % circumference
        if not occupancy.fits(position, length):
            continue
        if fit != "best_fit":
            return specifier  # first_fit, or end_fit with no butting fit
        # best_fit: the position leaving the smallest gap to the next
        # occupied arc (tightest packing of the leftover hole).
        gap = occupancy.gap_after(position, length)
        if best_gap is None or gap < best_gap:
            best, best_gap = specifier, gap
    return best
