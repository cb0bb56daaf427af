"""Register files: rotating (RR, ICR) and static (GPR).

A rotating register file is a circular queue addressed relative to the
iteration control pointer (ICP): specifier ``s`` names physical register
``(ICP + s) mod size``.  ``brtop`` decrements the ICP every II cycles,
so a value written to specifier ``s`` in one iteration is read as
``s + 1`` one iteration later — the concatenated-shifters picture of the
paper's Figure 2.
"""

from __future__ import annotations

from typing import List, Optional


class RotatingFile:
    """A rotating register file with an iteration control pointer."""

    def __init__(self, name: str, size: int):
        if size < 1:
            raise ValueError("rotating file needs at least one register")
        self.name = name
        self.size = size
        self.icp = 0
        self._cells: List[Optional[float]] = [None] * size

    def _physical(self, specifier: int) -> int:
        return (self.icp + specifier) % self.size

    def read(self, specifier: int) -> Optional[float]:
        """Read the register named ``ICP + specifier``."""
        return self._cells[(self.icp + specifier) % self.size]

    def write(self, specifier: int, value: float) -> None:
        """Write the register named ``ICP + specifier``."""
        self._cells[self._physical(specifier)] = value

    def read_physical(self, index: int) -> Optional[float]:
        return self._cells[index % self.size]

    def write_physical(self, index: int, value: float) -> None:
        self._cells[index % self.size] = value

    def rotate(self) -> None:
        """Decrement the ICP (performed by ``brtop`` once per II)."""
        self.icp = (self.icp - 1) % self.size

    def reset(self) -> None:
        self.icp = 0
        self._cells = [None] * self.size

    def __repr__(self) -> str:
        return f"RotatingFile({self.name!r}, size={self.size}, icp={self.icp})"


class StaticFile:
    """A conventional register file (the GPR file for loop invariants)."""

    def __init__(self, name: str, size: int):
        if size < 1:
            raise ValueError("register file needs at least one register")
        self.name = name
        self.size = size
        self._cells: List[Optional[float]] = [None] * size

    def read(self, index: int) -> Optional[float]:
        return self._cells[index]

    def write(self, index: int, value: float) -> None:
        self._cells[index] = value

    def reset(self) -> None:
        self._cells = [None] * self.size

    def __repr__(self) -> str:
        return f"StaticFile({self.name!r}, size={self.size})"
