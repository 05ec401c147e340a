"""Labeled oriented arcs of a two-curve filling system.

A pair of closed curves crossing n times cuts each curve into n arcs.
Every arc carries both orientations, giving 4n directed arcs numbered
1..4n: symbol 2i-1 is the i-th arc of the first curve ("alpha"), symbol
2i the i-th arc of the second ("beta"), and adding 2n reverses the
orientation.  Text form is ``a3``, ``b2``; an apostrophe marks the
reversed copy, as in ``a5'``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .permutations import Permutation

__all__ = [
    "ALPHA",
    "BETA",
    "ArcLabel",
    "curve_advance",
    "label_of",
    "label_texts",
    "reversal_pairing",
]

ALPHA = "alpha"
BETA = "beta"


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("crossing count n must be at least 1")


@dataclass(frozen=True)
class ArcLabel:
    """One directed arc: which curve, which arc index, which orientation."""

    curve: str
    index: int
    inverted: bool = False

    def __post_init__(self) -> None:
        if self.curve not in (ALPHA, BETA):
            raise ValueError(f"curve must be {ALPHA!r} or {BETA!r}, got {self.curve!r}")
        if self.index < 1:
            raise ValueError("arc index starts at 1")

    def __str__(self) -> str:
        mark = "'" if self.inverted else ""
        return f"{self.curve[0]}{self.index}{mark}"


def label_of(j: int, n: int) -> ArcLabel:
    """Label of directed-arc symbol ``j`` in a system with ``n`` crossings.

    >>> str(label_of(19, 5))
    "a5'"
    >>> str(label_of(6, 5))
    'b3'
    """
    _check_n(n)
    if not 1 <= j <= 4 * n:
        raise ValueError(f"symbol {j} outside 1..{4 * n}")
    inverted = j > 2 * n
    base = j - 2 * n if inverted else j
    if base % 2:
        return ArcLabel(ALPHA, (base + 1) // 2, inverted)
    return ArcLabel(BETA, base // 2, inverted)


def label_texts(n: int) -> tuple[str, ...]:
    """``str(label_of(j, n))`` at index j for every symbol; index 0 is unused."""
    _check_n(n)
    forward = [f"{curve}{i}" for i in range(1, n + 1) for curve in "ab"]
    return ("", *forward, *(text + "'" for text in forward))


def reversal_pairing(n: int) -> Permutation:
    """The involution matching each directed arc with its reversal.

    Shifts every symbol by 2n modulo 4n; with n = 1 this is (1,3)(2,4).
    """
    _check_n(n)
    return Permutation(_kernel.structure_maps(n)[0][1:])


def curve_advance(n: int) -> Permutation:
    """Send each directed arc to the next arc along its own curve.

    Forward arcs advance with the curve orientation, reversed arcs
    against it, so the permutation splits into four cycles of length n
    (all fixed points when n = 1).
    """
    _check_n(n)
    return Permutation(_kernel.structure_maps(n)[1][1:])
