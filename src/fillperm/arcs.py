"""Directed arcs of a two-curve filling system and their text names.

A pair of closed curves crossing n times cuts each curve into n arcs.
Every arc carries both orientations, giving 4n directed arcs numbered
1..4n: symbol 2i-1 is the i-th arc of the first curve, symbol 2i the
i-th arc of the second, and adding 2n reverses the orientation.
``label_texts`` names them ``a3``, ``b2`` and so on, with an apostrophe
marking the reversed copy, as in ``a5'``.
"""

from __future__ import annotations

from . import _kernel
from .permutations import Permutation

__all__ = ["curve_advance", "label_texts", "reversal_pairing"]


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("crossing count n must be at least 1")


def label_texts(n: int) -> tuple[str, ...]:
    """The name of every symbol 1..4n at its own index; index 0 is unused.

    Symbol 2i-1 is ``a<i>``, symbol 2i is ``b<i>``, and symbol j + 2n is
    the name of j followed by an apostrophe.

    >>> label_texts(5)[19], label_texts(5)[6]
    ("a5'", 'b3')
    """
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
