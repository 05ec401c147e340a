"""Permutations of {1, ..., m} as immutable image arrays.

Symbols are 1-based in every public interface.  Cycle notation follows
the usual convention: ``(1,2,19,14)`` maps 1 to 2, 2 to 19, 19 to 14 and
14 back to 1.  Canonical cycle form rotates each cycle so its smallest
symbol comes first and sorts the cycles by that symbol; fixed points are
kept as explicit 1-cycles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _kernel

__all__ = ["CycleDecomposition", "Permutation"]

_CYCLE = re.compile(r"\((\d+(?:,\d+)*)\)")


def _cycle_notation(cycles: Iterable[Sequence[int]]) -> str:
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def _rotate_min_first(cycle: Sequence[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles covering {1, ..., degree}, held in canonical form.

    Cycles may be given in any rotation and order, and fixed points may
    be omitted; normalization happens on construction.
    """

    degree: int
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        seen: set[int] = set()
        for cycle in self.cycles:
            if not cycle:
                raise ValueError("empty cycle")
            for s in cycle:
                if not 1 <= s <= self.degree:
                    raise ValueError(f"symbol {s} outside 1..{self.degree}")
                if s in seen:
                    raise ValueError(f"symbol {s} appears in more than one cycle")
                seen.add(s)
        full = [tuple(c) for c in self.cycles]
        full.extend((s,) for s in range(1, self.degree + 1) if s not in seen)
        canonical = sorted((_rotate_min_first(c) for c in full), key=lambda c: c[0])
        object.__setattr__(self, "cycles", tuple(canonical))

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)

    def __str__(self) -> str:
        return _cycle_notation(self.cycles)


class Permutation:
    """An immutable bijection of {1, ..., m}.

    ``images[j - 1]`` is the image of symbol ``j``:

    >>> p = Permutation((2, 3, 1, 4))
    >>> p(2)
    3
    >>> str(p)
    '(1,2,3)(4)'
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]) -> None:
        imgs = tuple(images)
        if not imgs:
            raise ValueError("degree must be at least 1")
        m = len(imgs)
        if not set(imgs).issuperset(range(1, m + 1)):
            # Not a bijection; walk the images only to name the first bad one.
            seen = [False] * m
            for v in imgs:
                if not 1 <= v <= m:
                    raise ValueError(f"image {v} outside 1..{m}")
                if seen[v - 1]:
                    raise ValueError(f"not a bijection: image {v} repeats")
                seen[v - 1] = True
        self._images = imgs

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple[int, ...]:
        """Images of 1..degree, 1-indexed semantics."""
        return self._images

    def __call__(self, j: int) -> int:
        if not 1 <= j <= len(self._images):
            raise ValueError(f"symbol {j} outside 1..{len(self._images)}")
        return self._images[j - 1]

    @classmethod
    def identity(cls, m: int) -> Permutation:
        return cls(range(1, m + 1))

    def compose(self, inner: Permutation) -> Permutation:
        """Outer-after-inner composition: ``result(j) = self(inner(j))``.

        >>> a = Permutation.parse("(1,2)", degree=4)
        >>> b = Permutation.parse("(2,3)", degree=4)
        >>> a.compose(b)(3)
        1
        """
        if inner.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {inner.degree}")
        return Permutation(self._images[k - 1] for k in inner._images)

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for j, k in enumerate(self._images, start=1):
            inv[k - 1] = j
        return Permutation(inv)

    def conjugate(self, by: Permutation) -> Permutation:
        """Relabel through ``by``: returns ``by . self . by^-1``."""
        if by.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {by.degree}")
        out = [0] * self.degree
        for j, k in enumerate(self._images, start=1):
            out[by(j) - 1] = by(k)
        return Permutation(out)

    def to_cycles(self) -> CycleDecomposition:
        return CycleDecomposition(self.degree, _kernel.cycles((0, *self._images)))

    @classmethod
    def from_cycles(cls, decomposition: CycleDecomposition) -> Permutation:
        imgs = list(range(1, decomposition.degree + 1))
        for cycle in decomposition.cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                imgs[a - 1] = b
        return cls(imgs)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> Permutation:
        """Parse cycle notation, ignoring whitespace.

        Fixed points may be omitted.  Unless ``degree`` is given it is
        inferred as the smallest multiple of 4 covering the largest
        symbol, which keeps trailing fixed points representable.

        >>> Permutation.parse("(1, 2)(3, 4)").degree
        4
        """
        compact = re.sub(r"\s+", "", text)
        if not compact:
            raise ValueError("empty cycle notation")
        pos = 0
        cycles: list[tuple[int, ...]] = []
        while pos < len(compact):
            m = _CYCLE.match(compact, pos)
            if m is None:
                raise ValueError(f"malformed cycle notation at {compact[pos:]!r}")
            cycles.append(tuple(int(t) for t in m.group(1).split(",")))
            pos = m.end()
        if degree is None:
            top = max(max(c) for c in cycles)
            degree = ((top + 3) // 4) * 4
        return cls.from_cycles(CycleDecomposition(degree, tuple(cycles)))

    def is_parity_reversing(self) -> bool:
        """True when every symbol maps to the opposite parity.

        Only defined for even degrees.  Forces every cycle length to be
        even, since a cycle alternates parities along its way.
        """
        if self.degree % 2:
            raise ValueError("parity reversal is only defined for even degrees")
        return _kernel.parity_offender((0, *self._images)) is None

    def cycle_count(self) -> int:
        return _kernel.faces((0, *self._images))[1]

    def two_cycle_count(self) -> int:
        return _kernel.faces((0, *self._images))[2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({self._images!r})"

    def __str__(self) -> str:
        # The kernel's cycles are already canonical: smallest symbol first, sorted, fixed points kept.
        return _cycle_notation(_kernel.cycles((0, *self._images)))
