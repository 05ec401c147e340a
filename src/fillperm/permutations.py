"""Permutations of {1, ..., m} as immutable image arrays.

Symbols are 1-based in every public interface.  Cycle notation follows
the usual convention: ``(1,2,19,14)`` maps 1 to 2, 2 to 19, 19 to 14 and
14 back to 1.  Canonical cycle form rotates each cycle so its smallest
symbol comes first and sorts the cycles by that symbol; fixed points are
kept as explicit 1-cycles.
"""

from __future__ import annotations

import re
from typing import Iterable

from . import _kernel

__all__ = ["Permutation"]

_CYCLE = re.compile(r"\((\d+(?:,\d+)*)\)")

# The most symbols a typed size may ask for, checked before anything of that size is allocated.
MAX_DEGREE = 2**20


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
        cycles: list[list[int]] = []
        while pos < len(compact):
            m = _CYCLE.match(compact, pos)
            if m is None:
                raise ValueError(f"malformed cycle notation at {compact[pos:]!r}")
            cycles.append([int(t) for t in m.group(1).split(",")])
            pos = m.end()
        if degree is None:
            top = max(max(c) for c in cycles)
            degree = ((top + 3) // 4) * 4
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if degree > MAX_DEGREE:
            raise ValueError(f"degree {degree} exceeds the cap of {MAX_DEGREE} symbols")
        images = list(range(1, degree + 1))
        seen = [False] * (degree + 1)
        for cycle in cycles:
            for s in cycle:
                if not 1 <= s <= degree:
                    raise ValueError(f"symbol {s} outside 1..{degree}")
                if seen[s]:
                    raise ValueError(f"symbol {s} appears in more than one cycle")
                seen[s] = True
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(images)

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
        return "".join("(" + ",".join(map(str, c)) + ")" for c in _kernel.cycles((0, *self._images)))
