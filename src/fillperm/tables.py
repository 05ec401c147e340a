"""Closed-form minimal crossing numbers, cross-checked against search."""

from __future__ import annotations

from dataclasses import dataclass

from .search import SearchQuery, enumerate_solutions

__all__ = [
    "CrossValidation",
    "CrossValidationError",
    "NoFillingPairError",
    "cross_validate",
    "min_intersection",
]


class NoFillingPairError(Exception):
    """The surface carries no filling pair at all (sphere with p <= 3)."""


class CrossValidationError(Exception):
    """The search-determined minimum disagrees with the closed form."""


def min_intersection(genus: int, punctures: int) -> int:
    """Minimal crossing count of a filling pair on the given surface.

    Raises :class:`NoFillingPairError` on the sphere with at most three
    punctures, where no two curves can fill.
    """
    if genus < 0 or punctures < 0:
        raise ValueError("genus and punctures must be non-negative")
    if genus == 0:
        if punctures <= 3:
            raise NoFillingPairError(
                f"no filling pair exists on the sphere with {punctures} punctures"
            )
        return punctures - 2 if punctures % 2 == 0 else punctures - 1
    if genus == 2:
        return 4 if punctures <= 2 else punctures + 2
    return 2 * genus - 1 if punctures == 0 else 2 * genus + punctures - 2


@dataclass(frozen=True)
class CrossValidation:
    genus: int
    punctures: int
    n_max: int
    counts: tuple[tuple[int, int], ...]
    smallest_nonempty: int | None
    expected: int | None

    def lines(self) -> list[str]:
        out = [f"genus={self.genus} punctures={self.punctures}"]
        out.extend(f"n={n}: {count} solutions" for n, count in self.counts)
        out.append(f"smallest_nonempty={self.smallest_nonempty}")
        out.append(f"closed_form={self.expected}")
        return out


def cross_validate(
    genus: int,
    punctures: int,
    n_max: int,
    max_nodes: int = 10**9,
    max_seconds: float = 600.0,
) -> CrossValidation:
    """Probe search emptiness for every n up to ``n_max`` against the table.

    Each count is the full raw count, but the search walks one solution
    per orbit of the second curve's basepoint shifts, so ``max_nodes``
    and ``max_seconds`` bound that quotient tree.  Raises
    :class:`CrossValidationError` when the search finds a smallest
    nonempty n that contradicts the closed form (or finds any solution on
    a surface where no filling pair should exist).
    """
    counts: list[tuple[int, int]] = []
    smallest: int | None = None
    for n in range(1, n_max + 1):
        # The second curve's basepoint shift fixes the odd symbol 1 and moves
        # the even sigma(1) along its curve in its orientation, so the shifts
        # (order n) act freely and each orbit has exactly one solution with
        # sigma(1) in {2, 2n+2}: the ones symmetry_prune keeps.
        result = enumerate_solutions(SearchQuery(
            genus, punctures, n, symmetry_prune=True, max_nodes=max_nodes, max_seconds=max_seconds
        ))
        counts.append((n, n * result.raw_count))
        if result.raw_count and smallest is None:
            smallest = n
    try:
        expected: int | None = min_intersection(genus, punctures)
    except NoFillingPairError:
        expected = None

    if expected is None:
        if smallest is not None:
            raise CrossValidationError(
                f"found a filling pair at n = {smallest} on a surface that admits none"
            )
    elif expected <= n_max:
        if smallest != expected:
            raise CrossValidationError(
                f"search minimum {smallest} != closed form {expected} "
                f"for genus {genus}, punctures {punctures}"
            )
    elif smallest is not None:
        raise CrossValidationError(
            f"solution at n = {smallest} sits below the closed form {expected}"
        )
    return CrossValidation(genus, punctures, n_max, tuple(counts), smallest, expected)
