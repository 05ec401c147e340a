"""Closed-form minimal crossing numbers, cross-checked against search."""

from __future__ import annotations

from dataclasses import dataclass

from .permutations import Permutation
from .search import SearchQuery, enumerate_solutions, shift_classes

__all__ = [
    "CrossValidation",
    "CrossValidationError",
    "cross_validate",
    "min_intersection",
]


class CrossValidationError(Exception):
    """The search-determined minimum disagrees with the closed form, or the two search engines disagree."""


def min_intersection(genus: int, punctures: int) -> int | None:
    """Minimal crossing count of a filling pair on the given surface.

    ``None`` on the sphere with at most three punctures, where no two
    curves can fill.
    """
    if genus < 0 or punctures < 0:
        raise ValueError("genus and punctures must be non-negative")
    if genus == 0:
        if punctures <= 3:
            return None
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
    witness: Permutation | None


def cross_validate(genus: int, punctures: int, n_max: int, max_seconds: float = SearchQuery.max_seconds) -> CrossValidation:
    """Probe search emptiness for every n up to ``n_max`` against the table.

    Each count is the full raw count, read from ``shift_classes``, which
    walks one crossing sequence per basepoint-shift class, so
    ``max_seconds`` and :class:`SearchQuery`'s default node budget bound
    each n's walk.  The propagation search of ``enumerate_solutions`` then
    supplies one ``witness`` at the smallest nonempty n, under the same
    budgets.  Raises :class:`CrossValidationError` when the walk finds a
    smallest nonempty n that contradicts the closed form (or finds any
    solution on a surface where no filling pair should exist), or when the
    search finds no witness where the walk counted solutions, and
    ``ValueError`` when ``n_max`` is below 1 or the first n walked has a
    degree past the cap.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    # Below n = 2g - 1 there are n + 2 - 2g < 1 faces, so those cells are empty without a walk.
    first = min(max(1, 2 * genus - 1), n_max + 1)
    # The first walk's entry checks, the degree cap among them, before any count is recorded.
    SearchQuery(genus, punctures, min(first, n_max), max_seconds=max_seconds)
    counts: list[tuple[int, int]] = [(n, 0) for n in range(1, first)]
    smallest: int | None = None
    for n in range(first, n_max + 1):
        # A shift class of period p holds n * p solutions, so the walk's raw
        # count is the full count of the unquotiented search.
        raw = shift_classes(genus, punctures, n, SearchQuery.max_nodes, max_seconds)[1]
        counts.append((n, raw))
        if raw and smallest is None:
            smallest = n
    expected = min_intersection(genus, punctures)
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
    witness = None
    if smallest is not None:
        found = enumerate_solutions(SearchQuery(genus, punctures, smallest, limit=1, max_seconds=max_seconds)).solutions
        if not found:
            raise CrossValidationError(
                f"the propagation search finds no witness at n = {smallest}, where the walk counted solutions"
            )
        witness = found[0]
    return CrossValidation(genus, punctures, n_max, tuple(counts), smallest, expected, witness)
