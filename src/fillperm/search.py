"""Exhaustive search for filling permutations by chain propagation.

Fixing sigma(j) = k forces sigma(rev(k)) = adv(j), and iterating that
implication closes up after four assignments.  The search therefore
guesses one value per block of four symbols, pruning on bijectivity,
parity and the running face counts.  The face counts come from the open
path segments of the partial sigma, each known by its start, end and
step count: an assignment either closes a face of known length or joins
two segments, in constant time, and is undone the same way.  Every
solution still passes the public ``validate``, which computes the nine
checks' numbers and builds no report text unless it is read.  The time
budget covers the search and dedup.  A brute-force oracle over the full
symmetric group covers degrees up to 8 and exists so the two routes can
be checked against each other.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from . import _kernel
from .permutations import MAX_DEGREE, Permutation
from .verify import FillingInstance, validate

__all__ = [
    "SearchLimitError",
    "SearchQuery",
    "SearchResult",
    "canonical_form",
    "enumerate_solutions",
    "naive_enumerate",
]


class SearchLimitError(Exception):
    """A search exceeded its node or time budget."""


class _StopSearch(Exception):
    pass


@dataclass(frozen=True)
class SearchQuery:
    """``symmetry_prune`` keeps exactly one solution per orbit of the second
    curve's basepoint shift, so the unpruned raw count is n times the pruned one."""

    genus: int
    punctures: int
    n: int
    dedup: bool = False
    limit: int | None = None
    naive: bool = False
    symmetry_prune: bool = False
    max_nodes: int = 10**9
    max_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.genus < 0 or self.punctures < 0:
            raise ValueError("genus and punctures must be non-negative")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if 4 * self.n > MAX_DEGREE:
            raise ValueError(f"degree {4 * self.n} exceeds the cap of {MAX_DEGREE} symbols")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive when given")
        if not (self.max_nodes >= 0 and self.max_seconds >= 0):  # also rejects a NaN budget, which never runs out
            raise ValueError("max_nodes and max_seconds must be non-negative")


@dataclass(frozen=True)
class SearchResult:
    solutions: tuple[Permutation, ...]
    raw_count: int
    nodes_explored: int
    wall_time: float


def canonical_form(sigma: Permutation) -> Permutation:
    """Lexicographically smallest conjugate under the basepoint shifts."""
    if sigma.degree % 4:
        raise ValueError(f"degree {sigma.degree} is not a multiple of 4")
    return Permutation(_kernel.canonical((0, *sigma.images), sigma.degree // 4)[1:])


def _deduplicate(raw: list[Permutation], query: SearchQuery, deadline: float) -> tuple[Permutation, ...]:
    classes = set()
    for s in raw:
        if time.perf_counter() > deadline:
            raise SearchLimitError(f"time budget {query.max_seconds}s exhausted")
        classes.add(canonical_form(s))
    return tuple(sorted(classes, key=lambda p: p.images))


def enumerate_solutions(query: SearchQuery) -> SearchResult:
    """All filling permutations for (genus, punctures, n).

    Deterministic: symbols are filled in increasing order and candidate
    values tried in increasing order, so repeated runs agree byte for
    byte.  Every solution is re-validated before being reported.
    """
    if query.naive:
        return naive_enumerate(query)
    start = time.perf_counter()
    deadline = start + query.max_seconds
    n = query.n
    degree = 4 * n
    target_faces = n + 2 - 2 * query.genus
    if target_faces < 1 or query.punctures > target_faces:
        return SearchResult((), 0, 0, time.perf_counter() - start)

    rev, adv = _kernel.structure_maps(n)
    sigma = [0] * (degree + 1)
    used = [False] * (degree + 1)
    # Open path segments of the partial sigma (maximal runs of assigned
    # steps): the start of the segment ending at each unassigned symbol, the
    # end of the one starting at each unused symbol, and its step count.
    head = list(range(degree + 1))
    tail = list(range(degree + 1))
    steps = [0] * (degree + 1)
    raw: list[Permutation] = []
    nodes = 0

    def extend(pos: int, closed: int, closed_bigons: int, assigned: int) -> None:
        nonlocal nodes
        j = pos
        while j <= degree and sigma[j]:
            j += 1
        if j > degree:
            # Every face is closed here, so `closed` is the face count.
            if closed == target_faces:
                perm = Permutation(sigma[1:])
                if not validate(FillingInstance(perm, query.genus, query.punctures)).valid:
                    raise RuntimeError("internal inconsistency: search produced an invalid candidate")
                raw.append(perm)
                if query.limit is not None and len(raw) >= query.limit:
                    raise _StopSearch
            return
        if query.symmetry_prune and assigned == 0:
            values: tuple[int, ...] | range = (2, 2 * n + 2)
        elif j % 2:
            values = range(2, degree + 1, 2)
        else:
            values = range(1, degree, 2)
        for k in values:
            if used[k]:
                continue
            nodes += 1
            if nodes > query.max_nodes:
                raise SearchLimitError(f"node budget {query.max_nodes} exhausted")
            if nodes % 256 == 0 and time.perf_counter() > deadline:
                raise SearchLimitError(f"time budget {query.max_seconds}s exhausted")
            # Chase sigma(rev(b)) = adv(a) around its closed chain of four.
            # Each step closes a face when b starts a's own segment, else
            # joins the two segments.
            placed: list[int] = []
            total, bigons = closed, closed_bigons
            a, b = j, k
            while True:
                if sigma[a] or used[b]:
                    ok = sigma[a] == b
                    break
                sigma[a] = b
                used[b] = True
                placed.append(a)
                s = head[a]
                if s == b:
                    total += 1
                    bigons += steps[b] == 1
                else:
                    e = tail[b]
                    tail[s], head[e] = e, s
                    steps[s] += steps[b] + 1
                a, b = rev[b], adv[a]
                if a == j and b == k:
                    ok = True
                    break
            done = assigned + len(placed)
            if ok and total <= target_faces and bigons <= query.punctures and (
                total < target_faces or done == degree
            ):
                extend(j + 1, total, bigons, done)
            # Undo newest first; a join left head[a] and tail[b] untouched.
            for a in reversed(placed):
                b = sigma[a]
                s = head[a]
                if s != b:
                    tail[s], head[tail[b]] = a, b
                    steps[s] -= steps[b] + 1
                used[b] = False
                sigma[a] = 0

    try:
        extend(1, 0, 0, 0)
    except _StopSearch:
        pass

    raw.sort(key=lambda p: p.images)
    solutions = _deduplicate(raw, query, deadline) if query.dedup else tuple(raw)
    return SearchResult(solutions, len(raw), nodes, time.perf_counter() - start)


def naive_enumerate(query: SearchQuery) -> SearchResult:
    """Filter the whole symmetric group through validation.

    Only feasible up to degree 8; exists as an independent oracle for the
    propagation search.  Both run in lexicographic order, so a ``limit``
    keeps the same prefix, and ``symmetry_prune`` keeps the same
    sigma(1) in {2, 2n+2}.  Every permutation counts as a node.
    """
    start = time.perf_counter()
    deadline = start + query.max_seconds
    n = query.n
    degree = 4 * n
    if degree > 8:
        raise ValueError(f"naive enumeration is capped at degree 8, got {degree}")
    rev, adv = _kernel.structure_maps(n)
    raw: list[Permutation] = []
    nodes = 0
    for images in itertools.permutations(range(1, degree + 1)):
        nodes += 1
        if nodes > query.max_nodes:
            raise SearchLimitError(f"node budget {query.max_nodes} exhausted")
        if nodes % 256 == 0 and time.perf_counter() > deadline:
            raise SearchLimitError(f"time budget {query.max_seconds}s exhausted")
        if query.symmetry_prune and images[0] not in (2, 2 * n + 2):
            continue
        s = (0, *images)
        if _kernel.parity_offender(s) is not None or _kernel.equation_offender(s, rev, adv) is not None:
            continue
        perm = Permutation(images)
        if validate(FillingInstance(perm, query.genus, query.punctures)).valid:
            raw.append(perm)
            if len(raw) == query.limit:
                break
    solutions = _deduplicate(raw, query, deadline) if query.dedup else tuple(raw)
    return SearchResult(solutions, len(raw), nodes, time.perf_counter() - start)
