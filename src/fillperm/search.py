"""Exhaustive search for filling permutations by chain propagation.

Fixing sigma(j) = v forces sigma(rev(v)) = adv(j), and iterating that
implication closes up after four assignments, the four corners of one
crossing.  Each guess therefore places one crossing, and the search
prunes on the running face counts.  One depth-first core, ``_descend``,
keeps those counts, the budgets and the prunes for both engines; each
engine gives it only the crossings a node may place next and what to do
at a leaf.  A complete search walks crossing 0 at second-curve position
0 only and reports each leaf with its n - 1 images under the
second-curve basepoint shift, which acts freely and moves crossing 0 to
every other position; a search with a ``limit`` walks every position.
Every solution, walked or relabelled, still passes the public
``validate``, which computes the nine checks' numbers and builds no
report text unless it is read, and whose filling-equation check proves
each solution a bijection (see ``_certify``).  ``enumerate_solutions``
returns every solution it finds; ``fillperm search`` prints them and takes its
``dedup=`` class count from ``shift_classes`` unless ``--dedup`` or a
``--limit`` that cut the search short asks for the printed solutions'
own classes.  A brute-force oracle over the full symmetric group covers
degrees up to 8 and exists so the two routes can be checked against
each other.

``shift_classes`` counts the same solutions by walking crossing
sequences instead: one per basepoint-shift class, and of those only the
classes with at most half their crossings left-handed and a tilt of at
most 0, each weighted by its images under the mirror and the index
reversal.  On the sphere at even n it places alternating crossings only,
the only kind a separating curve admits, and at odd n it stays
exhaustive.  Every class it counts, walked or weighted, passes
``validate`` (see its docstring).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

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
    "shift_classes",
]


class SearchLimitError(Exception):
    """A search exceeded its node, time or recursion-depth budget."""


class _StopSearch(Exception):
    pass


# The core recurses once per placed crossing, so a large n can outgrow the interpreter's stack.
_DEPTH_EXHAUSTED = "depth budget exhausted: n = {n} recurses past the interpreter's recursion limit"


@dataclass(frozen=True)
class SearchQuery:
    genus: int
    punctures: int
    n: int
    limit: int | None = None
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


def _descend(
    query: SearchQuery,
    deadline: float,
    children: Callable[[int, Any], Iterator[tuple[Sequence[tuple[int, int]], Any]]],
    leaf: Callable[[Any], None],
    root: Any,
) -> int:
    """Depth-first search over the crossings of one cell; returns its node count.

    ``children(k, state)`` yields each crossing k that a node with
    ``state`` may place, as its ``_kernel.chain`` and the state of the
    child, and holds that crossing in the engine's own arrays until it is
    resumed; the root's state is ``root``.  A node is one yielded chain,
    counted against the query's node budget, with the clock read against
    ``deadline`` every 256 nodes.

    The core keeps the open path segments of the partial sigma (maximal
    runs of assigned steps): the start of the segment ending at each
    unassigned symbol, the end of the one starting at each unused symbol,
    and its step count.  Each pair (a, b) of a chain closes a face when b
    starts a's own segment, a bigon when that face has two sides, and
    otherwise joins the two segments, in constant time; the pairs are
    undone newest first, the same way.  A node is cut on face overflow,
    bigon overflow and premature closure (every allowed face closed
    before the last crossing).  At the last crossing every face is
    closed, so a node there with exactly n + 2 - 2 * genus faces is a
    solution and goes to ``leaf(state)``, which may end the search by
    raising ``_StopSearch``.  The core recurses once per crossing, and a
    cell deeper than the interpreter's recursion limit raises
    :class:`SearchLimitError`.
    """
    n, punctures, max_nodes = query.n, query.punctures, query.max_nodes
    target_faces = n + 2 - 2 * query.genus
    if target_faces < 1 or punctures > target_faces:
        return 0
    head = list(range(4 * n + 1))
    tail = head.copy()  # shares head's int objects, which at large n outweigh both lists
    steps = [0] * (4 * n + 1)
    nodes = 0

    def descend(k: int, faces: int, bigons: int, state: Any) -> None:
        nonlocal nodes
        last = k == n - 1
        for chain, below in children(k, state):
            nodes += 1
            if nodes > max_nodes:
                raise SearchLimitError(f"node budget {max_nodes} exhausted")
            if nodes % 256 == 0 and time.perf_counter() > deadline:
                raise SearchLimitError(f"time budget {query.max_seconds}s exhausted")
            total, closed_bigons = faces, bigons
            for a, b in chain:
                s = head[a]
                if s == b:
                    total += 1
                    closed_bigons += steps[b] == 1
                else:
                    e = tail[b]
                    tail[s], head[e] = e, s
                    steps[s] += steps[b] + 1
            if total <= target_faces and closed_bigons <= punctures:
                if last:
                    if total == target_faces:
                        leaf(below)
                elif total < target_faces:
                    descend(k + 1, total, closed_bigons, below)
            # Undo newest first; a join left head[a] and tail[b] untouched.
            for a, b in reversed(chain):
                s = head[a]
                if s != b:
                    tail[s], head[tail[b]] = a, b
                    steps[s] -= steps[b] + 1

    try:
        descend(0, 0, 0, root)
    except _StopSearch:
        pass
    except RecursionError:
        raise SearchLimitError(_DEPTH_EXHAUSTED.format(n=n)) from None
    finally:
        # descend's closure holds descend itself; clearing it frees the engine's state, the leaf's
        # solution list included, on return rather than at the next cyclic garbage collection.
        del descend
    return nodes


def _certify(images: tuple[int, ...], genus: int, punctures: int) -> Permutation:
    """The permutation with these images, checked by the public ``validate``: a failure is a bug in a search.

    The images come from the kernel's tables, so lie in 1..4n, and are
    wrapped unchecked: ``validate`` proves them a bijection.
    """
    perm = Permutation._trusted(images)
    if not validate(FillingInstance(perm, genus, punctures)).valid:
        raise RuntimeError("internal inconsistency: search produced an invalid candidate")
    return perm


def canonical_form(sigma: Permutation) -> Permutation:
    """Lexicographically smallest conjugate under the basepoint shifts."""
    if sigma.degree % 4:
        raise ValueError(f"degree {sigma.degree} is not a multiple of 4")
    # A conjugate of a bijection by a shift table is a bijection, so the result is wrapped unchecked.
    return Permutation._trusted(tuple(_kernel.canonical((0, *sigma.images), sigma.degree // 4)[1:]))


def enumerate_solutions(query: SearchQuery) -> SearchResult:
    """All filling permutations for (genus, punctures, n).

    Deterministic: symbols are filled in increasing order and candidate
    values tried in increasing order, so repeated runs agree byte for
    byte.  Each guess sigma(j) = v places the crossing ``_kernel.chain``
    gives, four sides at once, and needs no collision test, because every
    node is a set of crossings with distinct indices and distinct
    positions:

    1. The smallest unassigned symbol j is 2k0+1 or 2c0+2, k0 the smallest
       unplaced crossing index and c0 the smallest unused position: the
       lower-half sides of the placed crossings are their 2k+1 and 2c+2.
    2. Every unused image v of the opposite parity names a crossing whose
       index and position are both free: with j = 2k0+1, v is
       ``_kernel.incoming(c, right, n)`` for one (c, right), and a crossing
       at c would use both images naming c; with j = 2c0+2 the same holds
       for the index that v names.
    3. Two crossings with different indices and different positions share
       no side and no image (see ``_kernel.chain``).

    So the four sides are unassigned and the four images unused, and the
    three forced sides lie above j, so a walk meets its leaves in
    lexicographic order.

    The unit second-curve basepoint shift e = ``_kernel._shift_map(n, 0,
    1)`` moves every second-curve arc one position on and fixes the first
    curve's, so it commutes with the arc reversal and the curve advance,
    and conjugation by e maps solutions to solutions with the same faces
    and bigons.  It fixes side 1 and sends ``incoming(c, right, n)`` to
    ``incoming(c + 1, right, n)``, so it moves crossing 0 from position c
    to c + 1 mod n.  The n conjugates of a solution by the powers of e
    therefore put crossing 0 at n different positions: they are distinct,
    the shift acts freely, and exactly one of them has crossing 0 at
    position 0.  A complete search (no ``limit``) guesses only
    sigma(1) = ``incoming(0, right, n)``, for both hands, and reports each
    leaf, then its n - 1 successive conjugates by e, so every solution
    exactly once.  Each copy is conjugated from the one before, so the
    search holds no table of n shift maps, and the clock is read every 256
    reported solutions as well as every 256 nodes.  Its nodes are those
    under the two roots, 1/n of the all-roots walk's where no prune cuts
    the other positions' subtrees differently; the copies interleave, so
    the order of its output comes from a final sort by images.  A query
    with a ``limit`` walks every root, one copy per leaf, so it returns
    the lexicographically first ``limit`` solutions, and its node count is
    that walk's.  Every solution is re-validated before being reported.
    """
    start = time.perf_counter()
    deadline = start + query.max_seconds
    n = query.n
    degree = 4 * n
    rev, adv = _kernel.structure_maps(n)
    sigma = [0] * (degree + 1)
    used = [False] * (degree + 1)
    genus, punctures, limit = query.genus, query.punctures, query.limit
    raw: list[Permutation] = []

    def children(k: int, pos: int) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
        # A child's state is the symbol after its guess: every symbol below it is assigned.
        j = sigma.index(0, pos)  # found: the core asks for children only while a crossing is unplaced
        values: Sequence[int] = range(2, degree + 1, 2) if j % 2 else range(1, degree, 2)
        if not k and limit is None:
            # A complete search places crossing 0 at position 0 only; report() adds its other n - 1 positions.
            values = [_kernel.incoming(0, right, n) for right in (False, True)]
        for v in values:
            if used[v]:
                continue
            chain = _kernel.chain(j, v, rev, adv)
            for a, b in chain:
                sigma[a], used[b] = b, True
            yield chain, j + 1
            for a, b in chain:
                sigma[a], used[b] = 0, False

    # Conjugation by e reads the images at e^-1: image j of a copy is e[images[e^-1(j) - 1]].
    e = _kernel._shift_map(n, 0, 1)
    back = [k - 1 for k in _kernel._shift_map(n, 0, n - 1)[1:]]

    def report(_: int) -> None:
        # The leaf, then, in a complete search, its conjugates by the unit second-curve shift.
        images = tuple(sigma[1:])
        for copy in range(n if limit is None else 1):
            if copy:
                images = tuple([e[images[k]] for k in back])
            raw.append(_certify(images, genus, punctures))
            if limit is not None and len(raw) >= limit:
                raise _StopSearch
            if len(raw) % 256 == 0 and time.perf_counter() > deadline:
                raise SearchLimitError(f"time budget {query.max_seconds}s exhausted")

    nodes = _descend(query, deadline, children, report, 1)
    raw.sort(key=Permutation.images.fget)
    return SearchResult(tuple(raw), len(raw), nodes, time.perf_counter() - start)


def naive_enumerate(query: SearchQuery) -> SearchResult:
    """Filter the whole symmetric group through validation.

    Only feasible up to degree 8; exists as an independent oracle for the
    propagation search.  Both run in lexicographic order, so a ``limit``
    keeps the same prefix.  Every permutation counts as a node.
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
        s = (0, *images)
        if _kernel.parity_offender(s) is not None or _kernel.equation_offender(s, rev, adv) is not None:
            continue
        perm = Permutation(images)
        if validate(FillingInstance(perm, query.genus, query.punctures)).valid:
            raw.append(perm)
            if len(raw) == query.limit:
                break
    return SearchResult(tuple(raw), len(raw), nodes, time.perf_counter() - start)


def shift_classes(
    genus: int, punctures: int, n: int, max_nodes: int = SearchQuery.max_nodes, max_seconds: float = SearchQuery.max_seconds
) -> tuple[int, int, int]:
    """Classes, raw count and nodes of the filling permutations for (genus, punctures, n).

    Walks crossing sequences ``(w, eps)`` (see ``_kernel.crossings``) with
    w(0) = 0, which quotients the second curve's basepoint shift, placing
    crossings in first-curve order.  The first curve's shift rotates the
    pairs x_k = (eps_k, d_k), d_k = w(k+1) - w(k) mod n, so a shift class is
    a necklace of them, and the prenecklace test of Fredricksen, Kessler and
    Maiorana (Ruskey, Savage and Wang, *Generating necklaces*, 1992) keeps
    exactly its lexicographically smallest rotation: a prefix is dropped
    once some x_t falls below x_{t-p}, p the period so far.  The second
    curve's shift acts freely and a necklace of period p has p rotations,
    so its class holds n * p solutions.

    Two more symmetries keep faces and bigons and map shift classes onto
    shift classes of the same period, each with a class invariant that a
    prefix already bounds.  The mirror eps -> not eps sends the number of
    left-handed crossings, lefts, to n - lefts.  The index reversal
    (w, eps) -> (w o r, eps o r), r(k) = -k mod n, negates every d_k and so
    the tilt, the number of steps with 2 d_k < n minus those with
    2 d_k > n.  The walk visits only the classes with 2 * lefts <= n and
    tilt <= 0, dropping a prefix once 2 * lefts > n or its tilt exceeds the
    number of steps still open, and counts each leaf's class once, its
    mirror too when 2 * lefts < n, its reversal too when tilt < 0, and the
    image under both when both hold; those images are classes it never
    visits.  Every counted class, walked or imaged, is built with
    ``_kernel.from_crossings`` and passes the public ``validate``, so a
    cell makes one ``validate`` call per class.

    On the sphere every simple closed curve separates (Jordan), so each
    curve crosses the other from its left and from its right in turn:
    consecutive crossings along either curve have opposite handedness.
    Along the first curve that fixes eps from eps_0; along the second,
    with w(0) = 0, it forces w(k) ≡ k (mod 2), so every step d_k is odd.
    At even genus-0 n the walk therefore places crossing k only at
    positions c ≡ k (mod 2), handed opposite to crossing k - 1.  Such a
    sequence has exactly n / 2 left-handed crossings, so the mirror always
    ties, and the set is closed under the shifts and the index reversal, so
    the necklaces and weights above stay exact.  At odd n no sequence
    alternates around a closed curve, so the sphere cells are empty; the
    walk stays exhaustive there, so that their emptiness is confirmed by
    search rather than assumed.

    Each crossing fixes the four images of sigma that ``_kernel.chain``
    gives, which never collide, and ``_descend`` prunes on face overflow,
    bigon overflow and premature closure.  A node is one placed crossing;
    the budgets are those of :class:`SearchQuery`.
    """
    query = SearchQuery(genus, punctures, n, max_nodes=max_nodes, max_seconds=max_seconds)  # the same entry checks
    deadline = time.perf_counter() + max_seconds
    rev, adv = _kernel.structure_maps(n)
    free = [c > 0 for c in range(n)]
    w = [0] * n
    eps = [False] * n
    x = [0] * n  # x_k as the integer eps_k * n + d_k, which orders the pairs lexicographically
    alternate = genus == 0 and n % 2 == 0  # on the sphere both curves alternate in handedness
    classes = raw = 0

    def children(k: int, state: tuple[int, int, int]) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, int, int]]]:
        # A child's state is (period, lefts, tilt) of its prefix.
        if not k:
            for right in (False, True)[n < 2 :]:  # one crossing left-handed is already a majority
                eps[0] = right
                yield _kernel.chain(1, _kernel.incoming(0, right, n), rev, adv), (1, not right, 0)
            return
        # Choosing w(k) fixes x_{k-1}; choosing eps_k at the last crossing fixes x_{n-1} too.
        period, lefts, tilt = state
        t, last = k - 1, k == n - 1
        for c in range(1, n):
            if not free[c] or alternate and (c - k) % 2:
                continue
            d = (c - w[t]) % n
            x[t] = eps[t] * n + d
            if t and x[t] < x[t - period]:
                continue
            tilted = tilt + (2 * d < n) - (2 * d > n)
            if last:
                tilted += (2 * c > n) - (2 * c < n)  # d_{n-1} = n - c closes the cycle
            if tilted > n - k - last:
                continue  # even if every open step tilted down, the tilt would end above 0
            p = t + 1 if t and x[t] > x[t - period] else period
            free[c], w[k] = False, c
            for right in (not eps[t],) if alternate else (False, True):
                left_count = lefts + (not right)
                if 2 * left_count > n:
                    continue
                if last:
                    x[k] = right * n + -c % n
                    if x[k] < x[k - p]:
                        continue
                    q = k + 1 if x[k] > x[k - p] else p
                elif right < x[k - p] // n:
                    continue  # x_k would fall below x_{k-p} whatever w(k+1) is
                else:
                    q = p
                eps[k] = right
                yield _kernel.chain(2 * k + 1, _kernel.incoming(c, right, n), rev, adv), (q, left_count, tilted)
            free[c] = True

    def count(state: tuple[int, int, int]) -> None:
        # The class, then its mirror and its index reversal where those are classes the walk skips.
        nonlocal classes, raw
        period, lefts, tilt = state
        if n % period:
            return
        signs = [eps, [not e for e in eps]] if 2 * lefts < n else [eps]
        images = [(w, e) for e in signs]
        if tilt < 0:
            images += [(w[:1] + w[:0:-1], e[:1] + e[:0:-1]) for e in signs]
        for ws, es in images:
            _certify(tuple(_kernel.from_crossings(ws, es)[1:]), genus, punctures)
        classes += len(images)
        raw += len(images) * n * period

    nodes = _descend(query, deadline, children, count, None)
    return classes, raw, nodes
