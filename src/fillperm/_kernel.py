"""Integer kernel under the checked permutation-level API.

Every function works on a plain sequence ``s`` of 1-based images:
``s[j]`` is the image of symbol ``j`` and ``s[0] == 0`` is padding, so
``(0, *sigma.images)`` or the search's working list can be passed as is.
Nothing here validates its input; the public callers do, and wrap
results back into ``Permutation`` where they leave the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=8)
def structure_maps(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Arc reversal and curve advance on 4n symbols, both padded."""
    half, m = 2 * n, 4 * n
    rev = (0, *range(half + 1, m + 1), *range(1, half + 1))
    # Forward arcs step two symbols up, reversed arcs two down, each wrapping within its half.
    adv = (0, *range(3, half + 1), 1, 2, m - 1, m, *range(half + 1, m - 1))
    return rev, adv


def parity_offender(s: Sequence[int]) -> int | None:
    """First symbol sent to a symbol of its own parity."""
    # In a bijection, odd symbols that all reach even ones leave only odd images for the even symbols.
    if not any([v & 1 for v in s[1::2]]):
        return None
    return next(j for j in range(1, len(s)) if (j + s[j]) % 2 == 0)


def equation_offender(s: Sequence[int], rev: Sequence[int], adv: Sequence[int]) -> int | None:
    """First symbol where side, reversal, side does not advance along the curve."""
    if tuple([s[rev[k]] for k in s]) == tuple(adv):
        return None
    return next(j for j in range(1, len(s)) if s[rev[s[j]]] != adv[j])


def faces(s: Sequence[int]) -> tuple[int, int]:
    """Face count and bigon count: the cycles of ``s``, and those of length two."""
    seen = [False] * len(s)
    count = bigons = 0
    for j in range(1, len(s)):
        if seen[j]:
            continue
        k, length = j, 0
        while not seen[k]:
            seen[k] = True
            k = s[k]
            length += 1
        count += 1
        bigons += length == 2
    return count, bigons


def reversing_faces(s: Sequence[int]) -> tuple[int, int]:
    """``faces`` of a parity-reversing bijection: the cycles of s∘s on the odd symbols, each half an s-cycle.

    The walk closes only on a bijection.
    """
    seen = [False] * len(s)
    count = bigons = 0
    for j in range(1, len(s), 2):
        if seen[j]:
            continue
        count += 1
        k = s[s[j]]
        if k == j:
            bigons += 1
            continue
        while k != j:
            seen[k] = True
            k = s[s[k]]
    return count, bigons


def cycles(p: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of ``p``, each from its smallest symbol, ordered by that symbol."""
    seen = [False] * len(p)
    out = []
    for j in range(1, len(p)):
        if seen[j]:
            continue
        cycle, k = [], j
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = p[k]
        out.append(tuple(cycle))
    return tuple(out)


def corner_rotation(s: Sequence[int], rev: Sequence[int]) -> list[int]:
    """Reversal after ``s``: the next corner around the same vertex."""
    return [rev[k] for k in s]


def components(s: Sequence[int], rev: Sequence[int]) -> int:
    """Orbits of ⟨s, rev⟩ on the symbols: the components of the face graph, each side glued to its reversal."""
    seen = [False] * len(s)
    count = 0
    for j in range(1, len(s)):
        if not seen[j]:
            count += 1
            seen[j], stack = True, [j]
            while stack:
                k = stack.pop()
                for t in (s[k], rev[k]):
                    if not seen[t]:
                        seen[t] = True
                        stack.append(t)
    return count


def crossings(s: Sequence[int], n: int) -> tuple[list[int], list[bool]]:
    """Crossing sequence of ``s``: w[k] is crossing k's position along the second curve, eps[k] its handedness.

    Crossing k ends first-curve arc k+1, so its incoming side 2k+1 turns into
    the reversed incoming second-curve side 2w[k]+2+2n when right-handed
    (eps[k] true), and into the outgoing one 2((w[k]+1) mod n)+2 otherwise.
    """
    half = 2 * n
    w, eps = [], []
    for a_in in range(1, half, 2):
        b = s[a_in]
        w.append((b - half - 2) // 2 if b > half else (b - 4) // 2 % n)
        eps.append(b > half)
    return w, eps


def incoming(c: int, right: bool, n: int) -> int:
    """Image of the incoming side 2k+1 of a crossing at position c of the second curve, as ``crossings`` decodes it."""
    return 2 * c + 2 + 2 * n if right else 2 * ((c + 1) % n) + 2


def chain(j: int, v: int, rev: Sequence[int], adv: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The four (side, image) pairs that sigma(j) = v forces through the filling equation sigma(rev b) = adv a.

    Each pair (a, b) forces (rev b, adv a), and the fourth closes up on
    (j, v): the pairs are the four corners of one crossing, whichever of
    its sides j is.  Crossing k at position c with handedness ``right``
    is ``chain(2k+1, incoming(c, right, n), rev, adv)``.  Each of its
    sides and images is named by k alone or by c alone (its sides are
    2k+1, 2c+2 and the reversals of their successors), so crossings with
    different indices and different positions share no side and no image.
    """
    a, b = rev[v], adv[j]
    c, d = rev[b], adv[a]
    return (j, v), (a, b), (c, d), (rev[d], adv[c])


def from_crossings(w: Sequence[int], eps: Sequence[bool]) -> list[int]:
    """Padded images of the crossing sequence ``(w, eps)``, inverse to ``crossings``.

    >>> from_crossings([0], [False])  # the square torus (1,2,3,4)
    [0, 2, 3, 4, 1]
    >>> crossings(from_crossings([1, 0], [True, False]), 2)
    ([1, 0], [True, False])
    """
    n = len(w)
    rev, adv = structure_maps(n)
    s = [0] * (4 * n + 1)
    for k, (c, right) in enumerate(zip(w, eps)):
        for side, image in chain(2 * k + 1, incoming(c, right, n), rev, adv):
            s[side] = image
    return s


@lru_cache(maxsize=256)
def _shift_map(n: int, a: int, b: int) -> tuple[int, ...]:
    """Basepoint shift moving every first-curve arc a places and every second-curve arc b."""
    half = 2 * n
    e = list(range(4 * n + 1))
    for start, k in ((1, a), (2, b), (half + 1, a), (half + 2, b)):
        arcs = e[start : start + half : 2]
        e[start : start + half : 2] = arcs[k:] + arcs[:k]
    return tuple(e)


def _conjugate(s: Sequence[int], n: int, a: int, b: int) -> list[int]:
    """``s`` relabelled by the basepoint shift (a, b)."""
    e = _shift_map(n, a, b)
    return [e[s[k]] for k in _shift_map(n, -a % n, -b % n)]


def canonical(s: Sequence[int], n: int) -> list[int]:
    """Lexicographically smallest conjugate of ``s`` under the n*n basepoint shifts.

    A conjugate's first image ``e(s(e^-1(1)))`` is index arithmetic, so
    only the shifts that reach the smallest first image are applied in full.
    """
    half = 2 * n
    firsts = []
    for a in range(n):
        k = s[2 * (-a % n) + 1]
        i, beta = divmod((k - 1) % half, 2)
        if beta:
            # A second-curve image: exactly one b moves its arc to the front of its half.
            firsts.append((k - 2 * i, a, -i % n))
        else:
            first = k + 2 * a - (half if i + a >= n else 0)
            firsts.extend((first, a, b) for b in range(n))
    low = min(firsts)[0]
    return min(_conjugate(s, n, a, b) for first, a, b in firsts if first == low)
