"""Double-bigon surgery: trade one crossing for three.

The move acts at one vertex of the glued surface.  The second curve is
rerouted so that it crosses the first curve three times where it used to
cross once; between consecutive new crossings sit two bigons, and each
receives a puncture.  Parameters move as (genus, p, n) -> (genus, p+2,
n+2).  The rewrite is purely local: the four corners at the chosen
vertex are spliced, two bigon faces appear, and both curves are
renumbered by walking them from their original first arcs.  The output
is re-validated rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .permutations import Permutation
from .verify import FillingInstance, validate, vertex_classes

__all__ = ["SurgerySite", "available_sites", "double_bigon", "extend_to"]


@dataclass(frozen=True)
class SurgerySite:
    """A vertex class, identified by its smallest corner symbol."""

    vertex_class: int


def available_sites(instance: FillingInstance) -> tuple[SurgerySite, ...]:
    return tuple(SurgerySite(c[0]) for c in vertex_classes(instance.sigma))


def double_bigon(instance: FillingInstance, site: SurgerySite) -> FillingInstance:
    """Apply the move at ``site`` and return the enlarged certificate.

    Raises ValueError for an invalid input instance or a site that names
    no vertex class; raises RuntimeError if the rewritten permutation
    fails validation, which would indicate an internal bug.
    """
    report = validate(instance)
    if not report.valid:
        failing = ", ".join(c.name for c in report.failures())
        raise ValueError(f"surgery needs a valid instance; failing checks: {failing}")
    return _splice(instance, site)


def _splice(instance: FillingInstance, site: SurgerySite) -> FillingInstance:
    """The move on an instance already known to be valid; the output is still validated."""
    n = instance.n
    half = 2 * n
    s = (0, *instance.sigma.images)
    rev, _ = _kernel.structure_maps(n)

    # Every corner orbit of a valid instance is a 4-cycle: four rotation steps from the site.
    orbit = [site.vertex_class] if site.vertex_class in range(1, 4 * n + 1) else []
    while 0 < len(orbit) < 4:
        orbit.append(rev[s[orbit[-1]]])
    if not orbit or min(orbit) != site.vertex_class:
        raise ValueError(f"no vertex class is labeled {site.vertex_class}")

    # The four corners at the vertex: each curve arrives along a forward
    # arc and departs along one whose reversal also ends here.
    a_in = next(j for j in orbit if j % 2 == 1 and j <= half)
    b_in = next(j for j in orbit if j % 2 == 0 and j <= half)
    a_out = next(j for j in orbit if j % 2 == 1 and j > half) - half
    b_out = next(j for j in orbit if j % 2 == 0 and j > half) - half

    # Crossing handedness: after the incoming second-curve side comes
    # either the outgoing first-curve arc or the reversed incoming one.
    after_b = s[b_in]
    if after_b == a_out:
        right_handed = True
    elif after_b == a_in + half:
        right_handed = False
    else:
        raise RuntimeError("internal inconsistency: corner orbit does not close up")

    m = n + 2
    ai, bi = (a_in + 1) // 2, b_in // 2

    def remap(j: int) -> int:
        # Old symbol -> new symbol; the two fresh arcs per curve slot in
        # right after the arcs arriving at the chosen vertex.
        inverted = j > half
        base = j - half if inverted else j
        if base % 2:
            idx = (base + 1) // 2
            idx = idx if idx <= ai else idx + 2
            out = 2 * idx - 1
        else:
            idx = base // 2
            idx = idx if idx <= bi else idx + 2
            out = 2 * idx
        return out + 2 * m if inverted else out

    def flip(j: int) -> int:
        return j + 2 * m if j <= 2 * m else j - 2 * m

    na1, na2 = 2 * (ai + 1) - 1, 2 * (ai + 2) - 1
    nb1, nb2 = 2 * (bi + 1), 2 * (bi + 2)

    relabel = [0, *map(remap, range(1, 4 * n + 1))]
    images = [0] * (4 * m)
    for j in range(1, 4 * n + 1):
        images[relabel[j] - 1] = relabel[s[j]]

    def put(j: int, v: int) -> None:
        images[j - 1] = v

    if right_handed:
        # Rerouted strand first meets the new first-curve arcs, so the
        # corner after b_in picks up the fresh arcs in curve-one order.
        put(remap(b_in), na1)
        put(na1, nb2)
        put(nb2, remap(a_out))
        put(remap(b_out + half), flip(na2))
        put(flip(na2), flip(nb1))
        put(flip(nb1), remap(a_in + half))
        put(nb1, flip(na1))
        put(flip(na1), nb1)
        put(na2, flip(nb2))
        put(flip(nb2), na2)
    else:
        put(remap(a_in), nb1)
        put(nb1, na2)
        put(na2, remap(b_out))
        put(remap(a_out + half), flip(nb2))
        put(flip(nb2), flip(na1))
        put(flip(na1), remap(b_in + half))
        put(na1, flip(nb1))
        put(flip(nb1), na1)
        put(nb2, flip(na2))
        put(flip(na2), nb2)

    result = FillingInstance(Permutation(images), instance.genus, instance.punctures + 2)
    after = validate(result)
    if not after.valid:
        failing = ", ".join(c.name for c in after.failures())
        raise RuntimeError(f"internal inconsistency: surgery output failed validation ({failing})")
    return result


def extend_to(instance: FillingInstance, target_punctures: int) -> FillingInstance:
    """Apply the surgery until the puncture count reaches the target.

    The site is chosen deterministically at every step: the vertex class
    containing the smallest corner symbol.
    """
    if target_punctures < instance.punctures:
        raise ValueError("target puncture count lies below the current one")
    if (target_punctures - instance.punctures) % 2:
        raise ValueError("the surgery adds punctures in pairs; parity mismatch")
    if not validate(instance).valid:
        raise ValueError("extension needs a valid instance")
    # Each step's output was validated by the step itself, so only the first input is checked here.
    current = instance
    while current.punctures < target_punctures:
        current = _splice(current, SurgerySite(1))
    return current
