"""Double-bigon surgery: trade one crossing for three.

The move acts at one vertex of the glued surface.  The second curve is
rerouted so that it crosses the first curve three times where it used to
cross once; between consecutive new crossings sit two bigons, and each
receives a puncture.  Parameters move as (genus, p, n) -> (genus, p+2,
n+2).  The rewrite is purely local, and in the crossing sequence
(w, eps) of ``_kernel.crossings`` it is two insertions.  For the
chosen crossing k with c = w[k], every w value above c rises by 2,
(c+1, c+2) is inserted into w after k, and (not eps[k], eps[k]) into
eps after k.  The output is re-validated rather than trusted.
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
    w, eps = _kernel.crossings((0, *instance.sigma.images), instance.n)
    # The smallest corner at crossing k is one of its incoming sides, 2k+1 or 2w[k]+2.
    k = next((k for k, c in enumerate(w) if min(2 * k + 1, 2 * c + 2) == site.vertex_class), None)
    if k is None:
        raise ValueError(f"no vertex class is labeled {site.vertex_class}")
    # Two new crossings follow crossing k along both curves, of opposite then equal handedness.
    c = w[k]
    w = [x + 2 if x > c else x for x in w]
    w[k + 1 : k + 1] = c + 1, c + 2
    eps[k + 1 : k + 1] = not eps[k], eps[k]
    result = FillingInstance(Permutation(_kernel.from_crossings(w, eps)[1:]), instance.genus, instance.punctures + 2)
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
