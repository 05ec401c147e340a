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

from . import _kernel
from .permutations import Permutation
from .verify import CertificateError, FillingInstance, validate

__all__ = ["available_sites", "double_bigon", "extend_to"]


def _site(k: int, c: int) -> int:
    """Label of crossing k at position c of the second curve: its smallest corner, incoming side 2k+1 or 2c+2."""
    return min(2 * k + 1, 2 * c + 2)


def available_sites(instance: FillingInstance) -> tuple[int, ...]:
    """The vertex classes of a valid instance, each labeled by its smallest corner symbol, in increasing order."""
    w, _ = _kernel.crossings((0, *instance.sigma.images), instance.n)
    return tuple(sorted(_site(k, c) for k, c in enumerate(w)))


def double_bigon(instance: FillingInstance, site: int) -> FillingInstance:
    """Apply the move at ``site`` and return the enlarged certificate.

    Raises CertificateError for an invalid input instance or a site that
    names no vertex class; raises RuntimeError if the rewritten permutation
    fails validation, which would indicate an internal bug.
    """
    report = validate(instance)
    if not report.valid:
        failing = ", ".join(c.name for c in report.failures())
        raise CertificateError(f"surgery needs a valid instance; failing checks: {failing}")
    return _splice(instance, site)


def _splice(instance: FillingInstance, site: int) -> FillingInstance:
    """The move on an instance already known to be valid; the output is still validated."""
    w, eps = _kernel.crossings((0, *instance.sigma.images), instance.n)
    k = next((k for k, c in enumerate(w) if _site(k, c) == site), None)
    if k is None:
        raise CertificateError(f"no vertex class is labeled {site}")
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
    containing the smallest corner symbol.  Raises CertificateError for an
    invalid instance or a target it cannot reach.
    """
    if target_punctures < instance.punctures:
        raise CertificateError("target puncture count lies below the current one")
    if (target_punctures - instance.punctures) % 2:
        raise CertificateError("the surgery adds punctures in pairs; parity mismatch")
    if not validate(instance).valid:
        raise CertificateError("extension needs a valid instance")
    # Each step's output was validated by the step itself, so only the first input is checked here.
    current = instance
    while current.punctures < target_punctures:
        current = _splice(current, 1)
    return current
