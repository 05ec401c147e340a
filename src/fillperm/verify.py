"""Validation of filling permutations and reconstruction of the glued surface.

A filling permutation on 4n symbols records, for every directed arc, which
side comes next when walking clockwise around each complementary polygon
of a two-curve system with n crossings.  ``validate`` reports every
structural condition separately so a failing certificate shows exactly
where it breaks; ``glue`` rebuilds the polygon decomposition with its
Euler characteristic and puncture placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import _kernel
from .arcs import label_texts
from .permutations import Permutation

__all__ = [
    "CertificateError",
    "CheckResult",
    "FillingInstance",
    "GluedSurface",
    "ValidationReport",
    "glue",
    "validate",
    "vertex_classes",
]


class CertificateError(ValueError):
    """A well-formed permutation that is no certificate for the requested operation."""


@dataclass(frozen=True)
class FillingInstance:
    """A candidate certificate: permutation plus claimed genus and punctures."""

    sigma: Permutation
    genus: int
    punctures: int

    def __post_init__(self) -> None:
        if self.sigma.degree % 4:
            raise ValueError(f"degree {self.sigma.degree} is not a multiple of 4")
        if self.genus < 0 or self.punctures < 0:
            raise ValueError("genus and punctures must be non-negative")

    @property
    def n(self) -> int:
        """Crossing count encoded by the degree."""
        return self.sigma.degree // 4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {tag}{suffix}"


@dataclass(frozen=True)
class ValidationReport:
    """The raw values behind the nine checks; their text is formatted only when read."""

    n: int
    genus: int
    punctures: int
    parity_offender: tuple[int, int] | None  # first symbol sent to its own parity, and its image
    equation_offender: tuple[int, int, int] | None  # first symbol off the filling equation, and both sides
    faces: int
    bigons: int
    bad_orbit: tuple[int, int] | None  # smallest symbol and size of the first corner orbit not a 4-cycle
    euler_characteristic: int
    components: int

    @cached_property
    def checks(self) -> tuple[CheckResult, ...]:
        """The nine checks in order, formatted on first read."""
        n, g, p, faces, bigons = self.n, self.genus, self.punctures, self.faces, self.bigons
        chi = self.euler_characteristic
        expected_faces = n + 2 - 2 * g
        parity, equation, orbit = self.parity_offender, self.equation_offender, self.bad_orbit
        return (
            CheckResult("degree-divisible-by-4", True, f"degree {4 * n} = 4*{n}"),
            _check("parity-reversing", parity and "symbol {} maps to {} of the same parity".format(*parity)),
            _check(
                "filling-equation",
                equation and "at symbol {}: side-reversal-side gives {}, curve advance gives {}".format(*equation),
            ),
            CheckResult("cycle-count", True, f"{faces} faces force genus {g}") if faces == expected_faces
            else _check("cycle-count", f"{faces} cycles, expected n+2-2g = {expected_faces}"),
            _check("two-cycle-bound", "" if bigons <= p else f"{bigons} bigon faces but only {p} punctures"),
            _check("puncture-feasibility", "" if p <= expected_faces else f"p = {p} exceeds n+2-2g = {expected_faces}"),
            # With every corner orbit a 4-cycle there are exactly n of them.
            _check("vertex-classes", orbit and "orbit of {} has size {}, expected 4".format(*orbit)),
            _check("euler-characteristic", "" if chi == 2 - 2 * g else f"V-E+F = {chi}, expected 2-2g = {2 - 2 * g}"),
            _check("connectivity", "" if self.components == 1 else f"{self.components} components after gluing"),
        )

    @cached_property
    def valid(self) -> bool:
        """No check fails."""
        return not self.failures()

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = [f"n={self.n}"]
        out.extend(c.line() for c in self.checks)
        out.append(f"result: {'VALID' if self.valid else 'INVALID'}")
        return out


def _kernel_view(sigma: Permutation) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Padded images of ``sigma`` with the arc reversal and curve advance of its degree."""
    if sigma.degree % 4:
        raise ValueError(f"degree {sigma.degree} is not a multiple of 4")
    return (0, *sigma.images), *_kernel.structure_maps(sigma.degree // 4)


def vertex_classes(sigma: Permutation) -> tuple[tuple[int, ...], ...]:
    """Orbits of the corner rotation, each starting at its smallest member."""
    s, rev, _ = _kernel_view(sigma)
    return _kernel.cycles(_kernel.corner_rotation(s, rev))


def _check(name: str, failure: str | None) -> CheckResult:
    """A check that passes exactly when there is no failure detail."""
    return CheckResult(name, not failure, failure or "")


def validate(instance: FillingInstance) -> ValidationReport:
    """Run the nine structural checks; nothing raises, failures are reported.

    Three values are derived, not walked.  With c = rev∘s, c² = rev∘adv
    exactly when the filling equation holds, and rev∘adv is a fixed-point-free
    involution: every corner orbit is then a 4-cycle, so there are n vertex
    classes and χ = faces - n.  The face graph's components are the orbits of
    ⟨s, rev⟩, which then holds adv = s∘rev∘s; ⟨adv, rev⟩ has two orbits, the
    odd and the even symbols, and a parity-reversing s joins them.
    """
    n, genus, punctures = instance.n, instance.genus, instance.punctures
    s = (0, *instance.sigma.images)  # FillingInstance has checked that the degree is 4n
    rev, adv = _kernel.structure_maps(n)
    parity = _kernel.parity_offender(s)
    equation = _kernel.equation_offender(s, rev, adv)
    faces, bigons = _kernel.faces(s)
    if parity is None and equation is None:
        return _report_on_the_equation(n, genus, punctures, faces, bigons)
    classes = () if equation is None else _kernel.cycles(_kernel.corner_rotation(s, rev))
    bad_orbit = next(((o[0], len(o)) for o in classes if len(o) != 4), None)
    return ValidationReport(
        n, genus, punctures,
        None if parity is None else (parity, s[parity]),
        None if equation is None else (equation, s[rev[s[equation]]], adv[equation]),
        faces, bigons, bad_orbit, (len(classes) or n) - 2 * n + faces, _kernel.components(s, rev),
    )


@lru_cache(maxsize=64)
def _report_on_the_equation(n: int, genus: int, punctures: int, faces: int, bigons: int) -> ValidationReport:
    """The report of a parity-reversing permutation on the filling equation: n classes, one component."""
    return ValidationReport(n, genus, punctures, None, None, faces, bigons, None, faces - n, 1)


@dataclass(frozen=True)
class GluedSurface:
    """The polygon decomposition cut out by a filling permutation."""

    n: int
    face_cycles: tuple[tuple[int, ...], ...]
    euler_characteristic: int
    genus: int
    puncture_assignment: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        """One vertex per crossing: on the filling equation every corner orbit is a 4-cycle (see validate)."""
        return self.n

    @property
    def edge_count(self) -> int:
        return 2 * self.n

    @property
    def face_count(self) -> int:
        return len(self.face_cycles)

    def lines(self) -> list[str]:
        """Face words, one per line; a trailing ``*`` marks a puncture."""
        texts = label_texts(self.n)
        out = []
        for k, (cycle, punctured) in enumerate(zip(self.face_cycles, self.puncture_assignment), start=1):
            line = f"F{k}: " + " ".join(texts[j] for j in cycle)
            if punctured:
                line += " *"
            out.append(line)
        return out


def glue(sigma: Permutation, punctures: int) -> GluedSurface:
    """Rebuild the closed-up surface and place punctures deterministically.

    Every bigon face must hold a puncture; remaining punctures go to the
    other faces in ascending canonical cycle order, at most one each.
    Raises CertificateError when ``sigma`` is off the filling equation or
    the punctures do not fit its faces.
    """
    if punctures < 0:
        raise ValueError("punctures must be non-negative")
    s, rev, adv = _kernel_view(sigma)
    n = sigma.degree // 4
    if _kernel.parity_offender(s) is not None or _kernel.equation_offender(s, rev, adv) is not None:
        raise CertificateError("gluing needs a parity-reversing permutation satisfying the filling equation")

    face_cycles = _kernel.cycles(s)
    chi = len(face_cycles) - n  # n vertices and 2n edges, as validate derives
    if (2 - chi) % 2:  # unreachable: the gluing is orientable and, by validate's lemma, connected
        raise RuntimeError("internal inconsistency: odd Euler characteristic defect")
    genus = (2 - chi) // 2

    bigons = [i for i, c in enumerate(face_cycles) if len(c) == 2]
    if punctures < len(bigons):
        raise CertificateError(f"{len(bigons)} bigon faces must all be punctured but p = {punctures}")
    if punctures > len(face_cycles):
        raise CertificateError(f"p = {punctures} exceeds the {len(face_cycles)} available faces")
    assignment = [int(len(c) == 2) for c in face_cycles]
    spare = punctures - len(bigons)
    for i in range(len(face_cycles)):
        if spare and not assignment[i]:
            assignment[i], spare = 1, spare - 1

    return GluedSurface(
        n=n,
        face_cycles=face_cycles,
        euler_characteristic=chi,
        genus=genus,
        puncture_assignment=tuple(assignment),
    )
