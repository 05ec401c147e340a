"""Shared fixtures: the known-good certificates, small search spaces, the
reference helpers the tests check the package against, and the environment
the command line tests run `fillperm` in."""

import os
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

import fillperm
from fillperm import FillingInstance, Permutation, _kernel, available_sites, double_bigon
from fillperm.certificates import GENUS2_BASE, SPHERE_FOUR_BASE, TORUS_BASE


@pytest.fixture(scope="session")
def genus2_sigma() -> Permutation:
    return Permutation.parse(GENUS2_BASE)


@pytest.fixture(scope="session")
def genus2_instance(genus2_sigma) -> FillingInstance:
    return FillingInstance(genus2_sigma, genus=2, punctures=3)


@pytest.fixture(scope="session")
def torus_sigma() -> Permutation:
    return Permutation.parse(TORUS_BASE)


@pytest.fixture(scope="session")
def sphere4_sigma() -> Permutation:
    return Permutation.parse(SPHERE_FOUR_BASE)


def ladder_instances(seed: int = 1, steps: int = 74) -> list[FillingInstance]:
    """The seeded double-bigon ladder from the genus-2 certificate, S_2,5 to S_2,151 by default.

    Each step draws three numbers and uses the first to pick a site, as the benchmark's ladder does.
    """
    rng = random.Random(seed)
    current = FillingInstance(Permutation.parse(GENUS2_BASE), 2, 3)
    out = []
    for _ in range(steps):
        site_draw, _, _ = (rng.getrandbits(32) for _ in range(3))
        sites = available_sites(current)
        current = double_bigon(current, sites[site_draw % len(sites)])
        out.append(current)
    return out


def small_parameter_grid() -> list[tuple[int, int, int]]:
    """Every (genus, punctures, n) with 4n <= 8, punctures up to one past
    the face count so the infeasible edge is exercised too."""
    grid = []
    for n in (1, 2):
        for genus in range(0, 3):
            faces = n + 2 - 2 * genus
            if faces < 0:
                continue
            for punctures in range(0, max(faces, 0) + 2):
                grid.append((genus, punctures, n))
    return grid


ALPHA = "alpha"
BETA = "beta"


@dataclass(frozen=True)
class ArcLabel:
    """One directed arc: which curve, which arc index, which orientation."""

    curve: str
    index: int
    inverted: bool = False

    def __post_init__(self) -> None:
        if self.curve not in (ALPHA, BETA):
            raise ValueError(f"curve must be {ALPHA!r} or {BETA!r}, got {self.curve!r}")
        if self.index < 1:
            raise ValueError("arc index starts at 1")

    def __str__(self) -> str:
        mark = "'" if self.inverted else ""
        return f"{self.curve[0]}{self.index}{mark}"


def label_of(j: int, n: int) -> ArcLabel:
    """Label of directed-arc symbol ``j`` in a system with ``n`` crossings.

    Worked out one symbol at a time, as the reference that ``arcs.label_texts`` is checked against.

    >>> str(label_of(19, 5))
    "a5'"
    >>> str(label_of(6, 5))
    'b3'
    """
    if n < 1:
        raise ValueError("crossing count n must be at least 1")
    if not 1 <= j <= 4 * n:
        raise ValueError(f"symbol {j} outside 1..{4 * n}")
    inverted = j > 2 * n
    base = j - 2 * n if inverted else j
    if base % 2:
        return ArcLabel(ALPHA, (base + 1) // 2, inverted)
    return ArcLabel(BETA, base // 2, inverted)


def cycles_of(p: Permutation) -> list[tuple[int, ...]]:
    """The cycles ``str(p)`` writes, in its order."""
    return [tuple(map(int, c.split(","))) for c in str(p)[1:-1].split(")(")]


def corner_rotation(sigma: Permutation) -> Permutation:
    """Reversal after ``sigma``: the next corner around the same vertex; its orbits are the vertex classes."""
    rev, _ = _kernel.structure_maps(sigma.degree // 4)
    return Permutation(rev[k] for k in sigma.images)


def symmetry_group(n: int) -> list[Permutation]:
    """Basepoint-shift generators, one per curve.

    Each generator advances every arc label of one curve by one position,
    both orientations at once.  Conjugation by the group they generate
    (order n*n) maps filling permutations to filling permutations.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = 4 * n
    alpha = list(range(1, m + 1))
    beta = list(range(1, m + 1))
    for i in range(1, n + 1):
        nxt = i % n + 1
        alpha[2 * i - 2] = 2 * nxt - 1
        alpha[2 * n + 2 * i - 2] = 2 * n + 2 * nxt - 1
        beta[2 * i - 1] = 2 * nxt
        beta[2 * n + 2 * i - 1] = 2 * n + 2 * nxt
    return [Permutation(alpha), Permutation(beta)]


@lru_cache(maxsize=8)
def _symmetry_elements(n: int) -> tuple[Permutation, ...]:
    gen_a, gen_b = symmetry_group(n)
    elements = []
    pa = Permutation.identity(4 * n)
    for _ in range(n):
        pb = pa
        for _ in range(n):
            elements.append(pb)
            pb = gen_b.compose(pb)
        pa = gen_a.compose(pa)
    return tuple(elements)


@pytest.fixture
def checkout_on_pythonpath(monkeypatch) -> None:
    """Put the source root of the `fillperm` under test first on PYTHONPATH, so
    child interpreters run this checkout's code, not an installed copy."""
    source_root = Path(fillperm.__file__).resolve().parent.parent
    monkeypatch.setenv("PYTHONPATH", str(source_root), prepend=os.pathsep)


@pytest.fixture
def console_scripts(tmp_path, monkeypatch, checkout_on_pythonpath) -> None:
    """Put a launcher for each `[project.scripts]` entry of pyproject.toml
    first on PATH, so the tests need no `pip install`.

    Each launcher is what pip generates: it imports the declared
    `module:attr` and exits with the status `attr()` returns. It is built from
    the declaration every time, so a wrong entry point fails the tests.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        launcher = tmp_path / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path), prepend=os.pathsep)
