"""SVG export: frozen bytes over a fixed corpus, and the drawing's structure."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from fillperm import (
    FillingInstance,
    Permutation,
    SearchQuery,
    enumerate_solutions,
    extend_to,
    glue,
    render_svg,
)
from fillperm.arcs import label_texts
from fillperm.certificates import GENUS2_BASE

from conftest import label_of, ladder_instances

LADDER_SEED = 1
MORE_LADDER_SEEDS = (2, 3, 4)
LADDER_STEPS = 74  # S_2,3 -> S_2,151, n = 7..153
SOLUTION_CASES = [((0, 4, 2), None), ((1, 0, 1), None), ((1, 2, 2), None), ((2, 3, 5), 300)]

CORPUS_SIZE = 384
SVG_SHA256 = "7f08fd3825c50be259954ffaf4b4f9e2e6f13e12b014088abc18d7d0a12ebf4c"
# Recorded while every coordinate was still computed in absolute position.
MORE_LADDERS_SIZE = 222
MORE_LADDERS_SHA256 = "affb2d9b93f9b7fba831f0722fc88f8267327af0731a61ec3d6159f146f535f8"


def ladder_surfaces(seed=LADDER_SEED):
    """The surfaces of the seeded double-bigon ladder from the genus-2 certificate."""
    return [glue(inst.sigma, inst.punctures) for inst in ladder_instances(seed, LADDER_STEPS)]


@pytest.fixture(scope="module")
def surfaces():
    out = ladder_surfaces()
    for (genus, punctures, n), limit in SOLUTION_CASES:
        solutions = enumerate_solutions(SearchQuery(genus, punctures, n)).solutions
        out.extend(glue(sigma, punctures) for sigma in solutions[:limit])
    return out


@pytest.fixture(scope="module")
def markups(surfaces):
    return [render_svg(surface) for surface in surfaces]


def test_frozen_bytes(markups):
    digest = hashlib.sha256()
    for markup in markups:
        digest.update(markup.encode())
    assert (len(markups), digest.hexdigest()) == (CORPUS_SIZE, SVG_SHA256)


def test_frozen_bytes_of_more_ladders():
    digest = hashlib.sha256()
    markups = [render_svg(surface) for seed in MORE_LADDER_SEEDS for surface in ladder_surfaces(seed)]
    for markup in markups:
        digest.update(markup.encode())
    assert (len(markups), digest.hexdigest()) == (MORE_LADDERS_SIZE, MORE_LADDERS_SHA256)


def test_corpus_has_bigons_and_punctured_faces(surfaces):
    assert any(len(cycle) == 2 for s in surfaces for cycle in s.face_cycles)
    punctured = [flag for s in surfaces for flag in s.puncture_assignment]
    assert 0 in punctured and 1 in punctured


def test_one_mark_per_side_and_puncture(surfaces, markups):
    svg = "{http://www.w3.org/2000/svg}"
    for surface, markup in zip(surfaces, markups):
        root = ET.fromstring(markup)
        texts = label_texts(surface.n)
        labels = [texts[j] for cycle in surface.face_cycles for j in cycle]
        sides = len(labels)
        counts = {tag: len(root.findall(svg + tag)) for tag in ("path", "polygon", "text", "circle")}
        assert counts == {"path": sides, "polygon": sides, "text": sides, "circle": sum(surface.puncture_assignment)}
        assert [t.text for t in root.findall(svg + "text")] == labels
        faces = surface.face_count
        assert float(root.get("width")) == 2 * 60 + 180 * faces + 70 * (faces - 1)
        assert root.get("viewBox") == f"0 0 {root.get('width')} {root.get('height')}"


def test_glue_and_render_build_no_arc_labels():
    """The face words of ``lines()`` name every symbol as the reference labeling does."""
    instance = extend_to(FillingInstance(Permutation.parse(GENUS2_BASE), 2, 3), 9)
    surface = glue(instance.sigma, instance.punctures)
    assert render_svg(surface).startswith("<svg")
    words = [[str(label_of(j, surface.n)) for j in cycle] for cycle in surface.face_cycles]
    assert surface.lines() == [
        f"F{k}: {' '.join(word)}" + (" *" if punctured else "")
        for k, (word, punctured) in enumerate(zip(words, surface.puncture_assignment), start=1)
    ]
