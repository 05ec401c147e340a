"""Double-bigon surgery: worked small cases, the crossing-sequence converters, then a pinned sweep."""

import hashlib
import itertools

import pytest

from fillperm import (
    CertificateError,
    FillingInstance,
    SearchQuery,
    available_sites,
    double_bigon,
    enumerate_solutions,
    extend_to,
    validate,
    vertex_classes,
)
from fillperm._kernel import crossings, from_crossings

from conftest import cycles_of, identity, ladder_instances


class TestTorusStep:
    """(1,2,3,4) on the square torus is small enough to splice by hand."""

    def test_hand_worked_result(self, torus_sigma):
        out = double_bigon(FillingInstance(torus_sigma, 1, 0), 1)
        assert str(out.sigma) == "(1,4,5,2,7,12,9,8)(3,10)(6,11)"
        assert (out.genus, out.punctures, out.n) == (1, 2, 3)

    def test_result_revalidates(self, torus_sigma):
        out = double_bigon(FillingInstance(torus_sigma, 1, 0), 1)
        assert validate(out).valid
        assert validate(out).bigons == 2

    def test_single_site_on_the_torus(self, torus_sigma):
        assert available_sites(FillingInstance(torus_sigma, 1, 0)) == (1,)


class TestSphereSites:
    """The two vertices of the four-bigon sphere pair have opposite
    crossing handedness, so both get spliced."""

    def test_both_sites_give_valid_six_puncture_pairs(self, sphere4_sigma):
        inst = FillingInstance(sphere4_sigma, 0, 4)
        sites = available_sites(inst)
        assert sites == (1, 2)
        results = [double_bigon(inst, s) for s in sites]
        for out in results:
            assert (out.genus, out.punctures, out.n) == (0, 6, 4)
            assert validate(out).valid
            # Two fresh bigons appear; two old ones at the vertex widen.
            assert sorted(map(len, cycles_of(out.sigma))) == [2, 2, 2, 2, 4, 4]
        assert results[0].sigma != results[1].sigma


class TestSiteLabels:
    """Sites come from the crossing sequence: each is its vertex class's smallest corner symbol."""

    def test_every_small_solution(self):
        count = 0
        for genus, punctures, n in itertools.product(range(3), range(7), range(1, 6)):
            for sigma in enumerate_solutions(SearchQuery(genus, punctures, n)).solutions:
                sites = available_sites(FillingInstance(sigma, genus, punctures))
                assert sites == tuple(c[0] for c in vertex_classes(sigma))
                count += 1
        assert count == 11236

    def test_every_ladder_surface(self):
        instances = ladder_instances()
        assert len(instances) == 74
        for inst in instances:
            assert available_sites(inst) == tuple(c[0] for c in vertex_classes(inst.sigma))


class TestExtendTo:
    def test_reaches_thirteen_punctures(self, genus2_instance):
        out = extend_to(genus2_instance, 13)
        assert (out.genus, out.punctures, out.n) == (2, 13, 15)
        assert validate(out).valid

    def test_noop_at_current_count(self, genus2_instance):
        assert extend_to(genus2_instance, 3) is genus2_instance

    def test_parity_mismatch(self, genus2_instance):
        with pytest.raises(ValueError, match="pairs"):
            extend_to(genus2_instance, 4)

    def test_cannot_shrink(self, genus2_instance):
        with pytest.raises(ValueError, match="below"):
            extend_to(genus2_instance, 1)

    def test_validates_input_once_and_every_step(self, genus2_instance, monkeypatch):
        import fillperm.moves

        calls = []

        def counting_validate(instance):
            calls.append(instance.punctures)
            return validate(instance)

        monkeypatch.setattr(fillperm.moves, "validate", counting_validate)
        out = extend_to(genus2_instance, 13)
        # k = 5 steps: the input once, then each step's output once.
        assert calls == [3, 5, 7, 9, 11, 13]
        assert validate(out).valid

    def test_steps_are_fast(self, genus2_instance):
        import time

        current = genus2_instance
        for _ in range(5):
            t0 = time.perf_counter()
            current = double_bigon(current, 1)
            assert time.perf_counter() - t0 < 0.01


class TestRejections:
    def test_invalid_instance(self):
        with pytest.raises(ValueError, match="failing checks"):
            double_bigon(FillingInstance(identity(4), 1, 0), 1)

    def test_unknown_site(self, torus_sigma):
        # The torus has one vertex class, labeled 1; labels off both ends of 1..4n must not wrap around.
        for label in (0, -1, 2, 3, 4, 5):
            with pytest.raises(ValueError, match="no vertex class"):
                double_bigon(FillingInstance(torus_sigma, 1, 0), label)

    def test_extend_requires_valid_instance(self):
        with pytest.raises(ValueError):
            extend_to(FillingInstance(identity(4), 1, 0), 2)

    def test_every_rejection_is_a_certificate_error(self, torus_sigma, genus2_instance):
        """What the command line exits 2 on."""
        invalid = FillingInstance(identity(4), 1, 0)
        for move, instance, arg in [
            (double_bigon, invalid, 1),
            (double_bigon, FillingInstance(torus_sigma, 1, 0), 2),
            (extend_to, invalid, 2),
            (extend_to, genus2_instance, 1),
            (extend_to, genus2_instance, 4),
        ]:
            with pytest.raises(CertificateError):
                move(instance, arg)


@pytest.mark.parametrize("n, count", [(1, 2), (2, 8), (3, 48), (4, 384), (5, 3840)])
def test_crossing_sequences_are_exactly_the_solutions(n, count):
    """Every (w, eps) round-trips, and the images are the union of the search's cells with n crossings."""
    images = set()
    for w in itertools.permutations(range(n)):
        for eps in itertools.product((False, True), repeat=n):
            s = from_crossings(w, eps)
            assert crossings(s, n) == (list(w), list(eps))
            images.add(tuple(s[1:]))
    found = set()
    for genus in range(n // 2 + 2):
        found.update(p.images for p in enumerate_solutions(SearchQuery(genus, n + 2 - 2 * genus, n)).solutions)
    assert len(images) == count  # n! * 2**n pairs, so the converter is injective
    assert images == found


# SHA-256 over str(out.sigma) + newline for every (solution, site) pair below, in search and site order.
SWEEP_SHA256 = "d448f881de1c859fca50c2c4f945f8aa8dfe3ae7c18b037a3c5ca8f8e226742d"


def test_surgery_valid_at_every_site_of_every_small_solution():
    # Both handednesses at every site of everything the search finds; pins every output's bytes.
    digest, count = hashlib.sha256(), 0
    for genus, punctures, n in [(1, 0, 1), (0, 4, 2), (1, 1, 2), (1, 2, 2), (1, 0, 3), (0, 6, 4), (1, 2, 4), (2, 3, 5)]:
        for sigma in enumerate_solutions(SearchQuery(genus, punctures, n)).solutions:
            inst = FillingInstance(sigma, genus, punctures)
            for site in available_sites(inst):
                out = double_bigon(inst, site)
                assert (out.genus, out.punctures, out.n) == (genus, punctures + 2, n + 2)
                assert validate(out).valid
                digest.update(f"{out.sigma}\n".encode())
                count += 1
    assert (count, digest.hexdigest()) == (12330, SWEEP_SHA256)
