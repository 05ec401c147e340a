"""Command line behavior: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import subprocess
import sys
import tracemalloc
import types
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fillperm.certificates import GENUS2_BASE, SPHERE_FOUR_BASE, TORUS_BASE
from fillperm.cli import main
from fillperm.permutations import MAX_DEGREE, Permutation
from fillperm.search import canonical_form, shift_classes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stub_clock(monkeypatch):
    """Make every clock read in the search and the command line one second later than the last."""
    import fillperm.cli
    import fillperm.search

    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    monkeypatch.setattr(fillperm.search, "time", clock)
    monkeypatch.setattr(fillperm.cli, "time", clock)


class TestVerify:
    def test_valid_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--sigma", GENUS2_BASE, "--genus", "2", "--punctures", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=5"
        assert lines[1] == "degree-divisible-by-4: PASS (degree 20 = 4*5)"
        assert lines[-1] == "result: VALID"
        assert sum(": PASS" in ln for ln in lines) == 9

    def test_invalid_certificate_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--sigma", "(1,2,3,4)", "--genus", "0", "--punctures", "0"
        )
        assert code == 2
        assert out.splitlines()[-1] == "result: INVALID"
        assert any(": FAIL" in ln for ln in out.splitlines())

    def test_malformed_sigma_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--sigma", "(1,2,3", "--genus", "1", "--punctures", "0"
        )
        assert code == 1
        assert "malformed" in err

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_sigma_from_file(self, capsys, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text(GENUS2_BASE + "\n")
        code, out, _ = run_cli(
            capsys, "verify", "--sigma-file", str(path), "--genus", "2", "--punctures", "3"
        )
        assert code == 0 and "result: VALID" in out

    def test_sigma_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("(1,2,3,4)\n"))
        code, out, _ = run_cli(
            capsys, "verify", "--sigma-file", "-", "--genus", "1", "--punctures", "0"
        )
        assert code == 0 and "result: VALID" in out

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_crossing_count_below_one_exits_1(self, capsys, n):
        code, out, err = run_cli(
            capsys, "verify", "--sigma", "(1,2)(3,4)", "--n", n, "--genus", "1", "--punctures", "0"
        )
        assert (code, out) == (1, "")
        assert err == f"error: --n must be at least 1, got {n}\n"

    def test_explicit_n_pads_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--sigma", "(1,2)(3,4)", "--n", "2", "--genus", "1", "--punctures", "0"
        )
        assert code == 2
        assert out.splitlines()[0] == "n=2"


class TestGlue:
    def test_certificate_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "glue", "--sigma", GENUS2_BASE, "--punctures", "3")
        assert code == 0
        assert out.splitlines() == [
            "F1: a1 b1 a5' b2' *",
            "F2: a2 b4 a3' b3' a5 b2 a4' b4' a3 b5 a1' b1' *",
            "F3: b3 a2' b5' a4 *",
            "vertices=5",
            "edges=10",
            "faces=3",
            "euler=-2",
            "genus=2",
        ]

    def test_too_many_punctures_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "glue", "--sigma", "(1,2,3,4)", "--punctures", "2")
        assert code == 2
        assert "exceeds" in err


class TestSearch:
    def test_torus_base(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--genus", "1", "--punctures", "0", "--n", "1"
        )
        assert code == 0
        assert out.splitlines() == ["(1,2,3,4)", "(1,4,3,2)", "count=2 dedup=2 nodes=2"]

    def test_summary_reports_classes_without_dedup(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--genus", "0", "--punctures", "4", "--n", "2")
        assert out.splitlines()[-1].startswith("count=4 dedup=1 nodes=")

    def test_dedup_prints_class_representatives(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "--genus", "0", "--punctures", "4", "--n", "2", "--dedup"
        )
        lines = out.splitlines()
        assert lines[0] == "(1,2)(3,6)(4,5)(7,8)"
        assert lines[-1].startswith("count=4 dedup=1")

    def test_naive_agrees(self, capsys):
        _, fast, _ = run_cli(capsys, "search", "--genus", "1", "--punctures", "0", "--n", "2")
        _, slow, _ = run_cli(
            capsys, "search", "--genus", "1", "--punctures", "0", "--n", "2", "--naive"
        )
        assert fast.splitlines()[:-1] == slow.splitlines()[:-1]

    def test_naive_honours_limit_and_node_cap(self, capsys):
        argv = ("search", "--genus", "1", "--punctures", "0", "--n", "2")
        _, fast, _ = run_cli(capsys, *argv, "--limit", "1")
        _, slow, _ = run_cli(capsys, *argv, "--naive", "--limit", "1")
        assert fast.splitlines()[:-1] == slow.splitlines()[:-1] == ["(1,2,7,8)(3,4,5,6)"]
        code, _, err = run_cli(capsys, *argv, "--naive", "--max-nodes", "5")
        assert code == 3 and "node budget 5" in err

    def test_node_cap_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "search", "--genus", "2", "--punctures", "3", "--n", "5", "--max-nodes", "100",
        )
        assert code == 3
        assert "node budget" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("search", "--genus", "1", "--punctures", "2", "--n", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    WALK_CELLS = {
        "propagation": [(g, p, n, ()) for g in range(3) for p in range(4) for n in range(1, 5)]
        + [(1, 3, 5, ()), (2, 3, 5, ()), (1, 2, 4, ("--limit", "177"))],
        "naive": [(0, 0, 2, ()), (0, 4, 2, ()), (1, 0, 1, ()), (1, 0, 2, ()), (1, 2, 2, ("--limit", "5"))],
    }

    @pytest.mark.parametrize("engine", sorted(WALK_CELLS))
    def test_complete_search_counts_classes_with_the_walk(self, capsys, monkeypatch, engine):
        import fillperm._kernel as kernel

        real, calls = kernel.canonical, []
        monkeypatch.setattr(kernel, "canonical", lambda *a: calls.append(a) or real(*a))
        for g, p, n, extra in self.WALK_CELLS[engine]:
            argv = ("search", "--genus", str(g), "--punctures", str(p), "--n", str(n), *extra)
            if engine == "naive":
                argv += ("--naive",)
            calls.clear()
            code, out, _ = run_cli(capsys, *argv)
            assert (code, calls) == (0, [])
            _, dedup_out, _ = run_cli(capsys, *argv, "--dedup")
            representatives = dedup_out.splitlines()[:-1]
            assert out.splitlines()[-1] == dedup_out.splitlines()[-1]
            assert out.splitlines()[-1].split()[1] == f"dedup={len(representatives)}"

    def test_truncating_limit_counts_classes_among_printed_solutions(self, capsys):
        # S_1,0 at n = 4 has 16 solutions in 4 classes; its first 7 meet only some of them.
        code, out, _ = run_cli(capsys, "search", "--genus", "1", "--punctures", "0", "--n", "4", "--limit", "7")
        lines = out.splitlines()
        classes = {canonical_form(Permutation.parse(line)) for line in lines[:-1]}
        assert (code, len(lines)) == (0, 8)
        assert lines[-1].startswith(f"count=7 dedup={len(classes)} ")
        assert len(classes) != shift_classes(1, 0, 4)[0]

    # S_1,2 at n = 3: 48 solutions in 26 nodes, under the 256 between the search's own clock reads.
    BUDGET_ARGV = ("search", "--genus", "1", "--punctures", "2", "--n", "3")

    def test_time_budget_covers_dedup(self, capsys, monkeypatch):
        stub_clock(monkeypatch)
        code, out, _ = run_cli(capsys, *self.BUDGET_ARGV, "--max-seconds", "5")
        assert (code, out.splitlines()[-1]) == (0, "count=48 dedup=8 nodes=26")
        # The search reads 1 s; canonicalising reads the clock once per solution and runs out.
        code, out, err = run_cli(capsys, *self.BUDGET_ARGV, "--max-seconds", "5", "--dedup")
        assert (code, out) == (3, "")
        assert "time budget 5.0s exhausted" in err

    def test_time_budget_covers_a_truncated_search(self, capsys, monkeypatch):
        # A --limit that cuts the search short counts classes by canonicalising, under the same budget.
        stub_clock(monkeypatch)
        code, out, err = run_cli(capsys, *self.BUDGET_ARGV, "--limit", "20", "--max-seconds", "5")
        assert (code, out) == (3, "")
        assert "time budget 5.0s exhausted" in err
        code, out, _ = run_cli(capsys, *self.BUDGET_ARGV, "--limit", "20", "--max-seconds", "100")
        assert (code, out.splitlines()[-1]) == (0, "count=20 dedup=6 nodes=33")

    def test_time_budget_covers_the_relabelled_copies(self, capsys, monkeypatch):
        # S_3,0 at n = 5: the search reads the clock after 256 and 512 of its 546 nodes, and after
        # 256 and 512 of its 600 solutions, four in five of them relabelled copies of a walked leaf.
        stub_clock(monkeypatch)
        argv = ("search", "--genus", "3", "--punctures", "0", "--n", "5")
        code, out, _ = run_cli(capsys, *argv, "--max-seconds", "100")
        assert (code, out.splitlines()[-1]) == (0, "count=600 dedup=24 nodes=546")
        # The two node reads alone stay within 2 s; the reads among the copies run out.
        code, out, err = run_cli(capsys, *argv, "--max-seconds", "2")
        assert (code, out) == (3, "")
        assert "time budget 2.0s exhausted" in err

    def test_walk_disagreeing_on_the_raw_count_raises(self, capsys, monkeypatch):
        import fillperm.cli as cli

        budgets = []

        def one_too_many(genus, punctures, n, max_nodes, max_seconds):
            budgets.append((max_nodes, max_seconds))
            classes, raw, nodes = shift_classes(genus, punctures, n, max_nodes, max_seconds)
            return classes, raw + 1, nodes

        monkeypatch.setattr(cli, "shift_classes", one_too_many)
        argv = ["search", "--genus", "1", "--punctures", "2", "--n", "3", "--max-nodes", "500", "--max-seconds", "30"]
        with pytest.raises(RuntimeError, match="internal inconsistency: search found 48 solutions, walk 49"):
            main(argv)
        assert capsys.readouterr().out == ""  # the check runs before any solution is printed
        [(max_nodes, max_seconds)] = budgets
        assert max_nodes == 500 and 0 <= max_seconds < 30


class TestExtend:
    def test_torus_to_two_punctures(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extend", "--sigma", "(1,2,3,4)", "--genus", "1", "--punctures", "0",
            "--target-p", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(1,4,5,2,7,12,9,8)(3,10)(6,11)"
        assert lines[1] == "n=3"
        assert lines[-1] == "result: VALID"

    def test_parity_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "extend", "--sigma", "(1,2,3,4)", "--genus", "1", "--punctures", "0",
            "--target-p", "3",
        )
        assert code == 2
        assert "pairs" in err


class TestTable:
    def test_single_value(self, capsys):
        assert run_cli(capsys, "table", "--genus", "2", "--punctures", "3")[:2] == (0, "5\n")

    def test_undefined_surface_prints_none(self, capsys):
        assert run_cli(capsys, "table", "--genus", "0", "--punctures", "2")[:2] == (0, "none\n")

    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-genus", "2", "--max-punctures", "4")
        assert code == 0
        assert out.splitlines() == [
            "g\\p 0 1 2 3 4",
            "0 none none none none 2",
            "1 1 1 2 3 4",
            "2 4 4 4 5 6",
        ]

    def test_grid_needs_both_bounds(self, capsys):
        code, _, err = run_cli(capsys, "table", "--max-genus", "2")
        assert code == 1 and "grid mode" in err

    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table")
        assert code == 1 and "need --genus" in err


class TestTableScan:
    GRID = ("table", "--max-genus", "2", "--max-punctures", "4", "--cap-n", "6")

    def test_reports_exhausted_budget(self, capsys):
        code, out, err = run_cli(capsys, *self.GRID, "--max-seconds", "0")
        lines = out.splitlines()
        assert (code, err) == (3, "")
        assert "S_2,4: BUDGET: time budget 0.0s exhausted" in lines
        # Searches under 256 nodes never read the clock, so small surfaces still finish.
        assert "S_1,0: n1:2  [minimum 1 confirmed]" in lines
        # S_2,3's walk at n = 5 visits 170 nodes, its mirror and reversal images counted without a visit.
        assert "S_2,3: n1:0 n2:0 n3:0 n4:0 n5:2300  [minimum 5 confirmed]" in lines
        # Even-n sphere walks place only alternating crossings (S_0,3 at n = 6 visits 32 nodes), and
        # the odd-n ones, still exhaustive, stay under 256 nodes up to n = 5 (S_0,3 visits 172).
        assert "S_0,3: n1:0 n2:0 n3:0 n4:0 n5:0 n6:0  [none expected, none found]" in lines
        assert [line.split(":")[0] for line in lines if ": BUDGET: " in line] == ["S_2,4"]
        assert lines[-1] == "1 surface(s) ran out of budget"

    def test_single_cell_confirmed(self, capsys):
        assert run_cli(capsys, "table", "--genus", "2", "--punctures", "3", "--cap-n", "5") == (0, (
            "S_2,3: n1:0 n2:0 n3:0 n4:0 n5:2300  [minimum 5 confirmed]\n"
            "all surfaces agree with the closed form\n"
        ), "")

    def test_cells_above_the_cap_are_probed_below_it(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-genus", "3", "--max-punctures", "0", "--cap-n", "2")
        assert code == 0
        assert out.splitlines() == [
            "S_0,0: n1:0 n2:0  [none expected, none found]",
            "S_1,0: n1:2  [minimum 1 confirmed]",
            "S_2,0: n1:0 n2:0  [empty below cap (closed form 4)]",
            "S_3,0: n1:0 n2:0  [empty below cap (closed form 5)]",
            "all surfaces agree with the closed form",
        ]

    def test_contradiction_exits_2(self, capsys, monkeypatch):
        import fillperm.tables as tables

        real = tables.shift_classes

        def missing_n1(genus, punctures, n, *budgets):  # a walk that loses the torus's one-crossing pairs
            return (0, 0, 0) if n == 1 else real(genus, punctures, n, *budgets)

        monkeypatch.setattr(tables, "shift_classes", missing_n1)
        code, out, err = run_cli(capsys, "table", "--max-genus", "1", "--max-punctures", "0", "--cap-n", "2")
        assert (code, err) == (2, "")
        assert out.splitlines()[1:] == [
            "S_1,0: CONTRADICTION: search minimum None != closed form 1 for genus 1, punctures 0",
            "1 contradiction(s) found",
        ]

    @pytest.mark.parametrize("argv, message", [
        (("--max-seconds", "-1"), "--max-seconds must be non-negative, got -1.0"),
        (("--max-seconds", "nan"), "--max-seconds must be non-negative, got nan"),
        (("--max-genus", "-1"), "--max-genus and --max-punctures must be non-negative"),
        (("--max-punctures", "-1"), "--max-genus and --max-punctures must be non-negative"),
        (("--cap-n", "-1"), "n_max must be at least 1, got -1"),
        (("--cap-n", "0"), "n_max must be at least 1, got 0"),
    ], ids=["max-seconds", "nan-seconds", "max-genus", "max-punctures", "cap-n", "zero-cap-n"])
    def test_rejects_bad_arguments(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *self.GRID, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err


class TestExportSvg:
    def test_writes_parseable_svg(self, capsys, tmp_path):
        out_path = tmp_path / "surface.svg"
        code, out, _ = run_cli(
            capsys,
            "export-svg", "--sigma", GENUS2_BASE, "--punctures", "3", "--out", str(out_path),
        )
        assert code == 0
        assert out == f"wrote {out_path}\n"
        root = ET.parse(out_path).getroot()
        assert root.tag.endswith("svg")
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert len(texts) == 20
        assert "a5'" in texts and "b3" in texts

    def test_deterministic_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for p in paths:
            run_cli(capsys, "export-svg", "--sigma", "(1,2,3,4)", "--punctures", "0",
                    "--out", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_semantic_failure_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "export-svg", "--sigma", "(1,2)(3,6)(4,5)(7,8)", "--punctures", "0",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 2 and "bigon" in err
        assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("command", [("verify", "--genus", "1"), ("glue",), ("export-svg", "--out", "OUT")])
def test_negative_punctures_exits_1(capsys, tmp_path, command):
    out_file = tmp_path / "out.svg"
    argv = [str(out_file) if a == "OUT" else a for a in command]
    code, out, err = run_cli(capsys, *argv, "--sigma", "(1,2,3,4)", "--punctures", "-1")
    assert (code, out, err) == (1, "", "error: --punctures must be non-negative, got -1\n")
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ("extend", "--sigma", "(1,2,3,4)", "--genus", "1", "--punctures", "0", "--target-p", "-2"),
    ("table", "--max-genus", "-1", "--max-punctures", "3"),
    ("table", "--max-genus", "2", "--max-punctures", "-2"),
    ("search", "--genus", "1", "--punctures", "0", "--n", "1", "--max-nodes", "-5"),
    ("search", "--genus", "1", "--punctures", "0", "--n", "1", "--max-seconds", "-1"),
    ("search", "--genus", "1", "--punctures", "0", "--n", "1", "--max-seconds", "nan"),
    # Only --cap-n spends the table's budget, but a bad one is refused in both modes.
    ("table", "--genus", "1", "--punctures", "0", "--max-seconds", "-1"),
    ("table", "--genus", "1", "--punctures", "0", "--max-seconds", "nan"),
], ids=["target-p", "max-genus", "max-punctures", "max-nodes", "max-seconds", "nan-seconds",
        "table-max-seconds", "table-nan-seconds"])
def test_negative_count_or_budget_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "non-negative" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--sigma", f"({MAX_DEGREE + 1})", "--genus", "0", "--punctures", "0"),
    ("glue", "--sigma", "(1,2)", "--n", str(MAX_DEGREE // 4 + 1), "--punctures", "0"),
    ("search", "--genus", "0", "--punctures", "0", "--n", str(MAX_DEGREE // 4 + 1)),
    # 20 symbols plus 4 per added puncture: degree 2**20 + 4, one surgery past the cap.
    ("extend", "--sigma", GENUS2_BASE, "--genus", "2", "--punctures", "3", "--target-p", str(MAX_DEGREE // 4 - 1)),
    # The first walk would be at n = 2g - 1, or at the cap n if that is smaller: both past the degree cap.
    ("table", "--genus", "300000", "--punctures", "0", "--cap-n", "100000000"),
    ("table", "--genus", "140000", "--punctures", "0", "--cap-n", "270000"),
], ids=["symbol", "n", "search", "target-p", "table-genus", "table-cap-n"])
def test_typed_size_above_the_cap_exits_1_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert f"cap of {MAX_DEGREE} symbols" in err
    assert peak < 2**20


# Every n below 2g - 1 is empty at once; the walk at n = 2g - 1 then runs out of
# time or of recursion depth.  It allocates O(n): a table of all 2n^2 corner
# chains would take about 90 MB at g = 150, and exhaust memory at g = 10000.
@pytest.mark.parametrize("genus", [150, 10_000])
def test_table_scan_at_a_large_genus_stops_on_a_budget_in_linear_memory(capsys, genus):
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "table", "--genus", str(genus), "--punctures", "0", "--cap-n", "200000", "--max-seconds", "1"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (3, "")
    assert out.startswith(f"S_{genus},0: BUDGET: ")
    assert out.splitlines()[-1] == "1 surface(s) ran out of budget"
    assert peak < 2**24


class _HashingSink(io.TextIOBase):
    """A text stream that keeps only a SHA-256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


def test_table_grid_prints_in_memory_independent_of_its_size():
    """A 101 x 3001 grid (1.4 MB of text) is printed row by row; the whole grid once took 19 MB."""
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["table", "--max-genus", "100", "--max-punctures", "3000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.digest.hexdigest() == "e1d8b2d9bb14b4c02fc9a00ab23a7d4fbee15b504a26d77ad92bc0bc6a82d06b"
    assert peak < 2**21


def test_search_deeper_than_the_recursion_limit_exits_3(capsys):
    code, out, err = run_cli(capsys, "search", "--genus", "10000", "--punctures", "0", "--n", "19999")
    assert (code, out) == (3, "")
    assert err == "error: depth budget exhausted: n = 19999 recurses past the interpreter's recursion limit\n"


# Cycle text over symbols 0..99 only: integers never touch, so no larger number can form.
_cycle_text = st.one_of(
    st.sampled_from([GENUS2_BASE, TORUS_BASE, SPHERE_FOUR_BASE]),
    st.builds(
        lambda head, pieces: head + "".join(f"{k}{sep}" for k, sep in pieces),
        st.sampled_from(["(", "", " (", ")"]),
        st.lists(st.tuples(st.integers(0, 99), st.sampled_from([",", ")(", ")", " , ", "(", ",,", "x", "\n"])), max_size=12),
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(
    command=st.sampled_from(["verify", "glue", "extend", "export-svg"]),
    text=_cycle_text,
    n=st.one_of(st.none(), st.integers(0, 25)),
    genus=st.integers(-1, 3),
    punctures=st.integers(-1, 6),
    target_p=st.integers(-1, 9),
)
def test_parse_surface_fuzz(fuzz_dir, command, text, n, genus, punctures, target_p):
    """Nothing escapes ``main`` on any cycle text, and the exit code is a documented one."""
    argv = [command, f"--sigma={text}", f"--punctures={punctures}"]
    if n is not None:
        argv.append(f"--n={n}")
    if command in ("verify", "extend"):
        argv.append(f"--genus={genus}")
    if command == "extend":
        argv.append(f"--target-p={target_p}")
    if command == "export-svg":
        argv.append(f"--out={fuzz_dir / 'fuzz.svg'}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {0, 1, 2, 3}


class TestEntryPoints:
    def test_console_script(self, console_scripts):
        proc = subprocess.run(
            ["fillperm", "table", "--genus", "1", "--punctures", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1\n"

    def test_module_invocation(self, checkout_on_pythonpath):
        proc = subprocess.run(
            [sys.executable, "-m", "fillperm", "verify", "--sigma", "(1,2,3,4)",
             "--genus", "1", "--punctures", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("result: VALID")

    def test_usage_error_exit_code(self, console_scripts):
        proc = subprocess.run(
            ["fillperm", "search", "--genus", "1"], capture_output=True, text=True
        )
        assert proc.returncode == 1
        # A launcher that cannot import its entry point also exits 1.
        assert (
            "fillperm search: error: the following arguments are required: --punctures, --n"
            in proc.stderr.splitlines()
        )


FROZEN_ARGV = [
    ("verify", "--sigma", GENUS2_BASE, "--genus", "2", "--punctures", "3"),
    ("verify", "--sigma", GENUS2_BASE, "--genus", "1", "--punctures", "0"),
    ("verify", "--sigma", "(1,3)(2,4)", "--genus", "1", "--punctures", "0"),
    ("verify", "--sigma", "(1,2)(3,4)", "--genus", "1", "--punctures", "0", "--n", "2"),
    ("glue", "--sigma", GENUS2_BASE, "--punctures", "3"),
    ("glue", "--sigma", "(1,2,3,4)", "--punctures", "0"),
    ("glue", "--sigma", "(1,2)(3,4)", "--punctures", "0"),
    ("extend", "--sigma", GENUS2_BASE, "--genus", "2", "--punctures", "3", "--target-p", "9"),
    ("extend", "--sigma", "(1,2,3,4)", "--genus", "1", "--punctures", "0", "--target-p", "4"),
    ("search", "--genus", "1", "--punctures", "2", "--n", "3"),
    ("search", "--genus", "1", "--punctures", "2", "--n", "3", "--dedup"),
    ("search", "--genus", "0", "--punctures", "4", "--n", "2", "--naive"),
    ("search", "--genus", "2", "--punctures", "3", "--n", "5", "--dedup"),
    ("search", "--genus", "1", "--punctures", "0", "--n", "4", "--limit", "7"),
    ("table", "--max-genus", "4", "--max-punctures", "6"),
    ("table", "--genus", "2", "--punctures", "2"),
    ("export-svg", "--sigma", GENUS2_BASE, "--punctures", "3", "--out", "OUT"),
]
# Recorded with the object-level checks, before they moved onto the integer kernel,
# and re-recorded when complete searches began walking one second-curve basepoint:
# only the three complete searches' nodes= fields changed.
FROZEN_SHA256 = "903373a7ada60b88c95255a6ab4ce882d3c27e842c9ffecb329b9dcadb51c20f"


def test_frozen_command_outputs(capsys, tmp_path):
    out_file = tmp_path / "out.svg"
    digest = hashlib.sha256()
    for argv in FROZEN_ARGV:
        code, out, err = run_cli(capsys, *(str(out_file) if a == "OUT" else a for a in argv))
        digest.update(f"{code}\n{out}\n{err}\n".replace(str(out_file), "OUT").encode())
    digest.update(out_file.read_bytes())
    assert digest.hexdigest() == FROZEN_SHA256


# Every error path of glue, export-svg, extend and table, and the table's plain
# and scanning modes: exit code, stdout and stderr, byte for byte.
ERROR_PATH_ARGV = [
    *(
        (command, "--sigma", sigma, "--punctures", punctures, *out)
        for command, out in (("glue", ()), ("export-svg", ("--out", "TMP/out.svg")))
        for sigma, punctures in (
            ("(1,2)(3,4)", "0"),  # parity-reversing, off the filling equation
            ("(1,3)(2,4)", "0"),  # not parity-reversing
            ("(1,2)(3,6)(4,5)(7,8)", "0"),  # a bigon left unpunctured
            ("(1,2,3,4)", "2"),  # more punctures than faces
        )
    ),
    ("export-svg", "--sigma", GENUS2_BASE, "--punctures", "3", "--out", "TMP/missing/out.svg"),
    ("extend", "--sigma", GENUS2_BASE, "--genus", "2", "--punctures", "3", "--target-p", "1"),
    ("extend", "--sigma", GENUS2_BASE, "--genus", "2", "--punctures", "3", "--target-p", "4"),
    ("extend", "--sigma", "(1,2,3,4)", "--genus", "0", "--punctures", "0", "--target-p", "2"),
    ("table", "--max-genus", "2"),
    ("table", "--max-punctures", "2"),
    ("table",),
    ("table", "--genus", "0", "--punctures", "3"),
    ("table", "--genus", "2", "--punctures", "3"),
    ("table", "--max-genus", "3", "--max-punctures", "5"),
    ("table", "--max-genus", "3", "--max-punctures", "0", "--cap-n", "2"),
    ("table", "--genus", "0", "--punctures", "4", "--cap-n", "4"),
    ("table", "--genus", "1", "--punctures", "0", "--max-seconds", "0"),
    ("table", "--max-genus", "2", "--max-punctures", "4", "--cap-n", "6", "--max-seconds", "0"),
]
# Recorded before the semantic failures moved into one handler in ``main``, and
# re-recorded each time the walk shrank a cell's walk under the 256-node clock
# interval at ``--max-seconds 0``: S_2,3 with the quotient by the mirror and the
# index reversal, then S_0,0 to S_0,3 with the alternating even-n sphere walk.
ERROR_PATH_SHA256 = "30e03d08612c211844bbbd19b87cc5d7716cf5b2765abacefcaa33e3588884b0"


def test_frozen_error_paths(capsys, tmp_path):
    digest = hashlib.sha256()
    for argv in ERROR_PATH_ARGV:
        code, out, err = run_cli(capsys, *(a.replace("TMP", str(tmp_path)) for a in argv))
        digest.update(f"{code}\n{out}\n{err}\n".replace(str(tmp_path), "TMP").encode())
    assert not (tmp_path / "out.svg").exists()
    assert digest.hexdigest() == ERROR_PATH_SHA256


# Recorded with the n*n first-image scan, uncached shift maps and printing
# through CycleDecomposition: canonicalisation and cycle notation over all
# 23616 solutions of S_2,4 at n = 6.  Re-recorded when the search began walking
# one second-curve basepoint: only the summary's nodes= field changed.
SEARCH_SHA256 = {
    (): "49772c0ae8b2829ac92ecd4afcdeaa5a6f490c8fe9c862bf01061ddd8f53e0fd",
    ("--dedup",): "552a4e86608952d56c11905c8ef4182a0b674903f7cb713d3d7d08b8833728f3",
}


@pytest.mark.parametrize("extra", sorted(SEARCH_SHA256), ids=["raw", "dedup"])
def test_frozen_genus2_four_puncture_search(capsys, monkeypatch, extra):
    import fillperm.cli

    calls = 0
    real = fillperm.cli.canonical_form

    def counted(sigma):
        nonlocal calls
        calls += 1
        return real(sigma)

    monkeypatch.setattr(fillperm.cli, "canonical_form", counted)
    code, out, err = run_cli(capsys, "search", "--genus", "2", "--punctures", "4", "--n", "6", *extra)
    assert (code, err) == (0, "")
    # --dedup canonicalises each solution through the public canonical_form; a complete raw search needs none.
    assert calls == (23616 if extra else 0)
    assert out.splitlines()[-1] == "count=23616 dedup=664 nodes=12630"
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_SHA256[extra]
