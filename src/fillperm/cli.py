"""Command line front end: verify, glue, search, extend, table, export-svg.

Exit codes: 0 success; 1 parse or usage error (a ``ValueError`` or an
``OSError``); 2 semantic validation failure (a failing check or scan, or
a ``CertificateError``, which ``main`` catches before ``ValueError``); 3
resource-cap exhaustion (a ``SearchLimitError``).  All output is
deterministic.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable

from .moves import extend_to
from .permutations import MAX_DEGREE, Permutation
from .search import SearchLimitError, SearchQuery, canonical_form, enumerate_solutions, naive_enumerate, shift_classes
from .svg import render_svg
from .tables import CrossValidationError, cross_validate, min_intersection
from .verify import CertificateError, FillingInstance, glue, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RESOURCES = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to status 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_sigma_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", help='cycle notation, e.g. "(1,2,3,4)"')
    group.add_argument("--sigma-file", help="read cycle notation from a file, '-' for stdin")
    sub.add_argument("--n", type=int, default=None, help="crossing count override (degree = 4n)")


def _load_sigma(args: argparse.Namespace) -> Permutation:
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.punctures < 0:  # every command that reads a permutation takes --punctures
        raise ValueError(f"--punctures must be non-negative, got {args.punctures}")
    if args.sigma is not None:
        text = args.sigma
    elif args.sigma_file == "-":
        text = sys.stdin.read()
    else:
        with open(args.sigma_file, encoding="utf-8") as fh:
            text = fh.read()
    return Permutation.parse(text, degree=None if args.n is None else 4 * args.n)


def _cmd_verify(args: argparse.Namespace) -> int:
    sigma = _load_sigma(args)
    report = validate(FillingInstance(sigma, args.genus, args.punctures))
    for line in report.lines():
        print(line)
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_glue(args: argparse.Namespace) -> int:
    surface = glue(_load_sigma(args), args.punctures)
    for line in surface.lines():
        print(line)
    print(f"vertices={surface.vertex_count}")
    print(f"edges={surface.edge_count}")
    print(f"faces={surface.face_count}")
    print(f"euler={surface.euler_characteristic}")
    print(f"genus={surface.genus}")
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    query = SearchQuery(
        args.genus, args.punctures, args.n, limit=args.limit, max_nodes=args.max_nodes, max_seconds=args.max_seconds
    )
    result = (naive_enumerate if args.naive else enumerate_solutions)(query)
    solutions = result.solutions
    left = max(0.0, args.max_seconds - result.wall_time)  # what the search left of the time budget
    if args.dedup or args.limit is not None and result.raw_count >= args.limit:
        # --dedup prints one canonical form per class; a prefix that --limit cut short is not
        # closed under the basepoint shifts, so only its own classes count.
        deadline = time.perf_counter() + left
        forms = set()
        for perm in solutions:
            if time.perf_counter() > deadline:
                raise SearchLimitError(f"time budget {args.max_seconds}s exhausted")
            forms.add(canonical_form(perm))
        classes = len(forms)
        if args.dedup:
            solutions = sorted(forms, key=lambda perm: perm.images)
    else:
        # The whole cell: the necklace walk counts its classes and checks the raw count
        # before anything is printed.
        classes, raw, _ = shift_classes(args.genus, args.punctures, args.n, args.max_nodes, left)
        if raw != result.raw_count:
            raise RuntimeError(f"internal inconsistency: search found {result.raw_count} solutions, walk {raw}")
    for perm in solutions:
        print(perm)
    print(f"count={result.raw_count} dedup={classes} nodes={result.nodes_explored}")
    return EXIT_OK


def _cmd_extend(args: argparse.Namespace) -> int:
    sigma = _load_sigma(args)
    if args.target_p < 0:
        raise ValueError(f"--target-p must be non-negative, got {args.target_p}")
    degree = sigma.degree + 4 * (args.target_p - args.punctures)  # each surgery adds two punctures and eight symbols
    if degree > MAX_DEGREE:
        raise ValueError(f"--target-p {args.target_p} needs degree {degree}, above the cap of {MAX_DEGREE} symbols")
    extended = extend_to(FillingInstance(sigma, args.genus, args.punctures), args.target_p)
    print(extended.sigma)
    for line in validate(extended).lines():
        print(line)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if not args.max_seconds >= 0:  # also rejects NaN, in both modes, though only --cap-n spends it
        raise ValueError(f"--max-seconds must be non-negative, got {args.max_seconds}")
    grid = args.max_genus is not None or args.max_punctures is not None
    if grid:
        if args.max_genus is None or args.max_punctures is None:
            raise ValueError("grid mode needs both --max-genus and --max-punctures")
        if args.max_genus < 0 or args.max_punctures < 0:
            raise ValueError("--max-genus and --max-punctures must be non-negative")
        genera, punctures = range(args.max_genus + 1), range(args.max_punctures + 1)
    elif args.genus is None or args.punctures is None:
        raise ValueError("need --genus and --punctures, or both --max-* flags")
    else:
        genera, punctures = (args.genus,), (args.punctures,)
    if args.cap_n is not None:
        return _scan(((g, p) for g in genera for p in punctures), args.cap_n, args.max_seconds)
    # Each row is printed as it is computed, so memory does not grow with the grid.
    if grid:
        print("g\\p " + " ".join(map(str, punctures)))
    for g in genera:
        row = " ".join(str(min_intersection(g, p) or "none") for p in punctures)  # no minimum is 0
        print(f"{g} {row}" if grid else row)
    return EXIT_OK


def _scan(cells: Iterable[tuple[int, int]], cap_n: int, max_seconds: float) -> int:
    """Search every n up to min(closed form, ``cap_n``) on each cell: one line per cell, then a summary."""
    failures = exhausted = 0
    for g, p in cells:
        expected = min_intersection(g, p)
        n_max = cap_n if expected is None else min(expected, cap_n)
        try:
            cv = cross_validate(g, p, n_max, max_seconds=max_seconds)
        except CrossValidationError as exc:
            failures += 1
            print(f"S_{g},{p}: CONTRADICTION: {exc}")
            continue
        except SearchLimitError as exc:
            exhausted += 1
            print(f"S_{g},{p}: BUDGET: {exc}")
            continue
        if expected is None:
            verdict = "none expected, none found"
        elif expected <= n_max:
            verdict = f"minimum {expected} confirmed"
        else:
            verdict = f"empty below cap (closed form {expected})"
        print(f"S_{g},{p}: " + " ".join(f"n{n}:{c}" for n, c in cv.counts) + f"  [{verdict}]")
    if failures:
        print(f"{failures} contradiction(s) found")
        return EXIT_INVALID
    if exhausted:
        print(f"{exhausted} surface(s) ran out of budget")
        return EXIT_RESOURCES
    print("all surfaces agree with the closed form")
    return EXIT_OK


def _cmd_export_svg(args: argparse.Namespace) -> int:
    markup = render_svg(glue(_load_sigma(args), args.punctures))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(markup + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fillperm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all structural checks on a certificate")
    _add_sigma_arguments(p_verify)
    p_verify.add_argument("--genus", type=int, required=True)
    p_verify.add_argument("--punctures", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_glue = sub.add_parser("glue", help="print the polygon decomposition")
    _add_sigma_arguments(p_glue)
    p_glue.add_argument("--punctures", type=int, required=True)
    p_glue.set_defaults(func=_cmd_glue)

    p_search = sub.add_parser("search", help="enumerate filling permutations")
    p_search.add_argument("--genus", type=int, required=True)
    p_search.add_argument("--punctures", type=int, required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--dedup", action="store_true", help="quotient by label symmetries")
    p_search.add_argument("--naive", action="store_true", help="force the brute-force oracle")
    p_search.add_argument("--limit", type=int, default=None, help="stop after this many solutions")
    p_search.add_argument("--max-nodes", type=int, default=SearchQuery.max_nodes)
    p_search.add_argument("--max-seconds", type=float, default=SearchQuery.max_seconds)
    p_search.set_defaults(func=_cmd_search)

    p_extend = sub.add_parser("extend", help="apply double-bigon moves to raise punctures")
    _add_sigma_arguments(p_extend)
    p_extend.add_argument("--genus", type=int, required=True)
    p_extend.add_argument("--punctures", type=int, required=True)
    p_extend.add_argument("--target-p", type=int, required=True, dest="target_p")
    p_extend.set_defaults(func=_cmd_extend)

    p_table = sub.add_parser("table", help="minimal crossing numbers, optionally confirmed by exhaustive search")
    p_table.add_argument("--genus", type=int, default=None)
    p_table.add_argument("--punctures", type=int, default=None)
    p_table.add_argument("--max-genus", type=int, default=None)
    p_table.add_argument("--max-punctures", type=int, default=None)
    p_table.add_argument("--cap-n", type=int, default=None, help="confirm each value by exhaustion up to this n")
    p_table.add_argument("--max-seconds", type=float, default=120.0, help="per-search budget of --cap-n")
    p_table.set_defaults(func=_cmd_table)

    p_svg = sub.add_parser("export-svg", help="draw the polygon decomposition")
    _add_sigma_arguments(p_svg)
    p_svg.add_argument("--punctures", type=int, required=True)
    p_svg.add_argument("--out", required=True)
    p_svg.set_defaults(func=_cmd_export_svg)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
