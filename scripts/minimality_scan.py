#!/usr/bin/env python3
"""Exhaustively confirm the closed-form minimal crossing numbers.

For each surface in a (genus, punctures) rectangle, search every
crossing count up to the closed-form value and check that the first
nonempty n matches it.  Surfaces whose minimum exceeds --cap-n are only
probed below the cap, which still confirms emptiness there.  A surface
whose search runs out of --max-seconds is reported as BUDGET and the
scan goes on; the exit status is then 3, as for the CLI's resource cap
(1 if any surface contradicts the closed form, 2 for a negative size,
a --cap-n below 1 or a negative or NaN --max-seconds).

Each count comes from fillperm.search.shift_classes, which walks one
crossing sequence per basepoint-shift class.  The default rectangle takes
about 0.2 s on a 2-vCPU Intel Xeon virtual machine with CPython 3.11.7,
and --max-genus 3 adds the genus-3 sweeps in a few hundredths more;
--max-genus 3 --max-punctures 6 --cap-n 7 takes about 1.0 s there and
--cap-n 8 (28 surfaces, S_3,4 at n = 8 the largest) 7.3-8.1 s.
"""

import argparse
import time

from fillperm import (
    CrossValidationError,
    NoFillingPairError,
    SearchLimitError,
    cross_validate,
    min_intersection,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-genus", type=int, default=2)
    ap.add_argument("--max-punctures", type=int, default=4)
    ap.add_argument("--cap-n", type=int, default=6, help="never search past this n")
    ap.add_argument("--max-seconds", type=float, default=120.0, help="per-search budget")
    args = ap.parse_args()
    for flag, value in (("--max-genus", args.max_genus), ("--max-punctures", args.max_punctures)):
        if value < 0:
            ap.error(f"{flag} must be non-negative")
    if args.cap_n < 1:
        ap.error("--cap-n must be at least 1")
    if not args.max_seconds >= 0:  # also rejects NaN, which never runs out
        ap.error("--max-seconds must be non-negative")

    failures = exhausted = 0
    for genus in range(args.max_genus + 1):
        for punctures in range(args.max_punctures + 1):
            try:
                expected = min_intersection(genus, punctures)
            except NoFillingPairError:
                expected = None
            n_max = args.cap_n if expected is None else min(expected, args.cap_n)
            t0 = time.perf_counter()
            try:
                cv = cross_validate(
                    genus, punctures, n_max=n_max, max_seconds=args.max_seconds
                )
            except CrossValidationError as exc:
                failures += 1
                print(f"S_{genus},{punctures}: CONTRADICTION: {exc}")
                continue
            except SearchLimitError as exc:
                exhausted += 1
                print(f"S_{genus},{punctures}: BUDGET: {exc}")
                continue
            dt = time.perf_counter() - t0
            counts = " ".join(f"n{n}:{c}" for n, c in cv.counts)
            if expected is None:
                verdict = "none expected, none found"
            elif expected <= n_max:
                verdict = f"minimum {expected} confirmed"
            else:
                verdict = f"empty below cap (closed form {expected})"
            print(f"S_{genus},{punctures}: {counts}  [{verdict}, {dt:.2f}s]")
    if failures:
        print(f"{failures} contradiction(s) found")
        return 1
    if exhausted:
        print(f"{exhausted} surface(s) ran out of budget")
        return 3
    print("all surfaces agree with the closed form")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
