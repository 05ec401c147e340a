#!/usr/bin/env python3
"""Certify crossing-number upper bounds for genus 2 with odd punctures.

Starting from the known five-crossing pair on the thrice-punctured
genus-2 surface, double-bigon moves raise the puncture count two at a
time.  Every intermediate certificate is re-validated, and the achieved
n meets the feasibility floor 2g + p - 2, so each line certifies the
exact minimal crossing number for that surface.  Exits 1 when any line
is not certified.
"""

import argparse
import time

from fillperm import FillingInstance, Permutation, double_bigon, validate
from fillperm.certificates import GENUS2_BASE


def report_line(instance: FillingInstance, millis: float | None) -> tuple[bool, str]:
    """Whether the instance certifies its surface's minimum, and the line saying so."""
    floor = 2 * instance.genus + instance.punctures - 2
    ok = validate(instance).valid and instance.n == floor
    cells = [
        f"S_{instance.genus},{instance.punctures}".ljust(10),
        f"n={instance.n}".ljust(6),
        f"floor={floor}".ljust(9),
        "certified" if ok else "MISMATCH",
    ]
    if millis is not None:
        cells.append(f"{millis:.2f} ms")
    return ok, "  ".join(cells)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-punctures", type=int, default=13, help="odd target (default 13)")
    ap.add_argument("--print-sigma", action="store_true", help="also print each permutation")
    args = ap.parse_args()
    if args.max_punctures % 2 == 0 or args.max_punctures < 3:
        ap.error("--max-punctures must be odd and at least 3")

    current = FillingInstance(Permutation.parse(GENUS2_BASE), genus=2, punctures=3)
    millis = None
    all_ok = True
    while True:
        ok, line = report_line(current, millis)
        all_ok &= ok
        print(line)
        if args.print_sigma:
            print(f"  sigma = {current.sigma}")
        if current.punctures >= args.max_punctures:
            return 0 if all_ok else 1
        t0 = time.perf_counter()
        current = double_bigon(current, 1)
        millis = (time.perf_counter() - t0) * 1000


if __name__ == "__main__":
    raise SystemExit(main())
