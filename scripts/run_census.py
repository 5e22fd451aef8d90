#!/usr/bin/env python3
"""Census sweep: enumerated class counts vs. the Burnside oracle.

The `orbits` column says whether the class sizes n!*m!/|Aut| of the
representatives add up to p^(n*m), the number of all n x m matrices.

Usage:
    python3 scripts/run_census.py                 # default desk-scale sweep
    python3 scripts/run_census.py 3 4 2 4 4 2     # explicit n m p triples
"""

import argparse
import sys
import time

from canonmat import census, orbit_size

DEFAULT_SHAPES = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (2, 4, 2),
                  (4, 2, 2), (3, 3, 2), (3, 4, 2), (4, 3, 2), (3, 3, 3),
                  (4, 4, 2)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shape", nargs="*", type=int,
                        help="flat list of n m p triples")
    args = parser.parse_args(argv)
    if len(args.shape) % 3:
        parser.error("shapes must be given as n m p triples")
    shapes = ([tuple(args.shape[i:i + 3]) for i in range(0, len(args.shape), 3)]
              or DEFAULT_SHAPES)

    print(f"{'shape':>10} {'classes':>8} {'burnside':>9} {'nodes':>9} {'secs':>7} {'orbits':>7}")
    status = 0
    for n, m, p in shapes:
        started = time.monotonic()
        result = census(n, m, p, stream=True)
        elapsed = time.monotonic() - started
        orbits = sum(orbit_size(r) for r in result.representatives) == p**(n * m)
        print(f"{n}x{m} p={p:>2} {result.count:>8} {result.burnside:>9} "
              f"{result.nodes:>9} {elapsed:>7.2f} {'agree' if orbits else 'DIFFER':>7}")
        status = status or int(not orbits)
    return status


if __name__ == "__main__":
    sys.exit(main())
