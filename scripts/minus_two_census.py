#!/usr/bin/env python3
"""Census of the (-2)-class decision across the strong-regime window.

No closed criterion is known for when 3m^2 + dmn + (g-1)n^2 avoids -1.  An
odd prime p = 2 (mod 3) dividing Delta = d^2 - 12(g-1) is sufficient (a genus
character: 12*Q = (6m + dn)^2 - Delta*n^2, and -3 is not a square mod
such p), but not necessary.  So this script measures the question
empirically: for every strong-regime pair with s in [s_min, s_max] and
g <= g_max it runs the complete decision and tallies obstruction moduli,
witnesses, and proved-empty outcomes.

Usage: python3 scripts/minus_two_census.py [--g-max 300] [--s-max 6]
"""

import argparse
from collections import Counter

from k3cert import K3Config, minus_two_status
from k3cert.bqf import DecisionStatus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--g-max", type=int, default=300)
    ap.add_argument("--s-min", type=int, default=-1)
    ap.add_argument("--s-max", type=int, default=6)
    args = ap.parse_args()

    tally: Counter[str] = Counter()
    witness_samples = []
    for s in range(args.s_min, args.s_max + 1):
        for g in range(max(4 * s + 14, 12), args.g_max + 1):
            dec = minus_two_status(K3Config(g, s))
            if dec.status is DecisionStatus.OBSTRUCTED_MOD:
                tally[f"obstructed mod {dec.modulus}"] += 1
            elif dec.status is DecisionStatus.WITNESS:
                tally["witness"] += 1
                if len(witness_samples) < 8:
                    witness_samples.append((g, s, dec.witness))
            else:
                tally["none proved"] += 1

    total = sum(tally.values())
    print(f"{total} strong-regime cells, s in [{args.s_min}, {args.s_max}], g <= {args.g_max}")
    for key, count in tally.most_common():
        print(f"  {key:>32s}: {count:6d}  ({100.0 * count / total:5.1f}%)")
    if witness_samples:
        print("sample witnesses (g, s, (m, n)):")
        for g, s, w in witness_samples:
            print(f"  ({g}, {s}): {w}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
