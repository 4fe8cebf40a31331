"""A fixed job that times the host, not nodalbn.

    python3 perfbench/calibrate.py

It does the kinds of work the nodalbn jobs do (interpreter start, Fraction
sums, many small frozen dataclasses, a sort through their ``__lt__`` and a
rendered table) with no input and no import from the repository, so only the
host's speed can change its time.  ``run.py`` runs it before and after
every timed job and reports each job's time in units of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class Row:
    degrees: tuple[int, ...]


def main() -> None:
    total = Fraction(0)
    for i in range(1, 5000):
        total += Fraction(i % 97, i % 13 + 1)
    rows = [Row(t[::-1]) for t in itertools.product(range(7), repeat=5)]
    rows.sort()
    table = "\n".join(",".join(map(str, row.degrees)) for row in rows)
    print(f"rows: {len(rows)}\nbytes: {len(table)}\ntotal: {total}")


if __name__ == "__main__":
    main()
