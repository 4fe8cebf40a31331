"""A library call that no CLI command reaches, run as a benchmark job.

    python3 perfbench/libjob.py verify_decomposition CURVE ROOT

reads a curve file, orders its components from ROOT and re-checks the
decomposition clause by clause, printing ``key: value`` lines like the CLI.
"""

from __future__ import annotations

import sys

from nodalbn.ordering import order_components, verify_decomposition
from nodalbn.parsing import parse_curve_with_sheaf


def main(argv: list[str]) -> int:
    name, path, root = argv
    if name != "verify_decomposition":
        raise SystemExit(f"unknown library job {name!r}")
    with open(path, encoding="utf-8") as fh:
        curve, _ = parse_curve_with_sheaf(fh.read())
    check = verify_decomposition(curve, order_components(curve, int(root)))
    print(f"ok: {'yes' if check.ok else 'no'}")
    print(f"violations: {len(check.violations)}")
    return 0 if check.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
