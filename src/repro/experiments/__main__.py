"""CLI: regenerate paper artifacts.

Usage::

    python -m repro.experiments table3 [--scale smoke|bench|paper]
    python -m repro.experiments fig2   [--scale ...]
    python -m repro.experiments fig3   [--scale ...]
    python -m repro.experiments all    [--scale ...]   # table3, fig2 and fig3
    python -m repro.experiments ablations [--scale ...]
"""

from __future__ import annotations

import argparse
import sys
import time

from .ablations import run_ablations
from .configs import SCALES, get_scale
from .fig2 import run_fig2
from .fig3 import run_fig3
from .table3 import run_table3


def _print_checks(checks: dict[str, bool]) -> bool:
    for name, ok in checks.items():
        print(f"  [{'x' if ok else ' '}] {name}")
    return all(checks.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments",
                                     description=__doc__)
    parser.add_argument("artifact", choices=["table3", "fig2", "fig3", "all", "ablations"])
    parser.add_argument("--scale", choices=sorted(SCALES), default=None,
                        help="workload size (default: $REPRO_SCALE or 'bench')")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    scale = get_scale(args.scale)
    started = time.time()
    ok = True

    if args.artifact in ("table3", "all"):
        result = run_table3(scale=scale, seed=args.seed)
        print(result.to_text())
        ok &= _print_checks(result.shape_checks())
    if args.artifact in ("fig2", "all"):
        result = run_fig2(scale=scale)
        print(result.to_text())
        ok &= _print_checks(result.shape_checks())
    if args.artifact in ("fig3", "all"):
        result = run_fig3(scale=scale, seed=args.seed)
        print(result.to_text())
        ok &= result.all_stages_present()
    if args.artifact == "ablations":
        result = run_ablations(scale=scale, seed=args.seed)
        print(result.to_text())
        ok &= _print_checks(result.shape_checks())

    print(f"\ndone in {time.time() - started:.0f}s "
          f"({'all shape checks passed' if ok else 'SHAPE CHECKS FAILED'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
