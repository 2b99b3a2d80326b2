#!/usr/bin/env python3
"""Emit gnuplot-ready radial profiles of the boundary deficit.

For each configured self-map, writes two columns (1-|z|, scaled deficit)
where the scaled deficit is (f^h - 1)/(1-|z|)^2 along the positive
radius.  The square map's profile settles at -1/2; the cubic
perturbation family settles at -2 eps.

Usage: python scripts/boundary_profiles.py [--out-dir DIR]
Exit code: the worst exit code of the four runs (0 when all pass).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diskrig import cli

MAPS = [
    ("zsquare", "zpow 2"),
    ("feps-1over12", "feps 0.08333333333333333"),
    ("feps-1over20", "feps 0.05"),
    ("blaschke", "blaschke 2 0.3+0.2j -0.4j 0.0"),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="profiles")
    args = parser.parse_args()
    out_dir = Path(args.out_dir)

    worst = 0
    for name, map_expr in MAPS:
        text = (f"command = rigidity-scan\nlam = pullback({map_expr})\n"
                f"out = {name}.json\nprofile = {name}.dat\n")
        code = cli.run(cli.parse_config(text), out_dir=out_dir)
        worst = max(worst, code)
        if code == 2:
            print(f"{name:16s} refused")
            continue
        rows = (out_dir / f"{name}.dat").read_text().splitlines()
        tail = rows[min(len(rows) - 1, 10)].split()
        print(f"{name:16s} {len(rows):3d} rows; "
              f"deficit near the boundary: {float(tail[1]):+.5f}")
    print(f"\nprofiles in {out_dir}/ "
          f"(plot with: gnuplot> plot 'zsquare.dat' w lp)")
    return worst


if __name__ == "__main__":
    sys.exit(main())
