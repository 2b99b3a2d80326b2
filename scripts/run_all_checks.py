#!/usr/bin/env python3
"""Run the full verification battery and print a one-line-per-check table.

Usage: python scripts/run_all_checks.py [--out-dir DIR]
Exit code 0 when every check passes.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diskrig import cli

CONFIGS = [
    ("harnack catalog",
     "command = verify-harnack\nliouville-n = 97\nout = harnack.json\n"),
    ("golusin bound (square pullback)",
     "command = golusin\nlam = pullback(zpow 2)\nout = golusin.json\n"),
    ("rigidity scan z^2",
     "command = rigidity-scan\nlam = pullback(zpow 2)\n"
     "expect-verdict = BOUNDED_NONZERO\nexpect-limit = -0.5\n"
     "out = scan-zsquare.json\nprofile = scan-zsquare.dat\n"),
    ("rigidity scan automorphism",
     "command = rigidity-scan\nlam = pullback(auto 0.3+0.1j 0.0)\n"
     "expect-verdict = VANISHES\nout = scan-auto.json\n"),
    # Nehari-Schwarz case: mu = pullback(zpow 2) has a zero at 0.  An
    # automorphism after z^2 pulls back to mu itself; for z^k against z^m
    # the limit at exponent 2 is -(k^2 - m^2)/6 (README), -5/6 here
    ("rigidity scan T(z^2) against z^2",
     "command = rigidity-scan\nlam = pullback(compose auto 0.3+0.2j 1.0 zpow 2)\n"
     "mu = pullback(zpow 2)\nexpect-verdict = VANISHES\n"
     "out = scan-ns-auto.json\n"),
    ("rigidity scan z^3 against z^2",
     "command = rigidity-scan\nlam = pullback(zpow 3)\nmu = pullback(zpow 2)\n"
     "expect-verdict = BOUNDED_NONZERO\nexpect-limit = -0.8333333333\n"
     "out = scan-ns-cube.json\n"),
    ("cubic-order boundary rigidity",
     "command = burns-krantz\nmap = feps 0.0833333333333\nout = bk.json\n"),
    ("poisson-jensen decomposition",
     "command = pj-decompose\nlam = pullback(zpow 2)\nmu = poincare\n"
     "R = 0.9\nz = 0.4\nout = pj.json\n"),
    ("sequence dichotomy (moving zeros)",
     "command = sequence-scan\nfamily = moving-zero\n"
     "expect-verdict = FADING_ZEROS\nout = seq-moving.json\n"),
    ("sequential invariant-derivative (rotations)",
     "command = sequence-scan\nfamily = rotations\n"
     "expect-verdict = automorphism-like\nout = seq-rot.json\n"),
    ("zero-order tracking",
     "command = zero-track\nfamily = extremal-orders\nout = track.json\n"),
    ("curvature equation solve",
     "command = liouville-solve\nkappa = pinched-5\nn = 97\nout = lv.json\n"),
    ("ball: slice isometries",
     "command = ball-check\nwhat = slices\nN = 3\nout = ball-slices.json\n"),
    ("ball: automorphism rigidity signature",
     "command = ball-check\nwhat = automorphisms\nout = ball-auto.json\n"),
    ("ball: embedded power map",
     "command = ball-check\nwhat = power\nout = ball-power.json\n"),
    ("ball: distance band",
     "command = ball-check\nwhat = band\nout = ball-band.json\n"),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()
    out_dir = Path(args.out_dir)

    worst = 0
    print(f"{'check':48s} {'result':8s} time")
    for name, text in CONFIGS:
        t0 = time.perf_counter()
        code = cli.run(cli.parse_config(text), out_dir=out_dir)
        status = "pass" if code == 0 else f"FAIL({code})"
        print(f"{name:48s} {status:8s} {time.perf_counter() - t0:6.2f}s")
        worst = max(worst, code)
    print(f"\nreports in {out_dir}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
