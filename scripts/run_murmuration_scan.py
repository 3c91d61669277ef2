#!/usr/bin/env python3
"""Reproduce the murmuration plots: averaged normalized Hecke traces against
x = ell/X for a few level families, raw and smoothed, with sqrt(x) fits.

Each job is one `altrace murmur --family F --k K --X X --ell-max L
--smooth 0.75 --out STEM [--fit]` command, run in this process.  Writes one
CSV and one SVG per job into --output-dir and prints a summary line per
series.  --quick shrinks the windows for a fast smoke run.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# run from a checkout without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from altrace import cli  # noqa: E402

# (family, k, X, ell_max, fit)
DEFAULT_JOBS = (
    ("I:M=1", 2, 500, 115, True),
    ("I:M=1", 4, 500, 115, True),
    # X = 500 M gives M = 5 the Q-window of M = 1; x < 1/(4M) - 0.02 is ell < 75
    ("I:M=5", 2, 2500, 75, True),
    ("II:Q=1,M=all", 2, 250, 60, False),
    ("III:r=2,idx=1,2", 2, 250, 60, False),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output-dir", default="scan_out")
    ap.add_argument("--quick", action="store_true", help="X=60 smoke run")
    args = ap.parse_args()

    parser = cli.build_parser()
    for family, k, X, ell_max, fit in DEFAULT_JOBS:
        if args.quick:
            X, ell_max = 60, 31
        stem = "%s_k%d_X%d" % (family.replace(":", "_").replace("=", "").replace(",", "-"), k, X)
        argv = ["--output-dir", args.output_dir, "murmur", "--family", family, "--k", str(k), "--X", str(X),
                "--ell-max", str(ell_max), "--smooth", "0.75", "--out", stem] + ["--fit"] * fit
        job = parser.parse_args(argv)
        t0 = time.perf_counter()
        payload, _ = job.fn(job)
        line = "%-22s k=%d X=%-4d %3d pts %5.1fs" % (family, k, X, payload["points"]["raw"], time.perf_counter() - t0)
        if fit:
            line += "  c=%+.3f d=%+.3f rms/range=%.3f" % tuple(payload["fit"][key] for key in ("c", "d", "rms_residual"))
        print(line)
        print("  -> %s / .svg" % payload["csv"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
