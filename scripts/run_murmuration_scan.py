#!/usr/bin/env python3
"""Reproduce the murmuration plots: averaged normalized Hecke traces against
x = ell/X for a few level families, raw and smoothed, with sqrt(x) fits.

Writes one CSV and one SVG per job into --output-dir and prints a fit summary
line per series.  --quick shrinks the windows for a fast smoke run.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

# run from a checkout without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from altrace import classnum, murmur  # noqa: E402


@dataclass(frozen=True)
class ScanJob:
    family: str
    k: int
    X: int
    ell_max: int
    smooth: float | None = 0.75
    fit: bool = True
    beta: Fraction = Fraction(2)

    @property
    def stem(self) -> str:
        fam = self.family.replace(":", "_").replace("=", "").replace(",", "-")
        return "%s_k%d_X%d" % (fam, self.k, self.X)


DEFAULT_JOBS = (
    ScanJob("I:M=1", k=2, X=500, ell_max=115),
    ScanJob("I:M=1", k=4, X=500, ell_max=115),
    # X = 500 M gives M = 5 the Q-window of M = 1; x < 1/(4M) - 0.02 is ell < 75
    ScanJob("I:M=5", k=2, X=2500, ell_max=75),
    ScanJob("II:Q=1,M=all", k=2, X=250, ell_max=60, fit=False),
    ScanJob("III:r=2,idx=1,2", k=2, X=250, ell_max=60, fit=False),
)


def run_job(job: ScanJob, out_dir: str) -> None:
    spec = murmur.parse_family(job.family, k=job.k, beta=job.beta)
    t0 = time.perf_counter()
    pts = murmur.scan_WQ(spec, (2, job.ell_max), job.X)
    series = {"raw": pts}
    if job.smooth is not None:
        series["smoothed"] = murmur.smooth(pts, job.smooth)
    stem = os.path.join(out_dir, job.stem)
    murmur.emit(series, stem, spec)
    line = "%-22s k=%d X=%-4d %3d pts %5.1fs" % (
        job.family, job.k, job.X, len(pts), time.perf_counter() - t0,
    )
    if job.fit and len(pts) >= murmur.MIN_FIT_POINTS:
        fit = murmur.sqrt_fit(pts, job.k)
        line += "  c=%+.3f d=%+.3f rms/range=%.3f" % (fit.c, fit.d, fit.rms_residual)
    print(line)
    print("  -> %s.csv / .svg" % stem)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output-dir", default="scan_out")
    ap.add_argument("--quick", action="store_true", help="X=60 smoke run")
    ap.add_argument("--family", default=None, help="run a single family instead")
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--X", type=int, default=500)
    ap.add_argument("--ell-max", type=int, default=115)
    args = ap.parse_args()

    if args.family is not None:
        jobs = [ScanJob(args.family, k=args.k, X=args.X, ell_max=args.ell_max)]
    else:
        jobs = list(DEFAULT_JOBS)
    if args.quick:
        jobs = [replace(j, X=60, ell_max=31) for j in jobs]

    bound = max(4 * j.ell_max * int(j.beta * j.X) for j in jobs)
    print("priming class-number table to %d ..." % bound)
    classnum.get_table(bound)
    os.makedirs(args.output_dir, exist_ok=True)
    for job in jobs:
        run_job(job, args.output_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
