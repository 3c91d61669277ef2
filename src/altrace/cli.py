"""Command-line front end.

Every subcommand builds one payload dict; text mode and --json render the
same dict, so the two outputs can never disagree on a value.  Fractions
are serialized as "a/b" strings.

Each ``cmd_*`` imports the modules it reads at its own top, and this module
imports none of them: a single query runs in a fresh process, so it pays
only for ``arith``, ``classnum`` and the module its command reads.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator) if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _render(payload: dict, as_json: bool) -> str:
    payload = _jsonable(payload)
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []

    def walk(prefix, val):
        if isinstance(val, dict):
            for key in val:
                walk(prefix + "." + key if prefix else key, val[key])
        else:
            lines.append("%s = %s" % (prefix, val))

    walk("", payload)
    return "\n".join(lines)


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="emit the payload as JSON")


def cmd_classnum(args) -> tuple[dict, int]:
    from . import classnum

    disc = args.disc
    h12 = classnum.hurwitz12(disc)
    oracle = classnum.hurwitz12_oracle(disc)
    payload = {
        "disc": disc,
        "hprime": classnum.hprime(disc),
        "hurwitz": classnum.hurwitz(disc),
        "oracle": Fraction(oracle, 12),
        "agree": h12 == oracle,
    }
    return payload, 0 if h12 == oracle else 1


def cmd_trace(args) -> tuple[dict, int]:
    from . import trace
    from .arith import divisors

    k, q, r, m, ell = args.k, args.q, args.r, args.M, args.ell
    payload = {
        "k": k,
        "q": q,
        "r": r,
        "M": m,
        "ell": ell,
        "t_full": trace.t_full(k, q, r, m, ell),
        "t_new": trace.t_new(k, q, r, m, ell),
    }
    if r == 1:
        sqf = trace.t_new_squarefree(k, q, m, ell)
        payload["t_new_squarefree"] = sqf
        mismatch = sqf != payload["t_new"]
    else:
        # S_k(q^r M) is the sum of the newspaces at the levels q^j d, d | M,
        # each sigma_0(M / d) times; W_{q^r} has trace 0 on the old copies
        # from q^j unless j = r mod 2 (j = 0 is the plain trace at level d)
        old = sum(
            len(divisors(m // d)) * trace.t_new(k, q, j, d, ell)
            for j in range(r % 2, r + 1, 2)
            for d in divisors(m)
        )
        payload["t_full_from_newspaces"] = old
        mismatch = old != payload["t_full"]
    if r == 1 and m == 1 and 4 * ell < q:
        fricke = trace.t_full_fricke(k, q, ell)
        payload["t_full_fricke"] = fricke
        mismatch = mismatch or fricke != payload["t_new_squarefree"]
    payload["cross_path_mismatch"] = mismatch
    return payload, 1 if mismatch else 0


def cmd_delta(args) -> tuple[dict, int]:
    from . import signs

    k, q, r, m = args.k, args.q, args.r, args.M
    res = signs.equidistribution_predicate(k, q, r, m)
    dims = signs.eigenspace_dims(k, q, r, m)
    payload = {
        "k": k,
        "q": q,
        "r": r,
        "M": m,
        "delta": res.value,
        "dim_new": dims.plus + dims.minus,
        "dim_plus": dims.plus,
        "dim_minus": dims.minus,
        "covered": res.covered,
        "case_tag": res.case_tag,
        "zero_reason": res.zero_reason,
        "predicted_sign": res.predicted_sign,
    }
    return payload, 0


def cmd_equidist_sweep(args) -> tuple[dict, int]:
    from . import selftest

    k_lo, k_hi = args.k_range
    res = selftest.sweep((k_lo, k_hi), args.qr_max, args.M_max)
    payload = {
        "grid": {"k_range": [k_lo, k_hi], "qr_max": args.qr_max, "M_max": args.M_max},
        "checked": res.checked,
        "covered": res.covered,
        "case_tags": dict(res.case_tags.most_common()),
        "verdicts": dict(res.verdicts.most_common()),
        "mismatches": res.mismatches[:20],
        "mismatch_count": len(res.mismatches),
    }
    return payload, 1 if res.mismatches else 0


def cmd_murmur(args) -> tuple[dict, int]:
    from . import murmur

    spec = murmur.parse_family(args.family, k=args.k, beta=Fraction(args.beta))
    ell_range = (2, args.ell_max)
    series: dict[str, list[murmur.MurmurationPoint]] = {}
    if args.eigenspace is not None:
        # any other character maps to 0, which scan_eigenspace rejects
        eps = tuple({"+": 1, "-": -1}.get(ch, 0) for ch in args.eigenspace)
        pts = murmur.scan_eigenspace(spec, eps, ell_range, args.X)
        series["eps=" + args.eigenspace] = pts
    else:
        pts = murmur.scan_WQ(spec, ell_range, args.X)
        series["raw"] = pts
    if args.smooth is not None:
        series["smoothed"] = murmur.smooth(pts, args.smooth)
    payload = {
        "family": spec.canonical(),
        "k": spec.k,
        "beta": spec.beta,
        "X": args.X,
        "points": {label: len(p) for label, p in series.items()},
    }
    os.makedirs(args.output_dir, exist_ok=True)
    stem = os.path.join(args.output_dir, args.out or "scan")
    murmur.emit(series, stem, spec)  # before the fit, so a failed fit keeps the files
    if args.fit:
        fit = murmur.sqrt_fit(pts, spec.k)
        payload["fit"] = {"c": fit.c, "d": fit.d, "rms_residual": fit.rms_residual}
    payload["csv"] = stem + ".csv"
    payload["svg"] = stem + ".svg"
    return payload, 0


def cmd_twist(args) -> tuple[dict, int]:
    from . import signs, twist
    from .arith import check_level

    k, q, r, m = args.k, args.q, args.r, args.M
    check_level(k, q, r, m)  # quadtwist_characters runs only at odd r
    types = twist.classify_local_types(q, r)
    payload = {
        "k": k,
        "q": q,
        "r": r,
        "M": m,
        "local_types": list(types),
        "kappa_at_q": twist.kappas_at_q(q, r) if q != 2 else {},
        "chi_q_flips_every_type": twist.chi_q_flips_every_type(q, r) if q != 2 else None,
    }
    if r % 2:
        chars = twist.quadtwist_characters(k, q, r, m)
        payload["pairing_characters"] = [c.label for c in chars]
        payload["quadtwist_bijection"] = chars[0].label if chars else None
        if chars:
            payload["delta"] = signs.delta(k, q, r, m)
    return payload, 0


def cmd_selftest(args) -> tuple[dict, int]:
    from dataclasses import asdict

    from . import selftest

    results = selftest.run_all()
    print(selftest.format_results(results), file=sys.stderr)
    payload = {
        "results": [asdict(r) for r in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }
    return payload, 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altrace",
        description="Exact traces of Hecke and Atkin-Lehner operators on newform spaces.",
        epilog="Family grammar: I:M=<m>[,omega=<r>] | II:Q=<q>,M=all|sqf|sqf<r> | "
        "III:r=<r>,fixed=<p1,p2,...>,idx=<i1,...>",
    )
    parser.add_argument("--output-dir", default=".")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classnum", help="Hurwitz class number with oracle cross-check")
    p.add_argument("disc", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_classnum)

    p = sub.add_parser("trace", help="trace of T_ell W_q on full and new spaces")
    for flag, typ in (("--k", int), ("--q", int), ("--r", int), ("--M", int), ("--ell", int)):
        p.add_argument(flag, type=typ, required=flag != "--r" and flag != "--M" and flag != "--ell")
    p.set_defaults(r=1, M=1, ell=1)
    _add_common(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("delta", help="eigenspace dimension difference and predicate verdict")
    for flag in ("--k", "--q", "--r", "--M"):
        p.add_argument(flag, type=int, required=flag in ("--k", "--q"))
    p.set_defaults(r=1, M=1)
    _add_common(p)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("equidist-sweep", help="two-path and predicate verification grid")
    p.add_argument("--k-range", type=int, nargs=2, default=(2, 14), metavar=("LO", "HI"))
    p.add_argument("--qr-max", type=int, default=50)
    p.add_argument("--M-max", type=int, default=60)
    _add_common(p)
    p.set_defaults(fn=cmd_equidist_sweep)

    p = sub.add_parser("murmur", help="murmuration scan; writes CSV and SVG")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--beta", default="2")
    p.add_argument("--ell-max", type=int, required=True)
    p.add_argument("--smooth", type=float, default=None, help="delta-smoothing exponent in (0,1)")
    p.add_argument("--eigenspace", default=None, help="sign string like '+-' for kind III eigenspace scans")
    p.add_argument("--fit", action="store_true", help="least-squares sqrt(x) fit")
    p.add_argument("--out", default=None, help="output file stem")
    _add_common(p)
    p.set_defaults(fn=cmd_murmur)

    p = sub.add_parser("twist", help="local types at q and quadratic-twist pairing verdict")
    for flag in ("--k", "--q", "--r", "--M"):
        p.add_argument(flag, type=int, required=flag == "--q")
    p.set_defaults(k=2, r=1, M=1)
    _add_common(p)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.fn(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        # bad input: a domain error, an unwritable output path, a zero denominator in --beta
        parser.error(str(exc))
        return 2
    print(_render(payload, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
