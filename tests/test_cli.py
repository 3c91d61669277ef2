"""End-to-end command-line checks, in-process via cli.main, plus a
subprocess run of the murmuration scan script."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from altrace import classnum, cli, murmur, signs, trace, twist


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def as_text_dict(out: str) -> dict[str, str]:
    pairs = [line.split(" = ", 1) for line in out.strip().splitlines()]
    return {k: v for k, v in pairs}


# ---------------------------------------------------------------------------
# single-query subcommands


def test_classnum_reports_oracle_agreement(capsys):
    code, payload = run_json(capsys, "classnum", "-23")
    assert code == 0
    assert payload["agree"] is True
    assert payload["hurwitz"] == "3"
    assert payload["oracle"] == "3"
    assert payload["hprime"] == "3"


def test_classnum_fractional_rendering(capsys):
    code, payload = run_json(capsys, "classnum", "-4")
    assert code == 0
    assert payload["hurwitz"] == "1/2"
    assert payload["hprime"] == "1/2"


def test_classnum_rejects_bad_discriminant(capsys):
    for bad in ("5", "-5"):
        with pytest.raises(SystemExit):
            cli.main(["classnum", bad])


def test_trace_cross_checks_every_path(capsys):
    code, payload = run_json(capsys, "trace", "--k", "2", "--q", "11", "--ell", "2")
    assert code == 0
    assert payload["t_new"] == trace.t_new(2, 11, 1, 1, 2) == 2
    assert payload["t_new_squarefree"] == 2
    assert payload["t_full_fricke"] == 2  # 4 ell < N, so the Fricke path runs
    assert payload["cross_path_mismatch"] is False


def test_trace_squarefree_Q_option(capsys):
    code, payload = run_json(
        capsys, "trace", "--k", "4", "--q", "3", "--ell", "2", "--squarefree-Q", "15"
    )
    assert code == 0
    assert payload["t_new_squarefree_Q"] == trace.t_new_squarefree(4, 15, 1, 2)


def test_delta_payload_matches_library(capsys):
    code, payload = run_json(capsys, "delta", "--k", "2", "--q", "5")
    assert code == 0
    res = signs.equidistribution_predicate(2, 5, 1, 1)
    dims = signs.eigenspace_dims(2, 5, 1, 1)
    assert payload["delta"] == res.value == 0
    assert payload["case_tag"] == res.case_tag
    assert payload["zero_reason"] == res.zero_reason
    assert payload["covered"] is res.covered
    assert payload["dim_plus"] == dims.plus
    assert payload["dim_minus"] == dims.minus
    assert payload["dim_new"] == signs.dim_new(2, 5) == 0


def test_twist_payload(capsys):
    code, payload = run_json(capsys, "twist", "--q", "5", "--k", "4", "--M", "27")
    assert code == 0
    assert payload["local_types"] == [twist.UTS]
    assert payload["pairing_characters"] == ["chi_3"]
    assert payload["quadtwist_bijection"] == "chi_3"
    assert payload["delta"] == 0  # twisting bijection forces a balanced space
    assert payload["chi_q_flips_every_type"] is False


def test_twist_even_exponent_kappas(capsys):
    code, payload = run_json(capsys, "twist", "--q", "7", "--r", "4")
    assert code == 0
    assert set(payload["local_types"]) == {twist.RPS, twist.USC}
    assert payload["kappa_at_q"][twist.RPS] == twist.kappa_at_q(7, 4, twist.RPS)
    assert "pairing_characters" not in payload


# ---------------------------------------------------------------------------
# rendering


def test_text_and_json_render_the_same_payload(capsys):
    code_t, text = run(capsys, "delta", "--k", "12", "--q", "7", "--M", "5")
    code_j, payload = run_json(capsys, "delta", "--k", "12", "--q", "7", "--M", "5")
    assert code_t == code_j == 0
    flat = as_text_dict(text)
    assert set(flat) == set(payload)
    for key, val in payload.items():
        assert flat[key] == str(val)


# ---------------------------------------------------------------------------
# sweeps and scans


def test_equidist_sweep_small_grid_is_clean(capsys):
    code, payload = run_json(
        capsys, "equidist-sweep", "--k-range", "2", "6", "--qr-max", "9", "--M-max", "6"
    )
    assert code == 0
    assert payload["mismatch_count"] == 0
    assert payload["mismatches"] == []
    assert payload["checked"] > 50
    assert 0 < payload["covered"] <= payload["checked"]
    assert sum(payload["case_tags"].values()) == payload["covered"]
    assert sum(payload["verdicts"].values()) == payload["covered"]


def test_murmur_writes_csv_and_svg(capsys, tmp_path):
    code, payload = run_json(
        capsys, "--output-dir", str(tmp_path),
        "murmur", "--family", "I:M=1", "--k", "4", "--X", "10", "--ell-max", "7",
        "--smooth", "0.5", "--fit", "--min-fit-points", "4", "--out", "tiny",
    )
    assert code == 0
    assert payload["family"] == "I:M=1"
    assert payload["points"] == {"raw": 4, "smoothed": 4}
    assert set(payload["fit"]) == {"c", "d", "rms_residual"}

    series = murmur.read_csv(payload["csv"])
    assert set(series) == {"I:M=1#raw", "I:M=1#smoothed"}
    assert [p.ell for p in series["I:M=1#raw"]] == [2, 3, 5, 7]
    svg = open(payload["svg"]).read()
    assert svg.lstrip().startswith("<svg")


def test_murmur_eigenspace_scan(capsys, tmp_path):
    code, payload = run_json(
        capsys, "--output-dir", str(tmp_path),
        "murmur", "--family", "III:r=2", "--k", "4", "--X", "30", "--ell-max", "7",
        "--eigenspace", "+-", "--out", "eig",
    )
    assert code == 0
    assert list(payload["points"]) == ["eps=+-"]
    assert payload["points"]["eps=+-"] >= 3


# ---------------------------------------------------------------------------
# failure modes


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--q", "5"])
    assert exc.value.code == 2


def test_domain_errors_become_usage_errors(capsys):
    # odd weight bubbles up as a ValueError and argparse turns it into exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--k", "3", "--q", "5"])
    assert exc.value.code == 2
    # empty murmuration window
    with pytest.raises(SystemExit) as exc:
        cli.main(["murmur", "--family", "I:M=6,omega=5", "--X", "10", "--ell-max", "7"])
    assert exc.value.code == 2


def test_bad_global_flag_is_a_usage_error(capsys):
    # factoring needs no sieve, so there is no --sieve-bound to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["--sieve-bound", "4000000", "classnum", "--", "-7"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--sieve-bound=4000000", "classnum", "--", "-7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sieve-bound=4000000" in capsys.readouterr().err


SINGLE_QUERIES = (
    ["classnum", "-23"],
    ["trace", "--k", "6", "--q", "7", "--M", "10", "--ell", "3"],
    ["delta", "--k", "4", "--q", "13", "--M", "5"],
    ["twist", "--q", "5", "--k", "4", "--M", "27"],
)
HEAVY_MODULES = ("numpy", "altrace.murmur", "altrace.selftest", "concurrent.futures")


def test_single_queries_import_no_numpy_scans_or_selftest():
    # each query runs in a fresh interpreter, so its imports are its start-up cost
    probe = (
        "import sys\n"
        "from altrace import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(sorted(m for m in %r if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n" % (HEAVY_MODULES,)
    )
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    for argv in SINGLE_QUERIES:
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--json"], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, (argv, done.stderr)
        json.loads(done.stdout)
        assert done.stderr.splitlines()[-1] == "[]", (argv, done.stderr)


def test_cache_builds_then_loads_the_class_number_table(capsys, monkeypatch, tmp_path):
    path = tmp_path / "h12.bin"
    monkeypatch.setattr(classnum, "_active_table", None)
    code, first = run_json(capsys, "--cache", str(path), "classnum", "-23")
    assert code == 0
    assert classnum._active_table.bound == 10**6
    assert classnum.HurwitzTable.load(str(path)).bound == 10**6

    monkeypatch.setattr(classnum, "_active_table", None)
    monkeypatch.setattr(classnum, "build_table", lambda bound: pytest.fail("rebuilt a cached table"))
    code, second = run_json(capsys, "--cache", str(path), "classnum", "-23")
    assert code == 0
    assert classnum._active_table.bound == 10**6
    assert second == first


def test_bad_family_string_aborts(capsys):
    with pytest.raises(SystemExit):
        cli.main(["murmur", "--family", "IV:M=1", "--X", "10", "--ell-max", "7"])


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "Family grammar" in capsys.readouterr().out


def test_scan_script_runs_from_a_checkout(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_murmuration_scan.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(script), "--help"], env=env, cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
