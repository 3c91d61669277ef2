"""End-to-end command-line checks, in-process via cli.main, plus a
subprocess run of the murmuration scan script."""

from __future__ import annotations

import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from altrace import cli, selftest, signs, trace, twist


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
    # a composite modulus at r = 1 runs the same three paths
    code, payload = run_json(capsys, "trace", "--k", "4", "--q", "30", "--ell", "7")
    assert code == 0
    assert payload["t_new"] == payload["t_new_squarefree"] == payload["t_full_fricke"] == 28
    assert payload["cross_path_mismatch"] is False


@pytest.mark.parametrize("m", [12, 27, 32])
def test_trace_cross_checks_the_local_factor_kernel_at_non_squarefree_M(capsys, monkeypatch, m):
    # every r = 1 query compares the kernel against the divisor sum
    for k, q, ell in ((2, 5, 7), (4, 7, 1), (6, 11, 25), (4, 35, 11)):
        code, payload = run_json(capsys, "trace", "--k", str(k), "--q", str(q), "--M", str(m), "--ell", str(ell))
        assert code == 0
        assert payload["t_new_squarefree"] == payload["t_new"] == trace.t_new(k, q, 1, m, ell)
        assert payload["cross_path_mismatch"] is False
    real = trace.t_new_squarefree
    monkeypatch.setattr(trace, "t_new_squarefree", lambda *args: real(*args) + 1)
    code, payload = run_json(capsys, "trace", "--k", "2", "--q", "5", "--M", str(m), "--ell", "7")
    assert code == 1 and payload["cross_path_mismatch"] is True


def test_trace_cross_checks_the_full_space_off_r_one(capsys, monkeypatch):
    # r = 0 and r >= 2 compare t_full with the newspaces it is made of
    code, payload = run_json(capsys, "trace", "--k", "4", "--q", "5", "--r", "2", "--M", "3", "--ell", "7")
    assert code == 0
    assert (payload["t_full"], payload["t_new"], payload["t_full_from_newspaces"]) == (-36, -48, -36)
    assert payload["cross_path_mismatch"] is False
    code, payload = run_json(capsys, "trace", "--k", "4", "--q", "3", "--r", "0", "--M", "20", "--ell", "7")
    assert code == 0 and payload["t_full_from_newspaces"] == payload["t_full"] == trace.t_full(4, 1, 0, 20, 7)
    real = trace.t_new
    monkeypatch.setattr(trace, "t_new", lambda k, q, r, m, ell: real(k, q, r, m, ell) + (r == 0))
    code, payload = run_json(capsys, "trace", "--k", "4", "--q", "5", "--r", "2", "--M", "3", "--ell", "7")
    assert code == 1 and payload["cross_path_mismatch"] is True


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


@pytest.mark.parametrize("r", [1, 2])
def test_twist_checks_weight_and_cofactor_at_every_exponent(capsys, r):
    for k, m, message in ((5, 1, "weight must be an even integer"), (4, 3, "coprime to q")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["twist", "--q", "3", "--r", str(r), "--k", str(k), "--M", str(m)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["twist", "--q", "5", "--r", "2", "--k", "3"], "weight must be an even integer >= 2"),
        (["delta", "--k", "2", "--q", "5", "--M", "0"], "level cofactor and Hecke index must be positive"),
        (["twist", "--q", "4"], "q must be squarefree and >= 2 at r = 1, got 4"),
    ],
)
def test_level_subcommands_exit_2_on_the_level_rule(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


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


def test_equidist_sweep_flags_a_zero_reason_without_a_zero_claim(capsys, monkeypatch):
    # a verdict that claims no sign must not name a reason for a zero
    real = signs.equidistribution_predicate
    target = (4, 5, 1, 2)
    assert real(*target).covered

    def predicate(k, q, r, m):
        res = real(k, q, r, m)
        if (k, q, r, m) == target:
            return res._replace(predicted_sign=None, zero_reason=signs.ZERO_SPLIT_PRIME)
        return res

    monkeypatch.setattr(signs, "equidistribution_predicate", predicate)
    code, payload = run_json(capsys, "equidist-sweep", "--k-range", "2", "6", "--qr-max", "9", "--M-max", "6")
    assert code == 1
    assert payload["mismatches"] == [["predicate-reason", *target]]
    assert payload["mismatch_count"] == 1


def test_murmur_writes_csv_and_svg(capsys, tmp_path):
    code, payload = run_json(
        capsys, "--output-dir", str(tmp_path),
        "murmur", "--family", "I:M=1", "--k", "4", "--X", "10", "--ell-max", "23",
        "--smooth", "0.5", "--fit", "--out", "tiny",
    )
    assert code == 0
    assert payload["family"] == "I:M=1"
    assert payload["points"] == {"raw": 9, "smoothed": 9}  # enough for the fit
    assert set(payload["fit"]) == {"c", "d", "rms_residual"}

    with open(payload["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["family"] for row in rows} == {"I:M=1#raw", "I:M=1#smoothed"}
    assert [int(row["ell"]) for row in rows if row["family"] == "I:M=1#raw"] == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    svg = open(payload["svg"]).read()
    assert svg.lstrip().startswith("<svg")


def test_murmur_fit_with_too_few_points_keeps_the_csv_and_svg(capsys, tmp_path):
    # the scan is written before the fit, so a failed fit loses no output
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--output-dir", str(out), "murmur", "--family", "I:M=1", "--X", "20", "--ell-max", "11", "--fit"])
    assert exc.value.code == 2
    assert "need at least 8 points, got 5" in capsys.readouterr().err
    assert (out / "scan.csv").is_file() and (out / "scan.svg").is_file()


def test_murmur_eigenspace_scan(capsys, tmp_path):
    code, payload = run_json(
        capsys, "--output-dir", str(tmp_path),
        "murmur", "--family", "III:r=2", "--k", "4", "--X", "30", "--ell-max", "7",
        "--eigenspace", "+-", "--out", "eig",
    )
    assert code == 0
    assert list(payload["points"]) == ["eps=+-"]
    assert payload["points"]["eps=+-"] >= 3


def test_murmur_empty_prime_range_is_a_usage_error(capsys, tmp_path):
    for extra in (["--family", "I:M=1", "--X", "100"], ["--family", "III:r=2", "--X", "30", "--eigenspace", "+-"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--output-dir", str(tmp_path), "murmur", *extra, "--ell-max", "1"])
        assert exc.value.code == 2
        assert "no primes in [2, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


MURMUR_III = ["murmur", "--family", "III:r=2", "--X", "30", "--ell-max", "7"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["classnum", "5"], "need a negative discriminant (0 or 1 mod 4), got 5", id="disc-positive"),
        pytest.param(["classnum", "--", "-5"], "need a negative discriminant (0 or 1 mod 4), got -5", id="disc-mod-4"),
        pytest.param(["equidist-sweep", "--k-range", "3", "5"], "k_range needs even bounds", id="odd-k-range"),
        pytest.param(["equidist-sweep", "--qr-max", "1"], "empty grid", id="sweep-no-modulus"),
        pytest.param(["equidist-sweep", "--M-max", "0"], "empty grid", id="sweep-no-cofactor"),
        pytest.param(["murmur", "--family", "I:M=0", "--X", "10", "--ell-max", "7"], "fixed M >= 1", id="family"),
        pytest.param(["murmur", "--family", "I:M=1", "--beta", "abc", "--X", "10", "--ell-max", "7"], "'abc'", id="beta"),
        pytest.param(
            ["murmur", "--family", "I:M=1", "--beta", "1/0", "--X", "10", "--ell-max", "7"],
            "Fraction(1, 0)",
            id="beta-zero-denominator",
        ),
        pytest.param(
            ["murmur", "--family", "I:M=1", "--X", "10", "--ell-max", "7", "--out", "nodir/x"],
            "No such file or directory",
            id="out-in-missing-dir",
        ),
        pytest.param([*MURMUR_III, "--eigenspace", "+x"], "epsilon must be a +-1 vector", id="eps-char"),
        pytest.param([*MURMUR_III, "--eigenspace="], "epsilon must be a +-1 vector", id="eps-empty"),
        pytest.param([*MURMUR_III, "--eigenspace=--"], "epsilon must be a +-1 vector", id="eps-dashes"),
        # no level of [6, 12] carries a weight-2 form, so no eigenspace does
        pytest.param(
            ["murmur", "--family", "III:r=2", "--X", "6", "--ell-max", "5", "--eigenspace", "++"],
            "eigenspace (1, 1) is empty over window [6, 12] at weight 2",
            id="eps-no-forms",
        ),
        *(
            pytest.param(
                ["murmur", "--family", family, "--X=%d" % x, "--ell-max", "7"],
                "a level window needs X >= 1, got X = %d" % x,
                id="%s-X=%d" % (family, x),
            )
            for family in ("I:M=1", "III:r=2")
            for x in (0, -5)
        ),
    ],
)
def test_bad_input_and_empty_scans_exit_2_with_a_message(capsys, tmp_path, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--output-dir", str(tmp_path), *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_selftest_reports_each_criterion_and_a_crash(capsys, monkeypatch):
    def criterion_99():
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "ALL_CRITERIA", (selftest.criterion_7, selftest.criterion_10, criterion_99))
    code = cli.main(["selftest", "--json"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert code == 1
    assert (payload["total"], payload["passed"]) == (3, 2)
    assert [r["number"] for r in payload["results"]] == [7, 10, 99]
    fails = [line for line in err.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and "raised" in fails[0] and "boom" in fails[0]
    assert err.rstrip().endswith("2/3 acceptance checks passed")


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


def test_trace_rejects_a_negative_exponent(capsys):
    # q^r with r < 0 is no level, so there is no trace to print
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--k", "2", "--q", "3", "--r", "-1"])
    assert exc.value.code == 2
    assert "r must be >= 0" in capsys.readouterr().err


def test_murmur_output_dir_below_a_file_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "afile").write_text("")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--output-dir", str(tmp_path / "afile" / "sub"), *MURMUR_III])
    assert exc.value.code == 2
    assert "Not a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q, r, m, message",
    [
        (1, 1, 1, "squarefree and >= 2 at r = 1, got 1"),
        (12, 1, 1, "squarefree and >= 2 at r = 1, got 12"),
        (6, 2, 1, "prime at r >= 2, got 6"),
        (6, 1, 4, "cofactor M must be coprime to q"),
    ],
)
def test_trace_rejects_a_bad_modulus(capsys, q, r, m, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--k", "2", "--q", str(q), "--r", str(r), "--M", str(m), "--ell", "7"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_trace_rejects_hecke_index_sharing_a_prime_with_M(capsys):
    # ell = 2 divides M = 4; the traces are not defined there and must not print
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--k", "2", "--q", "3", "--M", "4", "--ell", "2"])
    assert exc.value.code == 2
    assert "coprime to the level" in capsys.readouterr().err


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


def _query_modules(argv, *flags):
    """The modules loaded by one query run in a fresh interpreter."""
    probe = (
        "import sys\n"
        "from altrace import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(sorted(sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe, *argv, "--json"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, (argv, done.stderr)
    json.loads(done.stdout)
    return set(ast.literal_eval(done.stderr.splitlines()[-1]))


def test_single_queries_import_no_numpy_scans_or_selftest():
    # each query runs in a fresh interpreter, so its imports are its start-up cost
    for argv in SINGLE_QUERIES:
        assert not _query_modules(argv) & set(HEAVY_MODULES), argv


def test_each_single_query_imports_only_the_modules_its_command_reads():
    # -S: no site .pth file preloads a module, so what is loaded the query loaded
    base = {"altrace.arith", "altrace.classnum", "altrace.cli"}
    own = {
        "classnum": set(),
        "trace": {"altrace.trace"},
        "delta": {"altrace.signs"},
        "twist": {"altrace.signs", "altrace.twist"},
    }
    for argv in SINGLE_QUERIES:
        loaded = _query_modules(argv, "-S")
        assert {m for m in loaded if m.startswith("altrace.")} == base | own[argv[0]], argv
        assert not loaded & {"dataclasses", "inspect", "typing"}, argv


def test_package_root_imports_no_submodule():
    probe = (
        "import sys\n"
        "import altrace\n"
        "assert altrace.__version__\n"
        "print(sorted(m for m in sys.modules if m.startswith('altrace.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout


def test_scan_trace_and_window_modules_import_no_numpy():
    # the batched trace engine imports numpy when a window is built, not
    # when the module is
    probe = "import sys\nimport altrace.murmur, altrace.trace, altrace.window\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False", done.stdout


def test_bad_family_string_aborts(capsys):
    with pytest.raises(SystemExit):
        cli.main(["murmur", "--family", "IV:M=1", "--X", "10", "--ell-max", "7"])


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "Family grammar" in capsys.readouterr().out


def _run_scan_script(tmp_path, *argv):
    # from a checkout, with no PYTHONPATH: the script finds src/ itself
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_murmuration_scan.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script), *argv], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scan_script_runs_from_a_checkout(tmp_path):
    _run_scan_script(tmp_path, "--help")


def test_scan_script_quick_run_writes_every_job(tmp_path):
    out = _run_scan_script(tmp_path, "--quick", "--output-dir", str(tmp_path))
    printed = {}  # (family, k) -> the point count the summary line prints
    fitted = set()  # the (family, k) whose line ends in the sqrt(x) fit
    line_re = re.compile(
        r"(\S+)\s+k=(\d+) X=\d+\s+(\d+) pts +\d+\.\ds"
        r"(  c=[+-]\d+\.\d{3} d=[+-]\d+\.\d{3} rms/range=\d\.\d{3})?$"
    )
    for line in out.splitlines():
        m = line_re.match(line)
        if m:
            printed[m[1], int(m[2])] = int(m[3])
            if m[4]:
                fitted.add((m[1], int(m[2])))
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == len(printed) == 5
    # the three kind I jobs fit; the II and III jobs print no fit
    assert fitted == {("I:M=1", 2), ("I:M=1", 4), ("I:M=5", 2)}
    for path in csvs:
        assert path.with_suffix(".svg").read_text().lstrip().startswith("<svg")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        family = rows[0]["family"].split("#")[0]
        raw = [row for row in rows if row["family"] == family + "#raw"]
        assert len(raw) == printed[family, int(rows[0]["k"])], path.name
