import csv
import io
import json

import pytest
from mpmath import mp, mpf, mpc

from mocklab import reference_context, run_suite
from mocklab.cli import _csv, _load_grid, main, parse_number, parse_real


# ---------------------------------------------------------------------------
# number parsing
# ---------------------------------------------------------------------------

def test_parse_real_pi_forms():
    with mp.workprec(128):
        assert abs(parse_real("pi", mp) - mp.pi) < mpf(2) ** -100
        assert abs(parse_real("2pi", mp) - 2 * mp.pi) < mpf(2) ** -100
        assert abs(parse_real("pi/2", mp) - mp.pi / 2) < mpf(2) ** -100
        assert abs(parse_real("3pi/4", mp) - 3 * mp.pi / 4) < mpf(2) ** -100
        assert abs(parse_real("-pi", mp) + mp.pi) < mpf(2) ** -100
        assert parse_real("1e-3", mp) == mpf("1e-3")
        assert parse_real("1/4", mp) == mpf("0.25")
        # leading-dot decimals
        assert parse_real(".5", mp) == mpf("0.5")
        assert parse_real("-.25", mp) == mpf("-0.25")
        assert parse_real(".5e-3", mp) == mpf("5e-4")


def test_parse_number_complex():
    with mp.workprec(128):
        assert parse_number("1+0.5i", mp) == mpc(1, "0.5")
        assert parse_number("0.3-0.7j", mp) == mpc("0.3", "-0.7")
        assert parse_number("2i", mp) == mpc(0, 2)
        assert parse_number("-i", mp) == mpc(0, -1)
        assert abs(parse_number("pi", mp) - mp.pi) < mpf(2) ** -100
        assert parse_number("1e-3+2e-4i", mp) == mpc("0.001", "0.0002")


# ---------------------------------------------------------------------------
# eval / coeffs
# ---------------------------------------------------------------------------

def test_eval_chi0_at_zero(capsys):
    assert main(["eval", "--fn", "chi0", "--q", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value = ")
    assert "1.0" in out


def test_eval_lvec_at_pi(capsys):
    assert main(["eval", "--fn", "lvec", "--alpha", "pi", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"fn", "point", "l1", "l2", "err_estimate",
                        "fixed_point_residual"}
    assert mpf(doc["fixed_point_residual"]) < mpf(10) ** -20
    assert abs(mpf(doc["l1"]["im"])) < mpf(10) ** -30


def test_fixed_point_field_only_at_the_fixed_point(tmp_path, capsys):
    # 3.1415927 is 4.6e-8 from pi: (1 - M) v is 4.5e-9 there, not a
    # residual, so neither eval nor verify reports the fixed-point law
    assert main(["eval", "--fn", "lvec", "--alpha", "3.1415927", "--format", "json"]) == 0
    assert "fixed_point_residual" not in json.loads(capsys.readouterr().out)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"re": 3.1415927, "im": 0, "as": "alpha"}]))
    assert main(["verify", "--suite", "mf5", "--grid", str(grid)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "l_vector_fixed_point" not in [r["identity"] for r in doc["identities"]]
    # at 200 bits pi^2/pi rounds one ulp off pi: pi is still the fixed point
    assert main(["eval", "--fn", "lvec", "--alpha", "pi", "--prec", "200", "--format", "json"]) == 0
    assert mpf(json.loads(capsys.readouterr().out)["fixed_point_residual"]) < mpf(10) ** -20


def test_eval_w3_scaling(capsys):
    assert main(["eval", "--fn", "W3", "--alpha", "1e-4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with mp.workprec(256):
        limit = mp.sqrt(mp.pi) / (6 * mp.sqrt(mpf("3e-4")))
        assert abs(mpf(doc["value"]["re"]) / limit - 1) < mpf("0.01")


def test_eval_x0_where_a_block_vanishes(capsys):
    # u0 (50 digits) is a root of 1 + u^6 + u^12 + u^21, so the four terms
    # u^8, u^14, u^20, u^29 of X0 nearly cancel: the sum must go on past them
    u0 = ("0.8893493945444123964960251353826948744915944621579"
          "+0.40924341121839212279958213621703953299394393141228i")
    assert main(["eval", "--fn", "x0", "--u", u0, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ctx = reference_context()
    mp_ = ctx.mp
    u = parse_number(u0, mp_)
    assert abs(1 + u**6 + u**12 + u**21) < mpf(10) ** -45
    # X0 block by block: exponents ((a +- 15(2k+1))^2 - 1)/120, sign (-1)^k
    direct = sum((-1) ** k * u ** (((a + s * 15 * (2 * k + 1)) ** 2 - 1) // 120)
                 for k in range(60) for a in (14, 4) for s in (-1, 1))
    value = mp_.mpc(doc["value"]["re"], doc["value"]["im"])
    assert abs(value - direct) < 10 * ctx.eps


@pytest.mark.parametrize("args", [["--fn", "lvec", "--alpha", "pi"],
                                  ["--fn", "lvec", "--alpha", "2+i"],
                                  ["--fn", "W3", "--alpha", "1e-4"],
                                  ["--fn", "chi0", "--q", "0.1"]],
                         ids=["lvec_pi", "lvec_2+i", "W3", "chi0"])
def test_eval_formats_carry_the_same_fields(capsys, args):
    """text, JSON and CSV render one record: JSON and CSV every field, a
    complex one as its re and im parts, text every field but fn and point."""
    out = {}
    for fmt in ("text", "json", "csv"):
        assert main(["eval"] + args + ["--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    doc = json.loads(out["json"])
    flat = {}
    for k, v in doc.items():
        flat.update({"%s_%s" % (k, part): x for part, x in v.items()}
                    if isinstance(v, dict) else {k: v})
    (row,) = csv.DictReader(io.StringIO(out["csv"]))
    assert row == flat
    text = dict(line.split(" = ") for line in out["text"].splitlines())
    assert list(text) == [k for k in doc if k not in ("fn", "point")]
    mp_ = reference_context().mp
    for k, v in text.items():
        if isinstance(doc[k], str):
            assert v == doc[k]
        else:  # "(re + imj)"
            assert parse_number(v.strip("()"), mp_) == mp_.mpc(doc[k]["re"], doc[k]["im"]), k
    if args[1] == "lvec" and args[3] == "pi":
        assert "fixed_point_residual" in row


def test_eval_domain_error_exit_2(capsys):
    assert main(["eval", "--fn", "chi0", "--q", "1.5"]) == 2
    assert "domain error" in capsys.readouterr().err


def test_eval_requires_point(capsys):
    assert main(["eval", "--fn", "chi0"]) == 2


def test_coeffs_outputs(capsys):
    assert main(["coeffs", "--fn", "f", "--n", "2"]) == 0
    assert capsys.readouterr().out == "0,1,1\n1,1,1\n2,-2,1\n"
    assert main(["coeffs", "--fn", "partition", "--n", "2"]) == 0
    assert capsys.readouterr().out == "0,1,1\n1,1,1\n2,2,1\n"
    assert main(["coeffs", "--fn", "chi0", "--n", "0"]) == 0
    assert capsys.readouterr().out == "0,1,1\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_algebra_json(capsys):
    assert main(["verify", "--suite", "algebra"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert doc["prec_bits"] == 256


def test_verify_env_prec(capsys):
    assert main(["verify", "--suite", "algebra", "--prec", "128", "--eps", "1e-20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prec_bits"] == 128


@pytest.mark.parametrize("suite", ["algebra", "wronskian", "all"])
def test_verify_grid_for_a_suite_without_one_exit_2(tmp_path, capsys, suite):
    """A valid grid is refused, naming the suite, where it would go unused."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"re": 1.0, "im": 0.0, "as": "alpha"}]))
    assert main(["verify", "--suite", suite, "--grid", str(grid)]) == 2
    assert capsys.readouterr().err == "domain error: suite %r takes no grid\n" % suite


def test_verify_bad_grid_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"re": 0.5, "im": -1.0, "as": "tau"}]))
    assert main(["verify", "--suite", "theta_eta", "--grid", str(bad)]) == 2


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "grid entry 0, 1, is not an object with numeric re and im"),
    ('[{"im": 0.5}]', "grid entry 0, {'im': 0.5}, is not an object"),
    ('[{"re": "x", "im": 0}]', "entry 0, {'re': 'x', 'im': 0}, is not an"),
    ('[{"re": "inf", "im": 0}]', "{'re': 'inf', 'im': 0}, is not finite"),
    (None, "cannot read grid file"),
], ids=["not_an_object", "missing_re", "non_numeric_re", "infinite_re",
        "missing_file"])
def test_verify_malformed_grid_exit_2(tmp_path, capsys, content, message):
    grid = tmp_path / "grid.json"
    if content is not None:
        grid.write_text(content)
    assert main(["verify", "--suite", "algebra", "--grid", str(grid)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and message in err


@pytest.mark.parametrize("r", ["abc", "1/0"])
def test_eval_bad_r_exit_2(capsys, r):
    assert main(["eval", "--fn", "L", "--alpha", "2", "--r", r]) == 2
    assert "cannot parse --r %r" % r in capsys.readouterr().err


@pytest.mark.parametrize("args, literal", [
    (["eval", "--fn", "chi0", "--q", "1/0"], "1/0"),
    (["eval", "--fn", "W2", "--alpha", "pi/0"], "pi/0"),
    (["stokes", "--abs-alpha", "1/0"], "1/0"),
    (["eval", "--fn", "x0", "--u", "0/0"], "0/0"),
    (["stokes", "--abs-alpha", "0.3", "--eps-seq", "0.1,1/0"], "1/0"),
], ids=["q", "alpha_pi", "abs_alpha", "u", "eps_seq"])
def test_zero_denominator_exit_2(capsys, args, literal):
    assert main(args) == 2
    assert capsys.readouterr().err == "domain error: zero denominator in %r\n" % literal


@pytest.mark.parametrize("fn", ["W2", "W3", "L", "lvec"])
def test_eval_alpha_zero_exit_2(capsys, fn):
    assert main(["eval", "--fn", fn, "--alpha", "0"]) == 2
    assert capsys.readouterr().err == "domain error: the integrals need alpha != 0\n"


@pytest.mark.parametrize("eps, message", [
    ("abc", "cannot parse --eps 'abc' as a number"),
    ("inf", "eps must be finite and positive"),
    ("nan", "eps must be finite and positive"),
])
def test_eval_bad_eps_exit_2(capsys, eps, message):
    assert main(["eval", "--fn", "chi0", "--q", "0.1", "--eps", eps]) == 2
    assert capsys.readouterr().err == "domain error: %s\n" % message


@pytest.mark.parametrize("eps", ["1e-5", "1e5"])
def test_eval_lvec_at_a_loose_eps(capsys, eps):
    """quad_eps = eps 1e10 is above 2^10 times the envelope constant, so the
    envelope starts below the tail target: the cut is 1/sqrt(decay), and the
    vector is within its err_estimate of the one at the default eps."""
    assert main(["eval", "--fn", "lvec", "--alpha", "2+i", "--eps", eps,
                 "--format", "json"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert main(["eval", "--fn", "lvec", "--alpha", "2+i", "--format", "json"]) == 0
    tight = json.loads(capsys.readouterr().out)
    with mp.workprec(256):
        err = mpf(loose["err_estimate"])
        assert err < mpf(eps) * 10 ** 10
        for k in ("l1", "l2"):
            d = mpc(loose[k]["re"], loose[k]["im"]) - mpc(tight[k]["re"], tight[k]["im"])
            assert abs(d) <= err


def test_env_prec_is_ignored(capsys, monkeypatch):
    """--prec is the only way to set the precision: MOCKLAB_PREC, which once
    set it too, leaves prec_bits at the default 256."""
    monkeypatch.setenv("MOCKLAB_PREC", "128")
    assert main(["verify", "--suite", "algebra"]) == 0
    assert json.loads(capsys.readouterr().out)["prec_bits"] == 256


def test_verify_alpha_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"re": 1.0, "im": 0.0, "as": "alpha"}]))
    assert main(["verify", "--suite", "mf3", "--grid", str(grid),
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "ALL PASS" in out


def test_load_grid_converts_only_across(tmp_path):
    # these two tau points do not survive the round trip through alpha
    points = [{"re": 0.25, "im": 0.015, "as": "tau"},
              {"re": -0.27, "im": 0.0153, "as": "tau"},
              {"re": 2.337666, "im": 0.95249, "as": "alpha"}]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(points))
    ctx = reference_context()
    mp_ = ctx.mp
    z = [mp_.mpc(mp_.mpf(str(p["re"])), mp_.mpf(str(p["im"]))) for p in points]
    taus = _load_grid(str(grid), "theta_eta", ctx)
    alphas = _load_grid(str(grid), "mf5", ctx)
    assert taus[:2] == z[:2] and alphas[2] == z[2]
    assert alphas[:2] == [-mp_.pi * 1j * tau for tau in z[:2]]
    assert taus[2] == 1j * z[2] / mp_.pi


def test_verify_csv_carries_the_error(tmp_path, capsys):
    # |q| = e^-0.001 is past the evaluation guard: the check fails with a
    # message, which the CSV carries in a last column, quoted
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"re": 0.001, "im": 0, "as": "alpha"}]))
    assert main(["verify", "--suite", "mf5", "--grid", str(grid)]) == 1
    (ident,) = json.loads(capsys.readouterr().out)["identities"]
    (entry,) = ident["entries"]
    assert main(["verify", "--suite", "mf5", "--grid", str(grid), "--format", "csv"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith(",pass,error")
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["error"] == entry["error"] == "DomainError: evaluation guard: |q| <= 0.999"
    assert row["identity"] == ident["identity"] and row["pass"] == "false"
    # a message with a comma stays one field
    assert _csv([{"pass": "false", "error": "TypeError: mpc(real='1.0', imag='0.0')"}]) == (
        "pass,error\nfalse,\"TypeError: mpc(real='1.0', imag='0.0')\"\n")
    # a report without an error entry has no error column
    assert main(["verify", "--suite", "algebra", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "identity,point_re,point_im,abs_residual,rel_residual,budget,pass")


def test_verify_stokes_grid_is_a_real_modulus(tmp_path, capsys):
    """An mf5_stokes grid point is the modulus |alpha|: the point 1 gives the
    default report's modulus-1 entry, a point off the real axis exits 2."""
    assert main(["verify", "--suite", "mf5_stokes"]) == 0
    (default,) = json.loads(capsys.readouterr().out)["identities"]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"re": 1, "im": 0, "as": "alpha"}]))
    assert main(["verify", "--suite", "mf5_stokes", "--grid", str(grid)]) == 0
    (ident,) = json.loads(capsys.readouterr().out)["identities"]
    assert ident["identity"] == default["identity"] == "mf5_stokes"
    assert ident["entries"] == [e for e in default["entries"]
                                if e["point"] == {"re": "1.0", "im": "0.0"}]
    grid.write_text(json.dumps([{"re": 1, "im": 0.5, "as": "alpha"}]))
    assert main(["verify", "--suite", "mf5_stokes", "--grid", str(grid)]) == 2
    assert "real modulus" in capsys.readouterr().err


def test_verify_reports_full_precision(capsys):
    # every number is formatted at the working precision, not at 53 bits
    ctx = reference_context()
    rep = run_suite("algebra", None, ctx)
    entries = [e for r in rep.identities for e in r.entries]
    assert main(["verify", "--suite", "algebra"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["verify", "--suite", "algebra", "--format", "csv"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    json_entries = [e for r in doc["identities"] for e in r["entries"]]
    assert len(json_entries) == len(rows) == len(entries)
    with mp.workprec(256):
        def close(text, want):
            return abs(mpf(text) - want) <= abs(want) * mpf(2) ** -250

        assert close(doc["eps"], ctx.eps) and close(doc["quad_eps"], ctx.quad_eps)
        for e, je, row in zip(entries, json_entries, rows):
            assert close(je["budget"], e.budget) and close(row[5], e.budget)
            assert close(je["abs_residual"], e.abs_residual)
            assert close(row[3], e.abs_residual)


def test_verify_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--suite", "algebra", "--out", str(p1)]) == 0
    assert main(["verify", "--suite", "algebra", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# stokes
# ---------------------------------------------------------------------------

def test_stokes_floor_exit_2(capsys):
    assert main(["stokes", "--abs-alpha", "1", "--eps-seq", "0.0001"]) == 2


def test_stokes_at_the_floor(capsys):
    assert main(["stokes", "--abs-alpha", "0.01", "--eps-seq", "0.002,0.001"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4  # header + 2 rows + summary


def test_stokes_csv_and_summary(capsys):
    assert main(["stokes", "--abs-alpha", "0.3", "--eps-seq", "0.016,0.008"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("eps,")
    assert len(out) == 4  # header + 2 rows + summary
    summary = json.loads(out[-1])
    assert summary["matched_sign"] == -1
    r1 = mpf(out[1].split(",")[-2])
    r2 = mpf(out[2].split(",")[-2])
    assert r2 < r1  # residual column decreasing


def test_import_pulls_in_no_dataclass_machinery():
    """Every CLI call is a fresh interpreter: importing the CLI must not load
    `dataclasses`, which brings `inspect`, `ast` and `dis` with it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mocklab

    env = dict(os.environ, PYTHONPATH=str(Path(mocklab.__file__).parents[1]))
    code = ("import sys, mocklab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
