"""Command-line surface: evaluate functions, dump exact coefficients, run
verification suites, and emit Stokes-decomposition tables.

Outputs are deterministic: reals serialize with ceil(prec_bits * 0.302)
decimal digits and reports use a canonical entry ordering, so re-running a
command with the same configuration reproduces byte-identical output.

Exit codes: 0 success (verify: all identities pass), 1 verification failure,
2 domain error, 3 non-convergence or extrapolation instability.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from mpmath import MPContext, mpc, mpf

from .errors import (
    DomainError,
    ExtrapolationInstability,
    MocklabError,
    NonConvergenceError,
    PrecisionError,
)
from .identities import (
    STOKES_EPS_SEQ,
    SUITES,
    _digits,
    _entry_dict,
    _fixed_point_residual,
    _fmt,
    _fmt_c,
    run_suite,
    stokes_decompose,
    suite_report_to_json,
)
from .modpoint import PrecisionContext
from .mordell import l_integral, l_vector, w2_integral, w3_integral
from .qseries import (
    MOCK_THETA_IDS,
    MockThetaId,
    eta,
    euler_inverse_coeffs,
    eval_mock,
    series_expand,
    theta,
    unary_x,
)

MOCK_FNS = tuple(name for _, name in MOCK_THETA_IDS)
EVAL_FNS = MOCK_FNS + ("x0", "x1", "eta", "theta2", "theta3", "theta4",
                       "L", "W2", "W3", "lvec")

_REAL_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"(?P<pi>\*?pi)?(?:/(?P<den>\d+(?:\.\d*)?))?$"
)


def parse_real(s: str, mp: MPContext) -> mpf:
    """Real literal in the mpmath context mp; accepts pi forms like 'pi',
    '2pi', 'pi/2', '3pi/4'."""
    m = _REAL_RE.match(s.strip().replace(" ", ""))
    if not m or (m.group("num") is None and m.group("pi") is None):
        raise DomainError("cannot parse number %r" % s)
    val = mp.mpf(m.group("num")) if m.group("num") else mp.mpf(1)
    if m.group("pi"):
        val *= mp.pi
    if m.group("den"):
        den = mp.mpf(m.group("den"))
        if not den:
            raise DomainError("zero denominator in %r" % s)
        val /= den
    if m.group("sign") == "-":
        val = -val
    return val


def parse_number(s: str, mp: MPContext) -> mpc:
    """Real or complex literal as an mpc of the mpmath context mp: '1+0.5i',
    '2i', 'pi', '0.3-0.7j', '1e-3'."""
    s = s.strip().replace(" ", "")
    if not s:
        raise DomainError("empty number")
    try:
        return mp.mpc(parse_real(s, mp))  # 'pi' ends in 'i' but is real
    except DomainError:
        pass
    if s[-1] in "ij":
        body = s[:-1]
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split is None:
            re_part, im_part = "0", body or "1"
        else:
            re_part, im_part = body[:split], body[split:] or "1"
        if im_part in ("+", "-"):
            im_part += "1"
        return mp.mpc(parse_real(re_part, mp), parse_real(im_part, mp))
    return mp.mpc(parse_real(s, mp))


def _context(args) -> PrecisionContext:
    given = {"prec_bits": args.prec, "eps": args.eps}
    try:
        return PrecisionContext(**{k: v for k, v in given.items() if v is not None})
    except MocklabError:
        raise
    except ValueError:  # mpmath cannot read it
        raise DomainError("cannot parse --eps %r as a number" % args.eps)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _point_q(args, mp):
    """Nome for the mock-theta functions from --q, --alpha or --tau."""
    if args.q is not None:
        return parse_number(args.q, mp)
    if args.alpha is not None:
        return mp.exp(-parse_number(args.alpha, mp))
    if args.tau is not None:
        tau = parse_number(args.tau, mp)
        if not tau.imag > 0:
            raise DomainError("tau must lie in the upper half-plane")
        return mp.exp(mp.pi * 1j * tau)
    raise DomainError("provide --q, --alpha or --tau for this function")


def _required(args, flag: str, what: str, mp):
    """The number given as --flag, which the function `what` needs."""
    given = getattr(args, flag)
    if given is None:
        raise DomainError("--%s required for %s" % (flag, what))
    return parse_number(given, mp)


def cmd_eval(args) -> int:
    ctx = _context(args)
    mp = ctx.mp
    fn = args.fn
    err = res_fp = None
    if fn in MOCK_FNS:
        point = _point_q(args, mp)
        value = eval_mock(MockThetaId.from_name(fn), point, ctx)
    elif fn in ("x0", "x1"):
        point = _required(args, "u", "the unary series", mp)
        value = unary_x(fn.upper(), point, ctx)
    elif fn == "eta" or fn.startswith("theta"):
        point = _required(args, "tau", "eta/theta", mp)
        value = eta(point, ctx) if fn == "eta" else theta(int(fn[-1]), point, ctx)
    elif fn == "lvec":
        point = _required(args, "alpha", "lvec", mp)
        value, err = l_vector(point, ctx)
        res_fp = _fixed_point_residual(point, value, ctx)
    else:
        point = _required(args, "alpha", "the integrals", mp)
        if fn == "L":
            try:
                r = Fraction(args.r)
            except (ValueError, ZeroDivisionError):
                raise DomainError("cannot parse --r %r as a rational" % args.r)
            value, err = l_integral(r, point, ctx)
        else:
            value, err = (w2_integral if fn == "W2" else w3_integral)(point, ctx)
    # fn, then the complex fields, then the real bounds where defined
    values = zip(("l1", "l2"), value) if fn == "lvec" else [("value", value)]
    record = {"fn": fn, "point": point, **{k: mp.mpc(v) for k, v in values}}
    record.update((k, v) for k, v in (("err_estimate", err),
                                      ("fixed_point_residual", res_fp)) if v is not None)
    if args.format == "text":  # all but fn and the point, a complex field as one number
        text = "".join("%s = %s\n" % (k, mp.nstr(v, _digits(ctx.prec_bits))
                                        if hasattr(v, "_mpc_") else _fmt(v, ctx))
                       for k, v in record.items() if k not in ("fn", "point"))
    else:  # every field, a complex one as its re and im parts
        doc = {k: v if isinstance(v, str) else _fmt_c(v, ctx) if hasattr(v, "_mpc_")
               else _fmt(v, ctx) for k, v in record.items()}
        text = (json.dumps(doc, separators=(",", ":")) + "\n" if args.format == "json"
                else _csv([doc]))
    _emit(text, args.out)
    return 0


def _csv(rows) -> str:
    """rows, dicts whose fields are text or {re, im} pairs of text, as CSV with
    a pair in the columns <field>_re and <field>_im.  The header holds every
    field of any row, in order of appearance; a row leaves those it lacks empty."""
    def cells(row):
        for k, v in row.items():
            if isinstance(v, dict):
                yield from (("%s_%s" % (k, part), x) for part, x in v.items())
            else:
                yield k, v

    flat = [dict(cells(row)) for row in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, list(dict.fromkeys(k for row in flat for k in row)),
                            restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def cmd_coeffs(args) -> int:
    n = args.n
    if n < 0:
        raise DomainError("--n must be nonnegative")
    if args.fn == "partition":
        rows = [(i, p, 1) for i, p in enumerate(euler_inverse_coeffs(n))]
    elif args.fn in MOCK_FNS:
        series = series_expand(MockThetaId.from_name(args.fn), n)
        rows = [(i, c.numerator, c.denominator) for i, c in enumerate(series.coeffs)]
    else:
        raise DomainError("unknown coefficient function %r" % args.fn)
    text = "".join("%d,%d,%d\n" % r for r in rows)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _load_grid(path: str, suite: str, ctx: PrecisionContext):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError("cannot read grid file %r: %s" % (path, exc))
    if not isinstance(raw, list) or not raw:
        raise DomainError("grid file must be a nonempty JSON list")
    want = "tau" if suite == "theta_eta" else "alpha"
    mp = ctx.mp
    pts = []
    for i, item in enumerate(raw):
        try:
            tag = item.get("as", want)
            z = mp.mpc(mp.mpf(str(item["re"])), mp.mpf(str(item["im"])))
        except (AttributeError, KeyError, ValueError):
            raise DomainError("grid entry %d, %r, is not an object with "
                              "numeric re and im" % (i, item))
        if not mp.isfinite(z):
            raise DomainError("grid entry %d, %r, is not finite" % (i, item))
        if tag == "tau":
            if not z.imag > 0:
                raise DomainError("grid tau point outside upper half-plane")
        elif tag == "alpha":
            if not z.real > 0:
                raise DomainError("grid alpha point must have Re > 0")
        else:
            raise DomainError("grid 'as' tag must be 'tau' or 'alpha'")
        # alpha = -pi i tau; a point already in the suite's variable stays exact
        if tag != want:
            z = -mp.pi * 1j * z if tag == "tau" else 1j * z / mp.pi
        if suite == "mf5_stokes" and z.imag:
            raise DomainError("grid entry %d, %r: an mf5_stokes point is a real "
                              "modulus |alpha|" % (i, item))
        pts.append(z)
    return pts


def cmd_verify(args) -> int:
    ctx = _context(args)
    grid = _load_grid(args.grid, args.suite, ctx) if args.grid else None
    rep = run_suite(args.suite, grid, ctx)
    if args.format == "text":
        text = "".join("%-24s max_abs=%s pass=%s\n"
                       % (r.identity_name, _fmt(r.max_abs, ctx), r.all_pass)
                       for r in rep.identities)
        text += "ALL PASS\n" if rep.all_pass else "FAIL\n"
    elif args.format == "csv":
        # the JSON entries, with an empty point for a check that has none
        text = _csv({"identity": r.identity_name, **d, "pass": str(d["pass"]).lower(),
                     "point": d["point"] or {"re": "", "im": ""}}
                    for r in rep.identities for d in (_entry_dict(e, ctx) for e in r.entries))
    else:
        text = suite_report_to_json(rep, ctx)
    _emit(text, args.out)
    return 0 if rep.all_pass else 1


# ---------------------------------------------------------------------------
# stokes
# ---------------------------------------------------------------------------

def cmd_stokes(args) -> int:
    ctx = _context(args)
    abs_alpha = parse_real(args.abs_alpha, ctx.mp)
    eps_seq = [parse_real(tok, ctx.mp) for tok in args.eps_seq.split(",") if tok]
    dec = stokes_decompose(abs_alpha, eps_seq, ctx)
    js = range(1, len(dec.extrapolated) + 1)
    header = ",".join(["eps"] + ["l%d_%s" % (j, part) for j in js for part in ("re", "im")]
                      + ["pred_q_%d" % j for j in js] + ["pred_q1_%d" % j for j in js]
                      + ["re_residual", "im_residual"])
    rows = [header]
    for e, v, re_res, im_res in zip(dec.eps_seq, dec.lateral_values,
                                    dec.re_residuals, dec.im_residuals):
        rows.append(",".join(_fmt(x, ctx) for x in (
            e, *(part for x in v for part in (x.real, x.imag)),
            *dec.pred_real, *dec.pred_imag, re_res, im_res,
        )))
    summary = {
        "abs_alpha": _fmt(dec.abs_alpha, ctx),
        "matched_sign": dec.matched_sign,
        "extrapolated": [_fmt_c(x, ctx) for x in dec.extrapolated],
        "extrap_residual_real": _fmt(dec.extrap_residual_real, ctx),
        "extrap_residual_imag": _fmt(dec.extrap_residual_imag, ctx),
        "extrap_err_estimate": _fmt(dec.extrap_err_estimate, ctx),
        "extension_eps": [_fmt(e, ctx) for e in dec.extended_eps],
    }
    if args.format == "json":
        doc = {"table": rows[1:], "header": header, "summary": summary}
        _emit(json.dumps(doc, separators=(",", ":")) + "\n", args.out)
    else:
        text = "\n".join(rows) + "\n" + json.dumps(
            summary, separators=(",", ":")) + "\n"
        _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mocklab",
        description="High-precision mock theta functions, their Mordell "
                    "integrals, and identity verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--prec", type=int, default=None,
                       help="working precision in bits (default 256)")
        p.add_argument("--eps", default=None, help="series tail tolerance (default 1e-40)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")

    pe = sub.add_parser("eval", help="evaluate a function at a point")
    pe.add_argument("--fn", required=True, choices=EVAL_FNS)
    pe.add_argument("--q", default=None, help="nome for the mock functions")
    pe.add_argument("--u", default=None, help="argument of the unary series")
    pe.add_argument("--tau", default=None, help="upper half-plane point")
    pe.add_argument("--alpha", default=None, help="alpha = -pi*i*tau")
    pe.add_argument("--r", default="1/5", help="rational r for --fn L")
    common(pe)
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("coeffs", help="exact series coefficients as CSV")
    pc.add_argument("--fn", required=True, choices=MOCK_FNS + ("partition",))
    pc.add_argument("--n", required=True, type=int, help="expansion order")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_coeffs)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=SUITES)
    pv.add_argument("--grid", default=None,
                    help="JSON grid file: [{re, im, as: tau|alpha}, ...]")
    common(pv)
    pv.set_defaults(func=cmd_verify, format="json")

    ps = sub.add_parser("stokes", help="Stokes-line decomposition table")
    ps.add_argument("--abs-alpha", required=True, dest="abs_alpha")
    ps.add_argument("--eps-seq", default=",".join(STOKES_EPS_SEQ), dest="eps_seq")
    common(ps)
    ps.set_defaults(func=cmd_stokes, format="csv")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PrecisionError) as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 2
    except (NonConvergenceError, ExtrapolationInstability) as exc:
        print("non-convergence: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
