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


def cmd_eval(args) -> int:
    ctx = _context(args)
    mp = ctx.mp
    fn = args.fn
    err = None
    point_desc = None
    if fn in MOCK_FNS:
        q = _point_q(args, mp)
        point_desc = q
        value = eval_mock(MockThetaId.from_name(fn), q, ctx)
    elif fn in ("x0", "x1"):
        if args.u is None:
            raise DomainError("--u required for the unary series")
        u = parse_number(args.u, mp)
        point_desc = u
        value = unary_x(fn.upper(), u, ctx)
    elif fn == "eta" or fn.startswith("theta"):
        if args.tau is None:
            raise DomainError("--tau required for eta/theta")
        tau = parse_number(args.tau, mp)
        point_desc = tau
        value = eta(tau, ctx) if fn == "eta" else theta(int(fn[-1]), tau, ctx)
    elif fn in ("L", "W2", "W3"):
        if args.alpha is None:
            raise DomainError("--alpha required for the integrals")
        alpha = parse_number(args.alpha, mp)
        point_desc = alpha
        if fn == "L":
            try:
                r = Fraction(args.r)
            except (ValueError, ZeroDivisionError):
                raise DomainError("cannot parse --r %r as a rational" % args.r)
            value, err = l_integral(r, alpha, ctx)
        elif fn == "W2":
            value, err = w2_integral(alpha, ctx)
        else:
            value, err = w3_integral(alpha, ctx)
    elif fn == "lvec":
        if args.alpha is None:
            raise DomainError("--alpha required for lvec")
        alpha = parse_number(args.alpha, mp)
        point_desc = alpha
        (l1, l2), err = l_vector(alpha, ctx)
        res_fp = _fixed_point_residual(alpha, (l1, l2), ctx)
        extra = {} if res_fp is None else {"fixed_point_residual": res_fp}
        return _emit_eval(args, ctx, point_desc, {"l1": l1, "l2": l2}, err, extra)
    else:  # pragma: no cover - argparse choices guard this
        raise DomainError("unknown function %r" % fn)
    return _emit_eval(args, ctx, point_desc, {"value": value}, err, {})


def _emit_eval(args, ctx, point, values: dict, err, extra: dict) -> int:
    if args.format == "json":
        doc = {"fn": args.fn, "point": _fmt_c(point, ctx)}
        for k, v in values.items():
            doc[k] = _fmt_c(v, ctx)
        if err is not None:
            doc["err_estimate"] = _fmt(err, ctx)
        for k, v in extra.items():
            doc[k] = _fmt(v, ctx)
        _emit(json.dumps(doc, separators=(",", ":")) + "\n", args.out)
    elif args.format == "csv":
        cols = ["fn", "point_re", "point_im"]
        vals = [args.fn, *_fmt_c(point, ctx).values()]
        for k, v in values.items():
            cols += ["%s_re" % k, "%s_im" % k]
            vals += _fmt_c(v, ctx).values()
        if err is not None:
            cols.append("err_estimate")
            vals.append(_fmt(err, ctx))
        _emit(",".join(cols) + "\n" + ",".join(vals) + "\n", args.out)
    else:
        lines = []
        for k, v in values.items():
            v = ctx.mp.mpc(v)
            lines.append("%s = %s" % (k, ctx.mp.nstr(v, _digits(ctx.prec_bits))))
        if err is not None:
            lines.append("err_estimate = %s" % _fmt(err, ctx))
        for k, v in extra.items():
            lines.append("%s = %s" % (k, _fmt(v, ctx)))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


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
        pts.append(z)
    return pts


def cmd_verify(args) -> int:
    ctx = _context(args)
    grid = _load_grid(args.grid, args.suite, ctx) if args.grid else None
    rep = run_suite(args.suite, grid, ctx)
    if args.format == "text":
        lines = []
        for r in rep.identities:
            lines.append("%-24s max_abs=%s pass=%s"
                         % (r.identity_name, _fmt(r.max_abs, ctx), r.all_pass))
        lines.append("ALL PASS" if rep.all_pass else "FAIL")
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "csv":
        rows = ["identity,point_re,point_im,abs_residual,rel_residual,budget,pass"]
        for r in rep.identities:
            for e in r.entries:
                p = _fmt_c(e.point, ctx) if e.point is not None else {"re": "", "im": ""}
                rows.append(",".join([
                    r.identity_name, p["re"], p["im"],
                    _fmt(e.abs_residual, ctx), _fmt(e.rel_residual, ctx),
                    _fmt(e.budget, ctx), str(e.passed).lower(),
                ]))
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit(suite_report_to_json(rep, ctx), args.out)
    return 0 if rep.all_pass else 1


# ---------------------------------------------------------------------------
# stokes
# ---------------------------------------------------------------------------

def cmd_stokes(args) -> int:
    ctx = _context(args)
    abs_alpha = parse_real(args.abs_alpha, ctx.mp)
    eps_seq = [parse_real(tok, ctx.mp) for tok in args.eps_seq.split(",") if tok]
    dec = stokes_decompose(abs_alpha, eps_seq, ctx)
    header = ("eps,l1_re,l1_im,l2_re,l2_im,pred_q_1,pred_q_2,"
              "pred_q1_1,pred_q1_2,re_residual,im_residual")
    rows = [header]
    for i, e in enumerate(dec.eps_seq):
        v = dec.lateral_values[i]
        rows.append(",".join(_fmt(x, ctx) for x in (
            e, v[0].real, v[0].imag, v[1].real, v[1].imag,
            dec.pred_real[0], dec.pred_real[1],
            dec.pred_imag[0], dec.pred_imag[1],
            dec.re_residuals[i], dec.im_residuals[i],
        )))
    summary = {
        "abs_alpha": _fmt(dec.abs_alpha, ctx),
        "matched_sign": dec.matched_sign,
        "extrapolated": [_fmt_c(dec.extrapolated[0], ctx),
                         _fmt_c(dec.extrapolated[1], ctx)],
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
