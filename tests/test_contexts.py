"""Precision isolation: each PrecisionContext computes in its own mpmath
context, so results depend neither on the global mpmath precision nor on
other threads, and the global precision is never changed."""

import pickle
import sys
import threading

import mpmath
import pytest
from mpmath import mp

from mocklab import (
    DomainError,
    MockThetaId,
    PrecisionContext,
    PrecisionError,
    eval_mock,
    l_vector,
    reference_context,
    run_suite,
    suite_report_to_json,
    unary_x,
)


def _raw(x):
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


def _report_values(rep):
    """Every number of a suite report, as raw mpmath tuples."""
    out = [_raw(rep.eps), _raw(rep.quad_eps)]
    for r in rep.identities:
        out.append(_raw(r.max_abs))
        for e in r.entries:
            out += [_raw(x) for x in (e.abs_residual, e.rel_residual, e.budget)]
            out.append(None if e.point is None else _raw(e.point))
    return out


def _l_vector_raw(ctx):
    (l1, l2), err = l_vector(ctx.mp.mpc(1, "0.5"), ctx)
    return [_raw(x) for x in (l1, l2, err)]


def test_threads_at_two_precisions():
    """Series and quadratures run in the calling thread; beside other
    threads they give the bits they give alone."""
    # the third thread shares the 256-bit context with the first
    chi0 = MockThetaId(5, "chi0")
    hi = reference_context()
    contexts = [hi, PrecisionContext(prec_bits=64, eps="1e-12"), hi]
    want = [_raw(eval_mock(chi0, "0.3", c)) for c in contexts]
    want_l = [_l_vector_raw(c) for c in contexts]
    got_l = [None] * len(contexts)
    wrong = [0] * len(contexts)
    start = threading.Barrier(len(contexts))

    def work(i):
        start.wait(timeout=60)
        got_l[i] = _l_vector_raw(contexts[i])
        for _ in range(300):
            if _raw(eval_mock(chi0, "0.3", contexts[i])) != want[i]:
                wrong[i] += 1

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(contexts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0, 0, 0]
    assert got_l == want_l


def _library_outputs(ctx):
    reps = [run_suite(suite, None, ctx) for suite in ("algebra", "theta_eta")]
    (l1, l2), err = l_vector(1, ctx)
    chi0 = eval_mock(MockThetaId(5, "chi0"), "0.3", ctx)
    x0 = unary_x("X0", ctx.mp.mpc("0.5", "0.6"), ctx)
    values = [v for rep in reps for v in _report_values(rep)]
    values += [_raw(x) for x in (l1, l2, err, chi0, x0)]
    return values, [suite_report_to_json(rep, ctx) for rep in reps]


@pytest.mark.parametrize("prec", [53, 1000])
def test_global_precision_neither_read_nor_set(ctx, prec):
    want = _library_outputs(ctx)
    with mp.workprec(prec):
        assert _library_outputs(ctx) == want
        assert mp.prec == prec


def test_pickle_round_trip(ctx):
    back = pickle.loads(pickle.dumps(ctx))
    assert back == ctx and back.prec_bits == ctx.prec_bits
    assert type(back.eps) is type(ctx.eps)  # rebuilt in the private context
    assert _raw(back.eps) == _raw(ctx.eps) and _raw(back.quad_eps) == _raw(ctx.quad_eps)

    rep = run_suite("theta_eta", None, ctx)
    rep_back = pickle.loads(pickle.dumps(rep))
    assert _report_values(rep_back) == _report_values(rep)
    assert type(rep_back.eps) is mpmath.mpf  # an exact global mpmath number
    assert suite_report_to_json(rep_back, back) == suite_report_to_json(rep, ctx)


def test_context_is_a_value():
    """Equal settings make equal contexts with equal hashes; the context
    pickles as its two settings and revalidates them on every construction,
    `_replace` included."""
    ctx = PrecisionContext(256, "1e-40")
    assert ctx == reference_context() and hash(ctx) == hash(reference_context())
    assert ctx != PrecisionContext(512, "1e-40") and ctx != PrecisionContext(256, "1e-39")
    assert len({ctx, reference_context(), PrecisionContext(512)}) == 2
    assert tuple(ctx) == (256, ctx.eps)
    assert ctx.__reduce__() == (PrecisionContext, (256, ctx.eps))
    assert pickle.loads(pickle.dumps(ctx)) == ctx

    wide = ctx._replace(prec_bits=512)
    assert type(wide) is PrecisionContext and wide.mp.prec == 512
    assert type(wide.eps) is type(PrecisionContext(512).eps)
    for bad, error, message in ((dict(prec_bits=32), DomainError, "at least 64"),
                                (dict(eps="nan"), DomainError, "finite and positive"),
                                (dict(eps="-1e-40"), DomainError, "finite and positive"),
                                (dict(prec_bits=64, eps="1e-30"), PrecisionError,
                                 "16-bit guard")):
        with pytest.raises(error, match=message):
            PrecisionContext(**{"prec_bits": 256, "eps": "1e-40", **bad})
        with pytest.raises(error, match=message):
            ctx._replace(**bad)
