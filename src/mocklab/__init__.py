"""mocklab: high-precision order-3/5 mock theta functions, their Mordell
integrals, unary false-theta partners, and a verification engine for the
transformation identities connecting them, including the Stokes-line
decomposition of the integral vector.
"""

from .errors import (
    DomainError,
    ExtrapolationInstability,
    MocklabError,
    NonConvergenceError,
    PoleProximityError,
    PrecisionError,
)
from .identities import (
    CheckEntry,
    IdentityReport,
    StokesDecomposition,
    SuiteReport,
    SUITES,
    check_eta_theta,
    check_growth_omega,
    check_mf3,
    check_mf5,
    check_stokes,
    check_wronskian_suite,
    group_relations,
    mixing_matrix,
    phase_matrix,
    run_suite,
    stokes_decompose,
    suite_report_to_json,
)
from .modpoint import PrecisionContext, power_from_alpha, reference_context
from .mordell import (
    l_integral,
    l_pair,
    l_vector,
    pv_quadrature,
    pv_sum,
    w2_integral,
    w3_integral,
)
from .qseries import (
    MockThetaId,
    TruncatedQSeries,
    eta,
    euler_inverse_coeffs,
    eval_mock,
    k_pair,
    series_expand,
    theta,
    unary_x,
)

__version__ = "0.1.0"
