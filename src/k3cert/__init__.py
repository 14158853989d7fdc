"""Exact certificates for curve and bundle numerics on K3-hosted curves."""

from .bqf import (
    DEFAULT_MODULI,
    DecisionStatus,
    QuadraticForm,
    RepDecision,
    integer_sqrt,
    modular_obstruction,
    represents,
    zero_witness,
)
from .certify import (
    Certificate,
    build_certificate,
    check_hypotheses,
    decide_conclusion,
    expected_dim_bn24,
    gap_lower_bound,
)
from .clifford import (
    CliffordReport,
    brute_force_min_f,
    constraints,
    f_value,
    gamma,
    gamma1_max,
    gonality,
    verify_clifford,
)
from .lattice import (
    C,
    DivisorClass,
    H,
    K3Config,
    deg_C,
    deg_H,
    minus_two_form,
    minus_two_status,
    pair,
)

__version__ = "0.1.0"
