import inspect
import types

import k3cert
from k3cert import modular_obstruction


def test_public_api_is_pinned():
    # what `import k3cert` exports; a name added here or dropped from here
    # is a deliberate API change, written in CHANGES.md
    exported = {name for name, value in vars(k3cert).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {
        # bqf
        "DEFAULT_MODULI", "DecisionStatus", "QuadraticForm", "RepDecision",
        "integer_sqrt", "modular_obstruction", "represents", "zero_witness",
        # certify
        "Certificate", "build_certificate", "check_hypotheses", "decide_conclusion",
        "expected_dim_bn24", "gap_lower_bound",
        # clifford
        "CliffordReport", "brute_force_min_f", "constraints", "f_value", "gamma",
        "gamma1_max", "gonality", "verify_clifford",
        # lattice
        "C", "DivisorClass", "H", "K3Config", "deg_C", "deg_H", "minus_two_form",
        "minus_two_status", "pair",
    }
    # the residue scan runs over DEFAULT_MODULI only
    assert list(inspect.signature(modular_obstruction).parameters) == ["f", "t"]
