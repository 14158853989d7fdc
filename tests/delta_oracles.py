"""Independent oracles of the discriminant classification.

build_certificate classifies Delta = d^2 - 12(g-1) once and reads two flags
off it: Lemma 2.1 (d^2 - 6(2g-2) is not a perfect square) and the absence
of isotropic classes.  The functions here decide the same two flags each
its own way, from the formula and from a zero of the self-intersection
form, so that the tests can check the one classification against both.
"""

from k3cert.bqf import QuadraticForm, integer_sqrt, zero_witness
from k3cert.lattice import K3Config


def lemma21_check(g: int, s: int) -> bool:
    """True when d^2 - 6(2g-2) is not a perfect square (d = g - s)."""
    v = (g - s) ** 2 - 6 * (2 * g - 2)
    return v < 0 or integer_sqrt(v) is None


def square_zero_form(cfg: K3Config) -> QuadraticForm:
    """The self-intersection form D.D = 6m^2 + 2dmn + (2g-2)n^2."""
    return QuadraticForm(6, 2 * cfg.d, 2 * cfg.g - 2)


def square_zero_status(cfg: K3Config) -> bool:
    """True when some nonzero class D has D.D = 0 (an isotropic class)."""
    return zero_witness(square_zero_form(cfg)) is not None
