"""Unit conversions. Everything inside the package is in Hartree atomic units;
conversions happen once, at the configuration boundary (CODATA 2018 values)."""

BOHR_RADIUS_M = 5.29177210903e-11        # a_0 in metres
EFIELD_AU_V_PER_M = 5.14220674763e11     # atomic unit of electric field
HARTREE_HZ = 6.579683920502e15           # E_h / h
FINE_STRUCTURE = 7.2973525693e-3

_UM_TO_AU = 1e-6 / BOHR_RADIUS_M


def um_to_au(x_um: float) -> float:
    return x_um * _UM_TO_AU


def field_vpm_to_au(e_vpm: float) -> float:
    return e_vpm / EFIELD_AU_V_PER_M


# Rabi convention used throughout: nu = |<f|H_int|i>| / h, reported in kHz.
# (A single documented constant; ratios between channels are convention-free.)
def rabi_kHz(matrix_element_au: float) -> float:
    return abs(matrix_element_au) * HARTREE_HZ * 1e-3
