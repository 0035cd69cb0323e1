/* The inward Numerov recurrence of lgryd.atom._numerov_inward, in the
   operation order of tests/test_atom.py::_numerov_inward_reference, which it
   and the Python fallback lgryd.atom._numerov_steps are tested against: two
   separately rounded products, a difference, then a division.  Build with
   -ffp-contract=off, so no product is fused into an FMA.  The caller has
   refused a zero divisor a[0..n-3] before the call. */
#include <stddef.h>

void numerov_inward(ptrdiff_t n, const double *a, const double *b, double *chi)
{
    if (n > 0) chi[n - 1] = 1e-12;
    if (n > 1) chi[n - 2] = 2e-12;
    for (ptrdiff_t i = n - 2; i > 0; i--)
        chi[i - 1] = (b[i] * chi[i] - a[i + 1] * chi[i + 1]) / a[i - 1];
}
