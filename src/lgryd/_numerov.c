/* The inward Numerov recurrence of lgryd.atom._numerov_steps, in its
   operation order: two separately rounded products, a difference, then a
   division.  Build with -ffp-contract=off, so no product is fused into an
   FMA.  Returns 1 at a zero divisor, where the Python loop raises. */
#include <stddef.h>

int numerov_inward(ptrdiff_t n, const double *a, const double *b, double *chi)
{
    if (n > 0) chi[n - 1] = 1e-12;
    if (n > 1) chi[n - 2] = 2e-12;
    for (ptrdiff_t i = n - 2; i > 0; i--) {
        if (a[i - 1] == 0.0)
            return 1;
        chi[i - 1] = (b[i] * chi[i] - a[i + 1] * chi[i + 1]) / a[i - 1];
    }
    return 0;
}
