/* The whole inward Numerov solve of lgryd.atom._numerov_inward for one W of
   n nodes, step h.  It does what the Python fallback does with numpy:

   1. The start node, as lgryd.atom._tail_start finds it: the first node
      beyond the outer turning point (the last node with W < 0) where the
      running sum of sqrt(W), added one node at a time from the turning
      point outward as np.cumsum adds, is not <= depth / h (a NaN stops it,
      as np.searchsorted places a NaN last), capped at the last node.  With
      no W < 0 it is the last node.
   2. The recurrence chi[i-1] = (b[i] chi[i] - a[i+1] chi[i+1]) / a[i-1] from
      the seeds chi[start] = 1e-12 and chi[start-1] = 2e-12, with
      a = 1 - (h^2 / 12) W and b = 12 - 10 a computed per node, each as
      numpy computes it, in the operation order of
      tests/test_atom.py::_numerov_inward_reference: two separately rounded
      products, a difference, then a division.  Build with -ffp-contract=off,
      so no product is fused into an FMA, and -fno-math-errno, so sqrt is
      the one correctly rounded instruction numpy's is and needs no libm.
      No header beyond stddef.h: math.h alone raised the peak RSS of cc
      (gcc 12, x86-64) by 1.8 MB, above that of the CLI process that
      builds the kernel.
   3. A zero divisor a[0..start-2] is refused: chi is NaN on [0, start].
   4. chi is 0 beyond the start. */
#include <stddef.h>

void numerov_solve(ptrdiff_t n, const double *W, double h, double depth,
                  double *chi)
{
    const double c = h * h / 12.0, limit = depth / h;
    ptrdiff_t turn = n - 1, start = n - 1;

    while (turn >= 0 && !(W[turn] < 0.0))
        turn--;
    if (turn >= 0) {
        double sum = 0.0;
        for (start = turn + 1; start < n; start++) {
            sum += __builtin_sqrt(W[start]);
            if (!(sum <= limit))
                break;
        }
        if (start > n - 1)
            start = n - 1;
    }
    for (ptrdiff_t k = start + 1; k < n; k++)
        chi[k] = 0.0;
    if (start < 1) {                    /* n < 2: the seeds alone */
        if (n > 0) chi[0] = 1e-12;
        return;
    }

    chi[start] = 1e-12;
    chi[start - 1] = 2e-12;
    double a_out = 1.0 - c * W[start], a_i = 1.0 - c * W[start - 1];
    for (ptrdiff_t i = start - 1; i > 0; i--) {
        const double a_in = 1.0 - c * W[i - 1], b_i = 12.0 - 10.0 * a_i;
        if (a_in == 0.0) {
            for (ptrdiff_t k = 0; k <= start; k++)
                chi[k] = __builtin_nan("");
            return;
        }
        chi[i - 1] = (b_i * chi[i] - a_out * chi[i + 1]) / a_in;
        a_out = a_i;
        a_i = a_in;
    }
}
