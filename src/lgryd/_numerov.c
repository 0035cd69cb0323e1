/* The whole inward Numerov solve of one state of lgryd.atom.solve_radial on
   a grid of n nodes, step h, W built node by node from the model potential.
   It gives the chi the Python fallback gives with numpy:

   1. W at node i (w_at) is lgryd.atom._numerov_w's, in its operation
      order, from the grid's r, 2 r^4 and 2 r^3 and from `model`: the
      constants E, (2l + 1/2)(2l + 3/2), Z - 1, a3, a4, alpha_c, so_scale,
      alpha^2 and L.S, then exp(-a1 r) on the first n1 nodes (those with
      a1 r <= 746), exp(-a2 r) on the first n2 and 1 - exp(-(r/rc)^6) on
      the first n_near (r <= rc 746^(1/6)).  numpy computes those
      exponentials, so every transcendental is its; here are only IEEE basic
      operations.  Beyond its prefix an exponential is exactly +0.0, and
      beyond both core prefixes V_core is -1/r, as in _potential.
   2. The start node, as lgryd.atom._tail_start finds it: the first node
      beyond the outer turning point (the last node with W < 0) where the
      running sum of sqrt(W), added one node at a time from the turning
      point outward as np.cumsum adds, is not <= depth / h (a NaN stops it,
      as np.searchsorted places a NaN last), capped at the last node.  With
      no W < 0 it is the last node.  The scan from the outer end keeps each
      W it builds, the turning point's and those beyond, in chi until the
      recurrence overwrites it.
   3. The recurrence chi[i-1] = (b[i] chi[i] - a[i+1] chi[i+1]) / a[i-1] from
      the seeds chi[start] = 1e-12 and chi[start-1] = 2e-12, with
      a = 1 - (h^2 / 12) W and b = 12 - 10 a computed per node, each as
      numpy computes it, in the operation order of
      tests/test_atom.py::_numerov_inward_reference: two separately rounded
      products, a difference, then a division.  It builds W[i-1] as it
      steps; W's four divisions a node run in the shadow of the
      recurrence's latency.  Build with -ffp-contract=off, so no product
      is fused into an FMA, and -fno-math-errno, so sqrt is the one
      correctly rounded instruction numpy's is and needs no libm.  No
      header beyond stddef.h: math.h alone raised the peak RSS of cc
      (gcc 12, x86-64) by 1.8 MB, above that of the CLI process that
      builds the kernel.
   4. A zero divisor a[0..start-2] is refused: chi is NaN on [0, start].
   5. chi is 0 beyond the start. */
#include <stddef.h>

struct model {
    const double *r, *two_r4, *two_r3, *e1, *e2, *cut;
    ptrdiff_t n1, n2, n_near;
    double energy, cent, z1, a3, a4, alpha_c, so_scale, so, ls;
};

static double w_at(const struct model *m, ptrdiff_t i)
{
    const double r = m->r[i];
    double v;
    if (i < m->n1 || i < m->n2) {
        const double e1 = i < m->n1 ? m->e1[i] : 0.0;
        const double e2 = i < m->n2 ? m->e2[i] : 0.0;
        v = -((e1 * m->z1 + 1.0) - (m->a4 * r + m->a3) * r * e2) / r;
    } else
        v = -1.0 / r;
    if (m->alpha_c != 0.0) {
        double t = m->alpha_c / m->two_r4[i];
        if (i < m->n_near)
            t *= m->cut[i];
        v -= t;
    }
    if (m->so_scale != 0.0)
        v += m->so / m->two_r3[i] * m->ls;
    return (v - m->energy) * 8.0 * r + m->cent / r;
}

void numerov_solve_model(ptrdiff_t n, const double *r, const double *two_r4,
                         const double *two_r3, const double *model,
                         ptrdiff_t n1, ptrdiff_t n2, ptrdiff_t n_near,
                         double h, double depth, double *chi)
{
    const struct model m = {
        r, two_r4, two_r3, model + 9, model + 9 + n1, model + 9 + n1 + n2,
        n1, n2, n_near, model[0], model[1], model[2], model[3], model[4],
        model[5], model[6], model[6] * model[7], model[8]};
    const double c = h * h / 12.0, limit = depth / h;
    ptrdiff_t turn = n - 1, start = n - 1;

    while (turn >= 0 && !((chi[turn] = w_at(&m, turn)) < 0.0))
        turn--;
    if (turn >= 0) {
        double sum = 0.0;
        for (start = turn + 1; start < n; start++) {
            sum += __builtin_sqrt(chi[start]);
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

    /* the scan kept W from the turning point out: start - 1 may be inside */
    double a_out = 1.0 - c * chi[start], a_i = 1.0 - c * w_at(&m, start - 1);
    chi[start] = 1e-12;
    chi[start - 1] = 2e-12;
    for (ptrdiff_t i = start - 1; i > 0; i--) {
        const double a_in = 1.0 - c * w_at(&m, i - 1), b_i = 12.0 - 10.0 * a_i;
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
