/* The whole radial solve of one state of lgryd.atom.solve_radial on a grid
   of n nodes xi0 + i h, W built node by node from the model potential, and
   the Simpson moments of lgryd.atom.radial_matrix_element.  Each gives what
   the Python fallback gives with numpy, bit for bit, and reads no grid
   array:

   1. W at node i (w_at) is lgryd.atom._numerov_w's, in its operation
      order, from xi = xi0 + i h and r = xi xi, as RadialGrid builds them,
      the powers r^3 = (r r) r, 2 r^4 = (r^3 r) 2 and 2 r^3 = r^3 2, and
      `model`: the 14 constants E, (2l + 1/2)(2l + 3/2), Z - 1, a3, a4,
      alpha_c, so_scale, alpha^2, L.S, a1, a2, rc and the block's cut
      radii r_core and r_pol (lgryd.atom._cut_radii).  exp(-a1 r) and
      exp(-a2 r) are libm's where r <= r_core, and
      1 - exp(-(u^2 u^2) u^2), u = r / rc, where r <= r_pol.  Beyond
      r_core each core term is at most 2^-56, so z rounds to exactly 1
      and V_core is -1/r; beyond r_pol the factor is exactly 1, as in
      _potential.  The fallback takes the same libm exp (math.exp) at the
      same points, so no bit depends on numpy's SIMD loops.
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
      steps, and notes each sign change chi[i-1] chi[i] < 0 (the product
      rounded, as numpy rounds it).
   4. A zero divisor a[0..start-2] is refused: chi is NaN on [0, start],
      with no sign change.
   5. chi is 0 beyond the start.
   6. The near-boundary blank of lgryd.atom._finish: a sign change at
      i < 3 zeroes chi[0..i] and is no node.
   7. The divergent-core blank: over |chi| up to the first remaining sign
      change, the first NaN or else the first minimum (np.argmin); if it is
      past node 0, no node before it exceeds |chi[0]| (np.max, which a NaN
      fails) and |chi[0]| > 10 times it, chi is zeroed through it.
   8. The node count: the sign changes left beyond the blanks.
   9. The norm 2 Simpson(((chi chi) xi) xi), as lgryd.atom._simpson sums
      it: each strided sum in numpy's float64 add.reduce order (`pairwise`),
      xi built at each node as in step 1.
  10. chi divided by sqrt(norm^2) where norm^2 is finite, as
      lgryd.atom._python_solve divides it (IEEE sqrt and division are
      correctly rounded, so the bits are numpy's), and NaN throughout
      where it is not.
   Steps 1-10 take one call of numerov_solve_model, which writes the node
   count, the divergent-core bit and norm^2 over model[0..2];
   simpson_product takes 2 Simpson((f g) r^(alpha + 1)) for a matrix
   element with no temporary, each node's r^(alpha + 1) = ((r r) r) ... by
   alpha products from the left, four nodes' chains side by side.

   Build with -ffp-contract=off, so no product is fused into an FMA, and
   -fno-math-errno, so sqrt is the one correctly rounded instruction numpy's
   is.  exp is declared here and linked without -lm: the Python process
   that loads the library already has libm.  cc's peak RSS (gcc 12, x86-64)
   counts where the CLI process that builds the kernel is measured, so the
   source stays small: no header beyond stddef.h (math.h alone took
   1.8 MB), and -Og, which runs fewer passes than -O1 (29.8 MB against
   31.0, and 33.8 at -O2) and solves as fast.  The solve is bound by
   throughput, not by the recurrence's latency: two states interleaved in
   one loop took 224 us against 233 us one after the other, so it gains
   by doing less work a node, such as the exponentials the cut radii
   skip.  The pairwise sum fills a block of terms and then adds it.  At
   alpha > 0 it fills four nodes at a time, keeping their four product
   chains in locals, so the chains' latencies overlap and each node still
   takes its own products in term's order: a moment's cost grows with
   alpha at a third of the rate of one chain at a time, or less.  The
   block's last count % 4 nodes and the norm's alpha = 0 terms take `term`,
   inlined, as a call each would slow the loop. */
#include <stddef.h>

double exp(double);     /* libm's, which the Python process has loaded */

/* the constants of `model` at a grid of nodes xi0 + i h */
struct model {
    double xi0, h, energy, cent, z1, a3, a4, alpha_c, so_scale, so, ls, a1, a2,
           rc, r_core, r_pol;
};

static struct model unpack(double xi0, double h, const double *model)
{
    const struct model m = {
        xi0, h, model[0], model[1], model[2], model[3], model[4], model[5],
        model[6], model[6] * model[7], model[8], model[9], model[10],
        model[11], model[12], model[13]};
    return m;
}

/* W at node i: w_at, or in tests/_numerov_shim.c a given W */
typedef double w_fn(const struct model *m, ptrdiff_t i);

static double w_at(const struct model *m, ptrdiff_t i)
{
    const double xi = m->xi0 + (double)i * m->h, r = xi * xi;
    const double r3 = r * r * r;
    double v;
    if (r <= m->r_core) {
        const double e1 = exp(-(m->a1 * r)), e2 = exp(-(m->a2 * r));
        v = -((e1 * m->z1 + 1.0) - (m->a4 * r + m->a3) * r * e2) / r;
    } else
        v = -1.0 / r;
    if (m->alpha_c != 0.0) {
        double t = m->alpha_c / (r3 * r * 2.0);
        if (r <= m->r_pol) {
            const double u = r / m->rc, u2 = u * u;
            t *= 1.0 - exp(-(u2 * u2 * u2));
        }
        v -= t;
    }
    if (m->so_scale != 0.0)
        v += m->so / (r3 * 2.0) * m->ls;
    return (v - m->energy) * 8.0 * r + m->cent / r;
}

/* the sign changes chi[i] chi[i+1] < 0 of an inward solution: how many,
   and the first (the smallest i) */
struct crossings {
    ptrdiff_t count, first;
};

/* steps 2-5 on the W that w gives; the recurrence notes each sign change
   as it makes it */
static struct crossings inward(ptrdiff_t n, w_fn *w, const struct model *m,
                               double depth, double *chi)
{
    const double h = m->h, c = h * h / 12.0, limit = depth / h;
    ptrdiff_t turn = n - 1, start = n - 1;
    struct crossings x = {0, -1};

    while (turn >= 0 && !((chi[turn] = w(m, turn)) < 0.0))
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
        return x;
    }

    /* the scan kept W from the turning point out: start - 1 may be inside */
    double a_out = 1.0 - c * chi[start], a_i = 1.0 - c * w(m, start - 1);
    chi[start] = 1e-12;
    chi[start - 1] = 2e-12;
    for (ptrdiff_t i = start - 1; i > 0; i--) {
        const double a_in = 1.0 - c * w(m, i - 1), b_i = 12.0 - 10.0 * a_i;
        if (a_in == 0.0) {
            for (ptrdiff_t k = 0; k <= start; k++)
                chi[k] = __builtin_nan("");
            x.count = 0;
            return x;
        }
        chi[i - 1] = (b_i * chi[i] - a_out * chi[i + 1]) / a_in;
        if (chi[i - 1] * chi[i] < 0.0) {
            x.count++;
            x.first = i - 1;
        }
        a_out = a_i;
        a_i = a_in;
    }
    return x;
}

/* the Simpson integrand at node i, where xi = xi0 + i h and r = xi xi:
   (f g) r^(alpha + 1), or the norm's ((f g) xi) xi at alpha = 0 */
struct product {
    const double *f, *g;
    double xi0, h;
    int alpha;
};

static inline __attribute__((always_inline))
double term(const struct product *t, ptrdiff_t i)
{
    const double xi = t->xi0 + (double)i * t->h, v = t->f[i] * t->g[i];
    if (!t->alpha)
        return v * xi * xi;
    const double r = xi * xi;
    double p = r;                       /* r^(alpha + 1), from the left */
    for (int k = 0; k < t->alpha; k++)
        p *= r;
    return v * p;
}

/* numpy's float64 pairwise_sum of a[0..count-1] for count <= 128: a plain
   loop below 8 and eight accumulators from 8 */
static double block_sum(const double *a, ptrdiff_t count)
{
    double s = 0.0;
    ptrdiff_t k = 0;
    if (count >= 8) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3], r4 = a[4],
               r5 = a[5], r6 = a[6], r7 = a[7];
        for (k = 8; k < count - count % 8; k += 8) {
            r0 += a[k];
            r1 += a[k + 1];
            r2 += a[k + 2];
            r3 += a[k + 3];
            r4 += a[k + 4];
            r5 += a[k + 5];
            r6 += a[k + 6];
            r7 += a[k + 7];
        }
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    }
    for (; k < count; k++)
        s += a[k];
    return s;
}

/* numpy's float64 pairwise_sum of the terms at i, i + 2, ... (count of
   them): each block of at most 128 as block_sum adds it, and above that
   halves split at a multiple of 8 */
static double pairwise(const struct product *t, ptrdiff_t i, ptrdiff_t count)
{
    if (count <= 128) {
        double a[128];
        ptrdiff_t k = 0;
        if (t->alpha)                   /* term's products, four nodes */
            for (; k + 4 <= count; k += 4) {
                const ptrdiff_t j = i + 2 * k;
                const double x0 = t->xi0 + (double)j * t->h,
                             x1 = t->xi0 + (double)(j + 2) * t->h,
                             x2 = t->xi0 + (double)(j + 4) * t->h,
                             x3 = t->xi0 + (double)(j + 6) * t->h;
                const double r0 = x0 * x0, r1 = x1 * x1, r2 = x2 * x2,
                             r3 = x3 * x3;
                double p0 = r0, p1 = r1, p2 = r2, p3 = r3;
                for (int n = 0; n < t->alpha; n++) {
                    p0 *= r0;
                    p1 *= r1;
                    p2 *= r2;
                    p3 *= r3;
                }
                a[k] = t->f[j] * t->g[j] * p0;
                a[k + 1] = t->f[j + 2] * t->g[j + 2] * p1;
                a[k + 2] = t->f[j + 4] * t->g[j + 4] * p2;
                a[k + 3] = t->f[j + 6] * t->g[j + 6] * p3;
            }
        for (; k < count; k++)
            a[k] = term(t, i + 2 * k);
        return block_sum(a, count);
    }
    ptrdiff_t half = count / 2;
    half -= half % 8;
    return pairwise(t, i, half) + pairwise(t, i + 2 * half, count - half);
}

/* 2 lgryd.atom._simpson of the terms at nodes 0..n-1 (n >= 3); a sum is
   add.reduce's, 0.0 + pairwise_sum */
static double simpson2(const struct product *t, ptrdiff_t n)
{
    const double h = t->h;
    const ptrdiff_t m = n - 1 + n % 2;  /* the composite rule's odd count */
    double s = h / 3.0 * (term(t, 0) + term(t, m - 1)
                          + 4.0 * (0.0 + pairwise(t, 1, (m - 1) / 2))
                          + 2.0 * (0.0 + pairwise(t, 2, (m - 3) / 2)));
    if (m < n)
        s += h * (5.0 * term(t, n - 1) + 8.0 * term(t, n - 2)
                  - term(t, n - 3)) / 12.0;
    return 2.0 * s;
}

/* steps 6-9: nodes, the divergent-core bit and the norm into out[0..2].
   No divergent-core blank can follow a near-boundary one: |chi[0]| = 0 is
   then the first minimum, and a NaN in the segment fails the max test. */
static void finish(ptrdiff_t n, double *chi, double xi0, double h,
                   struct crossings x, double *out)
{
    ptrdiff_t cut = -1;                 /* chi[0..cut] is blanked */
    int core = 0;
    if (x.count && x.first < 3) {
        cut = x.first;
        x.count--;
    } else {
        const ptrdiff_t end = x.count ? x.first + 1 : n;
        const double c0 = __builtin_fabs(chi[0]);
        ptrdiff_t imin = 0, above = end;    /* the first node with |chi| > c0 */
        double lo = c0;
        int nan = c0 != c0;
        for (ptrdiff_t i = 1; i < end && !nan; i++) {
            const double c = __builtin_fabs(chi[i]);
            nan = c != c;
            if (c < lo) {
                lo = c;
                imin = i;
            }
            if (c > c0 && above == end)
                above = i;
        }
        core = !nan && imin > 0 && imin < above && c0 > 10.0 * lo;
        if (core) {
            cut = imin;
            x.count -= x.count && imin == x.first;
        }
    }
    for (ptrdiff_t k = 0; k <= cut; k++)
        chi[k] = 0.0;

    const struct product norm = {chi, chi, xi0, h, 0};
    out[0] = (double)x.count;
    out[1] = core;
    out[2] = simpson2(&norm, n);
}

void numerov_solve_model(ptrdiff_t n, double xi0, double h, double depth,
                         double *model, double *chi)
{
    const struct model m = unpack(xi0, h, model);
    finish(n, chi, xi0, h, inward(n, w_at, &m, depth, chi), model);
    if (__builtin_isfinite(model[2])) {         /* step 10 */
        const double norm = __builtin_sqrt(model[2]);
        for (ptrdiff_t i = 0; i < n; i++)
            chi[i] /= norm;
    } else
        for (ptrdiff_t i = 0; i < n; i++)
            chi[i] = __builtin_nan("");
}

double simpson_product(ptrdiff_t n, const double *f, const double *g,
                       double xi0, int alpha, double h)
{
    const struct product t = {f, g, xi0, h, alpha};
    return simpson2(&t, n);
}
