/* Test-only exports of the compiled solve's parts, built from the kernel's
   own source with its build flags (tests/test_atom.py, the `shim` fixture):
   W node by node, as the solve builds it, and the inward solve alone,
   before the blanks, the node count and the norm. */
#include "../src/lgryd/_numerov.c"

void w_model(ptrdiff_t n, const double *r, const double *two_r4,
             const double *two_r3, const double *model, ptrdiff_t n1,
             ptrdiff_t n2, ptrdiff_t n_near, double *w)
{
    const struct model m = unpack(r, two_r4, two_r3, model, n1, n2, n_near);
    for (ptrdiff_t i = 0; i < n; i++)
        w[i] = w_at(&m, i);
}

void inward_model(ptrdiff_t n, const double *r, const double *two_r4,
                  const double *two_r3, const double *model, ptrdiff_t n1,
                  ptrdiff_t n2, ptrdiff_t n_near, double h, double depth,
                  double *chi)
{
    const struct model m = unpack(r, two_r4, two_r3, model, n1, n2, n_near);
    inward(n, &m, h, depth, chi);
}
