/* Test-only exports of the compiled solve's parts, built from the kernel's
   own source with its build flags (tests/test_atom.py, the `shim` fixture):
   W node by node, as the solve builds it from a model's constants, and the
   inward solve, alone or with the blanks, the node count and the norm, of
   a W given node by node in an array. */
#include "../src/lgryd/_numerov.c"

void w_model(ptrdiff_t n, double xi0, double h, const double *model,
             double *w)
{
    const struct model m = unpack(xi0, h, model);
    for (ptrdiff_t i = 0; i < n; i++)
        w[i] = w_at(&m, i);
}

/* a model whose W is read from an array */
struct table {
    struct model m;
    const double *w;
};

static double w_table(const struct model *m, ptrdiff_t i)
{
    return ((const struct table *)m)->w[i];
}

void inward_w(ptrdiff_t n, const double *w, double h, double depth,
              double *chi)
{
    const struct table t = {.m = {.h = h}, .w = w};
    inward(n, w_table, &t.m, depth, chi);
}

void solve_w(ptrdiff_t n, const double *w, double xi0, double h,
             double depth, double *chi, double *out)
{
    const struct table t = {.m = {.h = h}, .w = w};
    finish(n, chi, xi0, h, inward(n, w_table, &t.m, depth, chi), out);
}
