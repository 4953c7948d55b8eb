/* Compiled stepping kernel; see _numpy.py for the operation-order contract.
 * Built with -ffp-contract=off, so no multiply-add is fused and, given scipy's
 * erf as `erf`, every result is bit-equal to the NumPy backend's.  The Python
 * caller checks shapes, dtypes and contiguity of the C-ordered buffers. */
#include <stddef.h>
#include <string.h>

typedef double (*erf_fn)(double, int);

void step_closed_form(const double *dW, const double *dI, double *x, double *v,
                      ptrdiff_t steps, ptrdiff_t m, ptrdiff_t d, double h,
                      int kind, const double *params, double *x_rec,
                      double *v_rec, ptrdiff_t stride, erf_fn erf)
{
    const ptrdiff_t n = m * d;
    const double hh2 = 0.5 * h * h;
    ptrdiff_t r = 0;
    for (ptrdiff_t k = 0; k < steps; k++) {
        const double *dw = dW + k * n;
        const double *di = dI + k * n;
        for (ptrdiff_t j = 0; j < n; j++) {
            double c;
            if (kind == 0) {
                x[j] = (x[j] + h * v[j]) + di[j];
                v[j] = v[j] + dw[j];
                continue;
            }
            if (kind == 3)
                c = erf(params[0] * v[j], 0);
            else if (kind == 2)
                c = -params[0] * v[j];
            else
                c = params[j % d];
            x[j] = ((x[j] + h * v[j]) + hh2 * c) + di[j];
            v[j] = (v[j] + h * c) + dw[j];
        }
        if (stride > 0 && (k + 1) % stride == 0) {
            memcpy(x_rec + r * n, x, (size_t)n * sizeof(double));
            memcpy(v_rec + r * n, v, (size_t)n * sizeof(double));
            r++;
        }
    }
}
