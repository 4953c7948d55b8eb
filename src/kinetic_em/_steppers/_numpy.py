"""Pure-NumPy stepping kernel; `_kernel.c` mirrors it operation for operation.

The update order per element is fixed so that both backends round
identically:

    c     = drift(v_k)                      (depends on kind)
    x_k+1 = ((x_k + h*v_k) + (h*h/2)*c) + dI_k
    v_k+1 = (v_k + h*c) + dW_k

Both backends take erf from scipy, so they agree bit for bit.

`step_closed_form` has two routes that round alike.  A batch of more than
`SCALAR_ELEMENTS` (path, dimension) elements steps all of them at once, one
vectorized update per step.  A smaller batch, such as the single path of
`integrate`, steps each element through all steps on Python floats, which
skips NumPy's per-call overhead of a few microseconds per step.

The vectorized route works in place.  x, v and c are the rows of one
(3, M, d) block, so one multiply forms (h*v, h*c) and one add moves x and v
by it; a step is then eight NumPy calls and no temporaries.  NumPy releases
the GIL around every call, so fewer calls mean fewer hand-offs when two
worker threads step at once.  The zero kind moves x alone by h*v: adding
h*0 to v would turn a -0.0 velocity into +0.0.
"""

import numpy as np
from scipy.special import erf

from ..errors import ConfigError

KIND_ZERO = 0
KIND_CONSTANT = 1
KIND_LINEAR_FRICTION = 2
KIND_SIGN_VELOCITY = 3

# Largest M*d stepped on Python floats.  At one element a step costs 12-13 us
# vectorized and 0.6-0.9 us on floats (`per_step` in BENCH_scalar_stepper.json),
# so the routes break even at 12-30 elements by kind.
SCALAR_ELEMENTS = 8


def record_buffers(dW, stride):
    """State buffers (steps//stride, M, d) for recording every stride-th step.

    (None, None) when stride is 0; the stride must divide the step count.
    """
    if not stride:
        return None, None
    steps = dW.shape[0]
    if steps % stride:
        raise ConfigError(f"record stride {stride} must divide the step count {steps}")
    shape = (steps // stride,) + dW.shape[1:]
    return np.empty(shape), np.empty(shape)


def march(step, steps, x, v, x_rec=None, v_rec=None, stride=0):
    """Call step(k), which updates x and v in place, for k = 0..steps-1; the stepping loop.

    Records the state after step k+1 into slot (k+1)//stride - 1 whenever
    stride divides k+1.
    """
    r = 0
    for k in range(steps):
        step(k)
        if stride and (k + 1) % stride == 0:
            x_rec[r] = x
            v_rec[r] = v
            r += 1


def _step_elements(dW, dI, x, v, h, kind, params, x_rec, v_rec, stride):
    """The scalar route: each element through all steps on Python floats."""
    _, m, d = dW.shape
    h = float(h)
    hh2 = 0.5 * h * h
    p = params.tolist()
    for i in range(m):
        for j in range(d):
            xs, vs = float(x[i, j]), float(v[i, j])
            xr, vr = [], []
            for k, (dw, di) in enumerate(zip(dW[:, i, j].tolist(), dI[:, i, j].tolist()), 1):
                if kind == KIND_ZERO:
                    xs, vs = (xs + h * vs) + di, vs + dw
                else:
                    if kind == KIND_SIGN_VELOCITY:
                        c = float(erf(p[0] * vs))
                    elif kind == KIND_LINEAR_FRICTION:
                        c = -p[0] * vs
                    else:
                        c = p[j]
                    xs, vs = ((xs + h * vs) + hh2 * c) + di, (vs + h * c) + dw
                if stride and k % stride == 0:
                    xr.append(xs)
                    vr.append(vs)
            x[i, j], v[i, j] = xs, vs
            if stride:
                x_rec[:, i, j] = xr
                v_rec[:, i, j] = vr


def step_closed_form(dW, dI, x, v, h, kind, params, x_rec=None, v_rec=None, stride=0):
    """March paths in place through all steps of dW/dI, shape (steps, M, d)."""
    if dW.shape[1] * dW.shape[2] <= SCALAR_ELEMENTS:
        _step_elements(dW, dI, x, v, h, kind, params, x_rec, v_rec, stride)
        return
    state = np.empty((3,) + x.shape)
    state[0], state[1] = x, v
    xs, vs, c = state
    xv, vc = state[:2], state[1:]
    shift = np.empty((2,) + x.shape)
    hv = shift[0]
    hh2 = 0.5 * h * h
    p = params[0]
    if kind == KIND_CONSTANT:
        c[...] = params

    def step(k):
        if kind == KIND_ZERO:
            np.multiply(vs, h, out=hv)
            np.add(xs, hv, out=xs)
        else:
            if kind == KIND_SIGN_VELOCITY:
                erf(np.multiply(vs, p, out=c), out=c)
            elif kind == KIND_LINEAR_FRICTION:
                np.multiply(vs, -p, out=c)
            np.multiply(vc, h, out=shift)  # (h*v, h*c)
            np.add(xv, shift, out=xv)
            np.add(xs, np.multiply(c, hh2, out=hv), out=xs)
        np.add(xs, dI[k], out=xs)
        np.add(vs, dW[k], out=vs)

    march(step, dW.shape[0], xs, vs, x_rec, v_rec, stride)
    x[...], v[...] = xs, vs
