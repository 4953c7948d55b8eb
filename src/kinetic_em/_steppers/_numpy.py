"""Pure-NumPy stepping kernel; `_kernel.c` mirrors it operation for operation.

The update order per element is fixed so that both backends round
identically:

    c     = drift(v_k)                      (depends on kind)
    x_k+1 = ((x_k + h*v_k) + (h*h/2)*c) + dI_k
    v_k+1 = (v_k + h*c) + dW_k

Both backends take erf from scipy, so they agree bit for bit.
"""

import numpy as np
from scipy.special import erf

from ..errors import ConfigError

KIND_ZERO = 0
KIND_CONSTANT = 1
KIND_LINEAR_FRICTION = 2
KIND_SIGN_VELOCITY = 3


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
    """Set (x, v) = step(k) in place for k = 0..steps-1; the Python stepping loop.

    Records the state after step k+1 into slot (k+1)//stride - 1 whenever
    stride divides k+1.
    """
    r = 0
    for k in range(steps):
        x[...], v[...] = step(k)
        if stride and (k + 1) % stride == 0:
            x_rec[r] = x
            v_rec[r] = v
            r += 1


def step_closed_form(dW, dI, x, v, h, kind, params, x_rec=None, v_rec=None, stride=0):
    """March paths in place through all steps of dW/dI, shape (steps, M, d)."""
    hh2 = 0.5 * h * h

    def step(k):
        if kind == KIND_ZERO:
            return (x + h * v) + dI[k], v + dW[k]
        if kind == KIND_SIGN_VELOCITY:
            c = erf(params[0] * v)
        elif kind == KIND_LINEAR_FRICTION:
            c = -params[0] * v
        else:
            c = params
        return ((x + h * v) + hh2 * c) + dI[k], (v + h * c) + dW[k]

    march(step, dW.shape[0], x, v, x_rec, v_rec, stride)
