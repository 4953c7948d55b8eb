import math

import numpy as np
import pytest

from kinetic_em.drifts import sign_velocity
from kinetic_em.errors import ConfigError, check_int, check_real
from kinetic_em.rates import strong_error, tv_proxy, weak_error


def test_check_int_accepts_integers_at_or_above_the_minimum():
    assert check_int("n", 3, 1) == 3
    assert check_int("n", 1, 1) == 1
    got = check_int("n", np.int64(16), 1)
    assert got == 16 and type(got) is int
    for bad in (0, -1, True, False, 2.0, np.float64(2.0), "8", None, math.nan, math.inf):
        with pytest.raises(ConfigError, match=r"^n must be an integer >= 1, got "):
            check_int("n", bad, 1)


def test_check_real_returns_finite_floats_within_the_bound():
    got = check_real("theta", np.float32(0.5), 0, strict=True)
    assert got == 0.5 and type(got) is float
    assert check_real("m", 1, 1) == 1.0
    assert type(check_real("m", np.int64(2), 1)) is float
    assert check_real("kappa", -1e300) == -1e300
    with pytest.raises(ConfigError, match=r"^m must be >= 1 and finite, got 0\.5$"):
        check_real("m", 0.5, 1)
    with pytest.raises(ConfigError, match=r"^theta must be > 0 and finite, got 0$"):
        check_real("theta", 0, 0, strict=True)
    assert check_real("beta", 0, 0) == 0.0
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.inf):
        with pytest.raises(ConfigError, match=r"^kappa must be finite, got "):
            check_real("kappa", bad)
        with pytest.raises(ConfigError, match=r"^t must be > 0 and finite, got "):
            check_real("t", bad, 0, strict=True)
    for bad in (True, "1.0", None, 1j):
        with pytest.raises(ConfigError, match=r"^gamma must be >= 0 and finite, got "):
            check_real("gamma", bad, 0)


def test_rate_experiments_reject_zero_threads():
    s = sign_velocity()
    for run in (lambda: strong_error(s, 0.5, (4, 8), 8, samples=100, threads=0),
                lambda: weak_error(s, 0.5, (4, 8), 8, samples=100, threads=0),
                lambda: tv_proxy(s, 0.5, 4, 8, bins=8, samples=512, threads=0)):
        with pytest.raises(ConfigError, match=r"^threads must be an integer >= 1, got 0$"):
            run()
