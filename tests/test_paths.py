import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinetic_em import paths
from kinetic_em._rng import ROLE_STRONG, stream_key
from kinetic_em.errors import ConfigError, DomainError
from kinetic_em.paths import (
    AugmentedPath,
    GridSpec,
    _normal_tiles,
    coarsen,
    coarsen_block,
    increment_identity_report,
    prefix_integrals,
    run_streams,
    sample_increment_block,
    sample_path,
)


def test_grid_spec_basics():
    g = GridSpec(n=8, horizon=1.0, d=2)
    assert g.h == 0.125
    assert g.num_steps == 8
    assert np.allclose(g.times(), np.arange(9) / 8.0)
    g2 = GridSpec(n=4, horizon=0.5)
    assert g2.num_steps == 2


def test_grid_spec_rejects_fractional_steps():
    with pytest.raises(ConfigError):
        GridSpec(n=3, horizon=0.5)
    with pytest.raises(ConfigError):
        GridSpec(n=0)
    with pytest.raises(ConfigError):
        GridSpec(n=4, d=0)


def test_sample_path_deterministic():
    g = GridSpec(n=16, d=2)
    a = sample_path(g, seed=123, stream_id=7)
    b = sample_path(g, seed=123, stream_id=7)
    assert np.array_equal(a.dW, b.dW) and np.array_equal(a.dI, b.dI)
    c = sample_path(g, seed=123, stream_id=8)
    assert not np.array_equal(a.dW, c.dW)


def test_path_arrays_immutable():
    p = sample_path(GridSpec(n=4), seed=0)
    with pytest.raises(ValueError):
        p.dW[0, 0] = 1.0


def test_increment_moments_match_closed_form():
    # Var dW = h, Var dI = h^3/3, Cov = h^2/2 within 3 standard errors
    g = GridSpec(n=16, horizon=1.0)
    dw, di = sample_increment_block(g, seed=42, stream_ids=range(4000))
    h = g.h
    m = dw.size
    vw, vi = dw.var(), di.var()
    cov = (dw * di).mean() - dw.mean() * di.mean()
    assert abs(vw - h) < 3 * h * math.sqrt(2.0 / m)
    assert abs(vi - h**3 / 3) < 3 * (h**3 / 3) * math.sqrt(2.0 / m)
    se_cov = math.sqrt((h * h**3 / 3 + (h**2 / 2) ** 2) / m)
    assert abs(cov - h**2 / 2) < 3 * se_cov


def test_integral_increment_against_riemann_oracle():
    # independent construction: I_h from a dense Euler sum of the Brownian path
    rng = np.random.default_rng(3)
    sub, m, h = 4096, 4000, 0.5
    dt = h / sub
    steps = rng.normal(scale=math.sqrt(dt), size=(m, sub))
    w = np.cumsum(steps, axis=1)
    w_end = w[:, -1]
    i_end = (np.concatenate([np.zeros((m, 1)), w[:, :-1]], axis=1)).sum(axis=1) * dt
    cov = np.cov(np.stack([w_end, i_end]))
    assert abs(cov[0, 0] - h) < 4 * h * math.sqrt(2.0 / m)
    assert abs(cov[1, 1] - h**3 / 3) < 4 * (h**3 / 3) * math.sqrt(3.0 / m) + h**3 / sub
    assert abs(cov[0, 1] - h**2 / 2) < 4 * math.sqrt((h * h**3 / 3 + h**4 / 4) / m)


def test_prefix_integrals_matches_cumsum_oracle():
    # steps on axis 0: a (steps, M, d) block gives every path's own (W, I)
    g = GridSpec(n=64, d=2)
    dw, di = sample_increment_block(g, seed=5, stream_ids=range(3))
    w, i = prefix_integrals(dw, di, g.h)
    assert w.shape == i.shape == (65, 3, 2)
    assert np.all(w[0] == 0.0) and np.all(i[0] == 0.0)
    h = g.h
    for j in range(3):
        w_ref = np.vstack([np.zeros(2), np.cumsum(dw[:, j], axis=0)])
        i_ref = np.vstack([np.zeros(2), np.cumsum(di[:, j] + h * w_ref[:-1], axis=0)])
        assert np.allclose(w[:, j], w_ref, atol=1e-12)
        assert np.allclose(i[:, j], i_ref, atol=1e-12)


def test_prefix_integrals_matches_exact_arithmetic():
    # plain cumsum keeps the exact identity at 2^14 steps, no compensation
    g = GridSpec(n=2**14)
    p = sample_path(g, seed=17)
    w, i = prefix_integrals(p.dW, p.dI, g.h)
    h = Fraction(g.h)
    w_ex = i_ex = Fraction(0)
    w_err = i_err = 0.0
    for dw, di, w_k, i_k in zip(p.dW[:, 0], p.dI[:, 0], w[1:, 0], i[1:, 0]):
        w_ex, i_ex = w_ex + Fraction(dw), i_ex + h * w_ex + Fraction(di)
        w_err = max(w_err, abs(float(Fraction(w_k) - w_ex)))
        i_err = max(i_err, abs(float(Fraction(i_k) - i_ex)))
    assert w_err <= 1e-12 and i_err <= 1e-12


def test_coarsen_preserves_shared_time_integrals():
    p = sample_path(GridSpec(n=64, d=2), seed=11)
    c = coarsen(p, 8)
    assert c.grid.n == 8
    wf, ifine = prefix_integrals(p.dW, p.dI, p.grid.h)
    wc, icoarse = prefix_integrals(c.dW, c.dI, c.grid.h)
    assert np.allclose(wf[::8], wc, atol=1e-12)
    assert np.allclose(ifine[::8], icoarse, atol=1e-12)


def test_coarsen_chain_matches_single_step():
    p = sample_path(GridSpec(n=32), seed=2)
    a = coarsen(coarsen(p, 2), 4)
    b = coarsen(p, 8)
    assert np.allclose(a.dW, b.dW, atol=1e-13)
    assert np.allclose(a.dI, b.dI, atol=1e-13)


def test_coarsen_validation():
    p = sample_path(GridSpec(n=12), seed=0)
    assert coarsen(p, 1) is p
    with pytest.raises(ConfigError):
        coarsen(p, 5)
    with pytest.raises(ConfigError):
        coarsen(p, 0)
    with pytest.raises(ConfigError):
        coarsen(sample_path(GridSpec(n=6, horizon=2.0), seed=0), 4)  # 4 divides 12 steps, not n=6


@settings(max_examples=25, deadline=None)
@given(
    log_n=st.integers(min_value=2, max_value=6),
    log_f=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_coarsen_consistency_property(log_n, log_f, seed):
    n = 2**log_n
    factor = 2 ** min(log_f, log_n)
    p = sample_path(GridSpec(n=n), seed=seed)
    c = coarsen(p, factor)
    wf, ifine = prefix_integrals(p.dW, p.dI, p.grid.h)
    wc, icoarse = prefix_integrals(c.dW, c.dI, c.grid.h)
    assert np.allclose(wf[::factor], wc, atol=1e-12)
    assert np.allclose(ifine[::factor], icoarse, atol=1e-12)


def test_coarsen_block_matches_path_coarsen():
    # a single path (M = 1) must coarsen in the block's summation order
    for d in (1, 2):
        g = GridSpec(n=256, d=d)
        dw, di = sample_increment_block(g, seed=7, stream_ids=range(5))
        for factor in (4, 8, 16, 64, 256):
            dwc, dic = coarsen_block(dw, di, factor, g.h)
            for j in range(5):
                p = AugmentedPath(grid=g, dW=dw[:, j], dI=di[:, j], seed=7, stream_id=j)
                c = coarsen(p, factor)
                assert np.array_equal(dwc[:, j], c.dW), (d, factor, j)
                assert np.array_equal(dic[:, j], c.dI), (d, factor, j)


# sha256 of coarsen_block's (dW, dI) over factors 2, 4, ..., 256 for 5 streams,
# taken when it summed with numpy's sum(axis=1) over the substep axis.
_COARSEN_GOLDEN = {
    1: "1dc55b58315828c0d8e634891fb8e1c2ae5986e04c7d56dfe3c945355b46a8dd",
    2: "bdc99bbe4977f16c2dffdd80794d9a3b537efb4f11dc641d892305f90b8141a3",
}


@pytest.mark.parametrize("d", sorted(_COARSEN_GOLDEN))
def test_coarsen_block_golden_digests(d):
    g = GridSpec(n=256, d=d)
    dw, di = sample_increment_block(g, 20260814, [stream_key(ROLE_STRONG, i) for i in range(5)])
    digest = hashlib.sha256()
    for factor in (2, 4, 8, 16, 32, 64, 128, 256):
        for a in coarsen_block(dw, di, factor, g.h):
            assert a.shape == (g.num_steps // factor, 5, d) and a.flags.c_contiguous
            digest.update(a.astype("<f8").tobytes())
    assert digest.hexdigest() == _COARSEN_GOLDEN[d]


def test_coarsen_block_holds_three_coarse_arrays():
    # 2 MB per fine array; the loop keeps the two coarse outputs, one
    # scratch array and NumPy's 64 KB ufunc buffer, and no temporary of the
    # fine block's size
    rng = np.random.default_rng(3)
    dw, di = rng.normal(size=(2, 4096, 64, 1))
    for factor in (4, 16, 256):
        tracemalloc.start()
        try:
            dwc, _ = coarsen_block(dw, di, factor, 1.0 / 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * dwc.nbytes + 128 * 1024 < dw.nbytes, (factor, peak)


def test_sample_increment_block_layout_matches_sample_path():
    g = GridSpec(n=256, d=3)
    per_tile = paths._TILE_WORDS // (2 * g.num_steps * g.d)
    ids = [5 + 4 * j for j in range(2 * per_tile + 3)]  # three tiles, the last partial
    dw, di = sample_increment_block(g, seed=21, stream_ids=ids)
    assert dw.shape == di.shape == (g.num_steps, len(ids), g.d)
    assert dw.flags.c_contiguous and di.flags.c_contiguous
    for col, sid in enumerate(ids):
        p = sample_path(g, seed=21, stream_id=sid)
        assert np.array_equal(dw[:, col], p.dW)
        assert np.array_equal(di[:, col], p.dI)


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# Digests computed with a per-stream sampler (one fresh generator and one
# column write per stream); the tiled block sampler must reproduce them bit
# for bit, whatever the tile size.
_GOLDEN = {
    "dW": "cd8d4228cf657b57e162b7e138cb56cba57add78bc96ff23ee9b717a2ee44c6c",
    "dI": "864e9cc292034a5011fe5f7bf872cbe79e95ea06ef5620db738731f32867c513",
    "xi": "b933d4081d258c22a0bdb138b2b048f4b15e5038138fc6d89b707eea1d4ae63b",
}


@pytest.mark.parametrize("tile_words", [None, 1024])
def test_block_sampler_golden_digests(monkeypatch, tile_words):
    if tile_words is not None:
        # 4 streams of 256 words per tile: 37 streams end in a partial tile.
        monkeypatch.setattr(paths, "_TILE_WORDS", tile_words)
    g = GridSpec(n=64, d=2)
    ids = [stream_key(ROLE_STRONG, i) for i in range(37)]
    dw, di = sample_increment_block(g, 20260814, ids)
    # each tile is valid until the next is drawn, so keep a copy
    xi = np.concatenate([t.copy() for _, _, t in _normal_tiles(20260814, ids, g.num_steps, g.d)],
                        axis=1)
    assert xi.shape == (g.num_steps, len(ids), g.d, 2) and xi.flags.c_contiguous
    assert _sha256(dw) == _GOLDEN["dW"]
    assert _sha256(di) == _GOLDEN["dI"]
    assert _sha256(xi) == _GOLDEN["xi"]


def test_increment_identity_renewal():
    rep = increment_identity_report(GridSpec(n=16), s_index=5, t_index=13, samples=20000)
    assert rep.max_cov_sigmas() < 4.0
    assert rep.max_cross_sigmas() < 4.0
    assert rep.cov_expected[0, 0, 0] == pytest.approx(rep.t - rep.s)


def test_increment_identity_report_from_time_zero_has_zero_cross_sigmas():
    # (W_0, I_0) = 0, so every cross covariance and its standard error are 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = increment_identity_report(GridSpec(n=16), s_index=0, t_index=8, samples=200)
        assert np.all(rep.cross == 0.0) and np.all(rep.cross_se == 0.0)
        assert rep.max_cross_sigmas() == 0.0
        assert rep.max_cov_sigmas() < 4.0


def test_increment_identity_report_is_chunk_invariant(monkeypatch):
    g = GridSpec(n=8, d=2)
    base = increment_identity_report(g, s_index=3, t_index=7, samples=1000, seed=4)
    monkeypatch.setattr(paths, "_IDENTITY_CHUNK", 97)  # 10 full chunks and a partial one
    rep = increment_identity_report(g, s_index=3, t_index=7, samples=1000, seed=4)
    for name in ("cov", "cov_se", "cross", "cross_se"):
        assert np.array_equal(getattr(rep, name), getattr(base, name)), name


def test_run_streams_rows_do_not_depend_on_threads_or_chunk():
    g = GridSpec(n=4, d=2)

    def work(lo, hi, dw, di):
        # every increment of each stream, one row per stream
        return np.concatenate((dw, di), axis=2).transpose(1, 0, 2).reshape(hi - lo, -1)

    one = run_streams(g, 11, ROLE_STRONG, 2, 50, 50, 1, work)
    pooled = run_streams(g, 11, ROLE_STRONG, 2, 50, 7, 3, work)
    assert one.shape == (50, 2 * g.num_steps * g.d)
    assert np.array_equal(pooled, one)
    dw, _ = sample_increment_block(g, 11, [stream_key(ROLE_STRONG, s, level=2) for s in range(50)])
    assert np.array_equal(one[:, :g.d], dw[0])


def test_increment_identity_validation():
    g = GridSpec(n=16)
    with pytest.raises(ConfigError):
        increment_identity_report(g, 5, 13, samples=50)
    with pytest.raises(DomainError):
        increment_identity_report(g, 13, 5, samples=200)
    with pytest.raises(DomainError):
        increment_identity_report(g, 0, 99, samples=200)
    for s, t, name in ((2.5, 6, "s_index"), (2, 6.0, "t_index"), ("1", 4, "s_index"),
                       (True, 3, "s_index")):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            increment_identity_report(g, s, t, samples=200)
