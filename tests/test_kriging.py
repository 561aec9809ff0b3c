"""The FFT Kriging step against its dense reference on random small lattices.

Lattices have an even column order n_v from 4 to 12, n_h from 1 to 4
columns, any blur length k, and an empty, a rows x columns (Kronecker) or a
scattered mask of exactly observed pixels.
"""

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from sbdeconv.gauss import HardConstraint, condition_by_kriging, conditional_params, krige
from sbdeconv.model import CorrelationSpec, HyperParams, LatticeSpec, build_correlation, \
    build_image_prior

RTOL = 1e-10

# p <= 1 keeps every cyclic correlation positive definite at any order
specs = st.builds(CorrelationSpec, st.floats(0.5, 3.0), st.floats(0.5, 1.0))


@st.composite
def lattices(draw):
    n_v = 2 * draw(st.integers(2, 6))
    n_h = draw(st.integers(1, 4))
    k = draw(st.integers(1, n_v))
    mask = draw(st.sampled_from(("empty", "kron", "scattered")))
    if mask == "kron":
        rows = draw(st.lists(st.integers(0, n_v - 1), min_size=1, unique=True))
        cols = draw(st.lists(st.integers(0, n_h - 1), min_size=1, unique=True))
        return LatticeSpec.create(n_v, n_h, k, m_v=0, m_h=0,
                                  image_rows=rows, image_cols=cols)
    if mask == "scattered":
        flat = draw(st.lists(st.integers(0, n_v * n_h - 1), min_size=2, unique=True))
        lat = LatticeSpec.create(n_v, n_h, k, m_v=0, m_h=0,
                                 image_pixels=[(f % n_v, f // n_v) for f in flat])
        assume(lat.image_kron_factors() is None)
        return lat
    return LatticeSpec.create(n_v, n_h, k, m_v=0, m_h=0)


def assert_close(got, ref):
    scale = max(np.abs(ref).max(initial=0.0), np.finfo(float).tiny)
    assert np.abs(got - ref).max(initial=0.0) <= RTOL * scale


def dense_kriging(x, sigma, sel, values):
    """``condition_by_kriging`` on the dense covariance columns at ``sel``."""
    return condition_by_kriging(x, sigma[:, sel], HardConstraint(sel, values))


def gram_weights(x, sigma, sel, values):
    return scipy.linalg.solve(sigma[np.ix_(sel, sel)], x[sel] - values, assume_a="pos")


@settings(max_examples=150, deadline=None)
@given(lat=lattices(), spec=specs, seed=st.integers(0, 2**32 - 1))
def test_column_kriging_matches_dense(lat, spec, seed):
    # the blur FC's constraint: the n_v - k coordinates off the support vanish
    corr = build_correlation(lat.n_v, spec)
    x = np.random.default_rng(seed).standard_normal(lat.n_v)
    sel = lat.blur_free
    values = np.zeros(sel.size)
    got = krige(x, corr.eigs.real[:lat.n_v // 2 + 1], sel,
                gram_weights(x, corr.dense().real, sel, values), values)
    assert_close(got, dense_kriging(x, corr.dense().real, sel, values))


@settings(max_examples=150, deadline=None)
@given(lat=lattices(), spec_v=specs, spec_h=specs, seed=st.integers(0, 2**32 - 1))
def test_lattice_kriging_matches_dense(lat, spec_v, spec_h, seed):
    r_v, r_h = build_correlation(lat.n_v, spec_v), build_correlation(lat.n_h, spec_h)
    sigma = np.kron(r_h.dense().real, r_v.dense().real)   # column-major order
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((lat.n_v, lat.n_h))
    values = gen.standard_normal(lat.m)
    sel = lat.image_flat_index()
    flat = np.ravel(x, order="F")
    px = lat.image_pixels
    got = krige(x, np.outer(r_v.eigs.real, r_h.eigs.real)[:lat.n_v // 2 + 1],
                (px[:, 0], px[:, 1]),
                gram_weights(flat, sigma, sel, values), values)
    ref = dense_kriging(flat, sigma, sel, values)
    assert_close(np.ravel(got, order="F"), ref)


@settings(max_examples=150, deadline=None)
@given(lat=lattices(), spec_v=specs, spec_h=specs, seed=st.integers(0, 2**32 - 1))
def test_prior_mean_matches_dense_conditional(lat, spec_v, spec_h, seed):
    # every node, not only the pinned pixels
    hp = HyperParams(image_v=spec_v, image_h=spec_h)
    c_obs = np.random.default_rng(seed).standard_normal(lat.m)
    prior = build_image_prior(lat, hp, c_obs)
    sigma = np.kron(build_correlation(lat.n_h, spec_h).dense().real,
                    build_correlation(lat.n_v, spec_v).dense().real)
    ref = np.zeros(lat.n)
    if lat.m:
        ref, _ = conditional_params(ref, sigma, lat.image_flat_index(), None, c_obs)
    assert_close(np.ravel(prior.mu_tilde, order="F"), ref)
