from dataclasses import replace

import numpy as np
import pytest

from gsskit import mixture
from gsskit import (
    ActivityMask,
    DirectionalObservations,
    EmConfig,
    MixtureParams,
    Spectrogram,
    StftConfig,
    em_fit,
    normalize_observations,
)
from oracles import random_activity, random_observations


def steered_observations(rng, direction, frames, freqs, wobble=0.05):
    base = np.tile(direction, (frames, freqs, 1))
    noise = rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)
    data = base + wobble * noise
    return data


def test_observation_validation():
    with pytest.raises(ValueError, match="units"):
        DirectionalObservations(np.zeros((3, 4), complex), np.ones((3, 4), bool))
    with pytest.raises(ValueError, match="2 channels"):
        DirectionalObservations(np.zeros((3, 4, 1), complex), np.ones((3, 4), bool))
    with pytest.raises(ValueError, match=r"^valid mask shape \(3, 5\) does not match units "
                                         r"\(3, 4\)$"):
        DirectionalObservations(np.zeros((3, 4, 2), complex), np.ones((3, 5), bool))


def test_activity_validation():
    with pytest.raises(ValueError, match="noise class"):
        ActivityMask(np.zeros((2, 5), bool))
    with pytest.raises(ValueError, match="activity"):
        ActivityMask(np.ones(5, bool))


def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(iterations=0)


def test_normalize_observations_unit_norm_and_zero_handling():
    config = StftConfig(fft_size=64, shift=16)
    rng = np.random.default_rng(0)
    bins = rng.standard_normal((3, 20, 33)) + 1j * rng.standard_normal((3, 20, 33))
    bins[:, 4, 7] = 0.0
    obs = normalize_observations(Spectrogram(bins, config))
    norms = np.linalg.norm(obs.units, axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    assert not obs.valid[4, 7]
    assert obs.valid.sum() == 20 * 33 - 1
    np.testing.assert_allclose(obs.units[4, 7], np.full(3, 1 / np.sqrt(3)))


def test_normalize_observations_matches_where_expression():
    # The previous form built both branches in full through np.where; the
    # in-place form must give the same bits, zero frames included.
    config = StftConfig(fft_size=64, shift=16)
    rng = np.random.default_rng(4)
    for channels in (2, 4, 8):
        bins = rng.standard_normal((channels, 30, 33)) + 1j * rng.standard_normal(
            (channels, 30, 33)
        )
        bins[:, 5, :] = 0.0
        bins[:, :, 9] = 0.0
        obs = normalize_observations(Spectrogram(bins, config))
        data = bins.transpose(1, 2, 0)
        norm = np.linalg.norm(data, axis=-1)
        valid = norm > 0.0
        expected = np.where(
            valid[..., None],
            data / np.where(valid, norm, 1.0)[..., None],
            np.full(channels, 1.0 / np.sqrt(channels), dtype=np.complex128),
        )
        np.testing.assert_array_equal(obs.valid, valid)
        np.testing.assert_array_equal(obs.units, expected)


def test_em_simplex_clamping_and_monotone_likelihood():
    rng = np.random.default_rng(1)
    obs = random_observations(rng, frames=60, freqs=9, channels=3)
    act = random_activity(rng, classes=3, frames=60)
    _, gamma, lls = em_fit(obs, act, EmConfig(iterations=10))
    np.testing.assert_allclose(gamma.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(gamma >= 0)
    inactive = ~act.active
    assert np.all(gamma[inactive.nonzero()[0], inactive.nonzero()[1], :] == 0.0)
    lls = np.asarray(lls)
    assert lls.shape == (10,)
    rises = np.diff(lls)
    assert np.all(rises >= -1e-6 * np.abs(lls[:-1])), lls


def test_em_recovers_spatial_classes():
    # Two sources with well separated steering vectors, active on disjoint
    # frame ranges plus an overlap in the middle.
    rng = np.random.default_rng(2)
    frames, freqs, channels = 120, 7, 4
    d1 = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
    d2 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    data = np.empty((frames, freqs, channels), complex)
    data[:70] = steered_observations(rng, d1, 70, freqs)
    data[70:] = steered_observations(rng, d2, 50, freqs)
    units = data / np.linalg.norm(data, axis=2, keepdims=True)
    obs = DirectionalObservations(units, np.ones((frames, freqs), bool))
    active = np.zeros((3, frames), bool)
    active[0] = True
    active[1, :80] = True
    active[2, 60:] = True
    _, gamma, _ = em_fit(obs, ActivityMask(active), EmConfig(iterations=20))
    assert gamma[1, :60].mean() > 0.9
    assert gamma[2, 80:].mean() > 0.9
    assert gamma[1, 70:80].mean() < 0.2
    assert gamma[2, 60:70].mean() < 0.2


def test_em_deterministic():
    rng = np.random.default_rng(3)
    obs = random_observations(rng, 40, 5, 3)
    act = random_activity(rng, 2, 40)
    _, gamma1, _ = em_fit(obs, act, EmConfig(iterations=5))
    _, gamma2, _ = em_fit(obs, act, EmConfig(iterations=5))
    np.testing.assert_array_equal(gamma1, gamma2)


def test_em_invalid_bins_get_uniform_posterior():
    rng = np.random.default_rng(4)
    obs = random_observations(rng, 30, 5, 3)
    obs.valid[10, 2] = False
    obs.valid[11, :] = False
    active = np.ones((2, 30), bool)
    active[1, 11] = False
    _, gamma, _ = em_fit(obs, ActivityMask(active), EmConfig(iterations=4))
    np.testing.assert_allclose(gamma[:, 10, 2], [0.5, 0.5])
    np.testing.assert_allclose(gamma[:, 11, 0], [1.0, 0.0])


# Reference implementation: the einsum formulation of the EM steps that the
# packed-feature kernel replaced. It runs every bin as one block.


def reference_m_step(scaled, units):
    """sum_t scaled[f, k, t] * z z^H, shape (F, K, D, D)."""
    return np.einsum("fkt,ftd,fte->fkde", scaled, units, units.conj(), optimize=True)


def reference_quadratic_form(units, inv):
    """z^H B^-1 z, shape (F, K, T), clipped away from zero."""
    quad = np.einsum("ftd,fkde,fte->fkt", units.conj(), inv, units, optimize=True).real
    return np.clip(quad, 1e-12, None)


def pack_hermitian(shapes):
    """(..., D, D) Hermitian matrices to the real packing of the kernel:
    the diagonal, then Re and Im of the entries above it, row by row."""
    rows, cols = np.triu_indices(shapes.shape[-1], 1)
    upper = shapes[..., rows, cols]
    diag = np.einsum("...dd->...d", shapes).real
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


def reference_prepare(shapes):
    dim = shapes.shape[-1]
    trace = np.einsum("...dd->...", shapes).real
    loaded = shapes + (mixture.EPS_LOAD * trace / dim)[..., None, None] * np.eye(dim)
    inv = np.linalg.inv(loaded)
    inv = 0.5 * (inv + np.swapaxes(inv, -1, -2).conj())
    return inv, np.linalg.slogdet(loaded)[1]


def reference_em(observations, activity, config):
    units = observations.units.transpose(1, 0, 2)
    valid = observations.valid.T
    active = activity.active
    bins, frames, dim = units.shape
    classes = active.shape[0]
    uniform = (active / active.sum(axis=0, keepdims=True))[None]
    gamma = uniform
    eye = np.eye(dim, dtype=complex)
    shapes = np.broadcast_to(eye, (bins, classes, dim, dim)).copy()
    inv, logdet = reference_prepare(shapes)
    quad = reference_quadratic_form(units, inv)
    likelihoods = np.zeros(config.iterations)
    for it in range(config.iterations):
        masked = gamma * valid[:, None, :]
        denom = masked.sum(axis=-1)
        numer = reference_m_step(masked / quad, units)
        update = dim * numer / np.maximum(denom, 1e-300)[:, :, None, None]
        shapes = np.where((denom > 0.0)[:, :, None, None], update, shapes)
        shapes = 0.5 * (shapes + np.swapaxes(shapes, -1, -2).conj())
        trace = np.einsum("...dd->...", shapes).real
        shapes = np.where(
            (trace > 1e-300)[:, :, None, None],
            shapes * (dim / np.maximum(trace, 1e-300))[:, :, None, None],
            eye,
        )
        total = denom.sum(axis=-1, keepdims=True)
        weights = np.where(total > 0.0, denom / np.maximum(total, 1e-300), 1.0 / classes)
        weights = np.maximum(weights, mixture.WEIGHT_FLOOR)
        weights = weights / weights.sum(axis=-1, keepdims=True)

        inv, logdet = reference_prepare(shapes)
        quad = reference_quadratic_form(units, inv)
        log_score = np.log(weights)[:, :, None] - logdet[:, :, None] - dim * np.log(quad)
        log_score = np.where(active[None], log_score, -np.inf)
        peak = log_score.max(axis=1, keepdims=True)
        log_norm = peak + np.log(np.sum(np.exp(log_score - peak), axis=1, keepdims=True))
        gamma = np.where(active[None], np.exp(log_score - log_norm), 0.0)
        gamma = np.where(valid[:, None, :], gamma, uniform)
        likelihoods[it] = np.sum(log_norm[:, 0, :], where=valid)
    params = MixtureParams(weights=weights, shapes=shapes)
    return params, gamma.transpose(1, 2, 0), likelihoods


def seeded_case(seed, frames, freqs, channels, classes):
    """Random directions with zero-norm frames and partial class activity."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((frames, freqs, channels)) + 1j * rng.standard_normal(
        (frames, freqs, channels)
    )
    data[3, 1] = 0.0
    data[frames // 2, :] = 0.0
    stft_config = StftConfig(fft_size=2 * (freqs - 1), shift=freqs - 1)
    spec = Spectrogram(data.transpose(2, 0, 1), stft_config)
    obs = normalize_observations(spec)
    active = np.zeros((classes, frames), bool)
    active[0] = True
    for k in range(1, classes):
        lo = rng.integers(0, frames // 2)
        active[k, lo:lo + frames // 2] = True
    return obs, ActivityMask(active)


# D = 6 takes a power D that is not a square, and D = 24 is the
# multi-array track's 6 x 4 channels. 24 channels get 210 frames: at 70, a
# class holds fewer frames than channels, so its shape matrix is singular
# but for the loading (condition number about 1e7), and the shape entries
# move by about 1e-7 of their size under rounding in any double-precision
# kernel; test_em_fit_likelihood_matches_reference_with_singular_shapes
# covers that case for the well-conditioned outputs.
@pytest.mark.parametrize(
    "channels, classes, frames",
    [(2, 3, 70), (4, 4, 70), (8, 3, 70), (4, 1, 70), (6, 3, 70), (24, 5, 210)],
    ids=["D2", "D4", "D8", "K1", "D6", "D24"],
)
def test_em_fit_matches_einsum_reference(channels, classes, frames):
    obs, act = seeded_case(channels * 10 + classes, frames=frames, freqs=6,
                           channels=channels, classes=classes)
    assert not obs.valid.all()
    config = EmConfig(iterations=8)
    params, gamma, lls = em_fit(obs, act, config)
    ref_params, ref_gamma, ref_lls = reference_em(obs, act, config)
    np.testing.assert_allclose(params.weights, ref_params.weights, rtol=1e-9, atol=0)
    np.testing.assert_allclose(params.shapes, ref_params.shapes, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(gamma, ref_gamma, rtol=1e-9, atol=1e-300)
    np.testing.assert_allclose(lls, ref_lls, rtol=1e-9, atol=0)
    # Inactive classes stay clamped to exactly zero.
    inactive = ~act.active
    assert np.all(gamma[inactive.nonzero()[0], inactive.nonzero()[1]] == 0.0)
    assert np.all(np.diff(lls) >= -1e-9 * np.abs(lls[:-1])), lls


def test_em_fit_likelihood_matches_reference_with_singular_shapes():
    obs, act = seeded_case(245, frames=70, freqs=6, channels=24, classes=5)
    config = EmConfig(iterations=8)
    params, gamma, lls = em_fit(obs, act, config)
    ref_params, ref_gamma, ref_lls = reference_em(obs, act, config)
    eigen = np.linalg.eigvalsh(ref_params.shapes)
    assert (eigen[..., -1] / np.abs(eigen[..., 0])).max() > 1e12
    np.testing.assert_allclose(params.weights, ref_params.weights, rtol=1e-9, atol=0)
    # Posteriors below about 1e-80 differ from the reference by up to 2e-7
    # of themselves through rounding alone, so they are compared as
    # probabilities.
    np.testing.assert_allclose(gamma, ref_gamma, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(lls, ref_lls, rtol=1e-9, atol=0)


def invariance_case(seed=31, frames=60, freqs=7, channels=4, classes=3):
    """A random spectrogram and a partial class activity for its frames."""
    rng = np.random.default_rng(seed)
    bins = rng.standard_normal((channels, frames, freqs)) + 1j * rng.standard_normal(
        (channels, frames, freqs)
    )
    spec = Spectrogram(bins, StftConfig(fft_size=2 * (freqs - 1), shift=freqs - 1))
    active = np.zeros((classes, frames), bool)
    active[0] = True
    for k in range(1, classes):
        lo = rng.integers(0, frames // 2)
        active[k, lo:lo + frames // 2] = True
    return spec, active


def fitted_posterior(spec, active):
    return em_fit(normalize_observations(spec), ActivityMask(active), EmConfig(iterations=10))[1]


def test_em_fit_is_invariant_to_channel_order():
    spec, active = invariance_case()
    permuted = replace(spec, bins=spec.bins[[2, 0, 3, 1]])
    np.testing.assert_allclose(
        fitted_posterior(permuted, active), fitted_posterior(spec, active), rtol=1e-9, atol=1e-12
    )


def test_em_fit_relabels_posteriors_with_the_speakers():
    spec, active = invariance_case(classes=4)
    order = [0, 3, 1, 2]
    np.testing.assert_allclose(
        fitted_posterior(spec, active[order]),
        fitted_posterior(spec, active)[order],
        rtol=1e-9,
        atol=1e-12,
    )


@pytest.mark.parametrize("gain", [1e-3, 3.7])
def test_em_fit_is_invariant_to_input_gain(gain):
    spec, active = invariance_case()
    louder = replace(spec, bins=gain * spec.bins)
    np.testing.assert_allclose(
        fitted_posterior(louder, active), fitted_posterior(spec, active), rtol=1e-9, atol=1e-12
    )


def test_em_fit_gives_silent_frames_the_uniform_posterior():
    spec, active = invariance_case(classes=4)
    silent = [0, 17, 18, 59]
    spec.bins[:, silent] = 0.0
    uniform = active / active.sum(axis=0)
    gamma = fitted_posterior(spec, active)
    np.testing.assert_allclose(
        gamma[:, silent], np.repeat(uniform[:, silent, None], spec.bins.shape[2], axis=2),
        rtol=1e-9, atol=0,
    )


def test_em_bins_fit_independently():
    # em_fit splits the frequency axis into blocks; a fit over a subset of
    # bins must reproduce those bins of the full fit, and the likelihood
    # traces of the subsets must add up to the full trace.
    obs, act = seeded_case(7, frames=40, freqs=9, channels=3, classes=3)
    config = EmConfig(iterations=5)
    _, whole, whole_lls = em_fit(obs, act, config)
    total = np.zeros(config.iterations)
    for lo, hi in ((0, 1), (1, 5), (5, 9)):
        part = DirectionalObservations(obs.units[:, lo:hi], obs.valid[:, lo:hi])
        _, gamma, lls = em_fit(part, act, config)
        np.testing.assert_allclose(gamma, whole[:, :, lo:hi], rtol=1e-12, atol=1e-300)
        total += lls
    np.testing.assert_allclose(total, whole_lls, rtol=1e-12)


def test_em_fit_returns_the_requested_frames():
    obs, act = seeded_case(8, frames=50, freqs=9, channels=4, classes=3)
    config = EmConfig(iterations=4)
    params, whole, lls = em_fit(obs, act, config)
    part_params, part, part_lls = em_fit(obs, act, config, frames=range(12, 31))
    np.testing.assert_array_equal(part, whole[:, 12:31])
    np.testing.assert_array_equal(part_params.shapes, params.shapes)
    np.testing.assert_array_equal(part_lls, lls)


def test_em_fit_rejects_activity_of_another_frame_count():
    rng = np.random.default_rng(13)
    obs = random_observations(rng, 12, 3, 2)
    with pytest.raises(ValueError, match=r"^activity covers 11 frames, observations have 12$"):
        em_fit(obs, random_activity(rng, 2, 11), EmConfig(iterations=1))


@pytest.mark.parametrize("dim", range(2, 25))
def test_packing_maps_coefficients_are_the_unpack_transpose(dim):
    # z^H B z is the inner product of B with z z^H, so the quadratic-form
    # coefficients are the adjoint of the unpacking.
    unpack, _, coeffs = mixture._packing_maps(dim)
    np.testing.assert_array_equal(coeffs, unpack.T)
    assert coeffs.flags.c_contiguous


def test_packed_features_reproduce_einsum_steps():
    rng = np.random.default_rng(12)
    from gsskit.mixture import (
        _pack_outer_products,
        _prepare_shapes,
        _quadratic_form,
        _unpack_hermitian,
    )

    for dim in (2, 3, 5):
        data = rng.standard_normal((4, 30, dim)) + 1j * rng.standard_normal((4, 30, dim))
        units = data / np.linalg.norm(data, axis=2, keepdims=True)
        feats = _pack_outer_products(units)
        assert feats.shape == (4, dim * dim, 30) and feats.flags.c_contiguous
        scaled = rng.random((4, 2, 30))
        packed = scaled @ feats.transpose(0, 2, 1)
        numer = _unpack_hermitian(packed, dim)
        np.testing.assert_allclose(numer, reference_m_step(scaled, units), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(numer, np.swapaxes(numer, -1, -2).conj())
        np.testing.assert_array_equal(pack_hermitian(numer), packed)

        packed[..., :dim] += 1.0
        inv, _ = _prepare_shapes(packed, dim)
        scale = rng.random((4, 2)) + 0.5
        quad = _quadratic_form(feats, inv, scale, np.empty((4, 2, 30)))
        expected = scale[..., None] * reference_quadratic_form(units, inv)
        np.testing.assert_allclose(quad, expected, rtol=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_prepare_shapes_logdet_matches_slogdet(dim):
    from gsskit.mixture import _prepare_shapes

    rng = np.random.default_rng(dim)
    data = rng.standard_normal((6, 3, dim, 40)) + 1j * rng.standard_normal((6, 3, dim, 40))
    shapes = np.einsum("fkdt,fket->fkde", data, data.conj()) / 40
    # A rank-one shape is positive definite only through the loading.
    shapes[0, 0] = 0.0
    shapes[0, 0, 0, 0] = 1.0
    inv, logdet = _prepare_shapes(pack_hermitian(shapes), dim)
    ref_inv, ref_logdet = reference_prepare(shapes)
    np.testing.assert_allclose(logdet, ref_logdet, rtol=1e-12, atol=1e-12)
    # The inverse comes from Gauss-Jordan elimination without pivoting, not
    # from an LU solve with partial pivoting, so it agrees with
    # np.linalg.inv to rounding of each matrix's largest entry.
    scale = np.abs(ref_inv).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(inv - ref_inv) <= 1e-13 * scale)
