import numpy as np
import pytest

from gsskit import (
    ActivityMask,
    DirectionalObservations,
    EmConfig,
    MixtureParams,
    Posterior,
    Spectrogram,
    StftConfig,
    em_fit,
    init_posteriors,
    normalize_observations,
    trim_context,
)


def random_observations(rng, frames, freqs, channels):
    data = rng.standard_normal((frames, freqs, channels)) + 1j * rng.standard_normal(
        (frames, freqs, channels)
    )
    units = data / np.linalg.norm(data, axis=2, keepdims=True)
    return DirectionalObservations(units, np.ones((frames, freqs), bool))


def random_activity(rng, classes, frames, density=0.6):
    active = rng.random((classes, frames)) < density
    active[0] = True
    for k in range(1, classes):
        if not active[k].any():
            active[k, rng.integers(frames)] = True
    return ActivityMask(active)


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


def test_activity_validation():
    with pytest.raises(ValueError, match="noise class"):
        ActivityMask(np.zeros((2, 5), bool))
    with pytest.raises(ValueError, match="activity"):
        ActivityMask(np.ones(5, bool))


def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(iterations=0)
    with pytest.raises(ValueError):
        EmConfig(weight_floor=1.0)
    with pytest.raises(ValueError):
        EmConfig(eps_load=0.0)
    with pytest.raises(ValueError):
        EmConfig(refine_iterations=-1)


def test_normalize_observations_unit_norm_and_zero_handling():
    config = StftConfig(fft_size=64, shift=16)
    rng = np.random.default_rng(0)
    bins = rng.standard_normal((3, 20, 33)) + 1j * rng.standard_normal((3, 20, 33))
    bins[:, 4, 7] = 0.0
    obs = normalize_observations(Spectrogram(bins, config, 16000))
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
        obs = normalize_observations(Spectrogram(bins, config, 16000))
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


def test_init_posteriors_uniform_over_active():
    active = np.array([[True, True, True], [True, False, True], [False, False, True]])
    post = init_posteriors(ActivityMask(active), num_bins=2)
    assert post.gamma.shape == (3, 3, 2)
    np.testing.assert_allclose(post.gamma[:, 0, 0], [0.5, 0.5, 0.0])
    np.testing.assert_allclose(post.gamma[:, 1, 1], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(post.gamma[:, 2, 0], [1 / 3, 1 / 3, 1 / 3])


def test_em_simplex_clamping_and_monotone_likelihood():
    rng = np.random.default_rng(1)
    obs = random_observations(rng, frames=60, freqs=9, channels=3)
    act = random_activity(rng, classes=3, frames=60)
    _, post, lls = em_fit(obs, act, EmConfig(iterations=10), return_likelihoods=True)
    gamma = post.gamma
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
    _, post = em_fit(obs, ActivityMask(active), EmConfig(iterations=20))
    gamma = post.gamma
    assert gamma[1, :60].mean() > 0.9
    assert gamma[2, 80:].mean() > 0.9
    assert gamma[1, 70:80].mean() < 0.2
    assert gamma[2, 60:70].mean() < 0.2


def test_em_deterministic():
    rng = np.random.default_rng(3)
    obs = random_observations(rng, 40, 5, 3)
    act = random_activity(rng, 2, 40)
    _, post1 = em_fit(obs, act, EmConfig(iterations=5))
    _, post2 = em_fit(obs, act, EmConfig(iterations=5))
    np.testing.assert_array_equal(post1.gamma, post2.gamma)


def test_em_invalid_bins_get_uniform_posterior():
    rng = np.random.default_rng(4)
    obs = random_observations(rng, 30, 5, 3)
    obs.valid[10, 2] = False
    obs.valid[11, :] = False
    active = np.ones((2, 30), bool)
    active[1, 11] = False
    _, post = em_fit(obs, ActivityMask(active), EmConfig(iterations=4))
    np.testing.assert_allclose(post.gamma[:, 10, 2], [0.5, 0.5])
    np.testing.assert_allclose(post.gamma[:, 11, 0], [1.0, 0.0])


def test_em_warm_start_keeps_shape_and_assignment():
    rng = np.random.default_rng(5)
    obs = random_observations(rng, 50, 5, 3)
    act = random_activity(rng, 3, 50)
    _, first = em_fit(obs, act, EmConfig(iterations=8))
    _, resumed = em_fit(obs, act, EmConfig(iterations=2), initial=first)
    assert resumed.gamma.shape == first.gamma.shape
    hard_before = first.gamma.argmax(axis=0)
    hard_after = resumed.gamma.argmax(axis=0)
    assert (hard_before == hard_after).mean() > 0.95


def test_trim_context():
    gamma = np.random.default_rng(6).random((2, 20, 4))
    gamma /= gamma.sum(axis=0, keepdims=True)
    post = Posterior(gamma)
    core = trim_context(post, range(5, 12))
    np.testing.assert_array_equal(core.gamma, gamma[:, 5:12])
    with pytest.raises(ValueError, match="empty core"):
        trim_context(post, range(5, 5))
    with pytest.raises(ValueError, match="core"):
        trim_context(post, range(15, 25))


# Reference implementation: the einsum formulation of the EM steps that the
# packed-feature kernel replaced. It runs every bin as one block.


def reference_m_step(scaled, units):
    """sum_t scaled[f, k, t] * z z^H, shape (F, K, D, D)."""
    return np.einsum("fkt,ftd,fte->fkde", scaled, units, units.conj(), optimize=True)


def reference_quadratic_form(units, inv):
    """z^H B^-1 z, shape (F, K, T), clipped away from zero."""
    quad = np.einsum("ftd,fkde,fte->fkt", units.conj(), inv, units, optimize=True).real
    return np.clip(quad, 1e-12, None)


def reference_prepare(shapes, eps_load):
    dim = shapes.shape[-1]
    trace = np.einsum("...dd->...", shapes).real
    loaded = shapes + (eps_load * trace / dim)[..., None, None] * np.eye(dim)
    inv = np.linalg.inv(loaded)
    inv = 0.5 * (inv + np.swapaxes(inv, -1, -2).conj())
    return inv, np.linalg.slogdet(loaded)[1]


def reference_em(observations, activity, config):
    units = observations.units.transpose(1, 0, 2)
    valid = observations.valid.T
    active = activity.active
    bins, frames, dim = units.shape
    classes = active.shape[0]
    gamma = init_posteriors(activity, bins).gamma.transpose(2, 0, 1)
    eye = np.eye(dim, dtype=complex)
    shapes = np.broadcast_to(eye, (bins, classes, dim, dim)).copy()
    uniform = (active / active.sum(axis=0, keepdims=True))[None]
    inv, logdet = reference_prepare(shapes, config.eps_load)
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
        weights = np.maximum(weights, config.weight_floor)
        weights = weights / weights.sum(axis=-1, keepdims=True)

        inv, logdet = reference_prepare(shapes, config.eps_load)
        quad = reference_quadratic_form(units, inv)
        log_score = np.log(weights)[:, :, None] - logdet[:, :, None] - dim * np.log(quad)
        log_score = np.where(active[None], log_score, -np.inf)
        peak = log_score.max(axis=1, keepdims=True)
        log_norm = peak + np.log(np.sum(np.exp(log_score - peak), axis=1, keepdims=True))
        gamma = np.where(active[None], np.exp(log_score - log_norm), 0.0)
        gamma = np.where(valid[:, None, :], gamma, uniform)
        likelihoods[it] = np.sum(log_norm[:, 0, :], where=valid)
    params = MixtureParams(weights=weights, shapes=shapes)
    return params, Posterior(gamma.transpose(1, 2, 0)), likelihoods


def seeded_case(seed, frames, freqs, channels, classes):
    """Random directions with zero-norm frames and partial class activity."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((frames, freqs, channels)) + 1j * rng.standard_normal(
        (frames, freqs, channels)
    )
    data[3, 1] = 0.0
    data[frames // 2, :] = 0.0
    stft_config = StftConfig(fft_size=2 * (freqs - 1), shift=freqs - 1)
    spec = Spectrogram(data.transpose(2, 0, 1), stft_config, 16000)
    obs = normalize_observations(spec)
    active = np.zeros((classes, frames), bool)
    active[0] = True
    for k in range(1, classes):
        lo = rng.integers(0, frames // 2)
        active[k, lo:lo + frames // 2] = True
    return obs, ActivityMask(active)


@pytest.mark.parametrize(
    "channels, classes",
    [(2, 3), (4, 4), (8, 3), (4, 1)],
    ids=["D2", "D4", "D8", "K1"],
)
def test_em_fit_matches_einsum_reference(channels, classes):
    obs, act = seeded_case(channels * 10 + classes, frames=70, freqs=6,
                           channels=channels, classes=classes)
    assert not obs.valid.all()
    config = EmConfig(iterations=8)
    params, post, lls = em_fit(obs, act, config, return_likelihoods=True)
    ref_params, ref_post, ref_lls = reference_em(obs, act, config)
    np.testing.assert_allclose(params.weights, ref_params.weights, rtol=1e-9, atol=0)
    np.testing.assert_allclose(params.shapes, ref_params.shapes, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(post.gamma, ref_post.gamma, rtol=1e-9, atol=1e-300)
    np.testing.assert_allclose(lls, ref_lls, rtol=1e-9, atol=0)
    # Inactive classes stay clamped to exactly zero.
    inactive = ~act.active
    assert np.all(post.gamma[inactive.nonzero()[0], inactive.nonzero()[1]] == 0.0)
    assert np.all(np.diff(lls) >= -1e-9 * np.abs(lls[:-1])), lls


def test_em_bins_fit_independently():
    # em_fit splits the frequency axis into blocks; a fit over a subset of
    # bins must reproduce those bins of the full fit, and the likelihood
    # traces of the subsets must add up to the full trace.
    obs, act = seeded_case(7, frames=40, freqs=9, channels=3, classes=3)
    config = EmConfig(iterations=5)
    _, whole, whole_lls = em_fit(obs, act, config, return_likelihoods=True)
    total = np.zeros(config.iterations)
    for lo, hi in ((0, 1), (1, 5), (5, 9)):
        part = DirectionalObservations(obs.units[:, lo:hi], obs.valid[:, lo:hi])
        _, post, lls = em_fit(part, act, config, return_likelihoods=True)
        np.testing.assert_allclose(post.gamma, whole.gamma[:, :, lo:hi], rtol=1e-12, atol=1e-300)
        total += lls
    np.testing.assert_allclose(total, whole_lls, rtol=1e-12)


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
        numer = _unpack_hermitian(scaled @ feats.transpose(0, 2, 1), dim)
        np.testing.assert_allclose(numer, reference_m_step(scaled, units), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(numer, np.swapaxes(numer, -1, -2).conj())

        inv, _ = _prepare_shapes(numer + np.eye(dim), 1e-6)
        quad = _quadratic_form(feats, inv, np.empty((4, 2, 30)))
        np.testing.assert_allclose(quad, reference_quadratic_form(units, inv), rtol=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_prepare_shapes_logdet_matches_slogdet(dim):
    from gsskit.mixture import _prepare_shapes

    rng = np.random.default_rng(dim)
    data = rng.standard_normal((6, 3, dim, 40)) + 1j * rng.standard_normal((6, 3, dim, 40))
    shapes = np.einsum("fkdt,fket->fkde", data, data.conj()) / 40
    # A rank-one shape is positive definite only through the loading.
    shapes[0, 0] = 0.0
    shapes[0, 0, 0, 0] = 1.0
    inv, logdet = _prepare_shapes(shapes, 1e-6)
    ref_inv, ref_logdet = reference_prepare(shapes, 1e-6)
    np.testing.assert_allclose(logdet, ref_logdet, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(inv, ref_inv)
