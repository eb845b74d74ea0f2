import logging
from dataclasses import replace

import numpy as np
import pytest

from gsskit import Spectrogram, StftConfig, WpeConfig, simulate_scene, stft, wpe_dereverberate


def make_spec(bins):
    channels, frames, freqs = bins.shape
    config = StftConfig(fft_size=(freqs - 1) * 2, shift=max(1, (freqs - 1) // 2))
    return Spectrogram(bins, config, 16000)


def echo_scene(amp, channels, frames, freqs, seed, lag=3):
    rng = np.random.default_rng(seed)
    dry = (
        rng.standard_normal((channels, frames, freqs))
        + 1j * rng.standard_normal((channels, frames, freqs))
    ) / np.sqrt(2)
    coeff = amp * np.exp(2j * np.pi * rng.random((channels, freqs)))
    obs = dry.copy()
    obs[:, lag:] += coeff[:, None, :] * dry[:, :-lag]
    return dry, obs


def lagged_projection_energy(residual, dry, lag, first):
    """Energy of the residual along the delayed dry signal, per (m, f)."""
    reg = dry[:, first - lag : dry.shape[1] - lag, :]
    num = np.abs(np.einsum("mtf,mtf->mf", np.conj(reg), residual[:, first:, :])) ** 2
    den = np.einsum("mtf,mtf->mf", np.conj(reg), reg).real
    return float(np.sum(num / den))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(taps=0),
        dict(delay=0),
        dict(iterations=0),
        dict(taps=-1),
        dict(delay=-1),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        WpeConfig(**kwargs)


def test_zero_input_gives_zero_output():
    spec = make_spec(np.zeros((2, 40, 17), complex))
    out, _ = wpe_dereverberate(spec, WpeConfig(taps=4, delay=2))
    assert np.all(out.bins == 0)
    assert out.bins.shape == spec.bins.shape


def test_shape_preserved_and_deterministic():
    rng = np.random.default_rng(0)
    bins = rng.standard_normal((3, 60, 17)) + 1j * rng.standard_normal((3, 60, 17))
    spec = make_spec(bins)
    config = WpeConfig(taps=4, delay=2, iterations=2)
    out1, _ = wpe_dereverberate(spec, config)
    out2, _ = wpe_dereverberate(spec, config)
    assert out1.bins.shape == bins.shape
    np.testing.assert_array_equal(out1.bins, out2.bins)


def test_early_frames_pass_through():
    rng = np.random.default_rng(1)
    bins = rng.standard_normal((2, 50, 9)) + 1j * rng.standard_normal((2, 50, 9))
    spec = make_spec(bins)
    config = WpeConfig(taps=4, delay=2)
    out, _ = wpe_dereverberate(spec, config)
    head = config.delay + config.taps
    np.testing.assert_array_equal(out.bins[:, :head], bins[:, :head])
    assert np.any(out.bins[:, head:] != bins[:, head:])


def test_too_few_frames_pass_through(caplog):
    # No frame of a segment of delay + taps frames has a whole history, so
    # like the early frames of a longer one, all pass through unchanged.
    rng = np.random.default_rng(4)
    bins = rng.standard_normal((2, 7, 9)) + 1j * rng.standard_normal((2, 7, 9))
    config = WpeConfig(taps=4, delay=2, iterations=3)
    with caplog.at_level(logging.WARNING, logger="gsskit.wpe"):
        out, objective = wpe_dereverberate(make_spec(bins[:, :6]), config)
    np.testing.assert_array_equal(out.bins, bins[:, :6])
    assert not np.shares_memory(out.bins, bins)
    np.testing.assert_array_equal(objective, np.zeros(3))
    assert [record.getMessage() for record in caplog.records] == [
        "segment of 6 frames has none past delay + taps = 6, passing it through unchanged"
    ]
    # One frame more is one predicted frame: no warning, a real objective.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="gsskit.wpe"):
        out, objective = wpe_dereverberate(make_spec(bins), config)
    assert not caplog.records
    assert np.all(objective != 0)
    assert np.any(out.bins[:, 6] != bins[:, 6])


def test_white_input_barely_changed():
    # With uncorrelated frames the prediction filter is close to zero; its
    # magnitude is pure estimation noise, shrinking with segment length.
    rng = np.random.default_rng(2)
    bins = (
        rng.standard_normal((4, 8000, 33)) + 1j * rng.standard_normal((4, 8000, 33))
    ) / np.sqrt(2)
    spec = make_spec(bins)
    out, _ = wpe_dereverberate(spec, WpeConfig(taps=4, delay=2, iterations=3))
    head = 6
    rel = np.abs(out.bins[:, head:] - bins[:, head:]) / np.abs(bins[:, head:])
    assert rel.mean() < 0.1


def test_lagged_echo_is_suppressed():
    lag = 3
    dry, obs = echo_scene(0.2, 4, 2000, 33, seed=5, lag=lag)
    spec = make_spec(obs)
    out, _ = wpe_dereverberate(spec, WpeConfig(taps=4, delay=2, iterations=3))
    first = 6
    before = lagged_projection_energy(obs - dry, dry, lag, first)
    after = lagged_projection_energy(out.bins - dry, dry, lag, first)
    assert 10 * np.log10(before / after) > 15.0


def test_objective_non_increasing():
    for seed in range(4):
        dry, obs = echo_scene(0.3, 3, 300, 17, seed=seed)
        spec = make_spec(obs)
        out, objective = wpe_dereverberate(spec, WpeConfig(taps=4, delay=2, iterations=5))
        assert objective.shape == (5,)
        drops = np.diff(objective)
        assert np.all(drops <= 1e-8 * np.abs(objective[:-1])), objective


# Reference implementation: the WPE loop that the stacked-Gram kernel
# replaced. It materialises the whole (F, T, M * taps) history tensor and
# forms correlation and cross-correlation with two separate products.


def reference_stack_history(obs, taps, delay):
    bins, frames, channels = obs.shape
    stacked = np.zeros((bins, frames, channels * taps), dtype=obs.dtype)
    for k in range(taps):
        lag = delay + k
        if lag >= frames:
            continue
        stacked[:, lag:, k * channels:(k + 1) * channels] = obs[:, : frames - lag]
    return stacked


def reference_wpe(bins_in, config):
    from gsskit.wpe import RIDGE_EPS

    channels, frames, bins = bins_in.shape
    order = channels * config.taps
    first = config.delay + config.taps
    output = bins_in.copy()
    objective = np.zeros(config.iterations)
    obs_all = bins_in.transpose(2, 1, 0)
    active = np.mean(np.abs(obs_all) ** 2, axis=(1, 2)) > 0.0
    obs = obs_all[active]
    history = reference_stack_history(obs, config.taps, config.delay)[:, first:]
    tail = obs[:, first:]
    estimate = obs.copy()
    floor = 1e-10 * np.mean(np.abs(obs) ** 2, axis=(1, 2))
    ridge = None
    for it in range(config.iterations):
        power = np.mean(np.abs(estimate) ** 2, axis=2)
        lam = np.maximum(power, floor[:, None])[:, first:]
        weighted = history.conj() / lam[:, :, None]
        corr = history.transpose(0, 2, 1) @ weighted
        if ridge is None:
            ridge = RIDGE_EPS * np.trace(corr, axis1=1, axis2=2).real / order
        cross = history.transpose(0, 2, 1) @ (tail.conj() / lam[:, :, None])
        filters = np.linalg.solve(corr + ridge[:, None, None] * np.eye(order), cross)
        estimate[:, first:] = tail - history @ filters.conj()
        residual = np.sum(np.abs(estimate[:, first:]) ** 2, axis=2)
        objective[it] += np.sum(residual / lam + channels * np.log(lam))
        objective[it] += np.sum(ridge * np.sum(np.abs(filters) ** 2, axis=(1, 2)))
    output[:, :, active] = estimate.transpose(2, 1, 0)
    return output, objective


# The amplitude / channel / silence grid at taps=6, delay=2, plus each of
# taps=1, delay=1 and delay=3, which move the strides and offsets of the
# kernel's history view, on four channels.
REFERENCE_CASES = [
    pytest.param(amp, channels, silent, 6, 2, id=f"{name}-{channels}-{silent}")
    for name, amp in (("white", 0.0), ("echo", 0.4))
    for channels in (2, 4, 8)
    for silent in (0, 40)
] + [
    pytest.param(amp, 4, silent, taps, delay, id=f"{name}-4-{silent}-taps{taps}-delay{delay}")
    for taps, delay in ((1, 2), (6, 1), (6, 3))
    for name, amp in (("white", 0.0), ("echo", 0.4))
    for silent in (0, 40)
]


@pytest.mark.parametrize("amp, channels, silent, taps, delay", REFERENCE_CASES)
def test_wpe_matches_reference_loop(amp, channels, silent, taps, delay):
    # 400 frames and 129 bins make 2 to 20 bin blocks, one of them
    # holding an all-zero bin. `silent` leading all-zero frames put the
    # power estimate on its floor.
    _, obs = echo_scene(amp, channels, 400, 129, seed=channels, lag=4)
    obs[:, :, 50] = 0.0
    obs[:, :silent] = 0.0
    config = WpeConfig(taps=taps, delay=delay, iterations=3)
    block = 2 ** 16 // (400 * (config.taps + 1) * channels)
    assert 129 > 2 * block
    out, objective = wpe_dereverberate(make_spec(obs), config)
    ref, ref_objective = reference_wpe(obs, config)
    scale = np.abs(ref).max()
    np.testing.assert_allclose(out.bins, ref, rtol=1e-10, atol=1e-10 * scale)
    np.testing.assert_allclose(objective, ref_objective, rtol=1e-9, atol=0)
    assert np.all(out.bins[:, :, 50] == 0.0)


def test_wpe_memory_stays_block_sized():
    import tracemalloc

    # README scene size: 4 channels, 378 frames, 513 bins, default config.
    # The output is one spectrogram; a kernel that also copies the whole
    # input into its working layout needs two.
    _, obs = echo_scene(0.3, 4, 378, 513, seed=3)
    spec = make_spec(obs)
    tracemalloc.start()
    try:
        wpe_dereverberate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * spec.bins.nbytes, f"peak {peak / 1e6:.1f} MB"


# The README's scene (4 channels, delay mixing) and an 8-channel reverb
# scene, each at the default STFT and WPE config.
INVARIANCE_SCENES = {
    "readme": {
        "duration": 6.0, "channels": 4, "snr_db": 25,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 2500], "activity": [[0.5, 3.0]]},
            {"speaker": "B", "kind": "chirp", "band": [800, 3800], "activity": [[2.0, 5.5]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
    },
    "reverb8ch": {
        "duration": 5.0, "channels": 8, "snr_db": 25,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 3000], "activity": [[0.3, 2.9]]},
            {"speaker": "B", "kind": "chirp", "sweep": [300, 3500], "activity": [[2.5, 4.7]]},
        ],
        "mixing": {"kind": "reverb"},
    },
}


@pytest.mark.parametrize("name", INVARIANCE_SCENES)
def test_wpe_is_gain_invariant_and_channel_equivariant(name):
    spec = stft(simulate_scene(INVARIANCE_SCENES[name], seed=0).mixture, StftConfig())
    out, _ = wpe_dereverberate(spec)
    # A gain of a power of two scales the power estimate by its square and
    # leaves the weighted correlations, and so the filters, bit for bit.
    for gain in (4.0, 0.25):
        scaled, _ = wpe_dereverberate(replace(spec, bins=spec.bins * gain))
        np.testing.assert_array_equal(scaled.bins, out.bins * gain, err_msg=f"gain {gain}")
    # Permuting the channels permutes the output. The solve reads the
    # history in another order, so floored, ill-conditioned bins move by
    # rounding: at most 2.2e-5 of the peak on seeds 0-9 of both scenes,
    # reversed or randomly permuted, on one BLAS thread.
    order = np.arange(spec.num_channels)[::-1]
    permuted, _ = wpe_dereverberate(replace(spec, bins=spec.bins[order]))
    np.testing.assert_allclose(permuted.bins, out.bins[order],
                               rtol=0, atol=1e-4 * np.abs(out.bins).max())


@pytest.mark.parametrize("seed", [0, 7])
def test_wpe_bins_never_interact(seed):
    # Each bin is predicted from its own history only, so WPE of some of
    # the bins is WPE of all of them, restricted: per-array and chunked
    # WPE rely on it. Zeroed bins stay exactly zero.
    spec = stft(simulate_scene(INVARIANCE_SCENES["readme"], seed=seed).mixture, StftConfig())
    full, _ = wpe_dereverberate(spec)
    for lo, hi in ((0, 1), (100, 117), (5, 260), (511, 513)):
        bins = np.zeros_like(spec.bins)
        bins[:, :, lo:hi] = spec.bins[:, :, lo:hi]
        out, _ = wpe_dereverberate(replace(spec, bins=bins))
        np.testing.assert_array_equal(out.bins[:, :, lo:hi], full.bins[:, :, lo:hi],
                                      err_msg=f"bins [{lo}, {hi})")
        assert not np.any(out.bins[:, :, :lo]) and not np.any(out.bins[:, :, hi:])
