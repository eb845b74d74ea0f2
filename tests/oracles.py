"""Oracles and builders that more than one test file uses: scoring for
tests that know the true sources of a simulated scene (the dominant
source of every STFT bin, and how well a fitted posterior agrees with it
up to speaker relabelling), brute-force references of the beamformer and
the interval code, and random inputs of each stage."""

import itertools

import numpy as np

from gsskit import (
    ActivityMask,
    DirectionalObservations,
    Spectrogram,
    StftConfig,
    SyntheticScene,
    Waveform,
    stft,
)


def oracle_masks(scene: SyntheticScene, config: StftConfig) -> np.ndarray:
    """One-hot dominance masks from the true source images.

    Per (frame, bin) the strongest component on the first microphone wins.
    When the scene carries sensor noise, the noise class competes with its
    own measured power, so bins below the noise floor belong to class 0.
    Bins whose total source power is negligible (below 1e-8 of the
    average) fall to the noise class either way.

    Returns:
        (1 + S, T, F) float64 one-hot tensor.
    """
    powers = []
    for s in range(scene.images.shape[0]):
        image = Waveform(scene.images[s, :1], scene.mixture.sample_rate)
        powers.append(np.abs(stft(image, config).bins[0]) ** 2)
    powers = np.stack(powers)
    total = powers.sum(axis=0)
    silent = total <= 1e-8 * max(total.mean(), 1e-300)
    if scene.noise is not None:
        floor = Waveform(scene.noise[:1], scene.mixture.sample_rate)
        noise_power = np.abs(stft(floor, config).bins[0]) ** 2
    else:
        noise_power = np.zeros_like(total)
    winner = np.concatenate([noise_power[None], powers]).argmax(axis=0)
    winner[silent] = 0

    masks = np.zeros((1 + len(powers),) + total.shape)
    for k in range(masks.shape[0]):
        masks[k][winner == k] = 1.0
    return masks


def permutation_consistency(gamma: np.ndarray, oracle: np.ndarray) -> float:
    """Agreement between the argmax of posteriors ``gamma`` (K, T, F) and
    the oracle class, maximised over global speaker permutations.

    Only bins the oracle assigns to a source count; the noise class is
    pinned, speaker classes may be relabelled by one permutation applied
    everywhere. 1.0 means the fitted classes are a pure relabelling of the
    oracle sources.
    """
    gamma = np.asarray(gamma)
    if gamma.shape != oracle.shape:
        raise ValueError(
            f"posterior shape {gamma.shape} does not match oracle {oracle.shape}"
        )
    classes = gamma.shape[0]
    estimated = gamma.argmax(axis=0)
    truth = oracle.argmax(axis=0)
    speech = truth > 0
    if not np.any(speech):
        raise ValueError("oracle assigns no bin to any source")
    est, tru = estimated[speech], truth[speech]

    best = 0.0
    for perm in itertools.permutations(range(1, classes)):
        relabel = np.arange(classes)
        relabel[1:] = perm
        best = max(best, float(np.mean(est == relabel[tru])))
    return best


def make_spec(bins):
    channels, frames, freqs = bins.shape
    config = StftConfig(fft_size=(freqs - 1) * 2, shift=max(1, (freqs - 1) // 2))
    return Spectrogram(bins, config)


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


def rasterize(intervals, length):
    dense = np.zeros(length, bool)
    for a, b in intervals:
        dense[max(0, a) : min(length, b)] = True
    return dense


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T + 0.1 * np.eye(dim)


def mvdr_oracle(psds, reference, eps=1e-6):
    """Souden solution via explicit per-frequency inverses."""
    freqs, dim, _ = psds.target.shape
    weights = np.zeros((freqs, dim), complex)
    for f in range(freqs):
        phi_nn = psds.distortion[f]
        trace = np.trace(phi_nn).real
        loaded = phi_nn + (eps * trace / dim) * np.eye(dim)
        numer = np.linalg.inv(loaded) @ psds.target[f]
        lam = np.trace(numer)
        weights[f] = numer[:, reference] / lam
    return weights


def reference_selection_oracle(psds, eps=1e-6):
    dim = psds.target.shape[1]
    best, best_score = 0, None
    for candidate in range(dim):
        w = mvdr_oracle(psds, candidate, eps)
        num = np.einsum("fd,fde,fe->f", w.conj(), psds.target, w).real
        den = np.einsum("fd,fde,fe->f", w.conj(), psds.distortion, w).real
        score = float(np.mean(num / den))
        if best_score is None or score > best_score:
            best, best_score = candidate, score
    return best
