"""Scoring oracles for tests that know the true sources of a simulated
scene: the dominant source of every STFT bin, and how well a fitted
posterior agrees with it up to speaker relabelling."""

import itertools

import numpy as np

from gsskit import StftConfig, SyntheticScene, Waveform, stft


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
