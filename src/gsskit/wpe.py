"""Multi-channel dereverberation by weighted linear prediction.

Late reverberation is estimated per frequency bin as a linear prediction
from a block of delayed STFT frames, stacked across all input channels,
and subtracted from the observation. All channels are dereverberated
jointly (M inputs, M outputs); frequency bins never interact.
"""

from dataclasses import dataclass

import numpy as np

from .signal import Spectrogram

__all__ = ["WpeConfig", "WpeDiagnostics", "wpe_dereverberate"]

RIDGE_EPS = 1e-6  # correlation-matrix ridge, relative to its mean diagonal


@dataclass(frozen=True)
class WpeConfig:
    """Prediction-filter geometry and iteration control.

    The power estimate is the unsmoothed per-frame channel mean, and the
    ridge weight is :data:`RIDGE_EPS` relative.

    Attributes:
        taps: number of stacked history frames per channel.
        delay: frames between the predicted frame and the newest history
            frame, keeps early reflections in the output.
        iterations: alternations of power estimation and filter refit.
    """

    taps: int = 10
    delay: int = 2
    iterations: int = 3

    def __post_init__(self):
        if self.taps <= 0:
            raise ValueError(f"taps must be positive, got {self.taps}")
        if self.delay < 1:
            raise ValueError(f"delay must be at least 1, got {self.delay}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")


@dataclass
class WpeDiagnostics:
    """Per-iteration value of the prediction objective.

    The objective is

        sum_t ||output_t||^2 / lambda_t + M log lambda_t  +  ridge * ||G||^2

    over predicted frames, evaluated after each filter update. The ridge
    weight is frozen after the first power estimate, so every update is an
    exact coordinate-descent step and the sequence is non-increasing.
    """

    objective: np.ndarray


def wpe_dereverberate(
    spectrogram: Spectrogram,
    config: WpeConfig = WpeConfig(),
    return_diagnostics: bool = False,
):
    """Suppress late reverberation in every channel of an STFT tensor.

    Frames earlier than ``delay + taps`` have incomplete prediction history
    and are passed through unmodified. A zero observation stays zero.

    Bins are processed in blocks. Each block holds one stacked tensor
    (n, T - first, (taps + 1) * M), first = delay + taps: its first M
    columns are the predicted frame itself, then come the history frames
    t - delay, ..., t - delay - taps + 1, M channels each. Every iteration
    scales it by 1 / sqrt(lambda) and takes a single real Gram of its
    float64 view; that one product holds both the correlation of the
    history columns and their cross-correlation with the frame. A block
    has 2**16 // (T * (taps + 1) * M) bins (at least one), which keeps
    the stacked tensor and its scaled real copy below 1 MB each unless a
    single bin is larger.

    Args:
        spectrogram: (M, T, F) input.
        config: prediction geometry, see :class:`WpeConfig`.
        return_diagnostics: also return the per-iteration objective.

    Returns:
        Dereverberated Spectrogram of identical shape, or a tuple of that
        and :class:`WpeDiagnostics` when requested.
    """
    channels, frames, bins = spectrogram.bins.shape
    if frames <= config.delay + config.taps:
        raise ValueError(
            f"segment too short for dereverberation: {frames} frames, "
            f"need more than delay + taps = {config.delay + config.taps}"
        )

    order = channels * config.taps
    first = config.delay + config.taps
    width = order + channels
    output = spectrogram.bins.copy()
    objective = np.zeros(config.iterations)
    eye = np.eye(order)

    block = max(1, 2 ** 16 // (frames * width))
    stacked_buf = np.empty((block, frames - first, width), dtype=np.complex128)
    scaled_buf = np.empty((block, frames - first, 2 * width))
    for lo in range(0, bins, block):
        obs = spectrogram.bins[:, :, lo:lo + block].transpose(2, 1, 0)
        energy = np.mean(np.abs(obs) ** 2, axis=(1, 2))
        active = np.flatnonzero(energy > 0.0)
        if not active.size:
            continue
        obs = obs[active]
        stacked, scaled = stacked_buf[:len(active)], scaled_buf[:len(active)]
        # Lags delay + k <= first - 1, so every history frame of a
        # predicted frame lies inside the segment.
        for k, lag in enumerate((0, *range(config.delay, first))):
            stacked[:, :, k * channels:(k + 1) * channels] = obs[:, first - lag:frames - lag]
        tail, history = stacked[:, :, :channels], stacked[:, :, channels:]
        # The predicted frames' power summed over channels: divided by M it
        # weighs the next iteration, as it stands it is this one's residual.
        residual = np.sum(np.abs(tail) ** 2, axis=2)
        floor = 1e-10 * energy[active]
        ridge = None
        for it in range(config.iterations):
            lam = np.maximum(residual / channels, floor[:, None])
            # Complex Gram S^H S from the real Gram of the interleaved
            # (re, im) view; numpy runs X^T X as a symmetric rank-k update.
            np.multiply(stacked.view(np.float64), 1.0 / np.sqrt(lam)[:, :, None], out=scaled)
            g = scaled.transpose(0, 2, 1) @ scaled
            gram = (g[:, 0::2, 0::2] + g[:, 1::2, 1::2]) + 1j * (g[:, 0::2, 1::2] - g[:, 1::2, 0::2])
            corr, cross = gram[:, channels:, channels:], gram[:, channels:, :channels]
            if ridge is None:
                ridge = RIDGE_EPS * np.trace(corr, axis1=1, axis2=2).real / order
            filters = np.linalg.solve(corr + ridge[:, None, None] * eye, cross)

            estimate = tail - history @ filters
            residual = np.sum(np.abs(estimate) ** 2, axis=2)
            objective[it] += np.sum(residual / lam + channels * np.log(lam))
            objective[it] += np.sum(ridge * np.sum(np.abs(filters) ** 2, axis=(1, 2)))

        output[:, first:, lo + active] = estimate.transpose(2, 1, 0)

    result = Spectrogram(output, spectrogram.config, spectrogram.sample_rate)
    if return_diagnostics:
        return result, WpeDiagnostics(objective=objective)
    return result
