"""Multi-channel dereverberation by weighted linear prediction.

Late reverberation is estimated per frequency bin as a linear prediction
from a block of delayed STFT frames, stacked across all input channels,
and subtracted from the observation. All channels are dereverberated
jointly (M inputs, M outputs); frequency bins never interact.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .signal import Spectrogram, _check_fields

logger = logging.getLogger(__name__)

__all__ = ["WpeConfig", "wpe_dereverberate"]

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

    taps: int = field(default=10, metadata={"minimum": 1})
    delay: int = field(default=2, metadata={"minimum": 1})
    iterations: int = field(default=3, metadata={"minimum": 1})

    def __post_init__(self):
        _check_fields(self, "wpe")


def wpe_dereverberate(
    spectrogram: Spectrogram,
    config: WpeConfig = WpeConfig(),
):
    """Suppress late reverberation in every channel of an STFT tensor.

    Frames earlier than ``delay + taps`` have incomplete prediction history
    and are passed through unmodified, so a segment of no more frames than
    that comes back unchanged, with an all-zero objective and one warning.
    A zero observation stays zero.

    Bins are processed in blocks of 2**16 // (T * (taps + 1) * M) bins (at
    least one). Each block is gathered once into real planes (n, re/im, M,
    T), frames last, and the history taps are a strided view of them.
    Every iteration writes one real matrix per bin,

        A = [tail re; history re; tail im; history im] / sqrt(lambda),

    2 (taps + 1) M rows by T - delay - taps predicted frames. Its Gram
    A A^T holds the real and imaginary parts of the history correlation
    and of its cross-correlation with the predicted frame, two calls away
    from the complex matrices the solve reads. The prediction error is
    one product in the same scaled domain,

        [I  -Fr^T  0  Fi^T; 0  -Fi^T  I  -Fr^T] @ A,

    and is unscaled once, when it is written out. Every buffer of a block
    stays below 1 MB unless a single bin is larger.

    Args:
        spectrogram: (M, T, F) input.
        config: prediction geometry, see :class:`WpeConfig`.

    Returns:
        (dereverberated Spectrogram of identical shape, per-iteration
        objective). The objective is

            sum_t ||output_t||^2 / lambda_t + M log lambda_t  +  ridge * ||G||^2

        over predicted frames, evaluated after each filter update. The
        ridge weight is frozen after the first power estimate, so every
        update is an exact coordinate-descent step and the sequence is
        non-increasing.
    """
    channels, frames, bins = spectrogram.bins.shape
    taps, delay = config.taps, config.delay
    first = delay + taps
    output = spectrogram.bins.copy()
    objective = np.zeros(config.iterations)
    if frames <= first:
        logger.warning("segment of %d frames has none past delay + taps = %d, "
                       "passing it through unchanged", frames, first)
        return Spectrogram(output, spectrogram.config, spectrogram.sample_rate), objective

    order = channels * taps
    span = frames - first
    width = order + channels

    block = max(1, 2 ** 16 // (frames * width))
    planes = np.empty((block, 2, channels, frames))
    scaled = np.empty((block, 2 * width, span))
    gram = np.empty((block, 2 * width, 2 * width))
    history_gram = np.empty((block, order, width), dtype=np.complex128)
    predictor = np.zeros((block, 2 * channels, 2 * width))
    error = np.empty((block, 2 * channels, span))

    # History tap k (lag delay + k) of predicted frame first + j is frame
    # taps - k + j; taps run oldest first here, so tap i reads frame 1 + i + j.
    tail_in = planes[..., first:]
    history_in = np.lib.stride_tricks.sliding_window_view(
        planes[..., 1:frames - delay], span, axis=3).transpose(0, 1, 3, 2, 4)
    rows = scaled.reshape(block, 2, width, span)
    tail_out = rows[:, :, :channels]
    history_out = rows[:, :, channels:].reshape(block, 2, taps, channels, span)
    g = gram.reshape(block, 2, width, 2, width)[:, :, channels:]
    cross, corr = history_gram[:, :, :channels], history_gram[:, :, channels:]
    corr_diagonal = np.einsum("bii->bi", corr.real)
    # The predictor's rows are (re, im) of the M outputs, its columns the
    # rows of A; its identity blocks are fixed.
    re_rows, im_rows = slice(None, channels), slice(channels, None)
    tail_re, history_re = slice(None, channels), slice(channels, width)
    tail_im, history_im = slice(width, width + channels), slice(width + channels, None)
    predictor[:, re_rows, tail_re] = predictor[:, im_rows, tail_im] = np.eye(channels)
    out_planes = output.view(np.float64).reshape(channels, frames, bins, 2)

    for lo in range(0, bins, block):
        n = min(block, bins - lo)
        np.copyto(planes[:n].transpose(2, 3, 0, 1), out_planes[:, :, lo:lo + n])
        # Per-frame power summed over channels.
        power = np.einsum("bcmt,bcmt->bt", planes[:n], planes[:n])
        energy = power.sum(axis=1) / (channels * frames)
        active = np.flatnonzero(energy > 0.0)
        if not active.size:
            continue
        cols = slice(lo, lo + n)
        if active.size < n:
            planes[:active.size] = planes[active]
            power, energy, cols = power[active], energy[active], lo + active
        n = active.size
        # lambda is the channel mean of the predicted frames' power in the
        # first iteration and of the prediction error's in the next ones.
        residual = power[:, first:]
        floor = 1e-10 * energy[:, None]
        ridge = None
        for it in range(config.iterations):
            lam = np.maximum(residual / channels, floor)
            weight = (1.0 / np.sqrt(lam))[:, None, None, :]
            np.multiply(tail_in[:n], weight, out=tail_out[:n])
            np.multiply(history_in[:n], weight[:, None], out=history_out[:n])
            # numpy runs A A^T as a symmetric rank-k update.
            np.matmul(scaled[:n], scaled[:n].transpose(0, 2, 1), out=gram[:n])
            np.add(g[:n, 0, :, 0], g[:n, 1, :, 1], out=history_gram[:n].real)
            np.subtract(g[:n, 0, :, 1], g[:n, 1, :, 0], out=history_gram[:n].imag)
            if ridge is None:
                ridge = RIDGE_EPS * corr_diagonal[:n].sum(axis=1) / order
            corr_diagonal[:n] += ridge[:, None]
            filters = np.linalg.solve(corr[:n], cross[:n])

            transposed = filters.transpose(0, 2, 1)
            np.negative(transposed.real, out=predictor[:n, re_rows, history_re])
            predictor[:n, re_rows, history_im] = transposed.imag
            np.negative(transposed.imag, out=predictor[:n, im_rows, history_re])
            np.negative(transposed.real, out=predictor[:n, im_rows, history_im])
            e = np.matmul(predictor[:n], scaled[:n], out=error[:n])
            scaled_residual = np.einsum("brt,brt->bt", e, e)
            residual = lam * scaled_residual
            flat = filters.view(np.float64).reshape(n, -1)
            objective[it] += (scaled_residual.sum() + channels * np.log(lam).sum()
                              + np.vdot(flat * ridge[:, None], flat))

        e *= np.sqrt(lam)[:, None, :]
        out_planes[:, first:, cols] = e.reshape(n, 2, channels, span).transpose(2, 3, 0, 1)

    return Spectrogram(output, spectrogram.config, spectrogram.sample_rate), objective
