"""Short-time Fourier analysis and synthesis for multi-channel audio.

Shape conventions used throughout the package:
    M: number of microphone channels
    T: number of STFT frames
    F: number of frequency bins (fft_size // 2 + 1)
    L: number of time-domain samples
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "StftConfig",
    "Waveform",
    "Spectrogram",
    "stft",
    "istft",
]


def _check_number(value, where: str, integer: bool = False, minimum=None, above=None):
    """``value`` if it is a number, an integer with no fraction if ``integer``,
    never a bool, finite, at least ``minimum``, above ``above``; else ValueError."""
    kind, name = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} must be {name}, got {type(value).__name__}")
    if not integer and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{where} must be at least {minimum}, got {value}")
    if above is not None and value <= above:
        raise ValueError(f"{where} must be above {above}, got {value}")
    return value


def _check_object(value, where: str, keys=()):
    """``value`` if it is a JSON object holding each of ``keys``, else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{where} has no {key!r}")
    return value


def _check_span(value, where: str):
    """``value`` if it is a [start, end] pair of finite numbers, start < end."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) for v in value) and value[0] < value[1]):
        raise ValueError(f"{where} must be [start, end] with finite start < end, got {value!r}")
    return value


def _check_spans(value, where: str):
    """``value`` if it is a list of :func:`_check_span` pairs, each named by its index."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a list of [start, end] pairs, got {value!r}")
    for index, span in enumerate(value):
        _check_span(span, f"{where}, span {index}")
    return value


# What a config field of each other annotated type takes, and its name.
_FIELD_TYPES = {
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    tuple: ((list, tuple), "a list of strings"),
}


def _check_fields(config, section: str) -> None:
    """Reject a field of the config dataclass ``config`` whose value is not
    of its annotated type, as ``<section>.<field> must be ...``; an int or
    float field is a :func:`_check_number` with its metadata as keywords."""
    for item in fields(config):
        value, kind = getattr(config, item.name), item.type
        where = f"{section}.{item.name}"
        if kind in (int, float):
            _check_number(value, where, kind is int, **item.metadata)
            continue
        accepted, name = _FIELD_TYPES.get(kind, (kind, f"of type {kind.__name__}"))
        if not (isinstance(value, accepted)
                and (kind is not tuple or all(isinstance(element, str) for element in value))):
            raise ValueError(f"{where} must be {name}, got {type(value).__name__}")


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters shared by all spectral processing.

    The window is always the periodic Hann window, and the signal tails
    are mirrored before framing.

    Attributes:
        fft_size: DFT length in samples, even and at least 2.
        shift: hop between adjacent frames in samples, 1 <= shift <= fft_size;
            :func:`istft` also needs windows that overlap enough
            (:meth:`synthesis_weights`).
    """

    fft_size: int = field(default=1024, metadata={"minimum": 2})
    shift: int = field(default=256, metadata={"minimum": 1})

    def __post_init__(self):
        _check_fields(self, "stft")
        if self.fft_size % 2 != 0:
            raise ValueError(f"stft.fft_size must be even, got {self.fft_size}")
        if self.shift > self.fft_size:
            raise ValueError(f"stft.shift must be at most fft_size {self.fft_size}, "
                             f"got {self.shift}")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def pad(self) -> int:
        """Samples of edge padding prepended (and appended) before framing."""
        return self.fft_size - self.shift

    def frame_count(self, num_samples: int) -> int:
        """Frames :func:`stft` makes of ``num_samples`` samples: the last
        is the one whose span still holds the final padded input sample,
        completed with zeros beyond it."""
        if num_samples <= 0:
            raise ValueError("empty signal")
        return 1 + (self.pad + num_samples - 1) // self.shift

    def frame_range(self, start: int, end: int, num_frames: int) -> range:
        """Frames, of ``num_frames``, whose nominal span [t * shift,
        t * shift + fft_size) starts in samples [start, end). The nominal
        grid leaves out the ``pad`` that :func:`stft` prepends. A span
        shorter than a hop still claims one frame."""
        lo, hi = (-(-sample // self.shift) for sample in (start, end))
        lo, hi = max(0, lo), min(hi, num_frames)
        if hi <= lo:
            lo = min(lo, num_frames - 1)
            hi = lo + 1
        return range(lo, hi)

    def frames_touching(self, start: int, end: int, num_frames: int) -> range:
        """Frames whose nominal span overlaps samples [start, end): those
        starting in [start - fft_size + 1, end), a span of at least
        fft_size >= shift samples, which never needs the sub-hop rule."""
        return self.frame_range(start - self.fft_size + 1, end, num_frames)

    def synthesis_frames(self, core: range, num_frames: int) -> range:
        """``core`` plus ceil(fft_size / shift) guard frames on each side:
        without them the overlap-add window sum tapers off inside the
        core's samples, which then come from a lone window tail."""
        guard = -(-self.fft_size // self.shift)
        return range(max(0, core.start - guard), min(num_frames, core.stop + guard))

    def synthesis_offset(self, sample: int, first_frame: int) -> int:
        """The :func:`istft` ``offset`` of signal sample ``sample`` when
        only the frames from ``first_frame`` on are synthesised."""
        return self.pad + sample - first_frame * self.shift

    def synthesis_weights(self) -> np.ndarray:
        """Squared-window lattice sum over one hop period.

        ``den[j] = sum_k window[j + k * shift] ** 2`` is the steady-state
        overlap-add weight at offset j.

        Raises:
            ValueError: if some entry is near zero, so that some sample
                positions are never observed and synthesis cannot be exact
                ("reconstruction unsupported").
        """
        window = _analysis_window(self)
        den = np.zeros(self.shift)
        for start in range(0, len(window), self.shift):
            chunk = window[start:start + self.shift] ** 2
            den[: len(chunk)] += chunk
        if den.min() <= 1e-6 * den.max():
            raise ValueError(
                f"reconstruction unsupported: window/shift pair "
                f"(hann, {self.shift}/{self.fft_size}) does not cover "
                f"all sample positions"
            )
        return den


@dataclass(frozen=True)
class Waveform:
    """Multi-channel time-domain signal, samples laid out as (M, L) float64."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError(f"waveform samples must be 2-dim (M, L), got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must be finite")
        _check_number(self.sample_rate, "sample_rate", integer=True, minimum=1)
        object.__setattr__(self, "samples", samples)

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.samples.shape[1] / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT tensor of shape (M, T, F) plus the config that made it."""

    bins: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 3:
            raise ValueError(f"spectrogram bins must be 3-dim (M, T, F), got shape {bins.shape}")
        if bins.shape[2] != self.config.num_bins:
            raise ValueError(
                f"spectrogram has {bins.shape[2]} bins, config expects {self.config.num_bins}"
            )
        object.__setattr__(self, "bins", bins)

    @property
    def num_channels(self) -> int:
        return self.bins.shape[0]

    @property
    def num_frames(self) -> int:
        return self.bins.shape[1]


def _analysis_window(config: StftConfig) -> np.ndarray:
    # Periodic Hann, so that window power sums tile exactly at integer
    # fractions of the DFT length.
    n = np.arange(config.fft_size)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / config.fft_size)


def stft(waveform: Waveform, config: StftConfig) -> Spectrogram:
    """Windowed short-time transform of every channel.

    The signal is padded with ``config.pad`` mirrored samples on both ends
    so that the first frame is centred near the first sample, then carved
    into :meth:`StftConfig.frame_count` hops of ``shift`` samples.

    Returns:
        Spectrogram with bins of shape (M, T, F).
    """
    frames = config.frame_count(waveform.num_samples)
    total = (frames - 1) * config.shift + config.fft_size
    pad = config.pad
    padded = np.pad(waveform.samples, ((0, 0), (pad, pad)), mode="symmetric")
    extra = total - padded.shape[1]
    if extra > 0:
        padded = np.pad(padded, ((0, 0), (0, extra)), mode="constant")

    window = _analysis_window(config)
    strided = np.lib.stride_tricks.sliding_window_view(padded, config.fft_size, axis=1)
    framed = strided[:, :: config.shift][:, :frames]
    # One channel at a time, so that windowed frames and transform output
    # exist for one channel only next to the result.
    bins = np.empty((waveform.num_channels, frames, config.num_bins), dtype=np.complex128)
    for channel in range(waveform.num_channels):
        bins[channel] = np.fft.rfft(framed[channel] * window, n=config.fft_size, axis=-1)
    return Spectrogram(bins, config, waveform.sample_rate)


def istft(spectrogram: Spectrogram, target_length: int, offset: int | None = None) -> Waveform:
    """Overlap-add synthesis back to the time domain.

    Each frame is inverse-transformed, windowed again, and accumulated at
    its hop position; the accumulator is normalised by the per-position sum
    of squared window values, which makes the analysis/synthesis pair an
    identity wherever frames fully overlap. The operation is linear in the
    spectrogram bins.

    Args:
        spectrogram: (M, T, F) analysis result, possibly modified.
        target_length: number of output samples per channel.
        offset: sample index into the frame grid where the output starts.
            Defaults to ``config.pad``, which undoes the padding applied by
            :func:`stft` for a spectrogram covering a whole signal. For a
            frame subset, :meth:`StftConfig.synthesis_offset` gives it.

    Raises:
        ValueError: if the window/shift pair loses sample positions
            ("reconstruction unsupported", see
            :meth:`StftConfig.synthesis_weights`), or if ``target_length``
            or ``offset`` is not an integer of at least 0.
    """
    config = spectrogram.config
    den = config.synthesis_weights()
    _check_number(target_length, "target_length", integer=True, minimum=0)
    offset = config.pad if offset is None else _check_number(offset, "offset", True, 0)

    window = _analysis_window(config)
    channels, frames, _ = spectrogram.bins.shape
    total = (frames - 1) * config.shift + config.fft_size if frames else config.fft_size
    acc = np.zeros((channels, total))
    weight = np.zeros(total)
    segments = np.fft.irfft(spectrogram.bins, n=config.fft_size, axis=-1) * window
    for t in range(frames):
        start = t * config.shift
        acc[:, start:start + config.fft_size] += segments[:, t]
        weight[start:start + config.fft_size] += window ** 2
    # Partial overlap at the grid edges still gets amplitude-correct
    # normalisation down to 1% of the steady-state weight. Below that the
    # divisor is floored: modified spectra are not frame-consistent, and
    # renormalising a near-zero window tail would amplify the inconsistency
    # without bound. Positions never touched by any window stay zero.
    floor = 1e-2 * den.min()
    out = acc / np.maximum(weight, floor)

    result = np.zeros((channels, target_length))
    hi = min(total, offset + target_length)
    if offset < hi:
        result[:, : hi - offset] = out[:, offset:hi]
    return Waveform(result, spectrogram.sample_rate)
