"""Synthetic multi-channel scenes with known source images.

Scenes are deterministic in (spec, seed): every random draw comes from a
single seeded generator consumed in a fixed order. Source activity is
snapped to the centisecond grid so the generated annotations survive a
round trip through the annotation parser without loss.
"""

from dataclasses import dataclass

import numpy as np

from .activity import SAMPLE_RATE, format_time
from .signal import Waveform, _check_number, _check_object, _check_span, _check_spans

__all__ = ["SyntheticScene", "simulate_scene"]


@dataclass(frozen=True)
class SyntheticScene:
    """Everything a separation experiment needs to know about itself.

    Attributes:
        session_id: identifier used in the generated annotations.
        mixture: (M, L) microphone signals including sensor noise.
        images: (S, M, L) per-source microphone images.
        dry: (S, L) single-channel source signals before mixing.
        speakers: source labels in image order.
        annotations: annotation entries describing the source activity.
        noise: (M, L) sensor noise, or None when the scene is noise free.
        seed: generator seed the scene was built from.
    """

    session_id: str
    mixture: Waveform
    images: np.ndarray
    dry: np.ndarray
    speakers: tuple
    annotations: list
    noise: np.ndarray | None
    seed: int


def _snap(seconds: float) -> int:
    """Samples on the centisecond grid."""
    return int(round(seconds * 100)) * (SAMPLE_RATE // 100)


def _bandpass(noise: np.ndarray, band) -> np.ndarray:
    low, high = band
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(len(noise), d=1.0 / SAMPLE_RATE)
    transition = 100.0
    gain = np.clip((freqs - low) / transition, 0.0, 1.0) * np.clip(
        (high - freqs) / transition, 0.0, 1.0
    )
    return np.fft.irfft(spectrum * gain, n=len(noise))


def _linear_chirp(t: np.ndarray, f0: float, t1: float, f1: float, phi_deg: float) -> np.ndarray:
    """cos of a phase whose frequency sweeps linearly from f0 at t=0 to f1 at t1.

    The operations and their order are those of ``scipy.signal.chirp``
    with ``method="linear"``, so both give the same bits.
    """
    beta = (f1 - f0) / t1
    phase = 2 * np.pi * (f0 * t + 0.5 * beta * t * t) + np.deg2rad(phi_deg)
    return np.cos(phase)


def _source_chunk(kind: str, length: int, source_spec: dict, rng) -> np.ndarray:
    if kind == "noise":
        sig = rng.standard_normal(length)
        if "band" in source_spec:
            sig = _bandpass(sig, source_spec["band"])
    elif kind == "chirp":
        f0, f1 = source_spec.get("sweep", (200.0, 3500.0))
        t = np.arange(length) / SAMPLE_RATE
        sig = _linear_chirp(t, f0, length / SAMPLE_RATE, f1, rng.uniform(0.0, 360.0))
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    rms = np.sqrt(np.mean(sig ** 2))
    if rms > 0:
        sig = sig / rms
    ramp = min(int(0.005 * SAMPLE_RATE), length // 2)
    if ramp > 0:
        fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        sig[:ramp] *= fade
        sig[-ramp:] *= fade[::-1]
    return sig


def _direct_paths(channels: int, length: int, max_delay: int, rng):
    """(channels, length) filters holding each channel's direct-path spike
    (pure-delay mixing), and the spikes' delays and gains; channel 0 is the
    undelayed unit-gain anchor."""
    delays = rng.integers(0, max_delay + 1, size=channels)
    gains = rng.uniform(0.7, 1.0, size=channels)
    delays[0], gains[0] = 0, 1.0
    filters = np.zeros((channels, length))
    filters[np.arange(channels), delays] = gains
    return filters, delays, gains


def _reverb_filters(channels: int, mixing: dict, rng) -> np.ndarray:
    """Direct spike plus exponentially decaying random tail per channel."""
    taps = mixing.get("taps", 64)
    decay = mixing.get("decay", 8.0)
    tail_gain = mixing.get("tail_gain", 0.3)
    filters, delays, gains = _direct_paths(channels, taps, mixing.get("max_delay", 4), rng)
    for c in range(channels):
        d = delays[c]
        tail = np.arange(d + 1, taps)
        if len(tail):
            envelope = np.exp(-(tail - d) / decay)
            filters[c, tail] = tail_gain * gains[c] * envelope * rng.standard_normal(len(tail))
    return filters


def simulate_scene(spec: dict, seed: int) -> SyntheticScene:
    """Render a scene description into microphone signals.

    The spec is a plain dict: duration (seconds), channels, a list of
    sources (speaker label, kind "noise" or "chirp", activity intervals in
    seconds, optional band/sweep/gain), a mixing block of kind "delay" or
    "reverb", and an optional snr_db for white sensor noise. A missing
    required key, or a value of the wrong type or shape, raises ValueError
    naming the key and the source index.
    """
    _check_object(spec, "scene spec", ("duration", "channels", "sources"))
    rng = np.random.default_rng(seed)
    duration = _check_number(spec["duration"], "scene spec 'duration'")
    channels = _check_number(spec["channels"], "scene spec 'channels'", integer=True, minimum=2)
    length = _snap(duration)
    if length <= 0:
        raise ValueError(f"scene duration {duration}s is empty")
    session_id = spec.get("session_id", f"SYN{seed}")
    mixing = _check_object(spec.get("mixing", {"kind": "delay"}), "scene spec 'mixing'")
    for key, integer, minimum in (("taps", True, 1), ("max_delay", True, 0),
                                  ("decay", False, None), ("tail_gain", False, None)):
        if key in mixing:
            _check_number(mixing[key], f"scene mixing {key!r}", integer, minimum)
    if spec.get("snr_db") is not None:
        _check_number(spec["snr_db"], "scene spec 'snr_db'")

    sources = spec["sources"]
    if not isinstance(sources, (list, tuple)) or not sources:
        raise ValueError(f"scene spec 'sources' must be a list of at least one source, "
                         f"got {sources!r}")
    for index, source in enumerate(sources):
        where = f"scene source {index}"
        _check_spans(_check_object(source, where, ("speaker", "kind", "activity"))["activity"],
                     f"{where} 'activity'")
        for key, check in (("band", _check_span), ("sweep", _check_span),
                           ("gain", _check_number), ("words_per_second", _check_number)):
            if key in source:
                check(source[key], f"{where} {key!r}")
    speakers = tuple(str(s["speaker"]) for s in sources)
    if len(set(speakers)) != len(speakers):
        raise ValueError("source speaker labels must be unique")

    dry = np.zeros((len(sources), length))
    annotations = []
    for index, source in enumerate(sources):
        gain = source.get("gain", 1.0)
        words_per_second = source.get("words_per_second", 2.0)
        for a_s, b_s in source["activity"]:
            a, b = _snap(a_s), _snap(b_s)
            if not 0 <= a < b <= length:
                raise ValueError(
                    f"activity [{a_s}, {b_s}]s of source {speakers[index]} "
                    f"is outside the scene"
                )
            dry[index, a:b] = gain * _source_chunk(source["kind"], b - a, source, rng)
            count = max(1, int(round(words_per_second * (b - a) / SAMPLE_RATE)))
            annotations.append(
                {
                    "session_id": session_id,
                    "speaker_id": speakers[index],
                    "start_time": format_time(a),
                    "end_time": format_time(b),
                    "words": " ".join(f"{speakers[index]}w{j}" for j in range(count)),
                }
            )

    kind = mixing.get("kind", "delay")
    if kind == "delay":
        max_delay = mixing.get("max_delay", 8)
        filter_bank = [_direct_paths(channels, max_delay + 1, max_delay, rng)[0] for _ in sources]
    elif kind == "reverb":
        filter_bank = [_reverb_filters(channels, mixing, rng) for _ in sources]
    else:
        raise ValueError(f"unknown mixing kind {kind!r}")

    images = np.zeros((len(sources), channels, length))
    for s in range(len(sources)):
        for c in range(channels):
            images[s, c] = np.convolve(dry[s], filter_bank[s][c])[:length]

    mixture = images.sum(axis=0)
    noise = None
    if spec.get("snr_db") is not None:
        power = np.mean(mixture ** 2)
        if power > 0:
            target = power / 10.0 ** (spec["snr_db"] / 10.0)
            noise = np.sqrt(target) * rng.standard_normal((channels, length))
            mixture = mixture + noise

    return SyntheticScene(
        session_id=session_id,
        mixture=Waveform(mixture, SAMPLE_RATE),
        images=images,
        dry=dry,
        speakers=speakers,
        annotations=annotations,
        noise=noise,
        seed=seed,
    )
