import re

import numpy as np
import pytest

from gsskit import Spectrogram, StftConfig, Waveform, istft, stft


def frame_count_oracle(length, config):
    """Count hops by walking the padded timeline until it is exhausted."""
    total = config.pad + length
    count = 0
    position = 0
    while position < total:
        count += 1
        position += config.shift
    return count


def test_config_defaults():
    config = StftConfig()
    assert config.fft_size == 1024
    assert config.shift == 256
    assert config.pad == 768
    assert config.num_bins == 513


BAD_STFT_CONFIGS = [
    (dict(fft_size=0), "stft.fft_size must be at least 2, got 0"),
    (dict(fft_size=-4), "stft.fft_size must be at least 2, got -4"),
    (dict(fft_size=7), "stft.fft_size must be even, got 7"),
    (dict(shift=0), "stft.shift must be at least 1, got 0"),
    (dict(shift=-1), "stft.shift must be at least 1, got -1"),
    (dict(fft_size=64, shift=65), "stft.shift must be at most fft_size 64, got 65"),
    (dict(fft_size=1, shift=1), "stft.fft_size must be at least 2, got 1"),
    (dict(shift=1025), "stft.shift must be at most fft_size 1024, got 1025"),
]


@pytest.mark.parametrize("kwargs, message", BAD_STFT_CONFIGS,
                         ids=[f"kwargs{i}" for i in range(len(BAD_STFT_CONFIGS))])
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StftConfig(**kwargs)


def test_waveform_validation():
    with pytest.raises(ValueError, match="2-dim"):
        Waveform(np.zeros(10), 16000)
    with pytest.raises(ValueError, match="finite"):
        Waveform(np.array([[0.0, np.nan]]), 16000)
    for rate in (0, 8000, 48000):
        with pytest.raises(ValueError, match=f"^sample_rate must be 16000 Hz, got {rate} Hz$"):
            Waveform(np.zeros((1, 10)), rate)
    mono = Waveform(np.arange(5.0)[None], 16000)
    assert mono.samples.shape == (1, 5)
    assert mono.duration == 5 / 16000


def test_spectrogram_validation():
    config = StftConfig(fft_size=16, shift=4)
    with pytest.raises(ValueError, match="3-dim"):
        Spectrogram(np.zeros((3, 9), complex), config)
    with pytest.raises(ValueError, match="bins"):
        Spectrogram(np.zeros((1, 3, 7), complex), config)


def test_frame_count_matches_walk_oracle():
    rng = np.random.default_rng(0)
    configs = [
        StftConfig(),
        StftConfig(fft_size=512, shift=128),
        StftConfig(fft_size=64, shift=16),
        StftConfig(fft_size=64, shift=48),
        StftConfig(fft_size=32, shift=32),
    ]
    for config in configs:
        for length in [1, 2, 5, 100, 255, 256, 257, 1000, 16000]:
            assert config.frame_count(length) == frame_count_oracle(length, config), (
                config,
                length,
            )
        for length in rng.integers(1, 50000, size=20):
            assert config.frame_count(int(length)) == frame_count_oracle(int(length), config)


@pytest.mark.parametrize("fft_size, shift", [(64, 16), (200, 75), (96, 40), (32, 32)])
def test_frame_maps_match_span_oracles(fft_size, shift):
    # Frame t nominally spans samples [t * shift, t * shift + fft_size).
    config = StftConfig(fft_size=fft_size, shift=shift)
    rng = np.random.default_rng(fft_size + shift)
    for _ in range(300):
        length = int(rng.integers(1, 1500))
        total = config.frame_count(length)
        start = int(rng.integers(0, length))
        end = int(rng.integers(start + 1, length + 1))
        starting = [t for t in range(total) if start <= t * shift < end]
        if not starting:  # a sub-hop span claims the next frame, or the last
            starting = [next((t for t in range(total) if t * shift >= start), total - 1)]
        touching = [t for t in range(total) if t * shift < end and start < t * shift + fft_size]
        assert config.frame_range(start, end, total) == range(starting[0], starting[-1] + 1)
        assert config.frames_touching(start, end, total) == range(touching[0], touching[-1] + 1)


def test_frame_count_rejects_empty():
    with pytest.raises(ValueError, match="empty signal"):
        StftConfig().frame_count(0)
    with pytest.raises(ValueError, match="empty signal"):
        stft(Waveform(np.zeros((2, 0)), 16000), StftConfig())


def test_stft_shape_and_dtype():
    rng = np.random.default_rng(1)
    config = StftConfig(fft_size=128, shift=32)
    wave = Waveform(rng.standard_normal((3, 1000)), 16000)
    spec = stft(wave, config)
    assert spec.bins.shape == (3, config.frame_count(1000), config.num_bins)
    assert spec.bins.dtype == np.complex128


def test_stft_of_zeros_is_zero():
    config = StftConfig(fft_size=64, shift=16)
    spec = stft(Waveform(np.zeros((2, 300)), 16000), config)
    assert np.all(spec.bins == 0)


@pytest.mark.parametrize(
    "length",
    [3, 17, 255, 256, 257, 1000, 1023, 1024, 1025, 4096, 5000],
    ids=lambda length: f"{length}-symmetric-edge",
)
def test_round_trip_exact(length):
    rng = np.random.default_rng(length)
    config = StftConfig()
    wave = Waveform(rng.standard_normal((2, length)), 16000)
    back = istft(stft(wave, config), length)
    np.testing.assert_allclose(back.samples, wave.samples, rtol=0, atol=1e-10)


def test_stft_mirrors_the_signal_edges():
    # The round trip is exact under any padding, so the padding itself is
    # pinned here: the first frame sees `pad` mirrored samples, then the
    # head of the signal, under the periodic Hann window.
    rng = np.random.default_rng(4)
    config = StftConfig(fft_size=64, shift=16)
    wave = Waveform(rng.standard_normal((2, 40)), 16000)
    padded = np.pad(wave.samples, ((0, 0), (config.pad, config.pad)), mode="symmetric")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(config.fft_size) / config.fft_size)
    first = np.fft.rfft(padded[:, : config.fft_size] * window, axis=-1)
    np.testing.assert_allclose(stft(wave, config).bins[:, 0], first, rtol=0, atol=1e-12)


def test_round_trip_exact_small_config():
    rng = np.random.default_rng(7)
    config = StftConfig(fft_size=64, shift=16)
    for length in [5, 16, 63, 64, 65, 400]:
        wave = Waveform(rng.standard_normal((1, length)), 16000)
        back = istft(stft(wave, config), length)
        np.testing.assert_allclose(back.samples, wave.samples, rtol=0, atol=1e-10)


def test_istft_offset_selects_segment():
    # Cutting at pad + s reproduces the original signal starting at sample s.
    rng = np.random.default_rng(3)
    config = StftConfig(fft_size=128, shift=32)
    wave = Waveform(rng.standard_normal((1, 2000)), 16000)
    spec = stft(wave, config)
    for start in [0, 1, 31, 32, 500]:
        cut = istft(spec, 800, offset=config.pad + start)
        np.testing.assert_allclose(
            cut.samples[0], wave.samples[0, start : start + 800], rtol=0, atol=1e-10
        )


def test_istft_default_offset_is_pad():
    rng = np.random.default_rng(4)
    config = StftConfig(fft_size=128, shift=32)
    spec = stft(Waveform(rng.standard_normal((1, 777)), 16000), config)
    a = istft(spec, 777)
    b = istft(spec, 777, offset=config.pad)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_istft_pads_beyond_grid_with_zeros():
    rng = np.random.default_rng(5)
    config = StftConfig(fft_size=64, shift=16)
    wave = Waveform(rng.standard_normal((1, 200)), 16000)
    out = istft(stft(wave, config), 500)
    np.testing.assert_allclose(out.samples[0, :200], wave.samples[0], atol=1e-10)
    assert np.all(out.samples[0, 300:] == 0)


def test_istft_rejects_non_overlapping_grid():
    # A hann window with no frame overlap leaves gaps and cannot reconstruct.
    config = StftConfig(fft_size=64, shift=64)
    spec = Spectrogram(np.zeros((1, 10, 33), complex), config)
    with pytest.raises(ValueError, match="reconstruction unsupported"):
        istft(spec, 100)


def test_istft_rejects_negative_length():
    config = StftConfig(fft_size=64, shift=16)
    spec = Spectrogram(np.zeros((1, 10, 33), complex), config)
    with pytest.raises(ValueError, match="target_length"):
        istft(spec, -1)


@pytest.mark.parametrize("fft_size, shift", [
    (1024, 256), (512, 128), (64, 16), (200, 75), (1024, 768), (96, 40),
])
def test_synthesis_frames_give_the_core_samples_of_the_whole_grid(fft_size, shift):
    # Random bins are not the STFT of any signal, like a beamformed and
    # masked spectrogram: every frame that overlaps a core sample changes
    # it, so the guard frames must reach all of them.
    config = StftConfig(fft_size=fft_size, shift=shift)
    rng = np.random.default_rng(fft_size + shift)
    length = 40 * shift
    total = config.frame_count(length)
    bins = rng.standard_normal((2, total, config.num_bins, 2)) @ np.array([1.0, 1.0j])
    spec = Spectrogram(bins, config)
    for _ in range(20):
        start = int(rng.integers(0, length))
        end = int(rng.integers(start + 1, length + 1))
        synth = config.synthesis_frames(config.frame_range(start, end, total), total)
        part = Spectrogram(bins[:, synth.start:synth.stop], config)
        np.testing.assert_allclose(
            istft(part, end - start, offset=config.synthesis_offset(start, synth.start)).samples,
            istft(spec, end - start, offset=config.pad + start).samples,
            rtol=0, atol=1e-12, err_msg=f"samples [{start}, {end})",
        )


@pytest.mark.parametrize("offset", [-1, -3, -4200])
def test_istft_rejects_negative_offset(offset):
    # Numpy would read a negative offset from the far end of the grid.
    config = StftConfig(fft_size=64, shift=16)
    spec = stft(Waveform(np.ones((1, 5000)), 16000), config)
    with pytest.raises(ValueError, match=f"offset must be at least 0, got {offset}"):
        istft(spec, 10, offset=offset)


def test_stft_linearity():
    rng = np.random.default_rng(8)
    config = StftConfig(fft_size=128, shift=32)
    x = rng.standard_normal((1, 900))
    y = rng.standard_normal((1, 900))
    sx = stft(Waveform(x, 16000), config).bins
    sy = stft(Waveform(y, 16000), config).bins
    sboth = stft(Waveform(2.0 * x - 3.0 * y, 16000), config).bins
    np.testing.assert_allclose(sboth, 2.0 * sx - 3.0 * sy, atol=1e-9)
