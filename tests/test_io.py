import logging
import struct
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gsskit import SAMPLE_RATE, PipelineConfig, Utterance, Waveform, run_batch
from gsskit.io import dump_json, load_json, read_wav, utterance_filename, write_wav


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    wave = Waveform(rng.uniform(-0.9, 0.9, size=(3, 1600)), SAMPLE_RATE)
    path = tmp_path / "sub" / "take.wav"
    write_wav(path, wave)
    back = read_wav(path)
    assert back.samples.shape == (3, 1600)
    assert back.sample_rate == SAMPLE_RATE
    np.testing.assert_allclose(back.samples, wave.samples, atol=1.5 / 32768)


def test_wav_mono_shape(tmp_path):
    wave = Waveform(np.zeros((1, 100)), SAMPLE_RATE)
    path = tmp_path / "mono.wav"
    write_wav(path, wave)
    back = read_wav(path)
    assert back.samples.shape == (1, 100)


def test_write_wav_normalizes_clipping_peaks(tmp_path, caplog):
    wave = Waveform(np.linspace(-2.0, 2.0, 100)[None], SAMPLE_RATE)
    path = tmp_path / "hot.wav"
    with caplog.at_level(logging.WARNING):
        write_wav(path, wave)
    back = read_wav(path)
    peak = np.abs(back.samples).max()
    assert peak <= 0.96
    assert any("normaliz" in r.message for r in caplog.records)


def test_utterance_filename():
    u = Utterance("S1", "P05", SAMPLE_RATE // 2, 2 * SAMPLE_RATE, ())
    assert utterance_filename(u) == "P05-500_2000.wav"
    # Off the millisecond grid a boundary keeps its exact remainder.
    for start, name in ((8001, "P05-500.0625_2000.wav"), (8008, "P05-500.5_2000.wav")):
        assert utterance_filename(Utterance("S1", "P05", start, 2 * SAMPLE_RATE, ())) == name


def test_json_round_trip(tmp_path):
    payload = {"a": [1, 2, 3], "b": {"c": "text"}}
    path = tmp_path / "deep" / "doc.json"
    dump_json(payload, path)
    assert load_json(path) == payload


def _fail_after_half(monkeypatch):
    """Make WAV writing fail after half of its frames are on disk."""
    def half_then_fail(self, data):
        self.writeframesraw(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(wave.Wave_write, "writeframes", half_then_fail)


def test_write_wav_that_fails_leaves_no_partial_file(tmp_path, monkeypatch):
    second = Waveform(np.full((1, SAMPLE_RATE), 0.5), SAMPLE_RATE)
    path = tmp_path / "u.wav"
    with monkeypatch.context() as patch:
        _fail_after_half(patch)
        with pytest.raises(OSError, match="disk full"):
            write_wav(path, second)
    assert list(tmp_path.iterdir()) == []

    write_wav(path, Waveform(np.full((1, SAMPLE_RATE), 0.25), SAMPLE_RATE))
    earlier = path.read_bytes()
    _fail_after_half(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write_wav(path, second)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == earlier


def test_dump_json_of_an_unserialisable_value_leaves_no_partial_file(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        dump_json({"a": object()}, path)
    assert list(tmp_path.iterdir()) == []
    dump_json({"a": 1}, path)
    with pytest.raises(TypeError):
        dump_json({"a": object()}, path)
    assert list(tmp_path.iterdir()) == [path]
    assert load_json(path) == {"a": 1}


# Reference readings come from scipy.io.wavfile, which read_wav replaced.

def _chunk(chunk_id: bytes, payload: bytes, size=None) -> bytes:
    size = len(payload) if size is None else size
    return chunk_id + struct.pack("<I", size) + payload + b"\0" * (len(payload) & 1)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag: int, channels: int, bits: int, subformat=None) -> bytes:
    align = channels * bits // 8
    body = struct.pack("<HHIIHH", tag, channels, SAMPLE_RATE, SAMPLE_RATE * align, align, bits)
    if subformat is not None:
        guid_tail = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack("<HHII", 22, bits, 0, subformat) + guid_tail
    return _chunk(b"fmt ", body)


def _scipy_read(path):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    rate, data = wavfile.read(path)
    return rate, data.reshape(len(data), -1)


def _scaled(data):
    """read_wav's scaling of scipy's integer and float dtypes."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype.kind == "i":
        return data / float(2 ** (8 * data.dtype.itemsize - 1))
    return data.astype(np.float64)


def _assert_reads_like_scipy(path):
    """read_wav's samples of ``path``, checked bit for bit (-0.0 included)
    against scipy's reading under :func:`_scaled`."""
    wave = read_wav(path)
    ref_rate, ref = _scipy_read(path)
    assert wave.sample_rate == ref_rate
    assert wave.samples.shape == ref.T.shape
    assert wave.samples.tobytes() == _scaled(ref).T.tobytes()
    return wave.samples


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("dtype", ["uint8", "int16", "int32", "float32", "float64"])
def test_read_wav_matches_scipy_on_scipy_files(tmp_path, dtype, channels):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    rng = np.random.default_rng(1)
    if np.dtype(dtype).kind == "f":
        data = rng.uniform(-1.0, 1.0, size=(257, channels)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=(257, channels), endpoint=True, dtype=dtype)
    path = tmp_path / "ref.wav"
    wavfile.write(path, SAMPLE_RATE, data[:, 0] if channels == 1 else data)
    _assert_reads_like_scipy(path)


def test_read_wav_24_bit_is_left_justified_like_scipy(tmp_path):
    values = [0, 1, -1, 2 ** 23 - 1, -(2 ** 23), 123456, -654321]
    payload = b"".join(v.to_bytes(3, "little", signed=True) for v in values)
    path = tmp_path / "pcm24.wav"
    path.write_bytes(_riff(_fmt(1, 1, 24), _chunk(b"data", payload)))
    samples = _assert_reads_like_scipy(path)
    np.testing.assert_array_equal(samples[0], np.array(values) / 2.0 ** 23)


@pytest.mark.parametrize("subformat, dtype", [(1, "<i2"), (3, "<f4")])
def test_read_wav_extensible_matches_scipy(tmp_path, subformat, dtype):
    data = np.arange(-12, 12).reshape(6, 4).astype(dtype)
    bits = 8 * np.dtype(dtype).itemsize
    path = tmp_path / "ext.wav"
    path.write_bytes(_riff(_fmt(0xFFFE, 4, bits, subformat), _chunk(b"data", data.tobytes())))
    np.testing.assert_array_equal(_assert_reads_like_scipy(path), _scaled(data).T)


def test_read_wav_skips_odd_sized_chunk_and_its_pad_byte(tmp_path):
    data = np.array([[1, -2], [3, -4], [5, -6]], dtype="<i2")
    path = tmp_path / "odd.wav"
    path.write_bytes(_riff(
        _fmt(1, 2, 16), _chunk(b"LIST", b"odd"), _chunk(b"data", data.tobytes())
    ))
    np.testing.assert_array_equal(_assert_reads_like_scipy(path), _scaled(data).T)


def test_read_wav_truncated_data_gives_whole_frames_and_warns(tmp_path, caplog):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    data = np.arange(40, dtype=np.int16).reshape(20, 2)
    path = tmp_path / "cut.wav"
    wavfile.write(path, SAMPLE_RATE, data)
    full = _scipy_read(path)[1]
    whole = path.read_bytes()

    path.write_bytes(whole[:-4])  # one whole frame short: scipy reads it too
    with pytest.warns(wavfile.WavFileWarning):
        _assert_reads_like_scipy(path)

    path.write_bytes(whole[:-3])  # a partial last frame
    with caplog.at_level(logging.WARNING):
        samples = read_wav(path).samples
    np.testing.assert_array_equal(samples, _scaled(full[:-1]).T)
    assert any("cut.wav" in r.message and "77 of its 80 bytes" in r.message
               for r in caplog.records)

    streamed = path.read_bytes().replace(b"data" + struct.pack("<I", 80),
                                         b"data" + struct.pack("<I", 0xFFFFFFFF))
    path.write_bytes(streamed)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        samples = read_wav(path).samples
    np.testing.assert_array_equal(samples, _scaled(full[:-1]).T)
    assert not caplog.records


# Well-formed files whose samples or rate the Waveform they load into rejects.
NONFINITE_WAV = _riff(_fmt(3, 1, 32), _chunk(b"data", np.array([0, np.inf], "<f4").tobytes()))
ZERO_RATE_WAV = _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)),
                      _chunk(b"data", b""))


@pytest.mark.parametrize("content, message", [
    (_riff(_fmt(6, 1, 8), _chunk(b"data", b"\x55" * 8)), r"A-law at 8 bits"),
    (_riff(_fmt(7, 1, 8), _chunk(b"data", b"\x55" * 8)), r"mu-law at 8 bits"),
    (_riff(_fmt(1, 1, 12), _chunk(b"data", b"\x00" * 8)), r"PCM at 12 bits"),
    (b"RIFX" + _riff(_fmt(1, 1, 16))[4:], r"not a RIFF/WAVE file"),
    (b"RF64" + _riff(_fmt(1, 1, 16))[4:], r"not a RIFF/WAVE file"),
    (_riff(_chunk(b"data", b"\x00" * 8)), r"no 'fmt ' chunk"),
    (_riff(_fmt(1, 1, 16)), r"no 'data' chunk"),
    (_riff(_chunk(b"fmt ", struct.pack("<HHI", 1, 1, SAMPLE_RATE)), _chunk(b"data", b"")),
     r": 'fmt ' chunk of 8 bytes is too short$"),
    (_riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 2, SAMPLE_RATE, 4 * SAMPLE_RATE, 3, 16)),
           _chunk(b"data", b"")),
     r": block align 3 does not fit 2 channels of 16-bit samples$"),
    (NONFINITE_WAV, r": waveform samples must be finite$"),
    (ZERO_RATE_WAV, r": sample_rate must be at least 1, got 0$"),
])
def test_read_wav_rejects_other_encodings_naming_the_file(tmp_path, content, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=rf"bad\.wav.*{message}"):
        read_wav(path)


@pytest.mark.parametrize("content", [NONFINITE_WAV, ZERO_RATE_WAV], ids=["nonfinite", "rate0"])
def test_run_batch_row_names_the_wav_it_rejects(tmp_path, content):
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    entry = {"session_id": "S", "audio": {"U01": str(path)},
             "annotations": str(tmp_path / "annotations.json")}
    report = run_batch({"sessions": [entry]}, PipelineConfig(output_dir=str(tmp_path / "out")))
    (row,) = report["utterances"]
    assert row["status"] == "failed" and row["error"].startswith(f"{path}: ")


def test_read_wav_alaw_is_rejected_by_scipy_too(tmp_path):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    path = tmp_path / "alaw.wav"
    path.write_bytes(_riff(_fmt(6, 1, 8), _chunk(b"data", b"\x55" * 8)))
    with pytest.raises(ValueError):
        wavfile.read(path)


@pytest.mark.parametrize("channels", [1, 4])
def test_write_wav_bytes_equal_scipy(tmp_path, channels):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    rng = np.random.default_rng(2)
    wave = Waveform(rng.uniform(-1.0, 1.0, size=(channels, 1001)), SAMPLE_RATE)
    write_wav(tmp_path / "ours.wav", wave)
    pcm = np.round(wave.samples * 32767.0).astype(np.int16)
    wavfile.write(tmp_path / "scipy.wav", SAMPLE_RATE, pcm.T if channels > 1 else pcm[0])
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


@given(
    channels=st.integers(1, 4),
    frames=st.integers(0, 40),
    width=st.sampled_from([1, 2, 3, 4]),
    rate=st.sampled_from([8000, 16000, 44100]),
    data=st.data(),
)
def test_read_wav_reads_any_stdlib_pcm_file(channels, frames, width, rate, data):
    payload = data.draw(st.binary(min_size=frames * channels * width,
                                  max_size=frames * channels * width))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "pcm.wav"
        with wave.open(str(path), "wb") as out:
            out.setnchannels(channels)
            out.setsampwidth(width)
            out.setframerate(rate)
            out.writeframes(payload)
        back = read_wav(path)
    # Sample by sample: 8-bit PCM is unsigned around 128, wider PCM is
    # signed little-endian; full scale is 2 ** (bits - 1).
    samples = [
        int.from_bytes(payload[i:i + width], "little", signed=width > 1) - (128 if width == 1 else 0)
        for i in range(0, len(payload), width)
    ]
    expected = np.array(samples, dtype=np.float64).reshape(frames, channels).T / 2.0 ** (8 * width - 1)
    assert back.sample_rate == rate
    assert back.samples.shape == (channels, frames)
    np.testing.assert_array_equal(back.samples, expected)


@given(
    samples=st.tuples(st.integers(1, 4), st.integers(0, 40)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
    ),
)
def test_write_wav_then_read_wav_gives_the_16_bit_grid(samples):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "take.wav"
        write_wav(path, Waveform(samples, SAMPLE_RATE))
        back = read_wav(path)
    assert back.sample_rate == SAMPLE_RATE
    assert back.samples.shape == samples.shape
    np.testing.assert_array_equal(back.samples, np.round(samples * 32767.0) / 32768.0)
