"""WAV and JSON plumbing."""

import json
import logging
import os
import struct
import wave
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .activity import Utterance
from .signal import SAMPLE_RATE, Waveform

logger = logging.getLogger(__name__)

__all__ = ["read_wav", "write_wav", "load_json", "dump_json", "utterance_filename"]


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_FORMAT_NAMES = {_PCM: "PCM", _IEEE_FLOAT: "IEEE float", 0x0006: "A-law", 0x0007: "mu-law",
                 _EXTENSIBLE: "WAVE_FORMAT_EXTENSIBLE with an unknown sub-format"}
# An extensible sub-format GUID is {tag-0000-0010-8000-00AA00389B71}; its
# first four bytes hold the plain format tag.
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> (sample dtype, zero, full scale); a
# sample reads as (sample - zero) / full scale. 8-bit PCM is unsigned, and
# 24-bit PCM is read into the upper three bytes of an int32.
_ENCODINGS = {
    (_PCM, 8): (np.dtype("u1"), 128.0, 128.0),
    (_PCM, 16): (np.dtype("<i2"), 0.0, 2.0 ** 15),
    (_PCM, 24): (np.dtype("<i4"), 0.0, 2.0 ** 31),
    (_PCM, 32): (np.dtype("<i4"), 0.0, 2.0 ** 31),
    (_IEEE_FLOAT, 32): (np.dtype("<f4"), 0.0, 1.0),
    (_IEEE_FLOAT, 64): (np.dtype("<f8"), 0.0, 1.0),
}
_STREAMED = 0xFFFFFFFF  # data size of a file written before its length was known


def _parse_fmt(path, body: bytes):
    """(sample rate, channels, bytes per sample, :data:`_ENCODINGS` row) of a
    'fmt ' chunk."""
    if len(body) < 16:
        raise ValueError(f"{path}: 'fmt ' chunk of {len(body)} bytes is too short")
    tag, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == _EXTENSIBLE and len(body) >= 40 and body[28:40] == _SUBFORMAT_TAIL:
        tag = struct.unpack("<I", body[24:28])[0]
    encoding = _ENCODINGS.get((tag, bits))
    if encoding is None:
        name = _FORMAT_NAMES.get(tag, f"format tag 0x{tag:04x}")
        raise ValueError(
            f"{path}: unsupported WAV encoding, {name} at {bits} bits per sample; "
            "read_wav accepts PCM 8/16/24/32-bit and IEEE float 32/64-bit"
        )
    width = bits // 8
    if channels == 0 or block_align != channels * width:
        raise ValueError(
            f"{path}: block align {block_align} does not fit {channels} channels "
            f"of {bits}-bit samples"
        )
    return rate, channels, width, encoding


def read_wav(path) -> Waveform:
    """Load a WAV file as float64 in [-1, 1], channels first.

    Reads PCM 8/16/24/32-bit and IEEE float 32/64-bit, plain or
    WAVE_FORMAT_EXTENSIBLE; any other encoding raises ValueError. Chunks
    other than 'fmt ' and 'data' are skipped, with the pad byte after an
    odd size. A data chunk cut short by the end of the file yields its
    whole frames and a warning; a streamed size (0xFFFFFFFF) reads to the
    end without one.
    """
    with open(path, "rb") as handle:
        riff = handle.read(12)
        if riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise ValueError(
                f"{path}: not a RIFF/WAVE file (starts with {riff[:4]!r}); "
                "read_wav does not read RIFX or RF64"
            )
        fmt = None
        while True:
            header = handle.read(8)
            if len(header) < 8:
                raise ValueError(f"{path}: no 'data' chunk")
            chunk_id, size = header[:4], struct.unpack("<I", header[4:])[0]
            if chunk_id == b"data":
                break
            if chunk_id == b"fmt ":
                fmt = _parse_fmt(path, handle.read(size))
            else:
                handle.seek(size, os.SEEK_CUR)
            handle.seek(size & 1, os.SEEK_CUR)
        if fmt is None:
            raise ValueError(f"{path}: no 'fmt ' chunk before the 'data' chunk")
        rate, channels, width, (dtype, zero, scale) = fmt
        available = os.fstat(handle.fileno()).st_size - handle.tell()
        if size == _STREAMED:
            size = available
        elif size > available:
            logger.warning(
                "%s: data chunk holds %d of its %d bytes, reading the whole frames",
                path, available, size,
            )
            size = available
        frames = size // (channels * width)
        raw = np.fromfile(handle, dtype=np.uint8, count=frames * channels * width)
    if width == 3:
        wide = np.zeros((frames * channels, 4), dtype=np.uint8)
        wide[:, 1:] = raw.reshape(-1, 3)
        raw = wide
    samples = raw.view(dtype).astype(np.float64)
    samples -= zero
    samples /= scale
    try:
        return Waveform(samples.reshape(frames, channels).T, rate)
    except ValueError as err:  # a non-finite float sample, or a rate other than 16 kHz
        raise ValueError(f"{path}: {err}") from None


@contextmanager
def _atomic_write(path):
    """A binary file ``<name>.tmp`` beside ``path`` to write into. When the
    block ends it replaces ``path``; when the block raises it is removed.
    ``path`` therefore holds either the whole new content or what it held
    before, never a part."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "wb") as handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_wav(path, waveform: Waveform) -> None:
    """Write 16-bit PCM, peak-normalising to 0.95 if the signal would clip.
    The file appears under ``path`` whole or not at all (:func:`_atomic_write`)."""
    samples = waveform.samples
    peak = np.abs(samples).max() if samples.size else 0.0
    if peak > 1.0:
        logger.warning(
            "peak amplitude %.3f would clip, normalising %s to 0.95", peak, path
        )
        samples = samples * (0.95 / peak)
    pcm = np.round(samples * 32767.0).astype(np.int16)
    with _atomic_write(path) as handle, wave.open(handle, "wb") as out:
        out.setnchannels(pcm.shape[0])
        out.setsampwidth(2)
        out.setframerate(waveform.sample_rate)
        out.writeframes(pcm.T.tobytes())


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(obj, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys; a reader never sees
    a half-written document (:func:`_atomic_write`)."""
    with _atomic_write(path) as handle:
        handle.write(json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n")


def _milliseconds(samples: int) -> str:
    """Whole milliseconds on the millisecond grid; off it, the exact
    remainder, in steps of 0.0625 ms at 16 kHz."""
    ms, rest = divmod(samples * 1000, SAMPLE_RATE)
    if not rest:
        return str(ms)
    return f"{ms}.{rest * 10 ** 4 // SAMPLE_RATE:04d}".rstrip("0")


def utterance_filename(utterance: Utterance) -> str:
    """`<speaker>-<start_ms>_<end_ms>.wav`, each boundary in milliseconds,
    so rows that differ by one sample write different files."""
    return (f"{utterance.speaker_id}-{_milliseconds(utterance.start_samples)}"
            f"_{_milliseconds(utterance.end_samples)}.wav")
