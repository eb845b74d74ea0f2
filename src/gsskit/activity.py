"""Session annotations, speaker activity, and overlap statistics.

All time arithmetic happens on an integer sample grid at 16 kHz, so
interval operations and overlap fractions are exact. Annotation
timestamps of the form "H:MM:SS.ff" convert losslessly because a
centisecond is a whole number of samples at that rate.
"""

import bisect
import itertools
import logging
import re
from dataclasses import dataclass

import numpy as np

from .mixture import ActivityMask
from .signal import SAMPLE_RATE, StftConfig, _check_number, _check_object, _check_spans

logger = logging.getLogger(__name__)

__all__ = [
    "Utterance",
    "SessionActivity",
    "OVERLAP_BIN_EDGES",
    "format_time",
    "check_path_id",
    "parse_annotations",
    "parse_chime5_annotations",
    "build_activity",
    "extend_context",
    "refine_with_asr",
    "activity_to_frames",
    "overlap_histogram",
    "overlap_word_counts",
    "word_fractions",
]


_TIMESTAMP = re.compile(r"(\d+):(\d+):(\d+)(?:\.(\d*))?", re.ASCII)


def parse_time(text: str) -> int:
    """Convert "H:MM:SS.ff" to a sample index at 16 kHz.

    Every field is ASCII digits only, so signs, inner spaces and
    underscores raise. Fractional digits beyond what the sample grid
    resolves raise too, rather than rounding silently.
    """
    try:
        match = _TIMESTAMP.fullmatch(text.strip())
        if match is None:
            raise ValueError
        hours, minutes, seconds = (int(f) for f in match.groups()[:3])
        frac = match[4] or ""
        if minutes >= 60 or seconds >= 60:
            raise ValueError
        samples = ((hours * 60 + minutes) * 60 + seconds) * SAMPLE_RATE
        if frac:
            numer = int(frac) * SAMPLE_RATE
            denom = 10 ** len(frac)
            if numer % denom != 0:
                raise ValueError
            samples += numer // denom
        return samples
    except (ValueError, AttributeError):
        raise ValueError(f"malformed timestamp {text!r}, expected H:MM:SS.ff") from None


def format_time(samples: int) -> str:
    """Inverse of :func:`parse_time`: "H:MM:SS.ff" on the centisecond grid,
    and as many of the seven fractional digits a sample needs off it."""
    if samples < 0:
        raise ValueError(f"negative sample index {samples}")
    seconds, rem = divmod(samples, SAMPLE_RATE)
    minutes, ss = divmod(seconds, 60)
    hh, mm = divmod(minutes, 60)
    frac = f"{rem * 10 ** 7 // SAMPLE_RATE:07d}".rstrip("0").ljust(2, "0")
    return f"{hh}:{mm:02d}:{ss:02d}.{frac}"


def _lexical_tokens(transcript: str) -> tuple:
    """Whitespace tokens minus pure markup tags like "[noise]"."""
    return tuple(
        tok for tok in transcript.split()
        if not (tok.startswith("[") and tok.endswith("]"))
    )


def check_path_id(kind: str, value) -> None:
    """Reject ids that cannot name exactly one output path component."""
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\\" in value:
        raise ValueError(f"{kind} {value!r} is not usable as a file name")


@dataclass(frozen=True)
class Utterance:
    """One annotated utterance with sample-accurate boundaries."""

    session_id: str
    speaker_id: str
    start_samples: int
    end_samples: int
    words: tuple

    def __post_init__(self):
        check_path_id("session id", self.session_id)
        check_path_id("speaker id", self.speaker_id)
        _check_number(self.start_samples, "utterance start_samples", integer=True, minimum=0)
        _check_number(self.end_samples, "utterance end_samples", integer=True)
        if self.end_samples <= self.start_samples:
            raise ValueError(
                f"utterance of {self.speaker_id} in {self.session_id} ends at "
                f"{self.end_samples} which is not after start {self.start_samples}"
            )
        object.__setattr__(self, "words", tuple(self.words))

    @property
    def duration_samples(self) -> int:
        return self.end_samples - self.start_samples

    @property
    def word_count(self) -> int:
        return len(self.words)


def _parse_rows(entries, speaker_key: str, pick_time, skip=lambda entry: False) -> list:
    """Row loop of both annotation schemas; a rejected entry raises
    ``ValueError`` naming its index. ``pick_time`` maps a raw timestamp
    value to "H:MM:SS.ff" text and ``skip`` drops an entry unread."""
    if not isinstance(entries, list):
        raise ValueError("annotation document must be a JSON array")
    utterances = []
    for index, entry in enumerate(entries):
        where = f"annotation entry {index}"
        if skip(_check_object(entry, where)):
            continue
        _check_object(entry, where, ("session_id", speaker_key, "start_time", "end_time"))
        try:
            words = entry.get("words", "")
            if not isinstance(words, str):
                raise ValueError(f"words must be a string, got {type(words).__name__}")
            utterances.append(
                Utterance(
                    session_id=entry["session_id"],
                    speaker_id=entry[speaker_key],
                    start_samples=parse_time(pick_time(entry["start_time"])),
                    end_samples=parse_time(pick_time(entry["end_time"])),
                    words=_lexical_tokens(words),
                )
            )
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return utterances


def parse_annotations(entries) -> list:
    """Read the native annotation schema into utterances.

    Args:
        entries: parsed JSON document, a list of objects with keys
            session_id, speaker_id, start_time, end_time and words.

    Returns:
        List of :class:`Utterance`, in document order.
    """
    return _parse_rows(entries, "speaker_id", lambda value: value)


def parse_chime5_annotations(entries, array_id: str | None = None) -> list:
    """Adapter for the CHiME-5 transcript layout.

    Timestamps there may be per-device objects; ``array_id`` picks the
    device clock, falling back to the "original" (worn microphone) clock.
    Entries without a speaker (redacted regions) are skipped.
    """

    def pick(value):
        if not isinstance(value, dict):
            return value
        for clock in (array_id, "original"):
            if clock in value:
                return value[clock]
        raise ValueError(f"no timestamp for device {array_id!r} and no original clock")

    return _parse_rows(entries, "speaker", pick, lambda entry: entry.get("speaker") is None)


def merge_intervals(intervals) -> tuple:
    """Canonical form: sorted, disjoint, non-empty half-open intervals."""
    cleaned = sorted((int(a), int(b)) for a, b in intervals if b > a)
    merged = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def subtract_intervals(first, second) -> tuple:
    """Samples of ``first`` not covered by ``second`` (both canonical)."""
    out = []
    j = 0
    for a, b in first:
        cursor = a
        while j < len(second) and second[j][1] <= cursor:
            j += 1
        k = j
        while k < len(second) and second[k][0] < b:
            if second[k][0] > cursor:
                out.append((cursor, second[k][0]))
            cursor = max(cursor, second[k][1])
            k += 1
        if cursor < b:
            out.append((cursor, b))
    return tuple(out)


@dataclass(frozen=True)
class SessionActivity:
    """Per-speaker activity intervals of one session, in samples."""

    session_id: str
    intervals: dict
    session_samples: int

    def __post_init__(self):
        canonical = {spk: merge_intervals(iv) for spk, iv in self.intervals.items()}
        for spk, iv in canonical.items():
            if iv and (iv[0][0] < 0 or iv[-1][1] > self.session_samples):
                raise ValueError(
                    f"activity of speaker {spk} spans samples [{iv[0][0]}, {iv[-1][1]}), "
                    f"outside the session of {self.session_samples} samples"
                )
        object.__setattr__(self, "intervals", canonical)

    @property
    def speakers(self) -> tuple:
        return tuple(sorted(self.intervals))

    def class_of(self, speaker: str) -> int:
        """Mixture class of a speaker: class 0 is noise, class k is
        ``speakers[k - 1]``."""
        if speaker not in self.intervals:
            raise ValueError(
                f"target speaker {speaker} has no activity entry in session {self.session_id}"
            )
        return 1 + self.speakers.index(speaker)


def build_activity(utterances, session_seconds: float | None = None) -> SessionActivity:
    """Union of utterance spans per speaker.

    Args:
        utterances: utterances of a single session.
        session_seconds: recording length, a finite number above 0;
            defaults to the last annotation end.
    """
    if not utterances:
        raise ValueError("cannot build activity from an empty utterance list")
    sessions = {u.session_id for u in utterances}
    if len(sessions) != 1:
        raise ValueError(f"utterances span multiple sessions: {sorted(sessions)}")
    if session_seconds is None:
        session_samples = max(u.end_samples for u in utterances)
    else:
        _check_number(session_seconds, "session_seconds", above=0)
        session_samples = int(round(session_seconds * SAMPLE_RATE))
    spans = {}
    for u in utterances:
        spans.setdefault(u.speaker_id, []).append((u.start_samples, u.end_samples))
    return SessionActivity(
        session_id=next(iter(sessions)),
        intervals=spans,
        session_samples=session_samples,
    )


def _check_silences(silences) -> dict:
    """``silences`` if it is an object of speaker id -> :func:`_check_spans`."""
    for speaker, spans in _check_object(silences, "silences").items():
        _check_spans(spans, f"silences of speaker {speaker}")
    return silences


def refine_with_asr(activity: SessionActivity, silences: dict) -> SessionActivity:
    """Remove recognised silence stretches from a speaker's activity.

    Args:
        activity: annotation-derived activity.
        silences: speaker id to list of (start, end) pairs in seconds,
            finite and with start < end; anything else raises ValueError
            naming the speaker and the index of the span.
    """
    refined = dict(activity.intervals)
    for speaker, spans in _check_silences(silences).items():
        if speaker not in refined:
            logger.warning("silence info for unknown speaker %s ignored", speaker)
            continue
        as_samples = merge_intervals(
            (int(round(a * SAMPLE_RATE)), int(round(b * SAMPLE_RATE))) for a, b in spans
        )
        refined[speaker] = subtract_intervals(refined[speaker], as_samples)
    return SessionActivity(
        session_id=activity.session_id,
        intervals=refined,
        session_samples=activity.session_samples,
    )


def extend_context(utterance: Utterance, context_seconds: float, session_samples: int) -> range:
    """The utterance's segment: absolute samples [start, stop) of a
    symmetric context window around it, clipped to the recording bounds."""
    _check_number(context_seconds, "context_seconds", minimum=0)
    if utterance.end_samples > session_samples:
        raise ValueError(
            f"utterance ends at sample {utterance.end_samples}, beyond the "
            f"session length {session_samples}"
        )
    context = int(round(context_seconds * SAMPLE_RATE))
    return range(max(0, utterance.start_samples - context),
                 min(session_samples, utterance.end_samples + context))


def activity_to_frames(
    activity: SessionActivity, utterance: Utterance, segment: range, config: StftConfig
) -> ActivityMask:
    """Rasterise speaker activity onto the STFT frame grid of ``segment``,
    the absolute samples the spectrogram was taken of (:func:`extend_context`).

    A class is active in the frames whose nominal span intersects one of
    its intervals (:meth:`StftConfig.frames_touching`, segment-local
    samples). Row 0 (noise) is always active, and the speaker of
    ``utterance`` is forced active over its core span regardless of the
    annotation union.
    """
    if not (segment.step == 1 and 0 <= segment.start <= utterance.start_samples
            and utterance.end_samples <= segment.stop):
        raise ValueError("segment must be a contiguous sample range that contains the utterance")
    total = config.frame_count(len(segment))
    active = np.zeros((1 + len(activity.intervals), total), dtype=bool)
    active[0] = True

    def mark(row, start, end):
        frames = config.frames_touching(start - segment.start, end - segment.start, total)
        active[row, frames.start:frames.stop] = True

    for speaker, intervals in activity.intervals.items():
        row = activity.class_of(speaker)
        for a, b in intervals:
            a, b = max(a, segment.start), min(b, segment.stop)
            if a < b:
                mark(row, a, b)

    mark(activity.class_of(utterance.speaker_id), utterance.start_samples, utterance.end_samples)
    return ActivityMask(active=active)


def _overlap_samples(utterances, activity: SessionActivity) -> list:
    """Samples of each utterance during which any other speaker is active:
    the length of that union before the utterance's end minus that before
    its start. Each union and its running length are built once per speaker."""
    unions = {}
    for speaker in {u.speaker_id for u in utterances}:
        others = merge_intervals(span for other, spans in activity.intervals.items()
                                 if other != speaker for span in spans)
        unions[speaker] = others, [0, *itertools.accumulate(b - a for a, b in others)]

    def covered(speaker, sample):
        others, lengths = unions[speaker]
        i = bisect.bisect_right(others, sample, key=lambda span: span[1])  # ended by ``sample``
        inside = sample - others[i][0] if i < len(others) and others[i][0] < sample else 0
        return lengths[i] + inside

    return [covered(u.speaker_id, u.end_samples) - covered(u.speaker_id, u.start_samples)
            for u in utterances]


OVERLAP_BIN_EDGES = (0, 20, 40, 60, 80, 100)


def overlap_word_counts(utterances, activity: SessionActivity) -> np.ndarray:
    """Lexical words per overlap bin (``OVERLAP_BIN_EDGES``), as int64.

    Every utterance contributes its lexical word count to the bin of its
    overlap percentage: of the n equal bins the edges make, bin i covers
    [100 * i / n, 100 * (i + 1) / n) percent, and fully overlapped
    utterances (exactly 100%) land in the last bin. Bin placement uses
    integer sample arithmetic, so boundary cases are exact.
    """
    bins = len(OVERLAP_BIN_EDGES) - 1
    utterances, counts = list(utterances), np.zeros(bins, dtype=np.int64)
    for u, overlap in zip(utterances, _overlap_samples(utterances, activity)):
        counts[min(overlap * bins // u.duration_samples, bins - 1)] += u.word_count
    return counts


def word_fractions(counts: np.ndarray) -> np.ndarray:
    """Per-bin word counts normalised to fractions; zero words warn and
    give zeros."""
    total = counts.sum()
    if total == 0:
        logger.warning("overlap histogram over zero words, frequencies are zero")
        return np.zeros(len(counts))
    return counts / total


def overlap_histogram(utterances, activity: SessionActivity) -> np.ndarray:
    """Word-weighted distribution of utterance overlap: the fractions of
    the bins of ``overlap_word_counts``."""
    return word_fractions(overlap_word_counts(utterances, activity))
