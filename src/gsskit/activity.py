"""Session annotations, speaker activity, and overlap statistics.

All time arithmetic happens on an integer sample grid at 16 kHz, so
interval operations and overlap fractions are exact. Annotation
timestamps of the form "H:MM:SS.ff" convert losslessly because a
centisecond is a whole number of samples at that rate.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .mixture import ActivityMask
from .signal import StftConfig, num_frames

logger = logging.getLogger(__name__)

SAMPLE_RATE = 16000

__all__ = [
    "SAMPLE_RATE",
    "Utterance",
    "ExtendedUtterance",
    "SessionActivity",
    "OverlapHistogram",
    "OVERLAP_BIN_EDGES",
    "parse_time",
    "format_time",
    "check_path_id",
    "parse_annotations",
    "parse_chime5_annotations",
    "build_activity",
    "extend_context",
    "refine_with_asr",
    "activity_to_frames",
    "overlap_fraction",
    "overlap_histogram",
    "merge_intervals",
    "intersect_intervals",
    "subtract_intervals",
]


def parse_time(text: str) -> int:
    """Convert "H:MM:SS.ff" to a sample index at 16 kHz.

    Fractional digits beyond what the sample grid resolves raise, rather
    than rounding silently.
    """
    try:
        hours, minutes, rest = text.strip().split(":")
        if "." in rest:
            seconds, frac = rest.split(".")
        else:
            seconds, frac = rest, ""
        whole = (int(hours) * 60 + int(minutes)) * 60 + int(seconds)
        if int(hours) < 0 or not 0 <= int(minutes) < 60 or not 0 <= int(seconds) < 60:
            raise ValueError
        samples = whole * SAMPLE_RATE
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
    """Inverse of :func:`parse_time` for sample counts on the centisecond
    grid."""
    if samples < 0:
        raise ValueError(f"negative sample index {samples}")
    centis, rem = divmod(samples * 100, SAMPLE_RATE)
    if rem:
        raise ValueError(f"sample index {samples} is not on the centisecond grid")
    seconds, cc = divmod(centis, 100)
    minutes, ss = divmod(seconds, 60)
    hh, mm = divmod(minutes, 60)
    return f"{hh}:{mm:02d}:{ss:02d}.{cc:02d}"


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
        check_path_id("speaker id", self.speaker_id)
        if self.start_samples < 0:
            raise ValueError(f"utterance start {self.start_samples} is negative")
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
        try:
            if not isinstance(entry, dict):
                raise ValueError(f"expected an object, got {type(entry).__name__}")
            if skip(entry):
                continue
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
        except KeyError as err:
            raise ValueError(f"annotation entry {index} lacks key {err}") from None
        except ValueError as err:
            raise ValueError(f"annotation entry {index}: {err}") from None
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


def intersect_intervals(first, second) -> tuple:
    """Intersection of two canonical interval tuples."""
    out = []
    i = j = 0
    while i < len(first) and j < len(second):
        a = max(first[i][0], second[j][0])
        b = min(first[i][1], second[j][1])
        if a < b:
            out.append((a, b))
        if first[i][1] <= second[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


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
                    f"activity of speaker {spk} exceeds the session bounds"
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
        session_seconds: recording length; defaults to the last annotation
            end.
    """
    if not utterances:
        raise ValueError("cannot build activity from an empty utterance list")
    sessions = {u.session_id for u in utterances}
    if len(sessions) != 1:
        raise ValueError(f"utterances span multiple sessions: {sorted(sessions)}")
    last = max(u.end_samples for u in utterances)
    if session_seconds is None:
        session_samples = last
    else:
        session_samples = int(round(session_seconds * SAMPLE_RATE))
        if session_samples < last:
            raise ValueError(
                f"session length {session_samples} samples is shorter than the "
                f"last annotation end {last}"
            )
    spans = {}
    for u in utterances:
        spans.setdefault(u.speaker_id, []).append((u.start_samples, u.end_samples))
    return SessionActivity(
        session_id=next(iter(sessions)),
        intervals={spk: merge_intervals(iv) for spk, iv in spans.items()},
        session_samples=session_samples,
    )


def refine_with_asr(activity: SessionActivity, silences: dict) -> SessionActivity:
    """Remove recognised silence stretches from a speaker's activity.

    Args:
        activity: annotation-derived activity.
        silences: speaker id to list of (start, end) pairs in seconds.
    """
    refined = dict(activity.intervals)
    for speaker, spans in silences.items():
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


@dataclass(frozen=True)
class ExtendedUtterance:
    """An utterance plus the symmetric context window around it, clipped to
    the session. Boundaries are absolute sample indices."""

    utterance: Utterance
    context_start: int
    context_end: int

    def __post_init__(self):
        if not (
            0 <= self.context_start <= self.utterance.start_samples
            and self.utterance.end_samples <= self.context_end
        ):
            raise ValueError("context window must contain the utterance")

    @property
    def num_samples(self) -> int:
        return self.context_end - self.context_start

    @property
    def core_start_local(self) -> int:
        return self.utterance.start_samples - self.context_start

    @property
    def core_end_local(self) -> int:
        return self.utterance.end_samples - self.context_start

    def core_frame_range(self, config: StftConfig) -> range:
        """Frames whose span starts inside the core utterance.

        Frame t of the extended segment nominally spans samples
        [t * shift, t * shift + fft_size) in segment-local coordinates;
        it belongs to the core when its span start falls in the core
        interval. A sub-hop utterance still claims one frame.
        """
        total = num_frames(self.num_samples, config)
        start = -(-self.core_start_local // config.shift)
        stop = min(-(-self.core_end_local // config.shift), total)
        if stop <= start:
            start = min(start, total - 1)
            stop = start + 1
        return range(start, stop)


def extend_context(
    utterance: Utterance, context_seconds: float, session_samples: int
) -> ExtendedUtterance:
    """Symmetric context window, clipped to the recording bounds."""
    if context_seconds < 0:
        raise ValueError(f"context must be non-negative, got {context_seconds}s")
    if utterance.end_samples > session_samples:
        raise ValueError(
            f"utterance ends at sample {utterance.end_samples}, beyond the "
            f"session length {session_samples}"
        )
    context = int(round(context_seconds * SAMPLE_RATE))
    return ExtendedUtterance(
        utterance=utterance,
        context_start=max(0, utterance.start_samples - context),
        context_end=min(session_samples, utterance.end_samples + context),
    )


def activity_to_frames(
    activity: SessionActivity, extended: ExtendedUtterance, config: StftConfig
) -> ActivityMask:
    """Rasterise speaker activity onto the STFT frame grid of a segment.

    A class is active in frame t when the frame's nominal span
    [t * shift, t * shift + fft_size) (segment-local samples) intersects
    one of its intervals. Row 0 (noise) is always active, and the target
    utterance's speaker is forced active over its core span regardless of
    the annotation union.
    """
    total = num_frames(extended.num_samples, config)
    active = np.zeros((1 + len(activity.intervals), total), dtype=bool)
    active[0] = True

    def mark(row, start, end):
        # Frames with t * shift + fft_size > start and t * shift < end.
        lo = max(0, -(-(start - config.fft_size + 1) // config.shift))
        hi = min(total, -(-end // config.shift))
        if lo < hi:
            active[row, lo:hi] = True

    lo_abs, hi_abs = extended.context_start, extended.context_end
    for speaker, intervals in activity.intervals.items():
        row = activity.class_of(speaker)
        for a, b in intervals:
            a, b = max(a, lo_abs), min(b, hi_abs)
            if a < b:
                mark(row, a - lo_abs, b - lo_abs)

    target = activity.class_of(extended.utterance.speaker_id)
    mark(target, extended.core_start_local, extended.core_end_local)
    return ActivityMask(active=active)


def _overlap_samples(utterance: Utterance, activity: SessionActivity) -> int:
    """Samples of the utterance during which any other speaker is active."""
    others = merge_intervals(
        span
        for speaker, intervals in activity.intervals.items()
        if speaker != utterance.speaker_id
        for span in intervals
    )
    own = ((utterance.start_samples, utterance.end_samples),)
    return sum(b - a for a, b in intersect_intervals(others, own))


def overlap_fraction(utterance: Utterance, activity: SessionActivity) -> float:
    """Percentage of the utterance during which any other speaker is active."""
    return 100.0 * _overlap_samples(utterance, activity) / utterance.duration_samples


OVERLAP_BIN_EDGES = (0, 20, 40, 60, 80, 100)


@dataclass(frozen=True)
class OverlapHistogram:
    """Word counts and frequencies over the bins of :data:`OVERLAP_BIN_EDGES`.

    Bin i covers [20 * i, 20 * (i + 1)) percent; fully overlapped
    utterances (exactly 100%) land in the last bin.
    """

    word_counts: np.ndarray
    frequencies: np.ndarray

    @classmethod
    def from_counts(cls, word_counts: np.ndarray) -> "OverlapHistogram":
        """Normalise per-bin word counts; zero words warn and give zeros."""
        total = word_counts.sum()
        if total == 0:
            logger.warning("overlap histogram over zero words, frequencies are zero")
            return cls(word_counts, np.zeros(len(word_counts)))
        return cls(word_counts, word_counts / total)


def overlap_histogram(utterances, activity: SessionActivity) -> OverlapHistogram:
    """Word-weighted distribution of utterance overlap.

    Every utterance contributes its lexical word count to the bin of its
    overlap percentage. Bin placement uses integer sample arithmetic, so
    boundary cases are exact.
    """
    counts = np.zeros(5, dtype=np.int64)
    for u in utterances:
        bin_index = min(_overlap_samples(u, activity) * 5 // u.duration_samples, 4)
        counts[bin_index] += u.word_count
    return OverlapHistogram.from_counts(counts)
