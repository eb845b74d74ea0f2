import logging
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsskit import (
    SAMPLE_RATE,
    SessionActivity,
    StftConfig,
    Utterance,
    activity_to_frames,
    build_activity,
    extend_context,
    overlap_histogram,
    parse_annotations,
    parse_chime5_annotations,
    refine_with_asr,
)
from gsskit.activity import (
    _overlap_samples,
    format_time,
    merge_intervals,
    overlap_word_counts,
    parse_time,
    subtract_intervals,
)


def rasterize(intervals, length):
    dense = np.zeros(length, bool)
    for a, b in intervals:
        dense[max(0, a) : min(length, b)] = True
    return dense


def intervals_from_dense(dense):
    spans = []
    start = None
    for i, on in enumerate(dense):
        if on and start is None:
            start = i
        if not on and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(dense)))
    return tuple(spans)


def test_parse_time_known_values():
    assert parse_time("0:00:00.00") == 0
    assert parse_time("0:00:01.00") == SAMPLE_RATE
    assert parse_time("0:00:00.01") == 160
    assert parse_time("1:02:03.45") == int(3723.45 * SAMPLE_RATE)
    assert parse_time("0:01:00") == 60 * SAMPLE_RATE


@pytest.mark.parametrize(
    "text",
    [
        "", "12.5", "0:00:61.00", "0:61:00.00", "x:00:00.00", "0:00:00.0001",
        # int() takes signs, inner spaces and underscores; a timestamp may not.
        "0:00:01.-5", "0:00:01. 5", "0:00:0_1", "+0:00:01.00", "0: 00:01.00",
    ],
)
def test_parse_time_rejects(text):
    with pytest.raises(ValueError, match="malformed timestamp"):
        parse_time(text)


def test_format_time_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        samples = int(rng.integers(0, 10 * 3600 * 100)) * (SAMPLE_RATE // 100)
        assert parse_time(format_time(samples)) == samples
    assert format_time(0) == "0:00:00.00"
    assert format_time(int(3723.45 * SAMPLE_RATE)) == "1:02:03.45"


@given(st.integers(min_value=0, max_value=10 ** 14))
def test_parse_time_inverts_format_time(samples):
    assert parse_time(format_time(samples)) == samples


def test_format_time_rejects_off_grid():
    # Off the centisecond grid a time takes as many digits as it needs.
    assert format_time(161) == "0:00:00.0100625"
    assert format_time(8001) == "0:00:00.5000625"
    assert format_time(SAMPLE_RATE + 1600) == "0:00:01.10"
    with pytest.raises(ValueError, match="negative"):
        format_time(-1)


def test_utterance_validation_and_words():
    u = Utterance("S1", "A", 0, 16000, ("hello", "world"))
    assert u.duration_samples == 16000
    assert u.word_count == 2
    with pytest.raises(ValueError):
        Utterance("S1", "A", -5, 100, ())
    with pytest.raises(ValueError):
        Utterance("S1", "A", 200, 100, ())


def check_interval_ops(a, b, length):
    da, db = rasterize(a, length), rasterize(b, length)
    ca, cb = merge_intervals(a), merge_intervals(b)
    assert ca == intervals_from_dense(da)
    assert subtract_intervals(ca, cb) == intervals_from_dense(da & ~db)


def test_interval_ops_match_dense_oracle():
    rng = np.random.default_rng(1)
    length = 400
    for _ in range(30):
        a = [(int(lo), int(lo + d)) for lo, d in
             zip(rng.integers(0, 280, 6), rng.integers(1, 40, 6))]
        b = [(int(lo), int(lo + d)) for lo, d in
             zip(rng.integers(0, 280, 6), rng.integers(1, 40, 6))]
        check_interval_ops(a, b, length)


# A short range makes touching, nested and empty spans common.
span_lists = st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=8)


@given(span_lists, span_lists)
def test_interval_ops_match_boolean_oracle(a, b):
    check_interval_ops(a, b, 16)


def test_interval_ops_drop_empty_spans():
    assert merge_intervals([(5, 5), (7, 3)]) == ()
    assert merge_intervals([(1, 4), (4, 9)]) == ((1, 9),)


def test_parse_annotations_native():
    doc = [
        {
            "session_id": "S1",
            "speaker_id": "A",
            "start_time": "0:00:01.00",
            "end_time": "0:00:02.50",
            "words": "hello [noise] world",
        },
        {
            "session_id": "S1",
            "speaker_id": "B",
            "start_time": "0:00:02.00",
            "end_time": "0:00:03.00",
            "words": "[inaudible]",
        },
    ]
    utts = parse_annotations(doc)
    assert len(utts) == 2
    assert utts[0].words == ("hello", "world")
    assert utts[0].start_samples == SAMPLE_RATE
    assert utts[0].end_samples == int(2.5 * SAMPLE_RATE)
    assert utts[1].words == ()


def test_parse_annotations_errors():
    with pytest.raises(ValueError, match="JSON array"):
        parse_annotations({"not": "a list"})
    with pytest.raises(ValueError, match=r"^annotation entry 0 has no 'session_id'$"):
        parse_annotations([{"speaker_id": "A"}])
    with pytest.raises(ValueError, match="entry 1"):
        parse_annotations(
            [
                {
                    "session_id": "S1",
                    "speaker_id": "A",
                    "start_time": "0:00:00.00",
                    "end_time": "0:00:01.00",
                },
                {
                    "session_id": "S1",
                    "speaker_id": "A",
                    "start_time": "bogus",
                    "end_time": "0:00:01.00",
                },
            ]
        )


def test_parse_chime5_annotations_device_clocks():
    doc = [
        {
            "session_id": "S1",
            "speaker": "P01",
            "start_time": {"U01": "0:00:01.00", "original": "0:00:02.00"},
            "end_time": {"U01": "0:00:03.00", "original": "0:00:04.00"},
            "words": "ok",
        },
        {
            "session_id": "S1",
            "speaker": None,
            "start_time": "0:00:05.00",
            "end_time": "0:00:06.00",
        },
    ]
    with_device = parse_chime5_annotations(doc, array_id="U01")
    assert len(with_device) == 1
    assert with_device[0].start_samples == SAMPLE_RATE
    fallback = parse_chime5_annotations(doc, array_id="U99")
    assert fallback[0].start_samples == 2 * SAMPLE_RATE
    assert fallback[0].speaker_id == "P01"


def _row(speaker_key, **extra):
    return {
        "session_id": "S1",
        speaker_key: "A",
        "start_time": "0:00:00.00",
        "end_time": "0:00:01.00",
        **extra,
    }


@pytest.mark.parametrize(
    "parse, speaker_key",
    [(parse_annotations, "speaker_id"), (parse_chime5_annotations, "speaker")],
)
def test_parsers_reject_malformed_rows(parse, speaker_key):
    good = _row(speaker_key)
    assert len(parse([good])) == 1
    for bad in (1, "speaker", ["speaker"], None):
        message = f"annotation entry 1 must be an object, got {type(bad).__name__}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse([good, bad])
    for words in (["a", "b"], 3, None):
        with pytest.raises(ValueError, match=r"^annotation entry 0: words must be a string"):
            parse([_row(speaker_key, words=words)])
    with pytest.raises(ValueError, match=r"^annotation entry 0: speaker id '\.\./x'"):
        parse([dict(good, **{speaker_key: "../x"})])
    with pytest.raises(ValueError, match=r"^annotation entry 0: malformed timestamp"):
        parse([dict(good, start_time=5)])


def test_parse_chime5_names_the_missing_clock():
    row = _row("speaker", start_time={"U01": "0:00:00.00"})
    assert parse_chime5_annotations([row], array_id="U01")[0].start_samples == 0
    with pytest.raises(ValueError, match=r"^annotation entry 0: no timestamp for device 'U02'"):
        parse_chime5_annotations([row], array_id="U02")


@pytest.mark.parametrize("speaker", ["", ".", "..", "a/b", "a\\b", "../../evil", 7, None])
def test_utterance_rejects_ids_that_are_not_one_path_component(speaker):
    with pytest.raises(ValueError, match="not usable as a file name"):
        Utterance("S1", speaker, 0, 16000, ())


def test_build_activity_merges_and_sizes():
    utts = [
        Utterance("S1", "A", 0, 16000, ()),
        Utterance("S1", "A", 8000, 24000, ()),
        Utterance("S1", "B", 32000, 48000, ()),
    ]
    activity = build_activity(utts, session_seconds=4.0)
    assert activity.session_id == "S1"
    assert activity.session_samples == 64000
    assert activity.intervals["A"] == ((0, 24000),)
    assert activity.intervals["B"] == ((32000, 48000),)
    assert activity.speakers == ("A", "B")
    assert (activity.class_of("A"), activity.class_of("B")) == (1, 2)


def test_build_activity_errors():
    with pytest.raises(ValueError, match="empty"):
        build_activity([])
    with pytest.raises(ValueError, match="multiple sessions"):
        build_activity(
            [Utterance("S1", "A", 0, 10, ()), Utterance("S2", "A", 0, 10, ())]
        )
    with pytest.raises(ValueError, match="session length"):
        build_activity([Utterance("S1", "A", 0, 32000, ())], session_seconds=1.0)


def test_refine_with_asr_subtracts_and_stays_inside():
    utts = [
        Utterance("S1", "A", 0, 48000, ()),
        Utterance("S1", "B", 16000, 64000, ()),
    ]
    activity = build_activity(utts, session_seconds=5.0)
    refined = refine_with_asr(activity, {"A": [(1.0, 2.0)]})
    assert refined.intervals["A"] == ((0, 16000), (32000, 48000))
    assert refined.intervals["B"] == activity.intervals["B"]
    for speaker in refined.intervals:
        before = rasterize(activity.intervals[speaker], activity.session_samples)
        after = rasterize(refined.intervals[speaker], activity.session_samples)
        assert not np.any(after & ~before)


def test_refine_with_asr_unknown_speaker_warns(caplog):
    activity = build_activity([Utterance("S1", "A", 0, 16000, ())])
    with caplog.at_level(logging.WARNING):
        refined = refine_with_asr(activity, {"Z": [(0.0, 0.5)]})
    assert refined.intervals == activity.intervals
    assert any("Z" in record.message for record in caplog.records)


@pytest.mark.parametrize(
    "silences, message",
    [
        ([["A", 0.2, 0.5]], "silences must be an object, got list"),
        ({"A": [[0.5]]}, "silences of speaker A, span 0 must be [start, end] with finite "
                         "start < end, got [0.5]"),
        ({"A": 3}, "silences of speaker A must be a list of [start, end] pairs, got 3"),
        ({"A": [[0.1, 0.2], ["x", "y"]]}, "silences of speaker A, span 1 must be [start, end] "
                                          "with finite start < end, got ['x', 'y']"),
        ({"A": [[0.1, float("nan")]]}, "silences of speaker A, span 0 must be [start, end] "
                                       "with finite start < end, got [0.1, nan]"),
        ({"A": [[0.8, 0.2]]}, "silences of speaker A, span 0 must be [start, end] with finite "
                              "start < end, got [0.8, 0.2]"),
    ],
    ids=["list", "short-span", "not-a-list", "text-bounds", "nan-bound", "reversed"],
)
def test_refine_with_asr_rejects_malformed_silences(silences, message):
    activity = build_activity([Utterance("S1", "A", 0, 16000, ())])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refine_with_asr(activity, silences)


def test_extend_context_clips_to_session():
    u = Utterance("S1", "A", 16 * SAMPLE_RATE, 20 * SAMPLE_RATE, ())
    session = 120 * SAMPLE_RATE
    assert extend_context(u, 15.0, session) == range(SAMPLE_RATE, 35 * SAMPLE_RATE)
    early = extend_context(Utterance("S1", "A", 0, SAMPLE_RATE, ()), 15.0, session)
    assert early == range(0, 16 * SAMPLE_RATE)
    late = extend_context(
        Utterance("S1", "A", 110 * SAMPLE_RATE, 119 * SAMPLE_RATE, ()), 15.0, session
    )
    assert late == range(95 * SAMPLE_RATE, session)
    with pytest.raises(ValueError, match="context"):
        extend_context(u, -1.0, session)
    with pytest.raises(ValueError, match="session"):
        extend_context(u, 15.0, 18 * SAMPLE_RATE)


def test_activity_to_frames_matches_span_oracle():
    config = StftConfig(fft_size=64, shift=16)
    utts = [
        Utterance("S1", "A", 200, 900, ()),
        Utterance("S1", "B", 600, 1500, ()),
        Utterance("S1", "A", 1800, 2100, ()),
    ]
    activity = build_activity(utts, session_seconds=0.2)
    target = utts[1]
    segment = extend_context(target, 0.02, activity.session_samples)
    mask = activity_to_frames(activity, target, segment, config)
    order = activity.speakers
    total = config.frame_count(len(segment))
    assert mask.active.shape == (1 + len(order), total)
    assert mask.active[0].all()

    for row, speaker in enumerate(order, start=1):
        # Annotations outside the segment are invisible to it, so the
        # oracle clips them before testing span overlap; the target's own
        # span is forced on.
        spans = [(max(a, segment.start), min(b, segment.stop))
                 for a, b in activity.intervals[speaker]]
        if speaker == target.speaker_id:
            spans.append((target.start_samples, target.end_samples))
        for t in range(total):
            lo = segment.start + t * config.shift
            covered = any(max(lo, a) < min(lo + config.fft_size, b) for a, b in spans)
            assert mask.active[row, t] == covered, (speaker, t)


def test_activity_to_frames_rejects_a_segment_without_the_utterance():
    config = StftConfig(fft_size=64, shift=16)
    target = Utterance("S1", "A", 800, 1600, ())
    activity = build_activity([target])
    for segment in (range(900, 1600), range(800, 1599), range(-1, 1600), range(0, 1600, 2)):
        with pytest.raises(ValueError, match="segment must be a contiguous sample range"):
            activity_to_frames(activity, target, segment, config)


def test_activity_to_frames_needs_target_speaker():
    config = StftConfig(fft_size=64, shift=16)
    activity = build_activity([Utterance("S1", "A", 0, 1600, ())])
    ghost = Utterance("S1", "Z", 0, 800, ())
    with pytest.raises(ValueError, match="Z"):
        activity_to_frames(activity, ghost, extend_context(ghost, 0.0, 1600), config)
    with pytest.raises(ValueError, match="speaker Z has no activity entry in session S1"):
        activity.class_of("Z")


def overlap_samples_oracle(utterance, activity):
    length = activity.session_samples
    others = np.zeros(length, bool)
    for speaker, intervals in activity.intervals.items():
        if speaker != utterance.speaker_id:
            others |= rasterize(intervals, length)
    return int(others[utterance.start_samples : utterance.end_samples].sum())


def test_overlap_samples_match_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        utts = []
        for speaker in "ABC":
            for _ in range(3):
                start = int(rng.integers(0, 30000))
                utts.append(
                    Utterance("S1", speaker, start, start + int(rng.integers(1, 8000)), ())
                )
        activity = build_activity(utts, session_seconds=3.0)
        assert _overlap_samples(utts, activity) == [
            overlap_samples_oracle(u, activity) for u in utts
        ]


def test_overlap_samples_match_dense_oracle_on_random_sessions():
    # Session length, speaker count and turn count vary; starts and ends
    # sit on a coarse grid, so utterance edges often meet interval edges.
    # Silences cut the activity under some utterances, and an utterance of
    # a speaker without activity overlaps with everybody.
    rng = np.random.default_rng(11)
    for trial in range(40):
        grid = int(rng.integers(2, 400))
        cells = int(rng.integers(2, 60))
        speakers = "ABCDE"[: int(rng.integers(1, 6))]
        utts = []
        for _ in range(int(rng.integers(1, 25))):
            a, b = sorted(rng.choice(cells + 1, size=2, replace=False))
            utts.append(Utterance("S1", str(rng.choice(list(speakers))), a * grid, b * grid, ()))
        activity = build_activity(utts, session_seconds=cells * grid / SAMPLE_RATE)
        if trial % 2:
            silences = {spk: [(a / SAMPLE_RATE, (a + grid) / SAMPLE_RATE)]
                        for spk, ((a, _), *_) in activity.intervals.items()}
            activity = refine_with_asr(activity, silences)
        utts.append(Utterance("S1", "Z", 0, cells * grid, ()))
        assert _overlap_samples(utts, activity) == [
            overlap_samples_oracle(u, activity) for u in utts
        ], f"trial {trial}"


def test_overlap_histogram_matches_dense_oracle():
    rng = np.random.default_rng(4)
    utts = []
    for speaker in "AB":
        cursor = 0
        for _ in range(6):
            start = cursor + int(rng.integers(0, 4000))
            end = start + int(rng.integers(400, 6000))
            words = tuple("w" for _ in range(int(rng.integers(0, 6))))
            utts.append(Utterance("S1", speaker, start, end, words))
            cursor = end
    activity = build_activity(utts, session_seconds=5.0)

    counts = np.zeros(5, int)
    for u in utts:
        length = activity.session_samples
        others = np.zeros(length, bool)
        for speaker, intervals in activity.intervals.items():
            if speaker != u.speaker_id:
                others |= rasterize(intervals, length)
        covered = int(others[u.start_samples : u.end_samples].sum())
        bin_index = min(covered * 5 // u.duration_samples, 4)
        counts[bin_index] += u.word_count
    np.testing.assert_array_equal(overlap_word_counts(utts, activity), counts)
    np.testing.assert_array_equal(overlap_word_counts(iter(utts), activity), counts)
    if counts.sum():
        np.testing.assert_allclose(overlap_histogram(utts, activity), counts / counts.sum())


def test_overlap_histogram_zero_words_warns(caplog):
    utts = [Utterance("S1", "A", 0, 16000, ())]
    activity = build_activity(utts)
    with caplog.at_level(logging.WARNING):
        fractions = overlap_histogram(utts, activity)
    assert overlap_word_counts(utts, activity).sum() == 0
    np.testing.assert_array_equal(fractions, np.zeros(5))
    assert any("zero words" in record.message for record in caplog.records)


def test_session_activity_canonicalizes_and_bounds():
    activity = SessionActivity("S1", {"A": [(10, 5), (0, 4), (2, 8)]}, 16000)
    assert activity.intervals["A"] == ((0, 8),)
    assert activity.speakers == ("A",)
    with pytest.raises(ValueError, match="session bounds"):
        SessionActivity("S1", {"A": [(0, 20000)]}, 16000)
