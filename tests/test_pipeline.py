import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from gsskit import (
    SAMPLE_RATE,
    EmConfig,
    PipelineConfig,
    Utterance,
    Waveform,
    build_activity,
    enhance_utterance,
    parse_annotations,
    run_batch,
    si_sdr,
    simulate_scene,
    stack_arrays,
)
from gsskit.cli import main as cli_main
from gsskit.io import dump_json, read_wav, write_wav


def small_scene(seed=11):
    spec = {
        "session_id": "SYN5",
        "duration": 3.0,
        "channels": 4,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 2200], "activity": [[0.3, 1.6]]},
            {"speaker": "B", "kind": "noise", "band": [900, 3600], "activity": [[1.2, 2.7]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
        "snr_db": 25,
    }
    return simulate_scene(spec, seed=seed)


def fast_config(**overrides):
    from gsskit import EmConfig, StftConfig, WpeConfig

    defaults = dict(
        stft=StftConfig(fft_size=512, shift=128),
        wpe=WpeConfig(taps=4, delay=2, iterations=2),
        em=EmConfig(iterations=10),
        context_seconds=15.0,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_config_from_dict_nested():
    config = PipelineConfig.from_dict(
        {
            "track": "single",
            "arrays": ["U01"],
            "stft": {"fft_size": 512, "shift": 128},
            "wpe": {"taps": 5},
            "em": {"iterations": 7},
            "masking": "auto",
            "workers": 2,
        }
    )
    assert config.track == "single"
    assert config.stft.fft_size == 512
    assert config.wpe.taps == 5
    assert config.em.iterations == 7
    assert config.masking_enabled  # auto resolves to on for the single track
    assert not PipelineConfig.from_dict({"track": "multi"}).masking_enabled


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"tracks": "multi"})
    with pytest.raises(ValueError, match="track"):
        PipelineConfig(track="stereo")
    with pytest.raises(ValueError, match="one array"):
        PipelineConfig(track="single", arrays=("U01", "U02"))
    with pytest.raises(ValueError, match="workers"):
        PipelineConfig(workers=0)
    with pytest.raises(ValueError, match="masking"):
        PipelineConfig(masking="sometimes")


def test_config_rejects_unknown_reference_mode():
    with pytest.raises(ValueError, match="reference_mode"):
        PipelineConfig(reference_mode="bogus")
    with pytest.raises(ValueError, match="reference_mode"):
        PipelineConfig.from_dict({"reference_mode": "bogus"})
    assert PipelineConfig(reference_mode="db").reference_mode == "db"


def test_stack_arrays_combines_channels():
    a = Waveform(np.ones((2, 100)), SAMPLE_RATE)
    b = Waveform(np.zeros((1, 100)), SAMPLE_RATE)
    stacked = stack_arrays([a, b])
    assert stacked.samples.shape == (3, 100)
    with pytest.raises(ValueError, match="sample rate"):
        stack_arrays([a, Waveform(np.zeros((1, 100)), 8000)])
    with pytest.raises(ValueError, match="stack"):
        stack_arrays([])


def test_stack_arrays_trims_length_mismatch(caplog):
    import logging

    a = Waveform(np.ones((1, 120)), SAMPLE_RATE)
    b = Waveform(np.ones((1, 100)), SAMPLE_RATE)
    with caplog.at_level(logging.WARNING):
        stacked = stack_arrays([a, b])
    assert stacked.samples.shape == (2, 100)


def test_enhance_utterance_returns_core_audio():
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = fast_config()
    target = utterances[0]
    out, details = enhance_utterance(
        target, scene.mixture, activity, config, return_details=True
    )
    assert out.samples.shape == (1, target.duration_samples)
    assert np.all(np.isfinite(out.samples))
    assert details.psd_frame_count == len(details.core_frames)
    assert details.wpe_applied
    assert not details.masking_applied
    assert 0 <= details.reference_channel < 4
    # The enhanced utterance should resemble the target image far more
    # than the raw mixture does.
    ref = scene.images[0, details.reference_channel,
                       target.start_samples : target.end_samples]
    base = scene.mixture.samples[details.reference_channel,
                                 target.start_samples : target.end_samples]
    assert si_sdr(out.samples[0], ref) > si_sdr(base, ref) + 5.0


def test_enhance_utterance_single_track_masks():
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = fast_config(track="single", arrays=("U01",))
    out, details = enhance_utterance(
        utterances[1], scene.mixture, activity, config, return_details=True
    )
    assert details.masking_applied
    assert out.samples.shape == (1, utterances[1].duration_samples)


def test_enhance_utterance_needs_multichannel():
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    mono = Waveform(scene.mixture.samples[:1], SAMPLE_RATE)
    with pytest.raises(ValueError, match="multi-channel"):
        enhance_utterance(utterances[0], mono, activity, fast_config())


def test_enhance_utterance_refine_stage():
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    em = EmConfig(iterations=6, refine_iterations=3)
    for target in utterances:
        out, details = enhance_utterance(
            target, scene.mixture, activity, fast_config(em=em), return_details=True
        )
        assert out.samples.shape == (1, target.duration_samples)
        assert np.all(np.isfinite(out.samples))
        assert details.log_likelihoods.shape == (9,)
        assert np.all(np.isfinite(details.log_likelihoods))
        assert details.posterior_core.gamma.shape[1] == len(details.core_frames)


def _assert_close_to_peak(actual, expected, tol=1e-8):
    peak = np.abs(expected).max()
    assert peak > 0
    assert np.abs(actual - expected).max() <= tol * peak


def test_enhance_utterance_invariant_to_speaker_renaming():
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    # "Z" sorts after "B", so the mixture classes of the two speakers swap.
    renamed = [replace(u, speaker_id="Z") if u.speaker_id == "A" else u for u in utterances]
    renamed_activity = build_activity(renamed, scene.mixture.duration)
    assert activity.speakers == ("A", "B") and renamed_activity.speakers == ("B", "Z")
    config = fast_config(wpe_enabled=False)
    for original, alias in zip(utterances, renamed):
        out, details = enhance_utterance(
            original, scene.mixture, activity, config, return_details=True
        )
        out_r, details_r = enhance_utterance(
            alias, scene.mixture, renamed_activity, config, return_details=True
        )
        assert details.target_class != details_r.target_class
        assert details.reference_channel == details_r.reference_channel
        _assert_close_to_peak(out_r.samples, out.samples)


def test_enhance_utterance_invariant_to_channel_permutation():
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    perm = [2, 0, 3, 1]  # channel j of the permuted array is channel perm[j]
    permuted = Waveform(scene.mixture.samples[perm], scene.mixture.sample_rate)
    config = fast_config(wpe_enabled=False)
    for target in utterances:
        out, details = enhance_utterance(
            target, scene.mixture, activity, config, return_details=True
        )
        out_p, details_p = enhance_utterance(
            target, permuted, activity, config, return_details=True
        )
        assert perm[details_p.reference_channel] == details.reference_channel
        _assert_close_to_peak(out_p.samples, out.samples)


def write_session(tmp_path, scene):
    audio_path = tmp_path / "U01.wav"
    write_wav(audio_path, scene.mixture)
    ann_path = tmp_path / "annotations.json"
    dump_json(scene.annotations, ann_path)
    return {
        "sessions": [
            {
                "session_id": scene.session_id,
                "annotations": str(ann_path),
                "audio": {"U01": str(audio_path)},
                "length_seconds": scene.mixture.duration,
            }
        ]
    }


def test_run_batch_writes_files_and_report(tmp_path):
    scene = small_scene()
    manifest = write_session(tmp_path, scene)
    config = fast_config(output_dir=str(tmp_path / "out"))
    report = run_batch(manifest, config)
    assert report["failures"] == 0
    assert len(report["utterances"]) == 2
    for row in report["utterances"]:
        assert row["status"] == "ok"
        wave = read_wav(row["path"])
        assert wave.samples.shape[0] == 1
    names = {row["path"].rsplit("/", 1)[-1] for row in report["utterances"]}
    assert names == {"A-300_1600.wav", "B-1200_2700.wav"}


def test_run_batch_worker_count_does_not_change_output(tmp_path):
    scene = small_scene()
    manifest = write_session(tmp_path, scene)
    blobs = {}
    for workers in (1, 2):
        out_dir = tmp_path / f"out{workers}"
        config = fast_config(output_dir=str(out_dir), workers=workers)
        report = run_batch(manifest, config)
        assert report["failures"] == 0
        blobs[workers] = [
            open(row["path"], "rb").read() for row in report["utterances"]
        ]
    assert blobs[1] == blobs[2]


def test_run_batch_records_failures(tmp_path):
    scene = small_scene()
    manifest = write_session(tmp_path, scene)
    doc = json.load(open(manifest["sessions"][0]["annotations"]))
    doc.append(
        {
            "session_id": "SYN5",
            "speaker_id": "C",
            "start_time": "0:00:02.90",
            "end_time": "0:00:02.95",
            "words": "tail",
        }
    )
    json.dump(doc, open(manifest["sessions"][0]["annotations"], "w"))
    config = fast_config(output_dir=str(tmp_path / "out"))
    report = run_batch(manifest, config)
    statuses = [row["status"] for row in report["utterances"]]
    assert statuses.count("ok") >= 2
    assert len(report["utterances"]) == 3


def test_run_batch_accepts_inline_and_file_silences(tmp_path):
    scene = small_scene()
    manifest = write_session(tmp_path, scene)
    entry = manifest["sessions"][0]
    outputs = {}
    silences = {"A": [[1.2, 1.4]]}
    dump_json(silences, tmp_path / "silences.json")
    # None, the README's inline form and a path to the same document.
    for name, value in (("none", None), ("inline", silences),
                        ("path", str(tmp_path / "silences.json"))):
        if value is not None:
            entry["silences"] = value
        report = run_batch(manifest, fast_config(output_dir=str(tmp_path / name)))
        assert report["failures"] == 0
        outputs[name] = [open(row["path"], "rb").read() for row in report["utterances"]]
    assert outputs["inline"] == outputs["path"]
    assert outputs["inline"] != outputs["none"]


def test_cli_simulate_enhance_metrics(tmp_path, capsys):
    scene_spec = {
        "session_id": "SYN6",
        "duration": 2.5,
        "channels": 4,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 2200], "activity": [[0.3, 2.2]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 4},
        "snr_db": 20,
    }
    spec_path = tmp_path / "scene.json"
    dump_json(scene_spec, spec_path)
    scene_dir = tmp_path / "scene"
    assert cli_main(["simulate", "--spec", str(spec_path), "--seed", "4",
                     "--out", str(scene_dir)]) == 0
    assert (scene_dir / "mixture.wav").exists()
    assert (scene_dir / "annotations.json").exists()

    manifest = {
        "sessions": [
            {
                "session_id": "SYN6",
                "annotations": str(scene_dir / "annotations.json"),
                "audio": {"U01": str(scene_dir / "mixture.wav")},
            }
        ]
    }
    manifest_path = tmp_path / "manifest.json"
    dump_json(manifest, manifest_path)
    config = {
        "stft": {"fft_size": 512, "shift": 128},
        "wpe": {"taps": 4, "iterations": 2},
        "em": {"iterations": 8},
    }
    config_path = tmp_path / "config.json"
    dump_json(config, config_path)
    out_dir = tmp_path / "enhanced"
    code = cli_main(
        ["enhance", "--manifest", str(manifest_path), "--config", str(config_path),
         "--output-dir", str(out_dir), "--no-wpe"]
    )
    assert code == 0
    report = json.load(open(out_dir / "report.json"))
    assert report["failures"] == 0
    row = report["utterances"][0]
    est_path = row["path"]

    # The estimate covers the utterance span aligned to the chosen reference
    # channel; cut matching mono spans so the comparison is meaningful.
    chan = row["reference_channel"]
    lo, hi = int(0.3 * SAMPLE_RATE), int(2.2 * SAMPLE_RATE)
    image = read_wav(scene_dir / "image_A.wav")
    mixture = read_wav(scene_dir / "mixture.wav")
    ref_path = tmp_path / "ref_span.wav"
    mix_path = tmp_path / "mix_span.wav"
    write_wav(ref_path, Waveform(image.samples[chan:chan + 1, lo:hi], image.sample_rate))
    write_wav(mix_path, Waveform(mixture.samples[chan:chan + 1, lo:hi], mixture.sample_rate))

    capsys.readouterr()
    code = cli_main(
        ["metrics", "--est", est_path, "--ref", str(ref_path), "--mix", str(mix_path)]
    )
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert set(metrics) == {"si_sdr_db", "baseline_db", "improvement_db"}
    assert metrics["si_sdr_db"] > 10.0
    assert metrics["improvement_db"] == pytest.approx(
        metrics["si_sdr_db"] - metrics["baseline_db"]
    )


def test_cli_analyze_overlap(tmp_path):
    annotations = [
        {
            "session_id": "S1",
            "speaker_id": "A",
            "start_time": "0:00:00.00",
            "end_time": "0:00:02.00",
            "words": "one two three",
        },
        {
            "session_id": "S1",
            "speaker_id": "B",
            "start_time": "0:00:01.00",
            "end_time": "0:00:03.00",
            "words": "four five",
        },
    ]
    ann_path = tmp_path / "ann.json"
    dump_json(annotations, ann_path)
    csv_path = tmp_path / "hist.csv"
    code = cli_main(
        ["analyze-overlap", "--annotations", str(ann_path), "--out", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("bin_lo")
    assert len(lines) == 6


def _native(session, speaker, start, end, words):
    return {
        "session_id": session,
        "speaker_id": speaker,
        "start_time": start,
        "end_time": end,
        "words": words,
    }


OVERLAP_DOC = [
    # S1: A at 50 % (3 words), B at 75 % (2), A again at 33 % (1).
    _native("S1", "A", "0:00:00.00", "0:00:02.00", "one two three"),
    _native("S1", "B", "0:00:01.00", "0:00:03.00", "four five"),
    _native("S1", "A", "0:00:02.50", "0:00:04.00", "six"),
    # S2: C at exactly 60 % (4 words), D fully overlapped (2 lexical
    # words, the markup tag does not count), E alone (1).
    _native("S2", "C", "0:00:00.00", "0:00:01.00", "a b c d"),
    _native("S2", "D", "0:00:00.20", "0:00:00.80", "e [noise] f"),
    _native("S2", "E", "0:00:02.00", "0:00:03.00", "g"),
    # S3 has no lexical words at all.
    _native("S3", "F", "0:00:00.00", "0:00:01.00", ""),
    _native("S3", "G", "0:00:00.50", "0:00:01.50", "[laughter]"),
]


def _analyze_overlap(tmp_path, doc, *flags):
    ann_path = tmp_path / "ann.json"
    dump_json(doc, ann_path)
    csv_path = tmp_path / "hist.csv"
    code = cli_main(
        ["analyze-overlap", "--annotations", str(ann_path), "--out", str(csv_path), *flags]
    )
    assert code == 0
    return csv_path.read_text()


def test_cli_analyze_overlap_golden_csv(tmp_path):
    assert _analyze_overlap(tmp_path, OVERLAP_DOC) == (
        "bin_lo,bin_hi,word_fraction\n"
        "0,20,0.076923\n"
        "20,40,0.076923\n"
        "40,60,0.230769\n"
        "60,80,0.461538\n"
        "80,100,0.153846\n"
    )
    assert _analyze_overlap(tmp_path, OVERLAP_DOC, "--per-session") == (
        "session_id,bin_lo,bin_hi,word_fraction\n"
        "S1,0,20,0.000000\n"
        "S1,20,40,0.166667\n"
        "S1,40,60,0.500000\n"
        "S1,60,80,0.333333\n"
        "S1,80,100,0.000000\n"
        "S2,0,20,0.142857\n"
        "S2,20,40,0.000000\n"
        "S2,40,60,0.000000\n"
        "S2,60,80,0.571429\n"
        "S2,80,100,0.285714\n"
        "S3,0,20,0.000000\n"
        "S3,20,40,0.000000\n"
        "S3,40,60,0.000000\n"
        "S3,60,80,0.000000\n"
        "S3,80,100,0.000000\n"
    )
    zero_words = [row for row in OVERLAP_DOC if row["session_id"] == "S3"]
    assert _analyze_overlap(tmp_path, zero_words) == (
        "bin_lo,bin_hi,word_fraction\n"
        "0,20,0.000000\n"
        "20,40,0.000000\n"
        "40,60,0.000000\n"
        "60,80,0.000000\n"
        "80,100,0.000000\n"
    )


def test_run_batch_rejects_ids_that_escape_the_output_dir(tmp_path):
    scene = small_scene()
    good = write_session(tmp_path, scene)["sessions"][0]
    sessions = []
    for i, session_id in enumerate(["..", "", "a/b", "a\\b", "."]):
        doc = [dict(row, session_id=session_id) for row in scene.annotations]
        path = tmp_path / f"bad_session{i}.json"
        dump_json(doc, path)
        sessions.append(dict(good, session_id=session_id, annotations=str(path)))
    doc = [dict(row, speaker_id="../../evil") if row["speaker_id"] == "A" else row
           for row in scene.annotations]
    dump_json(doc, tmp_path / "bad_speaker.json")
    sessions.append(dict(good, annotations=str(tmp_path / "bad_speaker.json")))
    sessions.append(good)

    out_dir = tmp_path / "deep" / "out"
    report = run_batch({"sessions": sessions}, fast_config(output_dir=str(out_dir)))
    assert report["failures"] == 6
    *failed, ok_a, ok_b = report["utterances"]
    bad_ids = ["..", "", "a/b", "a\\b", ".", scene.session_id]
    assert [row["session_id"] for row in failed] == bad_ids
    for row in failed:
        assert row["status"] == "failed"
        assert "is not usable as a file name" in row["error"]
    assert ok_a["status"] == ok_b["status"] == "ok"
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.wav"))
    assert written == [
        "U01.wav",
        f"deep/out/{scene.session_id}/A-300_1600.wav",
        f"deep/out/{scene.session_id}/B-1200_2700.wav",
    ]


def test_cli_analyze_overlap_pooled_zero_words_warns(tmp_path, caplog):
    zero_words = [row for row in OVERLAP_DOC if row["session_id"] == "S3"]
    with caplog.at_level(logging.WARNING):
        _analyze_overlap(tmp_path, zero_words)
    warnings = [r for r in caplog.records if "over zero words" in r.message]
    # One for session S3 and one for the pooled histogram.
    assert len(warnings) == 2


def test_non_16k_audio_is_rejected(tmp_path):
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    audio = Waveform(scene.mixture.samples, 48000)
    with pytest.raises(ValueError, match=r"48000 Hz.*16000 Hz"):
        enhance_utterance(utterances[0], audio, activity, fast_config())

    manifest = write_session(tmp_path, scene)
    write_wav(manifest["sessions"][0]["audio"]["U01"], audio)
    report = run_batch(manifest, fast_config(output_dir=str(tmp_path / "out")))
    assert report["failures"] == 1
    (row,) = report["utterances"]
    assert row["status"] == "failed"
    assert "48000 Hz" in row["error"] and "16000 Hz" in row["error"]


@pytest.mark.parametrize("fault", ["48k", "missing"])
def test_run_batch_continues_after_failed_session(tmp_path, fault):
    scene = small_scene()
    good = write_session(tmp_path, scene)["sessions"][0]
    bad = dict(good, session_id="BAD")
    if fault == "48k":
        bad["audio"] = {"U01": str(tmp_path / "fast.wav")}
        write_wav(bad["audio"]["U01"], Waveform(scene.mixture.samples, 48000))
    else:
        bad["audio"] = {"U01": str(tmp_path / "absent.wav")}
    dump_json({"sessions": [bad, good]}, tmp_path / "manifest.json")
    out_dir = tmp_path / "out"
    code = cli_main([
        "enhance", "--manifest", str(tmp_path / "manifest.json"),
        "--output-dir", str(out_dir), "--em-iters", "5",
    ])
    assert code == 1
    report = json.load(open(out_dir / "report.json"))
    assert report["failures"] == 1
    first, *rest = report["utterances"]
    assert first["session_id"] == "BAD" and first["status"] == "failed"
    assert first["error"]
    assert [row["status"] for row in rest] == ["ok", "ok"]
    assert all(row["session_id"] == scene.session_id for row in rest)
