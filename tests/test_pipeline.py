import json
import logging
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsskit import (
    SAMPLE_RATE,
    PipelineConfig,
    Utterance,
    Waveform,
    build_activity,
    em_fit,
    enhance_utterance,
    parse_annotations,
    run_batch,
    si_sdr,
    simulate_scene,
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
            "arrays": ["U01"],
            "stft": {"fft_size": 512, "shift": 128},
            "wpe": {"taps": 5},
            "em": {"iterations": 7},
            "masking": True,
            "workers": 2,
        }
    )
    assert config.arrays == ("U01",)
    assert config.stft.fft_size == 512
    assert config.wpe.taps == 5
    assert config.em.iterations == 7
    assert config.masking is True
    assert PipelineConfig.from_dict({}).masking is False


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"arrayz": ["U01"]})
    with pytest.raises(ValueError, match="config must be an object"):
        PipelineConfig.from_dict(["em"])
    # A config written for the removed core-frame refinement is told so.
    with pytest.raises(ValueError, match=r"unknown em keys: \['refine_iterations'\]"):
        PipelineConfig.from_dict({"em": {"iterations": 5, "refine_iterations": 2}})
    with pytest.raises(TypeError, match="track"):
        PipelineConfig(track="single")
    with pytest.raises(ValueError, match="workers"):
        PipelineConfig(workers=0)
    for value in ("NaN", "Infinity"):
        with pytest.raises(ValueError, match="context_seconds"):
            PipelineConfig.from_dict(json.loads(f'{{"context_seconds": {value}}}'))


@pytest.mark.parametrize("field", ["wpe_enabled", "masking"])
@pytest.mark.parametrize("value", ["false", "off", 0, 1, None])
def test_config_rejects_a_switch_that_is_not_a_boolean(field, value):
    # A string such as "false" is truthy and would turn the stage on.
    with pytest.raises(ValueError,
                       match=f"^config.{field} must be a boolean, got {type(value).__name__}$"):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("section", ["stft", "wpe", "em"])
def test_config_rejects_unknown_nested_keys(section):
    with pytest.raises(ValueError, match=rf"^unknown {section} keys: \['iters'\]$"):
        PipelineConfig.from_dict({section: {"iters": 5}})
    # A section that is not an object gets one message, from JSON or from
    # Python.
    cls = {"stft": "StftConfig", "wpe": "WpeConfig", "em": "EmConfig"}[section]
    for value in (5, None, ["taps"]):
        message = f"config.{section} must be of type {cls}, got {type(value).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_dict({section: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**{section: value})


def test_config_rejects_unknown_reference_mode():
    # Reference selection always uses the linear score.
    with pytest.raises(TypeError, match="reference_mode"):
        PipelineConfig(reference_mode="db")
    with pytest.raises(ValueError, match=r"unknown config keys: \['reference_mode'\]"):
        PipelineConfig.from_dict({"reference_mode": "db"})


# Options removed in favour of their only value in use; a document that
# still sets one, even to that value, is told which key to drop.
@pytest.mark.parametrize("section, key, value", [
    ("stft", "window", "hann"),
    ("stft", "pad_mode", "symmetric-edge"),
    ("wpe", "psd_smoothing_context", 0),
    ("wpe", "eps", 1e-6),
    ("em", "eps_load", 1e-6),
    ("em", "weight_floor", 1e-4),
    ("config", "mask_floor", 0.0),
    ("config", "reference_mode", "linear"),
    ("config", "track", "multi"),
])
def test_config_rejects_removed_keys(section, key, value):
    doc = {key: value} if section == "config" else {section: {key: value}}
    with pytest.raises(ValueError, match=rf"^unknown {section} keys: \['{key}'\]$"):
        PipelineConfig.from_dict(doc)


@pytest.mark.parametrize("doc, message", [
    ({"wpe_enabled": "false"}, "config.wpe_enabled must be a boolean, got str"),
    ({"arrays": "U01"}, "config.arrays must be a list of strings, got str"),
    ({"arrays": ["U01", 2]}, "config.arrays must be a list of strings, got list"),
    ({"workers": 1.5}, "config.workers must be an integer, got float"),
    ({"workers": True}, "config.workers must be an integer, got bool"),
    ({"em": {"iterations": "5"}}, "em.iterations must be an integer, got str"),
    ({"wpe": {"taps": 4.0}}, "wpe.taps must be an integer, got float"),
    ({"context_seconds": "2"}, "config.context_seconds must be a number, got str"),
    ({"context_seconds": False}, "config.context_seconds must be a number, got bool"),
    ({"output_dir": None}, "config.output_dir must be a string, got NoneType"),
    ({"masking": "auto"}, "config.masking must be a boolean, got str"),
])
def test_config_rejects_values_of_the_wrong_type(doc, message):
    from gsskit import EmConfig, StftConfig, WpeConfig

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_dict(doc)
    # The same value given from Python meets the same rule and message.
    sections = {"stft": StftConfig, "wpe": WpeConfig, "em": EmConfig}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig(**{key: sections[key](**value) if key in sections else value
                          for key, value in doc.items()})


@pytest.mark.parametrize("section, key, value, message", [
    ("stft", "fft_size", 1, "stft.fft_size must be at least 2, got 1"),
    ("stft", "shift", 0, "stft.shift must be at least 1, got 0"),
    ("wpe", "taps", 0, "wpe.taps must be at least 1, got 0"),
    ("wpe", "delay", 0, "wpe.delay must be at least 1, got 0"),
    ("wpe", "iterations", 0, "wpe.iterations must be at least 1, got 0"),
    ("em", "iterations", 0, "em.iterations must be at least 1, got 0"),
    ("config", "workers", 0, "config.workers must be at least 1, got 0"),
    ("config", "context_seconds", -1, "config.context_seconds must be at least 0, got -1"),
    ("config", "context_seconds", float("nan"), "config.context_seconds must be finite, got nan"),
    ("config", "context_seconds", float("inf"), "config.context_seconds must be finite, got inf"),
])
def test_config_rejects_a_value_out_of_bounds_naming_its_section(section, key, value, message):
    # Each bounded field one below its bound: the same key in two sections
    # (wpe.iterations, em.iterations) gets two messages.
    from gsskit import EmConfig, StftConfig, WpeConfig

    doc = {key: value} if section == "config" else {section: {key: value}}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_dict(json.loads(json.dumps(doc)))
    build = {"stft": StftConfig, "wpe": WpeConfig, "em": EmConfig, "config": PipelineConfig}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build[section](**{key: value})


@pytest.mark.parametrize("build, message", [
    (lambda g: g.WpeConfig(taps=2.5), "wpe.taps must be an integer, got float"),
    (lambda g: g.EmConfig(iterations=True), "em.iterations must be an integer, got bool"),
    (lambda g: g.StftConfig(fft_size="512"), "stft.fft_size must be an integer, got str"),
    (lambda g: g.PipelineConfig(output_dir=3), "config.output_dir must be a string, got int"),
    (lambda g: g.PipelineConfig(context_seconds="1"),
     "config.context_seconds must be a number, got str"),
    (lambda g: g.PipelineConfig(wpe={"taps": 3}),
     "config.wpe must be of type WpeConfig, got dict"),
    (lambda g: g.PipelineConfig(em=g.WpeConfig()),
     "config.em must be of type EmConfig, got WpeConfig"),
])
def test_config_rejects_a_wrong_type_from_python_at_construction(build, message):
    # Each would otherwise fail every utterance inside WPE or EM, with a
    # TypeError or AttributeError that names no setting.
    import gsskit

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(gsskit)


def test_config_takes_numpy_scalars_and_a_tuple_of_arrays():
    from gsskit import EmConfig, StftConfig, WpeConfig

    config = PipelineConfig(
        arrays=("U01", "U02"), stft=StftConfig(fft_size=np.int64(512), shift=np.int32(128)),
        wpe=WpeConfig(taps=np.int64(4)), em=EmConfig(iterations=np.int16(3)),
        context_seconds=np.float32(1.5), workers=np.int64(2),
    )
    assert config.arrays == ("U01", "U02")
    assert (config.stft.fft_size, config.wpe.taps, config.em.iterations) == (512, 4, 3)
    assert PipelineConfig(arrays=["U01"]).arrays == ("U01",)


def test_config_rejects_an_stft_that_istft_cannot_invert():
    # Such a config would fail every utterance at its last stage; the
    # window/shift pairs that lose sample positions are rejected up front.
    for shift in (1007, 1010, 1024):
        with pytest.raises(ValueError, match="^reconstruction unsupported"):
            PipelineConfig.from_dict({"stft": {"fft_size": 1024, "shift": shift}})
    assert PipelineConfig.from_dict({"stft": {"fft_size": 1024, "shift": 1006}}).stft.shift == 1006


def test_config_takes_an_integer_for_a_number():
    config = PipelineConfig.from_dict(
        {"context_seconds": 2, "wpe_enabled": False, "arrays": ["U01", "U02"]}
    )
    assert config.context_seconds == 2
    assert config.wpe_enabled is False
    assert config.arrays == ("U01", "U02")


def load_stacked(tmp_path, monkeypatch, arrays):
    """The audio ``_load_session`` makes of a session whose array files
    read as the Waveforms of ``arrays``, a map of array id -> Waveform."""
    from gsskit import pipeline

    monkeypatch.setattr(pipeline, "read_wav", arrays.__getitem__)
    dump_json([{"session_id": "S1", "speaker_id": "A", "start_time": "0:00:00.00",
                "end_time": "0:00:00.01", "words": "a"}], tmp_path / "annotations.json")
    entry = {"session_id": "S1", "annotations": str(tmp_path / "annotations.json"),
             "audio": {array: array for array in arrays}}
    audio, _, _ = pipeline._load_session(entry, PipelineConfig())
    return audio


def test_stack_arrays_combines_channels(tmp_path, monkeypatch):
    a = Waveform(np.ones((2, 200)), SAMPLE_RATE)
    b = Waveform(np.zeros((1, 200)), SAMPLE_RATE)
    stacked = load_stacked(tmp_path, monkeypatch, {"U01": a, "U02": b})
    assert stacked.samples.shape == (3, 200)
    np.testing.assert_array_equal(stacked.samples, np.concatenate([a.samples, b.samples]))
    # A lone array needs no concatenation and is not copied.
    assert np.shares_memory(load_stacked(tmp_path, monkeypatch, {"U01": a}).samples, a.samples)


def test_stack_arrays_trims_length_mismatch(tmp_path, monkeypatch, caplog):
    import logging

    a = Waveform(np.ones((1, 220)), SAMPLE_RATE)
    b = Waveform(np.ones((1, 200)), SAMPLE_RATE)
    with caplog.at_level(logging.WARNING):
        stacked = load_stacked(tmp_path, monkeypatch, {"U01": a, "U02": b})
    assert stacked.samples.shape == (2, 200)
    assert "arrays differ in length (200..220 samples), trimming to 200" in caplog.text


def recording(monkeypatch, *names):
    """Replace the pipeline's stage functions ``names`` by wrappers that
    append (name, args, result) of every call to the returned list."""
    from gsskit import pipeline

    calls = []

    def wrap(name, stage):
        def recorded(*args, **kwargs):
            result = stage(*args, **kwargs)
            calls.append((name, args, result))
            return result
        return recorded

    for name in names:
        monkeypatch.setattr(pipeline, name, wrap(name, getattr(pipeline, name)))
    return calls


def test_enhance_utterance_returns_core_audio(monkeypatch):
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = fast_config()
    target = utterances[0]
    calls = recording(monkeypatch, "wpe_dereverberate", "apply_target_mask")
    out, details = enhance_utterance(
        target, scene.mixture, activity, config, return_details=True
    )
    # WPE ran once and predicted frames (a segment too short for it would
    # give an all-zero objective); masking is off by default.
    ((name, _, (_, objective)),) = calls
    assert name == "wpe_dereverberate"
    assert np.all(objective != 0)
    assert out.samples.shape == (1, target.duration_samples)
    assert np.all(np.isfinite(out.samples))
    assert details.posterior_core.shape[1] == len(details.core_frames)
    assert details.log_likelihoods.shape == (config.em.iterations,)
    assert np.all(np.isfinite(details.log_likelihoods))
    assert 0 <= details.reference_channel < 4
    # The enhanced utterance should resemble the target image far more
    # than the raw mixture does.
    ref = scene.images[0, details.reference_channel,
                       target.start_samples : target.end_samples]
    base = scene.mixture.samples[details.reference_channel,
                                 target.start_samples : target.end_samples]
    assert si_sdr(out.samples[0], ref) > si_sdr(base, ref) + 5.0


def test_enhance_utterance_posterior_core_views_the_synthesis_frames(monkeypatch):
    calls = recording(monkeypatch, "em_fit")
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = fast_config()
    _, details = enhance_utterance(
        utterances[0], scene.mixture, activity, config, return_details=True
    )
    ((_, args, (_, returned, _)),) = calls
    core, frames = details.posterior_core, details.core_frames
    _, whole, _ = em_fit(*args)
    np.testing.assert_array_equal(core, whole[:, frames.start:frames.stop])
    # The view pins EM's posterior of the synthesis frames only: the core
    # and ceil(fft_size / shift) guard frames on each side of it.
    assert np.shares_memory(core, returned)
    guard = -(-config.stft.fft_size // config.stft.shift)
    classes, _, bins = core.shape
    assert core.base.size <= classes * (len(frames) + 2 * guard) * bins


def test_enhance_utterance_core_frames_match_span_oracle():
    # The core is the frames of the context-extended segment whose nominal
    # span [t * shift, t * shift + fft_size) starts inside the utterance; a
    # sub-hop utterance still claims one frame.
    from gsskit import EmConfig, StftConfig

    rng = np.random.default_rng(2)
    length = 5000
    audio = Waveform(rng.standard_normal((2, length)), SAMPLE_RATE)
    config = PipelineConfig(stft=StftConfig(fft_size=64, shift=16), wpe_enabled=False,
                            em=EmConfig(iterations=1))
    shift = config.stft.shift
    for _ in range(40):
        start = int(rng.integers(0, 3000))
        u = Utterance("S1", "A", start, start + int(rng.integers(1, 2000)), ())
        context = int(rng.integers(0, 500))
        _, details = enhance_utterance(
            u, audio, build_activity([u], length / SAMPLE_RATE),
            replace(config, context_seconds=context / SAMPLE_RATE), return_details=True,
        )
        first = max(0, u.start_samples - context)
        total = config.stft.frame_count(min(length, u.end_samples + context) - first)
        lo, hi = u.start_samples - first, u.end_samples - first
        starting = [t for t in range(total) if lo <= t * shift < hi]
        if not starting:
            starting = [next((t for t in range(total) if t * shift >= lo), total - 1)]
        assert details.core_frames == range(starting[0], starting[-1] + 1), (u, context)


@pytest.mark.parametrize("fft_size, shift", [
    (1024, 256), (512, 128), (64, 16), (200, 75), (1024, 768), (96, 40),
])
def test_enhance_utterance_synthesises_exactly_the_utterance_samples(
    monkeypatch, fft_size, shift
):
    # A beamformer that passes channel 2 through, with no WPE and no mask,
    # must give back channel 2 of the mixture over the utterance: a wrong
    # synthesis offset shifts it, missing guard frames taper its edges.
    from gsskit import EmConfig, StftConfig, pipeline

    def channel_2(weights, psds):
        passthrough = np.zeros_like(weights)
        passthrough[:, 2] = 1.0
        return passthrough

    monkeypatch.setattr(pipeline, "ban_postfilter", channel_2)
    scene = simulate_scene(README_SCENE, seed=7)
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    for context in (0.0, 0.37, 15.0):
        config = PipelineConfig(
            stft=StftConfig(fft_size=fft_size, shift=shift), wpe_enabled=False,
            masking=False, em=EmConfig(iterations=1), context_seconds=context,
        )
        for u in utterances:
            out = enhance_utterance(u, scene.mixture, activity, config)
            np.testing.assert_allclose(
                out.samples[0], scene.mixture.samples[2, u.start_samples:u.end_samples],
                rtol=0, atol=1e-12, err_msg=f"context {context}, {u.speaker_id}",
            )


def test_enhance_utterance_passes_a_segment_too_short_for_wpe_through(caplog):
    # A 0.1 s utterance without context is 16 frames, no more than
    # delay + taps = 22: WPE has no frame to predict, so it changes nothing.
    from gsskit import WpeConfig

    scene = small_scene()
    activity = build_activity(parse_annotations(scene.annotations), scene.mixture.duration)
    short = Utterance("SYN5", "A", 8000, 9600, ())
    config = fast_config(wpe=WpeConfig(taps=20, delay=2), context_seconds=0.0)
    assert config.stft.frame_count(short.duration_samples) <= 22
    with caplog.at_level(logging.WARNING, logger="gsskit.wpe"):
        out, details = enhance_utterance(short, scene.mixture, activity, config,
                                         return_details=True)
    plain, plain_details = enhance_utterance(short, scene.mixture, activity,
                                             replace(config, wpe_enabled=False),
                                             return_details=True)
    np.testing.assert_array_equal(out.samples, plain.samples)
    assert details.reference_channel == plain_details.reference_channel
    assert "passing it through unchanged" in caplog.text


def test_enhance_utterance_single_track_masks(monkeypatch):
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = fast_config(arrays=("U01",), masking=True)
    calls = recording(monkeypatch, "apply_target_mask")
    out, details = enhance_utterance(
        utterances[1], scene.mixture, activity, config, return_details=True
    )
    # The beamformed signal is masked once, by the target's posterior.
    ((_, (_, _, target_class), _),) = calls
    assert target_class == details.target_class == activity.class_of("B")
    assert out.samples.shape == (1, utterances[1].duration_samples)


def test_single_array_track_equals_a_session_of_that_array_alone(tiny_session, tmp_path):
    # The single-array track is the array list plus the mask: picking U02
    # out of two arrays writes what a session of U02 alone writes.
    _, good, config = tiny_session
    mixture = read_wav(good["audio"]["U01"])
    write_wav(tmp_path / "U02.wav", Waveform(mixture.samples[::-1] * 0.5, mixture.sample_rate))
    both = dict(good, audio={"U01": good["audio"]["U01"], "U02": str(tmp_path / "U02.wav")})
    alone = dict(good, audio={"U02": str(tmp_path / "U02.wav")})
    blobs = []
    for name, entry in (("both", both), ("alone", alone)):
        single = replace(config, arrays=("U02",), masking=True, output_dir=str(tmp_path / name))
        report = run_batch({"sessions": [entry]}, single)
        assert report["failures"] == 0
        blobs.append([open(row["path"], "rb").read() for row in report["utterances"]])
    assert blobs[0] == blobs[1]


def test_enhance_utterance_needs_multichannel():
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    mono = Waveform(scene.mixture.samples[:1], SAMPLE_RATE)
    with pytest.raises(ValueError, match="multi-channel"):
        enhance_utterance(utterances[0], mono, activity, fast_config())


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


@pytest.mark.parametrize("gain", [1e-3, 7.0])
def test_enhance_utterance_output_scales_with_input_gain(gain):
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    scaled = Waveform(gain * scene.mixture.samples, scene.mixture.sample_rate)
    config = fast_config(wpe_enabled=False)
    for target in utterances:
        out = enhance_utterance(target, scene.mixture, activity, config)
        out_g = enhance_utterance(target, scaled, activity, config)
        _assert_close_to_peak(out_g.samples, gain * out.samples, tol=1e-9)


@pytest.mark.parametrize("wpe_enabled", [True, False])
def test_enhance_utterance_silent_input_gives_silent_output(wpe_enabled):
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    silent = Waveform(np.zeros_like(scene.mixture.samples), scene.mixture.sample_rate)
    config = fast_config(wpe_enabled=wpe_enabled)
    for target in utterances:
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            out = enhance_utterance(target, silent, activity, config)
        assert out.samples.shape == (1, target.duration_samples)
        assert np.all(out.samples == 0.0)


def test_enhance_utterance_logs_degenerate_bins_once(caplog):
    # Silent input leaves no target covariance in any bin; reference
    # selection and the MVDR share one solve, so the line comes once.
    scene = small_scene()
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    silent = Waveform(np.zeros_like(scene.mixture.samples), scene.mixture.sample_rate)
    with caplog.at_level(logging.WARNING):
        enhance_utterance(utterances[0], silent, activity, fast_config(wpe_enabled=False))
    lines = [r.message for r in caplog.records if "degenerate target covariance" in r.message]
    assert lines == ["degenerate target covariance in 257/257 bins, "
                     "passing reference channel through"]


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


def test_run_batch_records_failures(tmp_path, monkeypatch):
    from gsskit import pipeline

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
    # Speaker C's utterance fails inside enhancement; the batch records it
    # and goes on with the others.
    enhance = pipeline.enhance_utterance

    def failing_for_c(utterance, *args, **kwargs):
        if utterance.speaker_id == "C":
            raise np.linalg.LinAlgError("singular matrix")
        return enhance(utterance, *args, **kwargs)

    monkeypatch.setattr(pipeline, "enhance_utterance", failing_for_c)
    config = fast_config(output_dir=str(tmp_path / "out"))
    report = run_batch(manifest, config)
    statuses = [row["status"] for row in report["utterances"]]
    assert statuses.count("ok") >= 2
    assert len(report["utterances"]) == 3
    assert statuses == ["ok", "ok", "failed"]
    failed = report["utterances"][2]
    assert (failed["speaker_id"], failed["error"]) == ("C", "singular matrix")
    assert report["failures"] == 1
    assert all(Path(row["path"]).exists() for row in report["utterances"][:2])
    assert not (tmp_path / "out" / "SYN5" / "C-2900_2950.wav").exists()
    dump_json(manifest, tmp_path / "manifest.json")
    code = cli_main(["enhance", "--manifest", str(tmp_path / "manifest.json"),
                     "--output-dir", str(tmp_path / "cli")])
    assert code == 1


def test_run_batch_reads_chime5_annotations_on_the_array_clock(tmp_path):
    # Per-device timestamp objects: the array's own clock is used, not
    # "original", and the output equals a native manifest with those times.
    scene = small_scene()
    native = write_session(tmp_path, scene)
    entry = native["sessions"][0]
    wrong = {"start_time": "0:00:00.00", "end_time": "0:00:00.50"}
    rows = []
    for row in scene.annotations:
        rows.append({"session_id": row["session_id"], "speaker": row["speaker_id"],
                     "words": row["words"],
                     **{key: {"U01": row[key], "original": wrong[key]}
                        for key in ("start_time", "end_time")}})
    rows.append({"session_id": scene.session_id, "speaker": None,
                 "start_time": "0:00:00.00", "end_time": "0:00:01.00"})
    dump_json(rows, tmp_path / "chime5.json")
    chime5 = {"sessions": [dict(entry, annotations=str(tmp_path / "chime5.json"),
                                annotation_format="chime5")]}
    outputs = {}
    for name, manifest in (("native", native), ("chime5", chime5)):
        report = run_batch(manifest, fast_config(output_dir=str(tmp_path / name)))
        assert report["failures"] == 0
        outputs[name] = [(Path(row["path"]).name, open(row["path"], "rb").read())
                         for row in report["utterances"]]
    assert [name for name, _ in outputs["chime5"]] == ["A-300_1600.wav", "B-1200_2700.wav"]
    assert outputs["chime5"] == outputs["native"]


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


def test_run_batch_fails_the_session_on_malformed_silences(tmp_path):
    manifest = write_session(tmp_path, small_scene())
    dump_json({"A": [[0.8, 0.2]]}, tmp_path / "silences.json")
    manifest["sessions"][0]["silences"] = str(tmp_path / "silences.json")
    report = run_batch(manifest, fast_config(output_dir=str(tmp_path / "out")))
    (row,) = report["utterances"]
    assert row["status"] == "failed"
    assert row["error"] == ("silences of speaker A, span 0 must be [start, end] with finite "
                            "start < end, got [0.8, 0.2]")
    assert report["failures"] == 1


def test_run_batch_fails_a_session_without_audio_for_a_config_array(tmp_path):
    manifest = write_session(tmp_path, small_scene())
    config = fast_config(arrays=("U02", "U01", "U03"), output_dir=str(tmp_path / "out"))
    (row,) = run_batch(manifest, config)["utterances"]
    assert row["status"] == "failed"
    assert row["error"] == "session SYN5 has no audio for arrays ['U02', 'U03']"


def test_cli_simulate_writes_every_file_of_a_clipping_scene_at_one_gain(tmp_path):
    # The CI scene, whose mixture peaks at 5.2 and its images at 4.8 and
    # 1.4: written each at its own gain, the images on disk would not sum
    # to the mixture.
    spec = {"session_id": "S01", "duration": 3.0, "channels": 4, "snr_db": 25,
            "sources": [
                {"speaker": "A", "kind": "noise", "band": [300, 2500], "activity": [[0.0, 1.8]]},
                {"speaker": "B", "kind": "chirp", "band": [800, 3800], "activity": [[1.2, 3.0]]}],
            "mixing": {"kind": "delay", "max_delay": 6}}
    dump_json(spec, tmp_path / "scene.json")
    assert cli_main(["simulate", "--spec", str(tmp_path / "scene.json"), "--seed", "7",
                     "--out", str(tmp_path / "scene")]) == 0
    scene = simulate_scene(spec, seed=7)
    peak = max(np.abs(x).max() for x in (scene.mixture.samples, scene.images, scene.dry))
    assert peak > 1.0
    gain = json.load(open(tmp_path / "scene" / "scene.json"))["gain"]
    assert gain == 0.95 / peak

    mixture = read_wav(tmp_path / "scene" / "mixture.wav").samples
    images = [read_wav(tmp_path / "scene" / f"image_{s}.wav").samples for s in scene.speakers]
    dry = [read_wav(tmp_path / "scene" / f"dry_{s}.wav").samples for s in scene.speakers]
    # write_wav stores round(32767 x), read_wav returns that / 32768, so each
    # file read back is 32767/32768 of gain x plus at most half a step
    # (and float64 rounding).
    scale = gain * 32767 / 32768
    step = 1 / 32768
    np.testing.assert_allclose(mixture - sum(images), scale * scene.noise,
                               rtol=0, atol=(1 + len(images)) * step / 2 + 1e-12)
    np.testing.assert_allclose(dry, scale * scene.dry[:, None], rtol=0, atol=step / 2 + 1e-12)


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
        "wpe_enabled": False,
        "wpe": {"taps": 4, "iterations": 2},
        "em": {"iterations": 8},
    }
    config_path = tmp_path / "config.json"
    dump_json(config, config_path)
    out_dir = tmp_path / "enhanced"
    code = cli_main(
        ["enhance", "--manifest", str(manifest_path), "--config", str(config_path),
         "--output-dir", str(out_dir)]
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


def test_cli_metrics_scores_every_signal_over_the_common_span(tmp_path, capsys, caplog):
    # The mixture is shorter than the estimate and the reference.
    rng = np.random.default_rng(5)
    ref = rng.uniform(-0.5, 0.5, 1200)
    signals = {"est": ref + 0.1 * rng.uniform(-0.5, 0.5, 1200), "ref": ref,
               "mix": ref[:900] + 0.4 * rng.uniform(-0.5, 0.5, 900)}
    args = ["metrics"]
    for name, signal in signals.items():
        write_wav(tmp_path / f"{name}.wav", Waveform(signal[None], SAMPLE_RATE))
        args += [f"--{name}", str(tmp_path / f"{name}.wav")]
    capsys.readouterr()
    with caplog.at_level(logging.WARNING):
        assert cli_main(args) == 0
    metrics = json.loads(capsys.readouterr().out)
    est, ref, mix = (read_wav(tmp_path / f"{name}.wav").samples[0, :900] for name in signals)
    assert metrics["si_sdr_db"] == si_sdr(est, ref)
    assert metrics["baseline_db"] == si_sdr(mix, ref)
    assert metrics["improvement_db"] == metrics["si_sdr_db"] - metrics["baseline_db"]
    assert len([r for r in caplog.records if "length mismatch" in r.message]) == 1


def test_cli_metrics_rejects_signals_of_different_sample_rates(tmp_path, capsys):
    # The same samples labelled 8 kHz would otherwise score 100 dB.
    signal = Waveform(np.random.default_rng(6).uniform(-0.5, 0.5, (1, 1600)), SAMPLE_RATE)
    write_wav(tmp_path / "est.wav", signal)
    write_wav(tmp_path / "ref.wav", Waveform(signal.samples, 8000))
    capsys.readouterr()
    assert cli_main(["metrics", "--est", str(tmp_path / "est.wav"),
                     "--ref", str(tmp_path / "ref.wav")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("gsskit: error: ")
    assert f"{tmp_path / 'est.wav'} at 16000 Hz" in line
    assert f"{tmp_path / 'ref.wav'} at 8000 Hz" in line


@pytest.mark.parametrize("option", ["est", "ref", "mix"])
def test_cli_metrics_rejects_a_multi_channel_file(tmp_path, capsys, option):
    # An enhanced file follows its utterance's reference channel, which
    # need not be channel 0, so no channel is picked on the caller's behalf.
    rng = np.random.default_rng(7)
    args = ["metrics"]
    for name in ("est", "ref", "mix"):
        channels = 3 if name == option else 1
        write_wav(tmp_path / f"{name}.wav",
                  Waveform(rng.uniform(-0.5, 0.5, (channels, 1600)), SAMPLE_RATE))
        args += [f"--{name}", str(tmp_path / f"{name}.wav")]
    capsys.readouterr()
    assert cli_main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"gsskit: error: {tmp_path / f'{option}.wav'} has 3 channels")


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


def test_cli_analyze_overlap_without_utterances_exits_1(tmp_path, capsys):
    dump_json([{"session_id": "S1", "speaker": None}], tmp_path / "ann.json")
    capsys.readouterr()
    code = cli_main(["analyze-overlap", "--annotations", str(tmp_path / "ann.json"),
                     "--format", "chime5"])
    assert code == 1
    assert capsys.readouterr().err == "no utterances found\n"


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


def _zero_words_warnings(caplog):
    return [r for r in caplog.records if "over zero words" in r.message]


def test_cli_analyze_overlap_pooled_zero_words_warns(tmp_path, caplog):
    zero_words = [row for row in OVERLAP_DOC if row["session_id"] == "S3"]
    with caplog.at_level(logging.WARNING):
        _analyze_overlap(tmp_path, zero_words)
    # Once, for the pooled histogram; the session is not a histogram of its own.
    assert len(_zero_words_warnings(caplog)) == 1


def test_cli_analyze_overlap_warns_only_about_what_it_writes(tmp_path, caplog):
    # S3 has zero words, but the pooled histogram it feeds does not.
    with caplog.at_level(logging.WARNING):
        _analyze_overlap(tmp_path, OVERLAP_DOC)
    assert _zero_words_warnings(caplog) == []
    with caplog.at_level(logging.WARNING):
        _analyze_overlap(tmp_path, OVERLAP_DOC, "--per-session")
    assert len(_zero_words_warnings(caplog)) == 1


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
    dump_json({"em": {"iterations": 5}}, tmp_path / "config.json")
    out_dir = tmp_path / "out"
    code = cli_main([
        "enhance", "--manifest", str(tmp_path / "manifest.json"),
        "--config", str(tmp_path / "config.json"), "--output-dir", str(out_dir),
    ])
    assert code == 1
    report = json.load(open(out_dir / "report.json"))
    assert report["failures"] == 1
    first, *rest = report["utterances"]
    assert first["session_id"] == "BAD" and first["status"] == "failed"
    assert first["error"]
    assert [row["status"] for row in rest] == ["ok", "ok"]
    assert all(row["session_id"] == scene.session_id for row in rest)


def test_run_batch_rejects_malformed_manifest_entries(tmp_path):
    scene = small_scene()
    good = write_session(tmp_path, scene)["sessions"][0]

    def no_key(key):
        return {k: v for k, v in good.items() if k != key}

    sessions = [
        "S01",
        no_key("session_id"),
        dict(good, session_id=7),
        no_key("audio"),
        dict(good, audio={}),
        dict(good, audio=["U01.wav"]),
        no_key("annotations"),
        dict(good, length_seconds="3.0"),
        dict(good, length_seconds=None),
        # An integer path would be opened as a file descriptor.
        dict(good, annotations=0),
        dict(good, audio={"U01": 2}),
        dict(good, silences=1),
        dict(good, length_seconds=float("inf")),
        dict(good, length_seconds=float("nan")),
        dict(good, length_seconds=0),
        good,
    ]
    report = run_batch({"sessions": sessions}, fast_config(output_dir=str(tmp_path / "out")))
    assert report["failures"] == 15
    *failed, ok_a, ok_b = report["utterances"]
    audio = "'audio' must be a non-empty object of array id -> WAV path"
    expected = [
        (None, "manifest entry 0 must be an object, got str"),
        (None, "manifest entry 1 has no 'session_id'"),
        (7, "manifest entry 2 'session_id' must be a string"),
        (scene.session_id, "manifest entry 3 has no 'audio'"),
        (scene.session_id, f"manifest entry 4 {audio}"),
        (scene.session_id, f"manifest entry 5 {audio}"),
        (scene.session_id, "manifest entry 6 has no 'annotations'"),
        (scene.session_id, "manifest entry 7 'length_seconds' must be a number, got str"),
        (scene.session_id, "manifest entry 8 'length_seconds' must be a number, got NoneType"),
        (scene.session_id, "manifest entry 9 'annotations' must be the path of a JSON file"),
        (scene.session_id, f"manifest entry 10 {audio}"),
        (scene.session_id, "manifest entry 11 'silences' must be an object or the path of a "
                           "JSON file"),
        (scene.session_id, "manifest entry 12 'length_seconds' must be finite, got inf"),
        (scene.session_id, "manifest entry 13 'length_seconds' must be finite, got nan"),
        (scene.session_id, "manifest entry 14 'length_seconds' must be above 0, got 0"),
    ]
    assert len(failed) == len(expected)
    for row, (session_id, message) in zip(failed, expected):
        assert row["status"] == "failed"
        assert row["session_id"] == session_id
        assert row["error"] == message
    assert ok_a["status"] == ok_b["status"] == "ok"


@pytest.mark.parametrize("manifest, message", [
    ([{"session_id": "S01"}], "manifest must be an object, got list"),
    ({"session": []}, "manifest has no 'sessions'"),
    ({"sessions": {"S01": {}}}, "manifest 'sessions' must be a list, got dict"),
])
def test_run_batch_rejects_a_manifest_without_a_sessions_list(
    tmp_path, capsys, manifest, message
):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_batch(manifest, fast_config(output_dir=str(tmp_path / "out")))
    # The CLI does not report a misspelt manifest as zero of zero enhanced,
    # nor as a batch with failures (status 1).
    dump_json(manifest, tmp_path / "manifest.json")
    code = cli_main(["enhance", "--manifest", str(tmp_path / "manifest.json"),
                     "--output-dir", str(tmp_path / "cli")])
    assert code == 2
    assert re.fullmatch(f"gsskit: error: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize("config, message", [
    ({"workers": 1.5}, "config.workers must be an integer, got float"),
    ({"em": {"iterations": 0}}, "em.iterations must be at least 1, got 0"),
    ({"stft": {"fft_size": 256, "shift": 256}},
     "reconstruction unsupported: window/shift pair (hann, 256/256) does not cover "
     "all sample positions"),
])
def test_cli_rejects_a_malformed_config_with_status_2(tiny_session, tmp_path, capsys,
                                                      config, message):
    _, entry, _ = tiny_session
    dump_json(config, tmp_path / "config.json")
    dump_json({"sessions": [entry]}, tmp_path / "manifest.json")
    code = cli_main(["enhance", "--config", str(tmp_path / "config.json"),
                     "--manifest", str(tmp_path / "manifest.json"),
                     "--output-dir", str(tmp_path / "cli")])
    assert code == 2
    assert capsys.readouterr().err == f"gsskit: error: {message}\n"


@pytest.mark.parametrize("flag", [
    ["--track", "single"], ["--no-wpe"], ["--mask", "on"], ["--context-secs", "2"],
    ["--em-iters", "5"], ["--workers", "2"],
])
def test_cli_enhance_takes_settings_only_from_the_config_file(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["enhance", "--manifest", str(tmp_path / "manifest.json"), *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_cli_reports_a_missing_input_file_with_status_2(tiny_session, tmp_path, capsys):
    # Status 1 means that some utterances failed; an input that cannot be
    # read is rejected like a malformed one, in one line.
    _, entry, _ = tiny_session
    absent = tmp_path / "absent.json"
    code = cli_main(["enhance", "--manifest", str(absent), "--output-dir", str(tmp_path / "cli")])
    assert code == 2
    assert re.fullmatch(r"gsskit: error: .*No such file.*absent\.json'\n", capsys.readouterr().err)
    code = cli_main(["metrics", "--est", str(tmp_path / "absent.wav"),
                     "--ref", entry["audio"]["U01"]])
    assert code == 2
    assert re.fullmatch(r"gsskit: error: .*No such file.*absent\.wav'\n", capsys.readouterr().err)


@pytest.fixture(scope="module")
def tiny_session(tmp_path_factory):
    """A one-second two-speaker session on disk, its good manifest entry
    and a config that enhances it in milliseconds."""
    root = tmp_path_factory.mktemp("tiny")
    scene = simulate_scene({
        "session_id": "P1",
        "duration": 1.0,
        "channels": 2,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 2200], "activity": [[0.1, 0.6]]},
            {"speaker": "B", "kind": "noise", "band": [900, 3600], "activity": [[0.4, 0.9]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 3},
        "snr_db": 25,
    }, seed=1)
    entry = write_session(root, scene)["sessions"][0]
    from gsskit import EmConfig, StftConfig

    config = PipelineConfig(
        stft=StftConfig(fft_size=256, shift=64), wpe_enabled=False,
        em=EmConfig(iterations=2), context_seconds=0.0, output_dir=str(root / "out"),
    )
    return root, entry, config


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-10, 10), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@st.composite
def manifest_entries(draw, root, good):
    """The good manifest entry with up to three keys dropped, set to a near
    miss or set to junk of any JSON type; now and then junk instead of an
    entry."""
    near = {
        "session_id": ["P2", "", "..", "a/b"],
        "audio": [{}, {"U01": str(root / "absent.wav")}, {"U02": good["audio"]["U01"]}],
        "annotations": [str(root / "absent.json")],
        "length_seconds": [0.5, 3.0],
        "annotation_format": ["chime5", "kaldi"],
        "silences": [{"A": [[0.2, 0.3]]}, {"Z": [[0.2, 0.3]]}, str(root / "absent.json")],
    }
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    entry = dict(good)
    for key in draw(st.sets(st.sampled_from(sorted(near)), max_size=3)):
        change = draw(st.sampled_from(["drop", "near", "junk"]))
        if change == "drop":
            entry.pop(key, None)
        else:
            entry[key] = draw(st.sampled_from(near[key]) if change == "near" else JUNK)
    return entry


@settings(max_examples=60)
@given(data=st.data())
def test_run_batch_turns_each_manifest_entry_into_one_failed_row_or_a_session(
    tiny_session, data
):
    root, good, config = tiny_session
    entry = data.draw(manifest_entries(root, good))
    report = run_batch({"sessions": [entry]}, config)
    rows = report["utterances"]
    session_id = entry.get("session_id") if isinstance(entry, dict) else None
    assert rows and all(row["session_id"] == session_id for row in rows)
    if "speaker_id" in rows[0]:  # the session loaded: one row per utterance
        assert all("speaker_id" in row for row in rows)
        assert report["failures"] == sum(row["status"] == "failed" for row in rows)
    else:
        assert len(rows) == 1 and rows[0]["status"] == "failed" and rows[0]["error"]
        assert report["failures"] == 1


# Working set of one utterance. The README scene (6 s, 4 channels, the
# default config) has a 12.4 MB spectrogram (M * T * F * 16 bytes); the
# batch-shaped case is the first utterance of the benchmark's batch scene
# (three speakers, WPE off, 2 s context), whose segment is 4.2 s long.
README_SCENE = {
    "session_id": "S01",
    "duration": 6.0,
    "channels": 4,
    "sources": [
        {"speaker": "A", "kind": "noise", "band": [300, 2500], "activity": [[0.5, 3.0]]},
        {"speaker": "B", "kind": "chirp", "band": [800, 3800], "activity": [[2.0, 5.5]]},
    ],
    "mixing": {"kind": "delay", "max_delay": 6},
    "snr_db": 25,
}
BATCH_SCENE = {
    "session_id": "B01",
    "duration": 9.0,
    "channels": 4,
    "sources": [
        {"speaker": "A", "kind": "noise", "band": [300, 2500],
         "activity": [[0.2, 2.2], [4.1, 6.1]]},
        {"speaker": "B", "kind": "chirp", "sweep": [200, 3500],
         "activity": [[1.5, 3.5], [5.4, 7.4]]},
        {"speaker": "C", "kind": "noise", "band": [1000, 3800],
         "activity": [[2.8, 4.8], [6.7, 8.7]]},
    ],
    "mixing": {"kind": "delay", "max_delay": 6},
    "snr_db": 25,
}


@pytest.mark.parametrize("spec, seed, config, limit_mb", [
    (README_SCENE, 7, PipelineConfig(), 35.0),
    (BATCH_SCENE, 0, PipelineConfig(wpe_enabled=False, context_seconds=2.0), 27.0),
], ids=["readme", "batch"])
def test_enhance_utterance_peak_memory(spec, seed, config, limit_mb):
    import tracemalloc

    scene = simulate_scene(spec, seed=seed)
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, spec["duration"])
    args = (utterances[0], scene.mixture, activity, config)
    enhance_utterance(*args)  # first call: lazy numpy and FFT set-up
    tracemalloc.start()
    try:
        enhance_utterance(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6, f"peak {peak / 1e6:.1f} MB"


def test_run_batch_keeps_no_utterance_tensors_until_the_session_ends(tmp_path):
    import tracemalloc

    from gsskit import EmConfig

    scene = simulate_scene(BATCH_SCENE, seed=0)
    manifest = write_session(tmp_path, scene)
    config = PipelineConfig(wpe_enabled=False, context_seconds=2.0, em=EmConfig(iterations=2),
                            output_dir=str(tmp_path / "out"))
    tracemalloc.start()
    try:
        report = run_batch(manifest, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["failures"] == 0 and len(report["utterances"]) == 6
    # One utterance at a time: about 30 MB. Holding the posteriors of the
    # finished utterances until the session ends took 78 MB.
    assert peak < 45e6, f"peak {peak / 1e6:.1f} MB"


def noise_sessions(root, session_ids, utterances, seconds=30.0):
    """Manifest of sessions that share one WAV of 4-channel int16 noise,
    each annotated with the first ``utterances`` of a row of one-second
    turns of three speakers, one every 0.7 s."""
    from gsskit.activity import format_time

    rng = np.random.default_rng(3)
    audio = Waveform(rng.normal(scale=0.05, size=(4, int(seconds * SAMPLE_RATE))), SAMPLE_RATE)
    write_wav(root / "noise.wav", audio)
    starts = [i * 7 * SAMPLE_RATE // 10 for i in range(utterances)]
    rows = [{"session_id": session_id, "speaker_id": "ABC"[i % 3],
             "start_time": format_time(start), "end_time": format_time(start + SAMPLE_RATE),
             "words": "w"} for session_id in session_ids for i, start in enumerate(starts)]
    dump_json(rows, root / "annotations.json")
    return {"sessions": [{"session_id": session_id, "audio": {"U01": str(root / "noise.wav")},
                          "annotations": str(root / "annotations.json")}
                         for session_id in session_ids]}


def run_batch_peak(manifest, config):
    """tracemalloc peak of one run_batch call, after an untraced warm-up."""
    import tracemalloc

    run_batch(manifest, config)
    tracemalloc.start()
    try:
        report = run_batch(manifest, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["failures"] == 0
    return peak


@pytest.fixture
def lean_config(tmp_path):
    from gsskit import EmConfig

    return PipelineConfig(wpe_enabled=False, context_seconds=0.0, em=EmConfig(iterations=2),
                          output_dir=str(tmp_path / "out"))


def test_run_batch_frees_each_session_before_reading_the_next(tmp_path, lean_config):
    # Holding one session's audio while the next loaded added 8.3 MB here.
    one = run_batch_peak(noise_sessions(tmp_path, ["S1"], 10), lean_config)
    two = run_batch_peak(noise_sessions(tmp_path, ["S1", "S2"], 10), lean_config)
    assert two < one + 1e6, f"one session {one / 1e6:.1f} MB, two {two / 1e6:.1f} MB"


def test_run_batch_holds_no_finished_outputs(tmp_path, lean_config):
    # Holding every finished output until the session ended added 3.9 MB here.
    ten = run_batch_peak(noise_sessions(tmp_path, ["S1"], 10), lean_config)
    forty = run_batch_peak(noise_sessions(tmp_path, ["S1"], 40), lean_config)
    assert forty < ten + 1e6, f"10 utterances {ten / 1e6:.1f} MB, 40 {forty / 1e6:.1f} MB"


def test_run_batch_enhances_a_repeated_annotation_row_once(tiny_session, tmp_path, monkeypatch):
    import gsskit.pipeline as pipeline
    from gsskit.io import utterance_filename

    _, good, config = tiny_session
    doc = json.load(open(good["annotations"]))
    dump_json(doc + [doc[0]], tmp_path / "annotations.json")
    calls = []
    enhance = pipeline.enhance_utterance
    monkeypatch.setattr(pipeline, "enhance_utterance",
                        lambda u, *args, **kw: calls.append(u) or enhance(u, *args, **kw))
    config = replace(config, output_dir=str(tmp_path / "out"), workers=2)
    report = run_batch({"sessions": [dict(good, annotations=str(tmp_path / "annotations.json"))]},
                       config)
    rows = report["utterances"]
    assert report["failures"] == 1 and len(rows) == len(doc) + 1
    path = tmp_path / "out" / good["session_id"] / "A-100_600.wav"
    first, repeat = [row for row in rows if row["start_time"] == doc[0]["start_time"]]
    assert first["status"] == "ok" and first["path"] == str(path)
    assert repeat["status"] == "failed" and str(path) in repeat["error"]
    assert "duplicate annotation row" in repeat["error"]
    assert [utterance_filename(u) for u in calls].count(path.name) == 1


def test_run_batch_writes_rows_one_sample_apart_to_their_own_files(tiny_session, tmp_path):
    # Samples 1600 and 1601 fall in the same millisecond.
    _, good, config = tiny_session
    doc = json.load(open(good["annotations"]))
    doc.append(dict(doc[0], start_time="0:00:00.1000625"))
    dump_json(doc, tmp_path / "annotations.json")
    report = run_batch({"sessions": [dict(good, annotations=str(tmp_path / "annotations.json"))]},
                       replace(config, output_dir=str(tmp_path / "out")))
    assert report["failures"] == 0
    names = [Path(row["path"]).name for row in report["utterances"]]
    assert names[0] == "A-100_600.wav" and names[-1] == "A-100.0625_600.wav"
    assert len(set(names)) == len(doc)


def test_run_batch_keeps_the_report_of_finished_sessions(tiny_session, tmp_path, monkeypatch):
    import gsskit.pipeline as pipeline

    _, good, config = tiny_session
    doc = [dict(row, session_id="P2") for row in json.load(open(good["annotations"]))]
    dump_json(doc, tmp_path / "p2.json")
    second = dict(good, session_id="P2", annotations=str(tmp_path / "p2.json"))
    enhance = pipeline.enhance_utterance

    def interrupted(utterance, *args, **kwargs):
        if utterance.session_id == "P2":
            raise KeyboardInterrupt
        return enhance(utterance, *args, **kwargs)

    monkeypatch.setattr(pipeline, "enhance_utterance", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run_batch({"sessions": [good, second]}, replace(config, output_dir=str(out)))
    report = json.load(open(out / "report.json"))
    assert report["failures"] == 0
    assert [row["session_id"] for row in report["utterances"]] == [good["session_id"]] * len(doc)
    assert sorted(path.name for path in out.iterdir()) == [good["session_id"], "report.json"]


def test_run_batch_reports_a_row_off_the_centisecond_grid(tiny_session, tmp_path):
    # 0.1000625 s is sample 1601: on the sample grid, not the centisecond one.
    _, good, config = tiny_session
    doc = json.load(open(good["annotations"]))
    doc[0] = dict(doc[0], start_time="0:00:00.1000625")
    dump_json(doc, tmp_path / "annotations.json")
    report = run_batch({"sessions": [dict(good, annotations=str(tmp_path / "annotations.json"))]},
                       replace(config, output_dir=str(tmp_path / "out")))
    rows = report["utterances"]
    assert report["failures"] == 0 and len(rows) == len(doc)
    assert [row["start_time"] for row in rows] == [row["start_time"] for row in doc]


def reference_stft(waveform, config):
    """All channels through one batched rfft of the windowed frames."""
    from gsskit.signal import Spectrogram, _analysis_window

    frames = config.frame_count(waveform.num_samples)
    total = (frames - 1) * config.shift + config.fft_size
    padded = np.pad(waveform.samples, ((0, 0), (config.pad, config.pad)), mode="symmetric")
    padded = np.pad(padded, ((0, 0), (0, max(0, total - padded.shape[1]))))
    strided = np.lib.stride_tricks.sliding_window_view(padded, config.fft_size, axis=1)
    segments = strided[:, :: config.shift][:, :frames] * _analysis_window(config)
    return Spectrogram(np.fft.rfft(segments, n=config.fft_size, axis=-1), config,
                       waveform.sample_rate)


@pytest.mark.parametrize("channels, length", [(1, 700), (4, 16000), (6, 333)])
def test_stft_matches_batched_reference_bit_for_bit(channels, length):
    from gsskit import StftConfig, stft

    rng = np.random.default_rng(channels * length)
    wave = Waveform(rng.standard_normal((channels, length)), SAMPLE_RATE)
    for config in (StftConfig(), StftConfig(fft_size=512, shift=128)):
        np.testing.assert_array_equal(stft(wave, config).bins, reference_stft(wave, config).bins)


def reference_masked_covariance(obs, mask):
    """sum_t m y y^H / sum_t m as one einsum against conj(obs)."""
    weight = mask.sum(axis=-1)
    fallback = weight <= 0.0
    safe = np.where(fallback, obs.shape[1], weight)
    effective = np.where(fallback[:, None], 1.0, mask)
    psd = np.einsum("ft,ftd,fte->fde", effective, obs, obs.conj(), optimize=True)
    psd = psd / safe[:, None, None]
    return 0.5 * (psd + np.swapaxes(psd, -1, -2).conj()), fallback


@pytest.mark.parametrize("channels, frames, bins", [
    (4, 200, 257), (8, 30, 9), (2, 30, 9), (6, 17, 33),
])
def test_masked_covariance_matches_einsum_reference(channels, frames, bins):
    from gsskit.beamforming import _masked_covariance

    rng = np.random.default_rng(channels * frames)
    # (F, T, D) as estimate_psds passes it: a transposed (M, T, F) view.
    spec = rng.standard_normal((channels, frames, bins)) + 1j * rng.standard_normal(
        (channels, frames, bins))
    obs = spec.transpose(2, 1, 0)
    mask = rng.random((bins, frames))
    mask[0] = 0.0  # a fallback bin
    psd, fallback = _masked_covariance(obs, mask)
    ref_psd, ref_fallback = reference_masked_covariance(obs, mask)
    np.testing.assert_array_equal(fallback, ref_fallback)
    if channels % 4 == 0:
        np.testing.assert_array_equal(psd, ref_psd)
    else:
        # The einsum sums in another order when D is not a multiple of 4.
        scale = np.abs(ref_psd).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(psd - ref_psd) <= 1e-15 * scale)
