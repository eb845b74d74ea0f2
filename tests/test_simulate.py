import re

import numpy as np
import pytest

from gsskit import SAMPLE_RATE, simulate_scene
from gsskit.cli import main as cli_main
from gsskit.io import dump_json


def two_speaker_spec():
    return {
        "session_id": "SYN1",
        "duration": 4.0,
        "channels": 4,
        "sources": [
            {
                "speaker": "A",
                "kind": "noise",
                "band": [300, 2500],
                "activity": [[0.5, 2.0]],
            },
            {
                "speaker": "B",
                "kind": "chirp",
                "activity": [[1.5, 3.5]],
            },
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
        "snr_db": 20,
    }


def test_scene_shapes_and_metadata():
    scene = simulate_scene(two_speaker_spec(), seed=0)
    length = 4 * SAMPLE_RATE
    assert scene.mixture.samples.shape == (4, length)
    assert scene.images.shape == (2, 4, length)
    assert scene.dry.shape == (2, length)
    assert scene.speakers == ("A", "B")
    assert scene.noise is not None and scene.noise.shape == (4, length)
    assert scene.session_id == "SYN1"
    assert scene.seed == 0


def test_scene_is_deterministic_per_seed():
    scene1 = simulate_scene(two_speaker_spec(), seed=5)
    scene2 = simulate_scene(two_speaker_spec(), seed=5)
    np.testing.assert_array_equal(scene1.mixture.samples, scene2.mixture.samples)
    np.testing.assert_array_equal(scene1.images, scene2.images)
    scene3 = simulate_scene(two_speaker_spec(), seed=6)
    assert np.any(scene3.mixture.samples != scene1.mixture.samples)


def test_mixture_is_sum_of_images_and_noise():
    scene = simulate_scene(two_speaker_spec(), seed=1)
    total = scene.images.sum(axis=0) + scene.noise
    np.testing.assert_allclose(scene.mixture.samples, total, atol=1e-12)


def test_dry_energy_respects_activity():
    scene = simulate_scene(two_speaker_spec(), seed=2)
    a = scene.dry[0]
    inside = a[int(0.6 * SAMPLE_RATE) : int(1.9 * SAMPLE_RATE)]
    outside = np.concatenate([a[: int(0.45 * SAMPLE_RATE)], a[int(2.1 * SAMPLE_RATE) :]])
    assert np.mean(inside**2) > 0.5
    assert np.all(outside == 0)


def test_annotations_match_activity():
    from gsskit import parse_annotations

    scene = simulate_scene(two_speaker_spec(), seed=3)
    utterances = parse_annotations(scene.annotations)
    assert len(utterances) == 2
    by_speaker = {u.speaker_id: u for u in utterances}
    assert by_speaker["A"].start_samples == int(0.5 * SAMPLE_RATE)
    assert by_speaker["A"].end_samples == int(2.0 * SAMPLE_RATE)
    assert by_speaker["B"].session_id == "SYN1"
    assert by_speaker["A"].word_count > 0


def test_band_limits_spectrum():
    spec = two_speaker_spec()
    spec["sources"] = [spec["sources"][0]]
    spec.pop("snr_db")
    scene = simulate_scene(spec, seed=4)
    dry = scene.dry[0]
    spectrum = np.abs(np.fft.rfft(dry)) ** 2
    freqs = np.fft.rfftfreq(dry.size, 1 / SAMPLE_RATE)
    in_band = spectrum[(freqs >= 300) & (freqs <= 2500)].sum()
    out_band = spectrum[(freqs < 200) | (freqs > 2700)].sum()
    assert out_band < 0.01 * in_band


def test_sensor_noise_level_matches_requested_snr():
    spec = two_speaker_spec()
    spec["snr_db"] = 15
    scene = simulate_scene(spec, seed=5)
    signal = scene.images.sum(axis=0)
    measured = 10 * np.log10(np.mean(signal**2) / np.mean(scene.noise**2))
    assert abs(measured - 15) < 1.0


def test_delay_mixing_shifts_channels():
    spec = two_speaker_spec()
    spec["sources"] = [spec["sources"][0]]
    spec.pop("snr_db")
    scene = simulate_scene(spec, seed=6)
    image = scene.images[0]
    dry = scene.dry[0]
    for channel in range(4):
        correlation = [
            np.dot(image[channel, delta:], dry[: dry.size - delta])
            for delta in range(8)
        ]
        best = int(np.argmax(np.abs(correlation)))
        aligned = image[channel, best:]
        scale = np.dot(aligned, dry[: aligned.size]) / np.dot(
            dry[: aligned.size], dry[: aligned.size]
        )
        np.testing.assert_allclose(
            aligned, scale * dry[: aligned.size], atol=1e-10
        )


def test_reverb_mixing_produces_tails():
    spec = two_speaker_spec()
    spec["mixing"] = {"kind": "reverb", "taps": 32, "tail_gain": 0.4}
    scene = simulate_scene(spec, seed=7)
    assert scene.images.shape == (2, 4, 4 * SAMPLE_RATE)
    assert np.all(np.isfinite(scene.mixture.samples))


@pytest.mark.parametrize(
    "patch,match",
    [
        pytest.param(dict(channels=1), r"^scene spec 'channels' must be at least 2, got 1$",
                     id="patch0-channels"),
        (dict(duration=0.0), "empty"),
        (dict(sources=[]), "at least one source"),
    ],
)
def test_scene_spec_validation(patch, match):
    spec = two_speaker_spec()
    spec.update(patch)
    with pytest.raises(ValueError, match=match):
        simulate_scene(spec, seed=0)


def test_scene_rejects_duplicate_speakers_and_bad_kind():
    spec = two_speaker_spec()
    spec["sources"][1]["speaker"] = "A"
    with pytest.raises(ValueError, match="unique"):
        simulate_scene(spec, seed=0)
    spec = two_speaker_spec()
    spec["sources"][0]["kind"] = "babble"
    with pytest.raises(ValueError, match="kind"):
        simulate_scene(spec, seed=0)
    spec = two_speaker_spec()
    spec["mixing"] = {"kind": "anechoic"}
    with pytest.raises(ValueError, match="mixing"):
        simulate_scene(spec, seed=0)


@pytest.mark.parametrize("source, key, where", [
    (None, "duration", "scene spec"),
    (None, "channels", "scene spec"),
    (None, "sources", "scene spec"),
    (0, "speaker", "scene source 0"),
    (1, "kind", "scene source 1"),
    (1, "activity", "scene source 1"),
])
def test_cli_simulate_names_a_missing_spec_key(tmp_path, capsys, source, key, where):
    # One error line that names the key and status 2, not a KeyError
    # traceback.
    spec = two_speaker_spec()
    del (spec if source is None else spec["sources"][source])[key]
    dump_json(spec, tmp_path / "spec.json")
    capsys.readouterr()
    code = cli_main(["simulate", "--spec", str(tmp_path / "spec.json"), "--seed", "0",
                     "--out", str(tmp_path / "scene")])
    assert code == 2
    assert capsys.readouterr().err == f"gsskit: error: {where} has no {key!r}\n"
    assert not (tmp_path / "scene").exists()


SPAN = "must be [start, end] with finite start < end, got"


@pytest.mark.parametrize("source, key, value, message", [
    (None, "sources", 5, "scene spec 'sources' must be a list of at least one source, got 5"),
    (None, "sources", [{"speaker": "A", "kind": "noise", "activity": [[0.5, 2.0]]}, "B"],
     "scene source 1 must be an object, got str"),
    (None, "mixing", "reverb", "scene spec 'mixing' must be an object, got str"),
    (1, "activity", [[0.1]], f"scene source 1 'activity', span 0 {SPAN} [0.1]"),
    (0, "activity", 0.5,
     "scene source 0 'activity' must be a list of [start, end] pairs, got 0.5"),
    (0, "band", 5, f"scene source 0 'band' {SPAN} 5"),
    (1, "sweep", 3, f"scene source 1 'sweep' {SPAN} 3"),
    (0, "activity", [["a", "b"]], f"scene source 0 'activity', span 0 {SPAN} ['a', 'b']"),
    (1, "activity", [[float("nan"), 0.5]], f"scene source 1 'activity', span 0 {SPAN} [nan, 0.5]"),
    (None, "duration", "x", "scene spec 'duration' must be a number, got str"),
    (None, "channels", 2.5, "scene spec 'channels' must be an integer, got float"),
    (0, "gain", "loud", "scene source 0 'gain' must be a number, got str"),
    (None, "snr_db", "x", "scene spec 'snr_db' must be a number, got str"),
    (None, "mixing", {"kind": "reverb", "taps": "many"},
     "scene mixing 'taps' must be an integer, got str"),
    (None, "mixing", {"kind": "delay", "max_delay": 2.7},
     "scene mixing 'max_delay' must be an integer, got float"),
    (0, "activity", [[3.5, 4.5]], "activity [3.5, 4.5]s of source A is outside the scene"),
    (None, "mixing", {"kind": "reverb", "taps": 4},
     "scene mixing 'max_delay' must be below 'taps' 4, got 4"),
    (None, "mixing", {"kind": "reverb", "taps": 16, "max_delay": 20},
     "scene mixing 'max_delay' must be below 'taps' 16, got 20"),
    (None, "mixing", {"kind": "reverb", "decay": 0}, "scene mixing 'decay' must be above 0, got 0"),
    (None, "mixing", {"kind": "reverb", "decay": -5},
     "scene mixing 'decay' must be above 0, got -5"),
    (None, "mixing", {"kind": "delay", "taps": 5},
     "scene mixing 'taps' is not a key of kind 'delay': ['max_delay']"),
    (None, "mixing", {"kind": "reverb", "tap": 5},
     "scene mixing 'tap' is not a key of kind 'reverb': "
     "['taps', 'max_delay', 'decay', 'tail_gain']"),
    (None, "mixing", {"max_delay": 3, "decay": 2.0},
     "scene mixing 'decay' is not a key of kind 'delay': ['max_delay']"),
    (None, "mixing", {"kind": "anechoic"},
     "scene mixing 'kind' must be one of ['delay', 'reverb'], got 'anechoic'"),
    (None, "mixing", {"kind": ["reverb"]},
     "scene mixing 'kind' must be one of ['delay', 'reverb'], got ['reverb']"),
    (1, "kind", "speech", "scene source 1 'kind' must be 'noise' or 'chirp', got 'speech'"),
    (0, "kind", ["noise"], "scene source 0 'kind' must be 'noise' or 'chirp', got ['noise']"),
])
def test_cli_simulate_names_a_malformed_spec_value(tmp_path, capsys, source, key, value,
                                                    message):
    # A value of the wrong type or shape is one error line naming the key
    # and the source, with status 2: not a TypeError traceback, not a
    # message that names no key, and not a value silently converted (2.5
    # channels are not 2).
    spec = two_speaker_spec()
    (spec if source is None else spec["sources"][source])[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_scene(spec, seed=0)
    dump_json(spec, tmp_path / "spec.json")
    capsys.readouterr()
    code = cli_main(["simulate", "--spec", str(tmp_path / "spec.json"), "--seed", "0",
                     "--out", str(tmp_path / "scene")])
    assert code == 2
    assert capsys.readouterr().err == f"gsskit: error: {message}\n"
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("f0, f1, phi", [(200.0, 3500.0, 0.0), (300, 3500, 123.4), (3000.0, 150.0, 359.9)])
def test_linear_chirp_is_bit_identical_to_scipy(f0, f1, phi):
    signal = pytest.importorskip("scipy.signal")
    from gsskit.simulate import _linear_chirp

    length = 40_000
    t = np.arange(length) / SAMPLE_RATE
    t1 = length / SAMPLE_RATE
    ours = _linear_chirp(t, float(f0), t1, float(f1), phi)
    ref = signal.chirp(t, f0=f0, t1=t1, f1=f1, phi=phi)
    assert ours.tobytes() == ref.tobytes()
