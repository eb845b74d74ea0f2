import numpy as np
import pytest

from gsskit import (
    StftConfig,
    si_sdr,
    simulate_scene,
)
from oracles import oracle_masks, permutation_consistency


def test_si_sdr_identity_and_scale_invariance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8000)
    assert si_sdr(x, x) == 100.0
    assert si_sdr(2.0 * x, x) == 100.0
    assert si_sdr(-0.3 * x, x) == 100.0


def test_si_sdr_scores_a_silent_estimate_at_the_floor():
    x = np.random.default_rng(0).standard_normal(8000)
    assert si_sdr(np.zeros_like(x), x) == -100.0


def test_si_sdr_orthogonal_perturbation():
    # Perturbation orthogonal to the reference with power ratio 100
    # lands at 20 dB.
    rng = np.random.default_rng(1)
    x = rng.standard_normal(16000)
    noise = rng.standard_normal(16000)
    noise -= (np.dot(noise, x) / np.dot(x, x)) * x
    noise *= np.linalg.norm(x) / np.linalg.norm(noise) / 10.0
    assert abs(si_sdr(x + noise, x) - 20.0) < 0.1


def test_si_sdr_errors():
    x = np.ones(100)
    with pytest.raises(ValueError, match="silent"):
        si_sdr(x, np.zeros(100))
    with pytest.raises(ValueError, match="length"):
        si_sdr(x, np.ones(99))
    with pytest.raises(ValueError, match="1-dim"):
        si_sdr(np.ones((2, 50)), np.ones((2, 50)))


def scene_for_masks():
    spec = {
        "session_id": "SYN2",
        "duration": 3.0,
        "channels": 2,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [200, 1500], "activity": [[0.2, 1.4]]},
            {"speaker": "B", "kind": "noise", "band": [2000, 5000], "activity": [[1.6, 2.8]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 4},
    }
    return simulate_scene(spec, seed=11)


def test_oracle_masks_one_hot_and_silence():
    scene = scene_for_masks()
    config = StftConfig(fft_size=512, shift=128)
    masks = oracle_masks(scene, config)
    classes, frames, freqs = masks.shape
    assert classes == 3
    np.testing.assert_allclose(masks.sum(axis=0), 1.0)
    assert set(np.unique(masks)) <= {0.0, 1.0}
    # Frames before any activity belong to the noise class.
    assert masks[0, :10].all()


def test_permutation_consistency_invariant_to_speaker_relabeling():
    scene = scene_for_masks()
    config = StftConfig(fft_size=512, shift=128)
    masks = oracle_masks(scene, config)
    assert permutation_consistency(masks, masks) == 1.0
    swapped = masks[[0, 2, 1]]
    assert permutation_consistency(swapped, masks) == 1.0


def test_permutation_consistency_penalizes_random_masks():
    scene = scene_for_masks()
    config = StftConfig(fft_size=512, shift=128)
    masks = oracle_masks(scene, config)
    rng = np.random.default_rng(3)
    gamma = rng.random(masks.shape)
    gamma /= gamma.sum(axis=0, keepdims=True)
    assert permutation_consistency(gamma, masks) < 0.8
