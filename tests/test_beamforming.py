import logging

import numpy as np
import pytest

from gsskit import (
    BeamformerWeights,
    Posterior,
    PsdSet,
    Spectrogram,
    StftConfig,
    apply_beamformer,
    apply_target_mask,
    ban_postfilter,
    estimate_psds,
    mvdr_souden,
    select_reference,
)


def make_spec(bins):
    channels, frames, freqs = bins.shape
    config = StftConfig(fft_size=(freqs - 1) * 2, shift=max(1, (freqs - 1) // 2))
    return Spectrogram(bins, config, 16000)


def random_posterior(rng, classes, frames, freqs):
    gamma = rng.random((classes, frames, freqs))
    gamma /= gamma.sum(axis=0, keepdims=True)
    return Posterior(gamma)


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T + 0.1 * np.eye(dim)


def random_psd_set(rng, freqs, dim):
    target = np.stack([random_psd(rng, dim) for _ in range(freqs)])
    distortion = np.stack([random_psd(rng, dim) for _ in range(freqs)])
    return PsdSet(
        target,
        distortion,
        frame_count=10,
        target_fallback=np.zeros(freqs, bool),
        distortion_fallback=np.zeros(freqs, bool),
    )


def masked_covariance_oracle(bins, mask):
    """Per-frequency weighted outer products, accumulated frame by frame."""
    channels, frames, freqs = bins.shape
    out = np.zeros((freqs, channels, channels), complex)
    for f in range(freqs):
        total = 0.0
        acc = np.zeros((channels, channels), complex)
        for t in range(frames):
            x = bins[:, t, f]
            acc += mask[t, f] * np.outer(x, x.conj())
            total += mask[t, f]
        if total > 0:
            acc /= total
        else:
            acc = np.zeros((channels, channels), complex)
            for t in range(frames):
                x = bins[:, t, f]
                acc += np.outer(x, x.conj())
            acc /= frames
        out[f] = acc
    return out


def mvdr_oracle(psds, reference, eps=1e-6):
    """Souden solution via explicit per-frequency inverses."""
    freqs, dim, _ = psds.target.shape
    weights = np.zeros((freqs, dim), complex)
    for f in range(freqs):
        phi_nn = psds.distortion[f]
        trace = np.trace(phi_nn).real
        loaded = phi_nn + (eps * trace / dim) * np.eye(dim)
        numer = np.linalg.inv(loaded) @ psds.target[f]
        lam = np.trace(numer)
        weights[f] = numer[:, reference] / lam
    return weights


def test_estimate_psds_matches_outer_product_oracle():
    rng = np.random.default_rng(0)
    channels, frames, freqs, classes = 3, 12, 5, 3
    bins = rng.standard_normal((channels, frames, freqs)) + 1j * rng.standard_normal(
        (channels, frames, freqs)
    )
    spec = make_spec(bins)
    post = random_posterior(rng, classes, frames, freqs)
    psds = estimate_psds(spec, post, target_class=1)
    target_mask = post.gamma[1]
    distortion_mask = post.gamma[0] + post.gamma[2]
    np.testing.assert_allclose(
        psds.target, masked_covariance_oracle(bins, target_mask), atol=1e-12
    )
    np.testing.assert_allclose(
        psds.distortion, masked_covariance_oracle(bins, distortion_mask), atol=1e-12
    )
    assert psds.frame_count == frames
    assert not psds.target_fallback.any()
    hermitian_gap = np.abs(psds.target - psds.target.conj().transpose(0, 2, 1)).max()
    assert hermitian_gap == 0.0


def test_estimate_psds_zero_mass_fallback(caplog):
    rng = np.random.default_rng(1)
    bins = rng.standard_normal((2, 6, 3)) + 1j * rng.standard_normal((2, 6, 3))
    spec = make_spec(bins)
    gamma = np.zeros((2, 6, 3))
    gamma[0] = 1.0
    gamma[1, :, 1] = 0.0  # target empty at frequency 1
    gamma[0, :, 1] = 1.0
    post = Posterior(gamma / gamma.sum(axis=0, keepdims=True))
    with caplog.at_level(logging.WARNING):
        psds = estimate_psds(spec, post, target_class=1)
    assert psds.target_fallback[1]
    unweighted = masked_covariance_oracle(bins, np.zeros((6, 3)))
    np.testing.assert_allclose(psds.target[1], unweighted[1], atol=1e-12)


def test_estimate_psds_rejects_bad_target():
    rng = np.random.default_rng(2)
    bins = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
    spec = make_spec(bins)
    post = random_posterior(rng, 2, 4, 3)
    with pytest.raises(ValueError, match="target_class"):
        estimate_psds(spec, post, target_class=5)


def test_mvdr_matches_inverse_oracle():
    rng = np.random.default_rng(3)
    psds = random_psd_set(rng, freqs=6, dim=4)
    for reference in range(4):
        got = mvdr_souden(psds, reference)
        want = mvdr_oracle(psds, reference)
        np.testing.assert_allclose(got.weights, want, atol=1e-10)
        assert got.reference == reference


def test_mvdr_distortionless_on_rank_one_target():
    rng = np.random.default_rng(4)
    dim = 4
    for _ in range(20):
        d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        sigma = rng.uniform(0.1, 10.0)
        target = (sigma**2 * np.outer(d, d.conj()))[None]
        distortion = random_psd(rng, dim)[None]
        psds = PsdSet(
            target,
            distortion,
            frame_count=1,
            target_fallback=np.zeros(1, bool),
            distortion_fallback=np.zeros(1, bool),
        )
        ref = int(rng.integers(dim))
        w = mvdr_souden(psds, ref).weights[0]
        assert abs(np.vdot(w, d) - d[ref]) < 1e-10


def test_mvdr_degenerate_target_returns_selector(caplog):
    dim = 3
    target = np.zeros((1, dim, dim), complex)
    distortion = np.eye(dim, dtype=complex)[None]
    psds = PsdSet(
        target,
        distortion,
        frame_count=1,
        target_fallback=np.zeros(1, bool),
        distortion_fallback=np.zeros(1, bool),
    )
    with caplog.at_level(logging.WARNING):
        w = mvdr_souden(psds, 2)
    np.testing.assert_array_equal(w.weights[0], np.eye(dim)[2])


def test_select_reference_solves_once_and_warns_once(caplog, monkeypatch):
    rng = np.random.default_rng(8)
    dim = 4
    psds = random_psd_set(rng, freqs=3, dim=dim)
    psds.target[1] = 0.0  # one degenerate bin
    solves = []
    real_solve = np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda *args: solves.append(args) or real_solve(*args)
    )
    with caplog.at_level(logging.WARNING):
        reference = select_reference(psds)
    assert 0 <= reference < dim
    assert len(solves) == 1
    warnings = [r for r in caplog.records if "degenerate target covariance" in r.message]
    assert len(warnings) == 1
    assert "1/3 bins" in warnings[0].message


def test_mvdr_rejects_bad_reference():
    rng = np.random.default_rng(5)
    psds = random_psd_set(rng, 2, 3)
    with pytest.raises(ValueError, match="reference channel"):
        mvdr_souden(psds, 3)


def reference_selection_oracle(psds, mode, eps=1e-6):
    dim = psds.target.shape[1]
    best, best_score = 0, None
    for candidate in range(dim):
        w = mvdr_oracle(psds, candidate, eps)
        num = np.einsum("fd,fde,fe->f", w.conj(), psds.target, w).real
        den = np.einsum("fd,fde,fe->f", w.conj(), psds.distortion, w).real
        ratio = num / den
        if mode == "db":
            score = float(np.mean(10.0 * np.log10(np.maximum(ratio, 1e-12))))
        else:
            score = float(np.mean(ratio))
        if best_score is None or score > best_score:
            best, best_score = candidate, score
    return best


@pytest.mark.parametrize("mode", ["linear", "db"])
def test_select_reference_matches_brute_force(mode):
    rng = np.random.default_rng(6)
    for _ in range(15):
        psds = random_psd_set(rng, freqs=4, dim=4)
        assert select_reference(psds, mode=mode) == reference_selection_oracle(psds, mode)


def test_select_reference_rejects_unknown_mode():
    rng = np.random.default_rng(7)
    psds = random_psd_set(rng, 2, 3)
    with pytest.raises(ValueError, match="mode"):
        select_reference(psds, mode="loudness")


def test_ban_gain_on_isotropic_noise():
    # With distortion sigma^2 I and unit-norm w the gain collapses to
    # 1 / sqrt(D) regardless of sigma.
    rng = np.random.default_rng(8)
    dim = 4
    for sigma in (0.1, 1.0, 10.0):
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        weights = BeamformerWeights(w[None], reference=0)
        distortion = (sigma**2 * np.eye(dim, dtype=complex))[None]
        psds = PsdSet(
            np.eye(dim, dtype=complex)[None],
            distortion,
            frame_count=1,
            target_fallback=np.zeros(1, bool),
            distortion_fallback=np.zeros(1, bool),
        )
        out = ban_postfilter(weights, psds)
        gain = np.linalg.norm(out.weights[0]) / np.linalg.norm(w)
        assert abs(gain - 0.5) < 1e-12


def test_ban_matches_direct_formula():
    rng = np.random.default_rng(9)
    dim, freqs = 3, 5
    psds = random_psd_set(rng, freqs, dim)
    w = rng.standard_normal((freqs, dim)) + 1j * rng.standard_normal((freqs, dim))
    out = ban_postfilter(BeamformerWeights(w, reference=1), psds)
    for f in range(freqs):
        phi = psds.distortion[f]
        numer = np.sqrt((w[f].conj() @ phi @ phi @ w[f]).real / dim)
        denom = (w[f].conj() @ phi @ w[f]).real
        np.testing.assert_allclose(out.weights[f], w[f] * numer / denom, atol=1e-12)


def test_apply_beamformer_matches_dot_product():
    rng = np.random.default_rng(10)
    bins = rng.standard_normal((3, 7, 5)) + 1j * rng.standard_normal((3, 7, 5))
    spec = make_spec(bins)
    w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    out = apply_beamformer(spec, BeamformerWeights(w, reference=0))
    assert out.bins.shape == (1, 7, 5)
    for t in range(7):
        for f in range(5):
            np.testing.assert_allclose(
                out.bins[0, t, f], np.vdot(w[f], bins[:, t, f]), atol=1e-12
            )


def test_apply_beamformer_selector_and_zero():
    rng = np.random.default_rng(11)
    bins = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    spec = make_spec(bins)
    selector = np.zeros((5, 3), complex)
    selector[:, 0] = 1.0
    out = apply_beamformer(spec, BeamformerWeights(selector, reference=0))
    np.testing.assert_allclose(out.bins[0], bins[0], atol=1e-12)
    out = apply_beamformer(spec, BeamformerWeights(np.zeros((5, 3), complex), reference=0))
    assert np.all(out.bins == 0)


def test_apply_target_mask():
    rng = np.random.default_rng(12)
    bins = rng.standard_normal((1, 6, 4)) + 1j * rng.standard_normal((1, 6, 4))
    spec = make_spec(bins)
    post = random_posterior(rng, 2, 6, 4)
    out = apply_target_mask(spec, post, target_class=1, floor=0.2)
    expect = bins[0] * np.maximum(post.gamma[1], 0.2)
    np.testing.assert_allclose(out.bins[0], expect, atol=1e-12)


def test_apply_target_mask_rejects_multichannel_and_bad_floor():
    rng = np.random.default_rng(13)
    multi = make_spec(
        rng.standard_normal((2, 6, 4)) + 1j * rng.standard_normal((2, 6, 4))
    )
    post = random_posterior(rng, 2, 6, 4)
    with pytest.raises(ValueError, match="single-channel"):
        apply_target_mask(multi, post, 1)
    mono = make_spec(
        rng.standard_normal((1, 6, 4)) + 1j * rng.standard_normal((1, 6, 4))
    )
    with pytest.raises(ValueError, match="floor"):
        apply_target_mask(mono, post, 1, floor=-0.5)
