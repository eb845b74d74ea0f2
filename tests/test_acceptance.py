"""Acceptance checks for the advertised guarantees of the toolkit.

Every test here covers one headline property end to end and prints a
single ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``). The
thresholds are the contract; the suite fails loudly rather than relaxing
them.
"""

import functools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from gsskit import (
    SAMPLE_RATE,
    ActivityMask,
    BeamformerWeights,
    DirectionalObservations,
    EmConfig,
    PipelineConfig,
    PsdSet,
    Spectrogram,
    StftConfig,
    Utterance,
    Waveform,
    WpeConfig,
    activity_to_frames,
    apply_beamformer,
    ban_postfilter,
    build_activity,
    em_fit,
    enhance_utterance,
    estimate_psds,
    extend_context,
    istft,
    mvdr_souden,
    normalize_observations,
    oracle_masks,
    overlap_fraction,
    overlap_histogram,
    parse_annotations,
    permutation_consistency,
    refine_with_asr,
    run_batch,
    select_reference,
    si_sdr,
    simulate_scene,
    stft,
    trim_context,
    wpe_dereverberate,
)
from gsskit.io import dump_json, write_wav


def criterion(label):
    """Print one verdict line per acceptance property."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] {label}")
                raise
            print(f"\n[PASS] {label}")

        return run

    return wrap


# ---------------------------------------------------------------------------
# A1: analysis/synthesis round trip


@criterion("A1 STFT round trip: 100 random 1 s signals, inf-norm < 1e-6, < 5 s")
def test_stft_round_trip():
    rng = np.random.default_rng(2024)
    config = StftConfig()
    started = time.perf_counter()
    for i in range(100):
        channels = (1, 2, 4)[i % 3]
        x = rng.standard_normal((channels, SAMPLE_RATE))
        back = istft(stft(Waveform(x, SAMPLE_RATE), config), SAMPLE_RATE)
        assert np.abs(back.samples - x).max() < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"round trips took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# A2: dereverberation against a synthetic lagged echo


def echo_scene(amp, channels, frames, freqs, seed, lag=3):
    rng = np.random.default_rng(seed)
    dry = (
        rng.standard_normal((channels, frames, freqs))
        + 1j * rng.standard_normal((channels, frames, freqs))
    ) / np.sqrt(2)
    coeff = amp * np.exp(2j * np.pi * rng.random((channels, freqs)))
    obs = dry.copy()
    obs[:, lag:] += coeff[:, None, :] * dry[:, :-lag]
    return dry, obs


def lagged_projection_energy(residual, dry, lag, first):
    """Energy of the residual along the delayed dry signal, per (m, f)."""
    reg = dry[:, first - lag : dry.shape[1] - lag, :]
    num = np.abs(np.einsum("mtf,mtf->mf", np.conj(reg), residual[:, first:, :])) ** 2
    den = np.einsum("mtf,mtf->mf", np.conj(reg), reg).real
    return float(np.sum(num / den))


@criterion("A2 dereverberation: lag-3 echo down >= 20 dB, objective monotone, < 30 s")
def test_dereverberation_suppresses_lagged_echo():
    started = time.perf_counter()
    lag = 3
    dry, obs = echo_scene(0.2, 4, 20000, 64, seed=11, lag=lag)
    spec = Spectrogram(obs, StftConfig(fft_size=126, shift=32), SAMPLE_RATE)
    config = WpeConfig(taps=4, delay=2, iterations=3)
    out, diag = wpe_dereverberate(spec, config, return_diagnostics=True)

    first = config.delay + config.taps
    before = lagged_projection_energy(obs - dry, dry, lag, first)
    after = lagged_projection_energy(out.bins - dry, dry, lag, first)
    suppression = 10.0 * np.log10(before / after)
    assert suppression >= 20.0, f"echo suppressed by only {suppression:.2f} dB"

    objective = np.asarray(diag.objective)
    assert objective.shape == (3,)
    rises = np.diff(objective)
    assert np.all(rises <= 1e-8 * np.abs(objective[:-1])), objective

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"dereverberation took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# A3: guided mixture-model EM posterior contract


def random_observations(rng, frames, freqs, channels):
    data = rng.standard_normal((frames, freqs, channels)) + 1j * rng.standard_normal(
        (frames, freqs, channels)
    )
    units = data / np.linalg.norm(data, axis=2, keepdims=True)
    return DirectionalObservations(units, np.ones((frames, freqs), bool))


def random_activity(rng, classes, frames, density=0.6):
    active = rng.random((classes, frames)) < density
    active[0] = True
    for k in range(1, classes):
        if not active[k].any():
            active[k, rng.integers(frames)] = True
    return ActivityMask(active)


@criterion(
    "A3 guided EM: simplex within 1e-9, exact zero clamping, "
    "log-likelihood non-decreasing within 1e-6 over 20 iterations, < 60 s"
)
def test_guided_em_posterior_contract():
    frames, freqs, channels, classes = 400, 129, 4, 4
    started = time.perf_counter()
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        obs = random_observations(rng, frames, freqs, channels)
        mask = random_activity(rng, classes, frames)
        _, post, lls = em_fit(
            obs, mask, EmConfig(iterations=20), return_likelihoods=True
        )

        np.testing.assert_allclose(post.gamma.sum(axis=0), 1.0, atol=1e-9)
        inactive = ~mask.active
        assert np.all(post.gamma[inactive] == 0.0)
        assert lls.shape == (20,)
        rises = np.diff(lls)
        assert np.all(rises >= -1e-6 * np.abs(lls[:-1])), lls
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"EM runs took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# A4: class identities stay attached to the annotated speakers


@criterion(
    "A4 guided masks: permutation consistency >= 0.95, "
    "overlap-region mask error < 0.15"
)
def test_separation_is_permutation_consistent():
    spec = {
        "session_id": "ACC4",
        "duration": 6.0,
        "channels": 4,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [100, 2400], "activity": [[0.5, 3.0]]},
            {"speaker": "B", "kind": "noise", "band": [2600, 7800], "activity": [[2.0, 5.5]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
        "snr_db": 25,
    }
    scene = simulate_scene(spec, seed=7)
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = StftConfig(fft_size=512, shift=128)

    observations = normalize_observations(stft(scene.mixture, config))
    target = next(u for u in utterances if u.speaker_id == "A")
    extended = extend_context(target, 15.0, scene.mixture.num_samples)
    mask = activity_to_frames(activity, extended, config)
    _, posterior = em_fit(observations, mask, EmConfig(iterations=20))

    oracle = oracle_masks(scene, config)
    consistency = permutation_consistency(posterior, oracle)
    assert consistency >= 0.95, f"permutation consistency {consistency:.4f}"

    overlap = mask.active[activity.class_of("A")] & mask.active[activity.class_of("B")]
    assert overlap.any()
    error = np.abs(posterior.gamma[:, overlap] - oracle[:, overlap]).mean()
    assert error < 0.15, f"overlap mask agreement error {error:.4f}"


# ---------------------------------------------------------------------------
# A5: distortionless response of the covariance-ratio beamformer


@criterion("A5 MVDR: |w^H d - d_ref| < 1e-8 on 100 random PD distortion covariances")
def test_mvdr_is_distortionless():
    rng = np.random.default_rng(55)
    dim = 4
    for _ in range(100):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        phi_nn = a @ a.conj().T + 0.1 * np.eye(dim)
        d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        sigma2 = float(rng.uniform(0.1, 10.0))
        phi_xx = sigma2 * np.outer(d, d.conj())
        reference = int(rng.integers(dim))
        psds = PsdSet(
            phi_xx[None],
            phi_nn[None],
            frame_count=1,
            target_fallback=np.zeros(1, bool),
            distortion_fallback=np.zeros(1, bool),
        )
        w = mvdr_souden(psds, reference).weights[0]
        response = np.vdot(w, d)
        assert abs(response - d[reference]) < 1e-8


# ---------------------------------------------------------------------------
# A6: analytic normalisation gain in the isotropic case


@criterion("A6 BAN: isotropic distortion, unit weights, D=4 -> gain 0.5 +- 1e-10")
def test_ban_gain_isotropic_case():
    rng = np.random.default_rng(66)
    dim = 4
    for sigma in (0.1, 1.0, 10.0):
        for _ in range(5):
            w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            psds = PsdSet(
                np.eye(dim)[None].astype(complex),
                (sigma**2 * np.eye(dim))[None].astype(complex),
                frame_count=1,
                target_fallback=np.zeros(1, bool),
                distortion_fallback=np.zeros(1, bool),
            )
            before = BeamformerWeights(w[None], reference=0)
            after = ban_postfilter(before, psds)
            gain = np.linalg.norm(after.weights[0])
            assert abs(gain - 0.5) <= 1e-10, f"sigma {sigma}: gain {gain!r}"


# ---------------------------------------------------------------------------
# A7: reference channel scoring against exhaustive search


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T + 0.1 * np.eye(dim)


def mvdr_oracle(psds, reference, eps=1e-6):
    freqs, dim, _ = psds.target.shape
    weights = np.zeros((freqs, dim), complex)
    for f in range(freqs):
        phi_nn = psds.distortion[f]
        loaded = phi_nn + (eps * np.trace(phi_nn).real / dim) * np.eye(dim)
        numer = np.linalg.inv(loaded) @ psds.target[f]
        weights[f] = numer[:, reference] / np.trace(numer)
    return weights


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


@criterion("A7 reference selection: equals brute force on 50 random covariance sets")
def test_reference_selection_matches_brute_force():
    rng = np.random.default_rng(77)
    for i in range(50):
        freqs = int(rng.integers(2, 8))
        target = np.stack([random_psd(rng, 4) for _ in range(freqs)])
        distortion = np.stack([random_psd(rng, 4) for _ in range(freqs)])
        psds = PsdSet(
            target,
            distortion,
            frame_count=10,
            target_fallback=np.zeros(freqs, bool),
            distortion_fallback=np.zeros(freqs, bool),
        )
        mode = "db" if i % 2 else "linear"
        assert select_reference(psds, mode=mode) == reference_selection_oracle(psds, mode)


# ---------------------------------------------------------------------------
# A8: full pipeline separation quality


@criterion(
    "A8 end to end: 2-speaker improvement >= 10 dB, "
    "single-speaker clean scene >= 30 dB, < 2 min"
)
def test_end_to_end_separation_quality():
    started = time.perf_counter()

    spec = {
        "session_id": "ACC2",
        "duration": 6.0,
        "channels": 4,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 2500], "activity": [[0.5, 3.0]]},
            {"speaker": "B", "kind": "noise", "band": [800, 3800], "activity": [[2.0, 5.5]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
        "snr_db": 25,
    }
    scene = simulate_scene(spec, seed=7)
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = PipelineConfig(
        wpe=WpeConfig(taps=4, delay=2, iterations=2), context_seconds=15.0
    )
    for index, utterance in enumerate(utterances):
        out, details = enhance_utterance(
            utterance, scene.mixture, activity, config, return_details=True
        )
        span = slice(utterance.start_samples, utterance.end_samples)
        reference = scene.images[index, details.reference_channel, span]
        baseline = scene.mixture.samples[details.reference_channel, span]
        improvement = si_sdr(out.samples[0], reference) - si_sdr(baseline, reference)
        assert improvement >= 10.0, (
            f"speaker {utterance.speaker_id}: improvement {improvement:.2f} dB"
        )

    clean_spec = {
        "session_id": "ACC1",
        "duration": 5.0,
        "channels": 4,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [200, 3000], "activity": [[0.5, 4.5]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
    }
    clean = simulate_scene(clean_spec, seed=3)
    # Annotation slack past the true activity keeps the final analysis
    # windows inside the annotated span.
    slack = Utterance(
        "ACC1", "A", int(0.44 * SAMPLE_RATE), int(4.56 * SAMPLE_RATE), ()
    )
    clean_activity = build_activity([slack], clean.mixture.duration)
    clean_config = PipelineConfig(wpe_enabled=False, context_seconds=15.0)
    out, details = enhance_utterance(
        slack, clean.mixture, clean_activity, clean_config, return_details=True
    )
    reference = clean.images[
        0, details.reference_channel, slack.start_samples : slack.end_samples
    ]
    value = si_sdr(out.samples[0], reference)
    assert value >= 30.0, f"single-speaker scene reached only {value:.2f} dB"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"end-to-end runs took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# A9: context frames shape the mixture model but never the covariance span


@criterion(
    "A9 context rule: loud context-only distractor perturbs masks, "
    "PSD frame set unchanged (exact count)"
)
def test_context_shapes_masks_not_psd_frames():
    spec = {
        "session_id": "ACC9",
        "duration": 6.0,
        "channels": 4,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [200, 3000], "activity": [[1.0, 2.5]]},
            {"speaker": "D", "kind": "noise", "band": [400, 3500], "activity": [[3.5, 5.0]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
        "snr_db": 25,
    }
    scene = simulate_scene(spec, seed=5)
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    target = next(u for u in utterances if u.speaker_id == "A")
    rate = scene.mixture.sample_rate

    # Same annotations in both runs; only the context audio changes.
    quiet = Waveform(scene.mixture.samples - scene.images[1], rate)
    loud = Waveform(quiet.samples + 10.0 * scene.images[1], rate)

    config = StftConfig(fft_size=512, shift=128)
    gammas = {}
    for name, audio in (("quiet", quiet), ("loud", loud)):
        observations = normalize_observations(stft(audio, config))
        extended = extend_context(target, 15.0, audio.num_samples)
        mask = activity_to_frames(activity, extended, config)
        _, posterior = em_fit(observations, mask, EmConfig(iterations=10))
        gammas[name] = posterior.gamma
    core = extended.core_frame_range(config)

    distractor = slice(int(3.5 * rate) // config.shift, int(5.0 * rate) // config.shift)
    difference = np.abs(gammas["quiet"] - gammas["loud"])
    assert difference[:, distractor].mean() > 0.1
    assert difference.max() > 0.5

    pipeline_config = PipelineConfig(
        stft=config,
        em=EmConfig(iterations=10),
        context_seconds=15.0,
        wpe_enabled=False,
    )
    details_by_run = {}
    for name, audio in (("quiet", quiet), ("loud", loud)):
        _, details = enhance_utterance(
            target, audio, activity, pipeline_config, return_details=True
        )
        details_by_run[name] = details
        assert details.psd_frame_count == len(details.core_frames)
        assert details.core_frames == core
    assert (
        details_by_run["quiet"].psd_frame_count
        == details_by_run["loud"].psd_frame_count
    )


# ---------------------------------------------------------------------------
# A10: overlap analytics against a dense per-sample oracle


def rasterize(intervals, length):
    dense = np.zeros(length, bool)
    for a, b in intervals:
        dense[max(0, a) : min(length, b)] = True
    return dense


def other_speaker_cover(utterance, activity):
    dense = np.zeros(activity.session_samples, bool)
    for speaker, intervals in activity.intervals.items():
        if speaker != utterance.speaker_id:
            dense |= rasterize(intervals, activity.session_samples)
    return int(dense[utterance.start_samples : utterance.end_samples].sum())


@criterion(
    "A10 overlap analytics: fractions and histogram equal the dense oracle, "
    "silence refinement output is a subset"
)
def test_overlap_analytics_match_dense_oracle():
    utterances = [
        Utterance("S1", "A", 1_000, 17_000, ("hello", "there")),
        Utterance("S1", "A", 30_000, 41_000, ("again",)),
        Utterance("S1", "B", 9_000, 25_000, ("one", "two", "three")),
        Utterance("S1", "B", 38_000, 47_500, ("four",)),
        Utterance("S1", "C", 16_500, 18_500, ()),
        Utterance("S1", "C", 47_500, 48_000, ("tail", "words", "only")),
    ]
    activity = build_activity(utterances, session_seconds=3.1)

    counts = np.zeros(5, int)
    for utterance in utterances:
        covered = other_speaker_cover(utterance, activity)
        expected = 100.0 * covered / utterance.duration_samples
        assert overlap_fraction(utterance, activity) == expected
        counts[min(covered * 5 // utterance.duration_samples, 4)] += len(utterance.words)
    histogram = overlap_histogram(utterances, activity)
    np.testing.assert_array_equal(histogram.word_counts, counts)
    np.testing.assert_allclose(histogram.frequencies, counts / counts.sum())

    silences = {"A": [(0.2, 0.6), (2.0, 2.4)], "B": [(0.0, 1.1)]}
    refined = refine_with_asr(activity, silences)
    for speaker in activity.speakers:
        before = rasterize(activity.intervals[speaker], activity.session_samples)
        after = rasterize(refined.intervals[speaker], activity.session_samples)
        assert not np.any(after & ~before), f"speaker {speaker} gained activity"
    assert rasterize(refined.intervals["A"], activity.session_samples).sum() < rasterize(
        activity.intervals["A"], activity.session_samples
    ).sum()


# ---------------------------------------------------------------------------
# A11: batch output does not depend on the worker count


@criterion("A11 determinism: batch WAV output bit-identical for workers 1 and 4")
def test_batch_is_deterministic_across_workers(tmp_path):
    spec = {
        "session_id": "ACC11",
        "duration": 3.0,
        "channels": 4,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 2200], "activity": [[0.3, 1.6]]},
            {"speaker": "B", "kind": "noise", "band": [900, 3600], "activity": [[1.2, 2.7]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 6},
        "snr_db": 25,
    }
    scene = simulate_scene(spec, seed=11)
    audio_path = tmp_path / "U01.wav"
    write_wav(audio_path, scene.mixture)
    annotation_path = tmp_path / "annotations.json"
    dump_json(scene.annotations, annotation_path)
    manifest = {
        "sessions": [
            {
                "session_id": "ACC11",
                "annotations": str(annotation_path),
                "audio": {"U01": str(audio_path)},
                "length_seconds": scene.mixture.duration,
            }
        ]
    }
    base = PipelineConfig(
        stft=StftConfig(fft_size=512, shift=128),
        wpe=WpeConfig(taps=4, delay=2, iterations=2),
        em=EmConfig(iterations=8),
        context_seconds=15.0,
    )

    outputs = {}
    for workers in (1, 4):
        out_dir = tmp_path / f"w{workers}"
        config = replace(base, output_dir=str(out_dir), workers=workers)
        report = run_batch(manifest, config)
        assert report["failures"] == 0
        blobs = {}
        for row in report["utterances"]:
            name = row["path"].rsplit("/", 1)[-1]
            blobs[name] = open(row["path"], "rb").read()
        outputs[workers] = blobs

    assert outputs[1].keys() == outputs[4].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[4][name], f"{name} differs across workers"
