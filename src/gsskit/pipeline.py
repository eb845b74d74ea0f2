"""End-to-end enhancement of annotated sessions.

For every utterance the pipeline cuts a context-extended segment, runs
dereverberation, fits the guided spatial mixture model on the whole
segment, drops the context posteriors, estimates covariances on the core
frames only, beamforms with the SNR-selected reference channel plus the
analytic postfilter, optionally applies the target mask, and resynthesises
exactly the core duration.
"""

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .activity import (
    SAMPLE_RATE,
    SessionActivity,
    Utterance,
    activity_to_frames,
    build_activity,
    check_path_id,
    extend_context,
    format_time,
    parse_annotations,
    parse_chime5_annotations,
    refine_with_asr,
)
from .beamforming import (
    apply_beamformer,
    apply_target_mask,
    ban_postfilter,
    estimate_psds,
    mvdr_souden,
    select_reference,
)
from .io import load_json, read_wav, utterance_filename, write_wav
from .mixture import (
    ActivityMask,
    DirectionalObservations,
    EmConfig,
    Posterior,
    em_fit,
    normalize_observations,
    trim_context,
)
from .signal import Spectrogram, StftConfig, Waveform, istft, num_frames, stft
from .wpe import WpeConfig, wpe_dereverberate

logger = logging.getLogger(__name__)

__all__ = ["PipelineConfig", "EnhanceDetails", "stack_arrays", "enhance_utterance", "run_batch"]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the enhancement pipeline needs to know.

    Attributes:
        track: "multi" stacks several arrays into one super-array,
            "single" works on exactly one array.
        arrays: array ids to use, in stacking order; empty means all
            arrays of the manifest entry in sorted order.
        stft: analysis/synthesis parameters.
        wpe: dereverberation parameters.
        wpe_enabled: skip dereverberation entirely when False.
        em: mixture model schedule.
        masking: "on", "off", or "auto" (on for the single-array track,
            off for the multi-array track).
        mask_floor: lower bound applied to the target mask.
        context_seconds: annotation context pulled in around each
            utterance for dereverberation and mixture fitting.
        reference_mode: "linear" or "db" averaging for reference channel
            scoring.
        output_dir: where enhanced WAV files go.
        workers: concurrent utterances; results do not depend on it.
    """

    track: str = "multi"
    arrays: tuple = ()
    stft: StftConfig = field(default_factory=StftConfig)
    wpe: WpeConfig = field(default_factory=WpeConfig)
    wpe_enabled: bool = True
    em: EmConfig = field(default_factory=EmConfig)
    masking: str = "auto"
    mask_floor: float = 0.0
    context_seconds: float = 15.0
    reference_mode: str = "linear"
    output_dir: str = "enhanced"
    workers: int = 1

    def __post_init__(self):
        if self.track not in ("single", "multi"):
            raise ValueError(f"track must be 'single' or 'multi', got {self.track!r}")
        if self.masking not in ("auto", "on", "off"):
            raise ValueError(f"masking must be 'auto', 'on' or 'off', got {self.masking!r}")
        if self.reference_mode not in ("linear", "db"):
            raise ValueError(
                f"reference_mode must be 'linear' or 'db', got {self.reference_mode!r}"
            )
        if self.track == "single" and len(self.arrays) > 1:
            raise ValueError("the single-array track takes exactly one array")
        if self.context_seconds < 0:
            raise ValueError("context_seconds must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.mask_floor < 0:
            raise ValueError("mask_floor must be non-negative")
        object.__setattr__(self, "arrays", tuple(self.arrays))

    @property
    def masking_enabled(self) -> bool:
        if self.masking == "auto":
            return self.track == "single"
        return self.masking == "on"

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        for key, sub in (("stft", StftConfig), ("wpe", WpeConfig), ("em", EmConfig)):
            if key in kwargs and isinstance(kwargs[key], dict):
                kwargs[key] = sub(**kwargs[key])
        return cls(**kwargs)


@dataclass
class EnhanceDetails:
    """Per-utterance diagnostics emitted alongside the enhanced signal."""

    reference_channel: int
    target_class: int
    core_frames: range
    psd_frame_count: int
    wpe_applied: bool
    masking_applied: bool
    target_fallback_bins: int
    distortion_fallback_bins: int
    log_likelihoods: np.ndarray
    posterior_core: Posterior


def stack_arrays(waveforms) -> Waveform:
    """Concatenate array channels into one super-array signal.

    Arrays of slightly different length are trimmed to the shortest one
    (with a warning); different sample rates are an error.
    """
    waveforms = list(waveforms)
    if not waveforms:
        raise ValueError("no arrays to stack")
    rates = {w.sample_rate for w in waveforms}
    if len(rates) != 1:
        raise ValueError(f"arrays disagree on sample rate: {sorted(rates)}")
    lengths = [w.num_samples for w in waveforms]
    shortest = min(lengths)
    if max(lengths) != shortest:
        logger.warning(
            "arrays differ in length (%d..%d samples), trimming to %d",
            shortest, max(lengths), shortest,
        )
    stacked = np.concatenate([w.samples[:, :shortest] for w in waveforms], axis=0)
    return Waveform(stacked, waveforms[0].sample_rate)


def _require_annotation_rate(rate: int, source: str) -> None:
    """Annotation offsets count 16 kHz samples; other rates would be
    enhanced silently at the wrong times."""
    if rate != SAMPLE_RATE:
        raise ValueError(
            f"{source} has sample rate {rate} Hz, but annotations assume "
            f"{SAMPLE_RATE} Hz; resample it to {SAMPLE_RATE} Hz"
        )


def enhance_utterance(
    utterance: Utterance,
    audio: Waveform,
    activity: SessionActivity,
    config: PipelineConfig,
    return_details: bool = False,
):
    """Separate one utterance out of the session recording.

    Args:
        utterance: target utterance with sample-accurate bounds.
        audio: full session signal, all arrays already stacked.
        activity: annotation-derived speaker activity of the session.
        config: pipeline configuration.
        return_details: also return :class:`EnhanceDetails`.

    Returns:
        Mono Waveform of exactly the utterance duration (plus details when
        requested).
    """
    if audio.num_channels < 2:
        raise ValueError("enhancement needs a multi-channel recording")
    _require_annotation_rate(audio.sample_rate, "audio")
    extended = extend_context(utterance, config.context_seconds, audio.num_samples)
    segment = Waveform(
        audio.samples[:, extended.context_start:extended.context_end],
        audio.sample_rate,
    )

    spectrogram = stft(segment, config.stft)
    wpe_applied = False
    if config.wpe_enabled:
        if spectrogram.num_frames > config.wpe.delay + config.wpe.taps:
            spectrogram = wpe_dereverberate(spectrogram, config.wpe)
            wpe_applied = True
        else:
            logger.warning(
                "segment of %s at %s too short for dereverberation, skipping",
                utterance.speaker_id, format_time(utterance.start_samples),
            )

    observations = normalize_observations(spectrogram)
    mask = activity_to_frames(activity, extended, config.stft)
    target_class = activity.class_of(utterance.speaker_id)

    params, posterior, likelihoods = em_fit(
        observations, mask, config.em, return_likelihoods=True
    )
    core = extended.core_frame_range(config.stft)

    if config.em.refine_iterations > 0:
        core_obs = DirectionalObservations(
            units=observations.units[core.start:core.stop],
            valid=observations.valid[core.start:core.stop],
        )
        core_mask = ActivityMask(active=mask.active[:, core.start:core.stop])
        refine = replace(config.em, iterations=config.em.refine_iterations)
        params, posterior_core, more = em_fit(
            core_obs, core_mask, refine,
            initial=trim_context(posterior, core),
            return_likelihoods=True,
        )
        likelihoods = np.concatenate([likelihoods, more])
    else:
        posterior_core = trim_context(posterior, core)

    core_spec = spectrogram.take_frames(core)
    psds = estimate_psds(core_spec, posterior_core, target_class)
    reference = select_reference(psds, config.reference_mode)
    weights = ban_postfilter(mvdr_souden(psds, reference), psds)

    # Statistics come from core frames only, but synthesis needs guard
    # frames on both sides: without them the overlap-add window sum tapers
    # off inside the requested sample range and edge samples are produced
    # from a lone window tail.
    guard = -(-config.stft.fft_size // config.stft.shift)
    synth = range(
        max(0, core.start - guard),
        min(spectrogram.num_frames, core.stop + guard),
    )
    estimate = apply_beamformer(spectrogram.take_frames(synth), weights)

    masking_applied = False
    if config.masking_enabled:
        gamma = trim_context(posterior, synth).gamma.copy()
        gamma[:, core.start - synth.start:core.stop - synth.start] = posterior_core.gamma
        estimate = apply_target_mask(estimate, Posterior(gamma), target_class, config.mask_floor)
        masking_applied = True

    # Synthesis offset: local position of the core start within the frame
    # grid of the synthesised subset (frame `synth.start` sits at grid
    # position 0).
    offset = config.stft.pad + extended.core_start_local - synth.start * config.stft.shift
    out = istft(estimate, utterance.duration_samples, offset=max(0, offset))

    if not return_details:
        return out
    details = EnhanceDetails(
        reference_channel=reference,
        target_class=target_class,
        core_frames=core,
        psd_frame_count=psds.frame_count,
        wpe_applied=wpe_applied,
        masking_applied=masking_applied,
        target_fallback_bins=int(psds.target_fallback.sum()),
        distortion_fallback_bins=int(psds.distortion_fallback.sum()),
        log_likelihoods=likelihoods,
        posterior_core=posterior_core,
    )
    return out, details


def _load_session(entry: dict, config: PipelineConfig):
    """Audio, utterances and activity for one manifest entry."""
    session_id = entry["session_id"]
    check_path_id("session id", session_id)
    audio_map = entry["audio"]
    ids = list(config.arrays) if config.arrays else sorted(audio_map)
    missing = [i for i in ids if i not in audio_map]
    if missing:
        raise ValueError(f"session {session_id} has no audio for arrays {missing}")
    if config.track == "single":
        ids = ids[:1]
    waveforms = [read_wav(audio_map[i]) for i in ids]
    for i, waveform in zip(ids, waveforms):
        _require_annotation_rate(waveform.sample_rate, f"session {session_id}: {audio_map[i]}")
    audio = stack_arrays(waveforms)

    doc = load_json(entry["annotations"])
    fmt = entry.get("annotation_format", "native")
    if fmt == "native":
        utterances = parse_annotations(doc)
    elif fmt == "chime5":
        utterances = parse_chime5_annotations(doc, array_id=ids[0] if ids else None)
    else:
        raise ValueError(f"unknown annotation format {fmt!r}")
    utterances = [u for u in utterances if u.session_id == session_id]
    if not utterances:
        raise ValueError(f"no annotations for session {session_id}")

    activity = build_activity(utterances, entry.get("length_seconds", audio.duration))
    silences = entry.get("silences")
    if silences:
        if not isinstance(silences, dict):
            silences = load_json(silences)
        activity = refine_with_asr(activity, silences)
    return audio, utterances, activity


def run_batch(manifest: dict, config: PipelineConfig) -> dict:
    """Enhance every annotated utterance listed in a manifest.

    The manifest maps sessions to audio files (one multi-channel WAV per
    array) and an annotation document. Failures of individual utterances
    are recorded, not fatal. The report lists one entry per utterance in
    manifest order; output audio is identical for any worker count. A
    session that fails to load is recorded as one failed row carrying its
    ``session_id`` and ``error``, and the batch goes on with the next one.
    """
    report = {
        "track": config.track,
        "output_dir": config.output_dir,
        "utterances": [],
        "failures": 0,
    }
    for entry in manifest.get("sessions", []):
        session_id = entry.get("session_id")
        try:
            audio, utterances, activity = _load_session(entry, config)
        except Exception as err:  # noqa: BLE001 - report and continue
            logger.exception("loading session %s failed", session_id)
            report["utterances"].append(
                {"session_id": session_id, "status": "failed", "error": str(err)}
            )
            report["failures"] += 1
            continue

        def job(utterance):
            begin = time.perf_counter()
            out, details = enhance_utterance(
                utterance, audio, activity, config, return_details=True
            )
            return out, details, time.perf_counter() - begin

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(job, u) for u in utterances]

        for utterance, future in zip(utterances, futures):
            row = {
                "session_id": session_id,
                "speaker_id": utterance.speaker_id,
                "start_time": format_time(utterance.start_samples),
                "end_time": format_time(utterance.end_samples),
            }
            try:
                out, details, elapsed = future.result()
                path = Path(config.output_dir) / session_id / utterance_filename(utterance)
                write_wav(path, out)
                row.update(
                    status="ok",
                    path=str(path),
                    reference_channel=details.reference_channel,
                    elapsed_seconds=round(elapsed, 3),
                )
            except Exception as err:  # noqa: BLE001 - report and continue
                logger.exception(
                    "enhancement failed for %s at %s",
                    utterance.speaker_id, format_time(utterance.start_samples),
                )
                row.update(status="failed", error=str(err))
                report["failures"] += 1
            report["utterances"].append(row)
    return report
