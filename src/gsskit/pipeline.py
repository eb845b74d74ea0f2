"""End-to-end enhancement of annotated sessions.

For every utterance the pipeline cuts a context-extended segment, runs
dereverberation, fits the guided spatial mixture model on the whole
segment, drops the context posteriors, estimates covariances on the core
frames only, beamforms with the SNR-selected reference channel plus the
analytic postfilter, multiplies the beamformed signal by the raw target
posterior when masking is on, and resynthesises exactly the core duration.
"""

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .activity import (
    SessionActivity,
    Utterance,
    _check_silences,
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
from .io import dump_json, load_json, read_wav, utterance_filename, write_wav
from .mixture import EmConfig, em_fit, normalize_observations
from .signal import (SAMPLE_RATE, StftConfig, Waveform, _check_fields, _check_number,
                     _check_object, istft, stft)
from .wpe import WpeConfig, wpe_dereverberate

logger = logging.getLogger(__name__)

__all__ = ["PipelineConfig", "EnhanceDetails", "enhance_utterance", "run_batch"]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the enhancement pipeline needs to know.

    Attributes:
        arrays: array ids to stack into one super-array, in stacking
            order, each once; empty means all arrays of the manifest entry
            in sorted order. One id is the single-array track.
        stft: analysis/synthesis parameters, a pair istft can invert.
        wpe: dereverberation parameters.
        wpe_enabled: skip dereverberation entirely when False.
        em: mixture model schedule.
        masking: multiply the beamformed signal by the raw target
            posterior; the paper's single-array track does.
        context_seconds: annotation context pulled in around each
            utterance for dereverberation and mixture fitting.
        output_dir: where enhanced WAV files go.
        workers: concurrent utterances; results do not depend on it.
    """

    arrays: tuple = ()
    stft: StftConfig = field(default_factory=StftConfig)
    wpe: WpeConfig = field(default_factory=WpeConfig)
    wpe_enabled: bool = True
    em: EmConfig = field(default_factory=EmConfig)
    masking: bool = False
    context_seconds: float = field(default=15.0, metadata={"minimum": 0})
    output_dir: str = "enhanced"
    workers: int = field(default=1, metadata={"minimum": 1})

    def __post_init__(self):
        _check_fields(self, "config")
        for index, array in enumerate(self.arrays):
            if array in self.arrays[:index]:  # its channels would be stacked twice
                raise ValueError(f"config.arrays names array {array!r} more than once")
        self.stft.synthesis_weights()  # rejects an STFT that istft cannot invert
        object.__setattr__(self, "arrays", tuple(self.arrays))

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Build from a JSON document; ``stft``, ``wpe`` and ``em`` are
        nested objects, one for each field whose type is a config class.
        Unknown keys are rejected at every level, and each config class
        rejects a value of the wrong type or below its bound."""
        kwargs = dict(_check_object(raw, "config", known=cls.__dataclass_fields__))
        for item in fields(cls):
            sub, value = item.type, kwargs.get(item.name)
            if is_dataclass(sub) and isinstance(value, dict):
                kwargs[item.name] = sub(**_check_object(value, item.name,
                                                        known=sub.__dataclass_fields__))
        return cls(**kwargs)


@dataclass
class EnhanceDetails:
    """Per-utterance diagnostics emitted alongside the enhanced signal;
    ``posterior_core`` is the (K, core frames, F) class posterior, a view
    of the one EM returns for the core's synthesis frames."""

    reference_channel: int
    target_class: int
    core_frames: range
    target_fallback_bins: int
    distortion_fallback_bins: int
    log_likelihoods: np.ndarray
    posterior_core: np.ndarray = field(repr=False)


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
    segment = extend_context(utterance, config.context_seconds, audio.num_samples)
    start = utterance.start_samples - segment.start  # of the utterance, within the segment
    spectrogram = stft(
        Waveform(audio.samples[:, segment.start:segment.stop], audio.sample_rate), config.stft
    )
    if config.wpe_enabled:
        spectrogram, _ = wpe_dereverberate(spectrogram, config.wpe)

    observations = normalize_observations(spectrogram)
    core = config.stft.frame_range(start, start + utterance.duration_samples,
                                   spectrogram.num_frames)
    # Statistics come from core frames only, but synthesis needs guard
    # frames on both sides. Only these frames of the spectrogram are read
    # from here on, so a compact copy of them replaces it, EM returns
    # their posterior only, and the observations go once it is fitted.
    synth = config.stft.synthesis_frames(core, spectrogram.num_frames)
    synth_spec = replace(spectrogram, bins=spectrogram.bins[:, synth.start:synth.stop].copy())
    del spectrogram

    mask = activity_to_frames(activity, utterance, segment, config.stft)
    target_class = activity.class_of(utterance.speaker_id)
    _, gamma, likelihoods = em_fit(observations, mask, config.em, frames=synth)
    del observations
    lo, hi = core.start - synth.start, core.stop - synth.start
    core_spec = replace(synth_spec, bins=synth_spec.bins[:, lo:hi])
    psds = estimate_psds(core_spec, gamma[:, lo:hi], target_class)
    reference = select_reference(psds)
    weights = ban_postfilter(mvdr_souden(psds, reference), psds)
    estimate = apply_beamformer(synth_spec, weights)

    if config.masking:
        estimate = apply_target_mask(estimate, gamma, target_class)

    offset = config.stft.synthesis_offset(start, synth.start)
    out = istft(estimate, utterance.duration_samples, offset=offset)

    if not return_details:
        return out
    details = EnhanceDetails(
        reference_channel=reference,
        target_class=target_class,
        core_frames=core,
        target_fallback_bins=int(psds.target_fallback.sum()),
        distortion_fallback_bins=int(psds.distortion_fallback.sum()),
        log_likelihoods=likelihoods,
        posterior_core=gamma[:, lo:hi],
    )
    return out, details


def _check_entry(index: int, entry) -> None:
    """Reject a manifest entry that lacks a key the loader needs, holds a
    key it does not read or a value of the wrong type; ``open`` would take
    an integer path as a file descriptor, and close it."""
    where = f"manifest entry {index}"
    _check_object(entry, where, ("session_id", "audio", "annotations"),
                  known=("annotation_format", "silences", "length_seconds"))
    check_path_id(f"{where} 'session_id'", entry["session_id"])
    audio_map = entry["audio"]
    if (not isinstance(audio_map, dict) or not audio_map
            or not all(isinstance(path, str) for path in audio_map.values())):
        raise ValueError(f"{where} 'audio' must be a non-empty object of array id -> WAV path")
    if not isinstance(entry["annotations"], str):
        raise ValueError(f"{where} 'annotations' must be the path of a JSON file")
    if entry.get("annotation_format", "native") not in ("native", "chime5"):
        raise ValueError(f"{where} 'annotation_format' must be 'native' or 'chime5', "
                         f"got {entry['annotation_format']!r}")
    if not isinstance(entry.get("silences", {}), (dict, str, type(None))):
        raise ValueError(f"{where} 'silences' must be an object or the path of a JSON file")
    if "length_seconds" in entry:  # absent: the audio's duration
        _check_number(entry["length_seconds"], f"{where} 'length_seconds'", above=0)


def _load_session(entry: dict, config: PipelineConfig):
    """Audio, utterances and activity for one manifest entry; its
    annotations and silences are read and checked before any audio."""
    session_id = entry["session_id"]
    audio_map = entry["audio"]
    ids = list(config.arrays) if config.arrays else sorted(audio_map)
    missing = [i for i in ids if i not in audio_map]
    if missing:
        raise ValueError(f"session {session_id} has no audio for arrays {missing}")
    doc = load_json(entry["annotations"])
    if entry.get("annotation_format") == "chime5":
        utterances = parse_chime5_annotations(doc, array_id=ids[0])
    else:
        utterances = parse_annotations(doc)
    utterances = [u for u in utterances if u.session_id == session_id]
    if not utterances:
        raise ValueError(f"no annotations for session {session_id}")
    silences = entry.get("silences")
    if silences:
        silences = _check_silences(silences if isinstance(silences, dict) else load_json(silences))
    waveforms = [read_wav(audio_map[i]) for i in ids]
    # The arrays' channels stacked into one super-array; a lone array is
    # used as it is, not copied, and longer arrays are cut to the shortest.
    audio = waveforms[0]
    if len(waveforms) > 1:
        lengths = [w.num_samples for w in waveforms]
        shortest = min(lengths)
        if max(lengths) != shortest:
            logger.warning(
                "arrays differ in length (%d..%d samples), trimming to %d",
                shortest, max(lengths), shortest,
            )
        audio = Waveform(np.concatenate([w.samples[:, :shortest] for w in waveforms]), SAMPLE_RATE)

    activity = build_activity(utterances, entry.get("length_seconds", audio.duration))
    if silences:
        activity = refine_with_asr(activity, silences)
    return audio, utterances, activity


def _run_session(index: int, entry, config: PipelineConfig) -> list:
    """Report rows of manifest entry ``index``, in annotation order. Each
    pool job enhances one utterance and writes its WAV, for the first row
    of each file only; the session's audio is freed on return."""
    session_id = entry.get("session_id") if isinstance(entry, dict) else None
    try:
        _check_entry(index, entry)
        audio, utterances, activity = _load_session(entry, config)
    except Exception as err:  # noqa: BLE001 - report and continue
        logger.exception("loading session %s failed", session_id)
        return [{"session_id": session_id, "status": "failed", "error": str(err)}]
    first_row = {utterance_filename(u): u for u in reversed(utterances)}

    def job(utterance):
        path = Path(config.output_dir) / session_id / utterance_filename(utterance)
        row = {"session_id": session_id, "speaker_id": utterance.speaker_id,
               "start_time": format_time(utterance.start_samples),
               "end_time": format_time(utterance.end_samples)}
        if first_row[path.name] is not utterance:
            error = f"duplicate annotation row: an earlier row of the session writes {path}"
            logger.warning("%s", error)
            return dict(row, status="failed", error=error)
        try:
            begin = time.perf_counter()
            out, details = enhance_utterance(utterance, audio, activity, config, return_details=True)
            elapsed = time.perf_counter() - begin
            write_wav(path, out)
        except Exception as err:  # noqa: BLE001 - report and continue
            logger.exception("enhancement failed for %s at %s",
                             utterance.speaker_id, format_time(utterance.start_samples))
            return dict(row, status="failed", error=str(err))
        return dict(row, status="ok", path=str(path), reference_channel=details.reference_channel,
                    elapsed_seconds=round(elapsed, 3))

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(job, utterances))


def run_batch(manifest: dict, config: PipelineConfig) -> dict:
    """Enhance every annotated utterance listed in a manifest.

    The manifest maps sessions to audio files (one multi-channel WAV per
    array) and an annotation document. Failures of individual utterances
    are recorded, not fatal. The report lists one entry per utterance in
    manifest order; output audio is identical for any worker count. A
    session that fails to load, including an entry that is not an object
    or lacks ``session_id``, ``audio`` or ``annotations``, is recorded as
    one failed row carrying its ``session_id`` (None when there is none)
    and ``error``, and the batch goes on with the next one. A manifest
    that is not an object with a ``sessions`` list raises ValueError.

    Each utterance's WAV is written as soon as it is enhanced, so a batch
    holds one session's audio, the ``workers`` utterances in flight and
    the report rows, not finished outputs. The report so far replaces
    ``<output_dir>/report.json`` after each manifest entry, so a batch
    that is killed keeps the rows of its finished sessions. An annotation
    row repeating an earlier one's output file (same speaker, start and
    end) is not enhanced again; it is a failed row whose error names that
    file.
    """
    sessions = _check_object(manifest, "manifest", ("sessions",), known=())["sessions"]
    if not isinstance(sessions, list):
        raise ValueError(f"manifest 'sessions' must be a list, got {type(sessions).__name__}")
    report = {"output_dir": config.output_dir, "utterances": [], "failures": 0}
    for index, entry in enumerate(sessions):
        rows = _run_session(index, entry, config)
        report["utterances"] += rows
        report["failures"] += sum(row["status"] == "failed" for row in rows)
        dump_json(report, Path(config.output_dir) / "report.json")
    return report
