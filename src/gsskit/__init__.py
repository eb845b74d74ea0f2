"""Guided source separation for multi-channel recordings of overlapped speech.

The package covers the full path from annotated long-form sessions to
per-utterance enhanced audio: STFT analysis, multi-channel linear
prediction dereverberation, an annotation-guided spatial mixture model,
mask-based MVDR beamforming with reference selection and an analytic
postfilter, overlap analytics, and a synthetic-scene harness for
end-to-end evaluation.
"""

from .activity import (
    SessionActivity,
    Utterance,
    activity_to_frames,
    build_activity,
    extend_context,
    overlap_histogram,
    parse_annotations,
    parse_chime5_annotations,
    refine_with_asr,
)
from .beamforming import (
    PsdSet,
    apply_beamformer,
    apply_target_mask,
    ban_postfilter,
    estimate_psds,
    mvdr_souden,
    select_reference,
)
from .metrics import si_sdr
from .mixture import (
    ActivityMask,
    DirectionalObservations,
    EmConfig,
    MixtureParams,
    em_fit,
    normalize_observations,
)
from .pipeline import (
    EnhanceDetails,
    PipelineConfig,
    enhance_utterance,
    run_batch,
)
from .signal import SAMPLE_RATE, Spectrogram, StftConfig, Waveform, istft, stft
from .simulate import SyntheticScene, simulate_scene
from .wpe import WpeConfig, wpe_dereverberate

__version__ = "0.1.0"
