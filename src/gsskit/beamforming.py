"""Mask-weighted covariance estimation and MVDR beamforming.

The beamformer follows the covariance-ratio formulation: the weight
vector is read off a column of the ratio of distortion-inverse and target
covariance matrices, normalised by its trace, so no explicit steering
vector is needed. Reference channel selection maximises the expected
output SNR, and an optional blind analytic normalisation equalises the
gain of the filtered distortion.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .mixture import Posterior
from .signal import Spectrogram

logger = logging.getLogger(__name__)

__all__ = [
    "PsdSet",
    "BeamformerWeights",
    "estimate_psds",
    "mvdr_souden",
    "select_reference",
    "ban_postfilter",
    "apply_beamformer",
    "apply_target_mask",
]


@dataclass(frozen=True)
class PsdSet:
    """Per-bin target and distortion covariance estimates.

    Attributes:
        target: (F, D, D) Hermitian covariance of the wanted speaker.
        distortion: (F, D, D) Hermitian covariance of everything else.
        frame_count: number of frames the estimates are based on.
        target_fallback: (F,) bins where the target mask weight vanished
            and the estimate fell back to an unweighted average.
        distortion_fallback: (F,) same for the distortion mask.
    """

    target: np.ndarray
    distortion: np.ndarray
    frame_count: int
    target_fallback: np.ndarray
    distortion_fallback: np.ndarray

    @property
    def num_channels(self) -> int:
        return self.target.shape[-1]


@dataclass(frozen=True)
class BeamformerWeights:
    """Beamforming vectors, shape (F, D), and the reference channel they
    are anchored to."""

    weights: np.ndarray
    reference: int


def _masked_covariance(obs: np.ndarray, mask: np.ndarray):
    """Mask-weighted outer-product average.

    Args:
        obs: (F, T, D) observation vectors.
        mask: (F, T) non-negative weights.

    Returns:
        ((F, D, D) covariance, (F,) fallback flags). Bins with zero mask
        weight fall back to the unweighted average over frames.
    """
    weight = mask.sum(axis=-1)
    fallback = weight <= 0.0
    if np.any(fallback):
        logger.warning(
            "mask weight vanished in %d/%d bins, using unweighted covariance there",
            int(fallback.sum()), len(fallback),
        )
    safe = np.where(fallback, obs.shape[1], weight)
    effective = np.where(fallback[:, None], 1.0, mask)
    psd = np.einsum("ft,ftd,fte->fde", effective, obs, obs.conj(), optimize=True)
    psd = psd / safe[:, None, None]
    psd = 0.5 * (psd + np.swapaxes(psd, -1, -2).conj())
    return psd, fallback


def estimate_psds(
    spectrogram: Spectrogram, posterior: Posterior, target_class: int
) -> PsdSet:
    """Posterior-weighted target and distortion covariances.

    The target mask is the posterior of ``target_class``; the distortion
    mask pools every other class including noise. Frame counts of the
    spectrogram and posterior must agree (both already trimmed to the
    core span).
    """
    classes, frames, bins = posterior.gamma.shape
    if not 0 <= target_class < classes:
        raise ValueError(f"target_class {target_class} out of range for {classes} classes")
    if spectrogram.num_frames != frames or spectrogram.num_bins != bins:
        raise ValueError(
            f"spectrogram frames/bins {(spectrogram.num_frames, spectrogram.num_bins)} "
            f"do not match posterior {(frames, bins)}"
        )
    obs = spectrogram.bins.transpose(2, 1, 0)
    target_mask = posterior.gamma[target_class].T
    distortion_mask = posterior.gamma.sum(axis=0).T - target_mask

    target, target_fb = _masked_covariance(obs, target_mask)
    distortion, distortion_fb = _masked_covariance(obs, distortion_mask)
    return PsdSet(
        target=target,
        distortion=distortion,
        frame_count=frames,
        target_fallback=target_fb,
        distortion_fallback=distortion_fb,
    )


def _loaded(psd: np.ndarray, eps: float) -> np.ndarray:
    """Relative diagonal loading; zero-trace matrices get a tiny absolute
    floor so the solve stays defined."""
    dim = psd.shape[-1]
    trace = np.einsum("...dd->...", psd).real
    scale = eps * trace / dim + np.where(trace <= 0.0, 1e-300, 0.0)
    return psd + scale[..., None, None] * np.eye(dim)


def _souden_beamformers(psds: PsdSet, eps: float) -> np.ndarray:
    """Beamformers of every candidate reference channel from one solve.

    Returns (D, F, D); entry r holds the (F, D) weights of reference r,
    column r of the trace-normalised ratio Phi_nn^-1 Phi_xx.
    """
    ratio = np.linalg.solve(_loaded(psds.distortion, eps), psds.target)
    trace = np.einsum("fdd->f", ratio).real
    degenerate = trace <= 1e-12
    if np.any(degenerate):
        logger.warning(
            "degenerate target covariance in %d/%d bins, passing reference "
            "channel through", int(degenerate.sum()), len(degenerate),
        )
    ratio = ratio / np.where(degenerate, 1.0, trace)[:, None, None]
    weights = np.where(degenerate[:, None, None], np.eye(ratio.shape[-1]), ratio)
    return np.ascontiguousarray(weights.transpose(2, 0, 1))


def mvdr_souden(
    psds: PsdSet, reference: int, eps: float = 1e-6
) -> BeamformerWeights:
    """Distortionless beamformer from the covariance ratio.

    Computes ``w = (Phi_nn^-1 Phi_xx / trace(Phi_nn^-1 Phi_xx)) e_ref``
    per bin, with relative diagonal loading on the distortion covariance.
    Bins whose ratio trace is not meaningfully positive degenerate to the
    reference-channel selector (identity passthrough).
    """
    dim = psds.num_channels
    if not 0 <= reference < dim:
        raise ValueError(f"reference channel {reference} out of range for {dim} channels")
    return BeamformerWeights(weights=_souden_beamformers(psds, eps)[reference], reference=reference)


def select_reference(psds: PsdSet, mode: str = "linear", eps: float = 1e-6) -> int:
    """Choose the reference channel with the best expected output SNR.

    Every candidate's beamformer is a column of one covariance ratio; each
    is scored by the ratio of beamformed target to distortion power,
    averaged over frequency (in the linear domain by default, in dB with
    ``mode="db"``). Ties resolve to the lowest channel index.
    """
    if mode not in ("linear", "db"):
        raise ValueError(f"unknown reference selection mode {mode!r}")
    dim = psds.num_channels
    beamformers = _souden_beamformers(psds, eps)
    scores = np.empty(dim)
    for channel in range(dim):
        w = beamformers[channel]
        num = np.einsum("fd,fde,fe->f", w.conj(), psds.target, w).real
        den = np.einsum("fd,fde,fe->f", w.conj(), psds.distortion, w).real
        snr = np.maximum(num, 0.0) / np.maximum(den, 1e-300)
        if mode == "db":
            scores[channel] = np.mean(10.0 * np.log10(np.maximum(snr, 1e-12)))
        else:
            scores[channel] = np.mean(snr)
    return int(np.argmax(scores))


def ban_postfilter(weights: BeamformerWeights, psds: PsdSet) -> BeamformerWeights:
    """Blind analytic normalisation of the beamformer gain.

    Per bin the weights are scaled by
    ``sqrt(w^H Phi_nn Phi_nn w / D) / (w^H Phi_nn w)`` so the filtered
    distortion keeps unit gain.
    """
    dim = psds.num_channels
    w = weights.weights
    filtered = np.einsum("fde,fe->fd", psds.distortion, w)
    num = np.sqrt(np.einsum("fd,fd->f", w.conj(), np.einsum("fde,fe->fd", psds.distortion, filtered)).real / dim)
    den = np.einsum("fd,fd->f", w.conj(), filtered).real
    gain = num / np.maximum(den, 1e-12)
    return BeamformerWeights(weights=w * gain[:, None], reference=weights.reference)


def apply_beamformer(spectrogram: Spectrogram, weights: BeamformerWeights) -> Spectrogram:
    """Collapse the channel axis: out[t, f] = w[f]^H y[t, f]."""
    if spectrogram.num_channels != weights.weights.shape[-1]:
        raise ValueError(
            f"beamformer has {weights.weights.shape[-1]} channels, "
            f"spectrogram has {spectrogram.num_channels}"
        )
    out = np.einsum("fd,dtf->tf", weights.weights.conj(), spectrogram.bins)
    return Spectrogram(out[None], spectrogram.config, spectrogram.sample_rate)


def apply_target_mask(
    spectrogram: Spectrogram, posterior: Posterior, target_class: int, floor: float = 0.0
) -> Spectrogram:
    """Multiply a single-channel spectrogram with the target posterior.

    The mask is floored at ``floor`` before multiplication; a floor of 0
    keeps the raw posterior.
    """
    if spectrogram.num_channels != 1:
        raise ValueError("target masking expects a single-channel spectrogram")
    classes, frames, bins = posterior.gamma.shape
    if not 0 <= target_class < classes:
        raise ValueError(f"target_class {target_class} out of range for {classes} classes")
    if (frames, bins) != spectrogram.bins.shape[1:]:
        raise ValueError(
            f"posterior frames/bins {(frames, bins)} do not match "
            f"spectrogram {spectrogram.bins.shape[1:]}"
        )
    if floor < 0.0:
        raise ValueError(f"mask floor must be non-negative, got {floor}")
    mask = np.maximum(posterior.gamma[target_class], floor)
    return Spectrogram(
        spectrogram.bins * mask[None], spectrogram.config, spectrogram.sample_rate
    )
