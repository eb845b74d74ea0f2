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
from functools import cached_property

import numpy as np

from .signal import Spectrogram

logger = logging.getLogger(__name__)

EPS_LOAD = 1e-6  # distortion-covariance diagonal loading, relative to the mean diagonal

__all__ = [
    "PsdSet",
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
        target_fallback: (F,) bins where the target mask weight vanished
            and the estimate fell back to an unweighted average.
        distortion_fallback: (F,) same for the distortion mask.
    """

    target: np.ndarray
    distortion: np.ndarray
    target_fallback: np.ndarray
    distortion_fallback: np.ndarray

    @property
    def num_channels(self) -> int:
        return self.target.shape[-1]

    @cached_property
    def _beamformers(self) -> np.ndarray:
        """(D, F, D) beamformers of every candidate reference channel from
        one solve, made on first use and shared by reference selection and
        the MVDR, so degenerate bins are logged once. Entry r holds the
        (F, D) weights of reference r, column r of the trace-normalised
        ratio Phi_nn^-1 Phi_xx."""
        ratio = np.linalg.solve(_loaded(self.distortion), self.target)
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
    # sum_t m y y^H as obs^T @ conj(m * obs): the one weighted copy is
    # conjugated in place instead of conjugating the observations too.
    weighted = effective[:, :, None] * obs
    np.conjugate(weighted, out=weighted)
    psd = obs.transpose(0, 2, 1) @ weighted
    psd = psd / safe[:, None, None]
    psd = 0.5 * (psd + np.swapaxes(psd, -1, -2).conj())
    return psd, fallback


def _check_posterior(spectrogram: Spectrogram, gamma: np.ndarray, target_class: int) -> None:
    """Reject a ``target_class`` outside the classes of ``gamma`` (K, T, F),
    or a posterior whose frames and bins differ from the spectrogram's."""
    classes, frames, bins = gamma.shape
    if not 0 <= target_class < classes:
        raise ValueError(f"target_class {target_class} out of range for {classes} classes")
    if (frames, bins) != spectrogram.bins.shape[1:]:
        raise ValueError(
            f"posterior frames/bins {(frames, bins)} do not match "
            f"spectrogram {spectrogram.bins.shape[1:]}"
        )


def estimate_psds(spectrogram: Spectrogram, gamma: np.ndarray, target_class: int) -> PsdSet:
    """Posterior-weighted target and distortion covariances.

    The target mask is the posterior ``gamma`` (K, T, F) of ``target_class``;
    the distortion mask pools every other class including noise. Frame
    counts of the spectrogram and posterior must agree (both already
    trimmed to the core span).
    """
    _check_posterior(spectrogram, gamma, target_class)
    obs = spectrogram.bins.transpose(2, 1, 0)
    target_mask = gamma[target_class].T
    distortion_mask = gamma.sum(axis=0).T - target_mask

    target, target_fb = _masked_covariance(obs, target_mask)
    distortion, distortion_fb = _masked_covariance(obs, distortion_mask)
    return PsdSet(target, distortion, target_fallback=target_fb, distortion_fallback=distortion_fb)


def _loaded(psd: np.ndarray) -> np.ndarray:
    """Relative diagonal loading; zero-trace matrices get a tiny absolute
    floor so the solve stays defined."""
    dim = psd.shape[-1]
    trace = np.einsum("...dd->...", psd).real
    scale = EPS_LOAD * trace / dim + np.where(trace <= 0.0, 1e-300, 0.0)
    return psd + scale[..., None, None] * np.eye(dim)


def mvdr_souden(psds: PsdSet, reference: int) -> np.ndarray:
    """Distortionless beamformer weights (F, D) from the covariance ratio.

    Computes ``w = (Phi_nn^-1 Phi_xx / trace(Phi_nn^-1 Phi_xx)) e_ref``
    per bin, with relative diagonal loading on the distortion covariance.
    Bins whose ratio trace is not meaningfully positive degenerate to the
    reference-channel selector (identity passthrough).
    """
    dim = psds.num_channels
    if not 0 <= reference < dim:
        raise ValueError(f"reference channel {reference} out of range for {dim} channels")
    return psds._beamformers[reference]


def _reference_scores(psds: PsdSet) -> np.ndarray:
    """(D,) expected output SNR of each candidate reference channel."""
    w = psds._beamformers
    num = np.einsum("cfd,fde,cfe->cf", w.conj(), psds.target, w).real
    den = np.einsum("cfd,fde,cfe->cf", w.conj(), psds.distortion, w).real
    return np.mean(np.maximum(num, 0.0) / np.maximum(den, 1e-300), axis=1)


def select_reference(psds: PsdSet) -> int:
    """Choose the reference channel with the best expected output SNR.

    Every candidate's beamformer is a column of one covariance ratio; each
    is scored by the ratio of beamformed target to distortion power,
    averaged over frequency in the linear domain. Ties resolve to the
    lowest channel index.
    """
    return int(np.argmax(_reference_scores(psds)))


def ban_postfilter(weights: np.ndarray, psds: PsdSet) -> np.ndarray:
    """Blind analytic normalisation of the beamformer gain.

    Per bin the (F, D) weights w are scaled by
    ``sqrt(w^H Phi_nn Phi_nn w / D) / (w^H Phi_nn w)`` so the filtered
    distortion keeps unit gain.
    """
    dim = psds.num_channels
    filtered = np.einsum("fde,fe->fd", psds.distortion, weights)
    twice = np.einsum("fde,fe->fd", psds.distortion, filtered)
    num = np.sqrt(np.einsum("fd,fd->f", weights.conj(), twice).real / dim)
    den = np.einsum("fd,fd->f", weights.conj(), filtered).real
    gain = num / np.maximum(den, 1e-12)
    return weights * gain[:, None]


def apply_beamformer(spectrogram: Spectrogram, weights: np.ndarray) -> Spectrogram:
    """Collapse the channel axis with (F, D) weights: out[t, f] = w[f]^H y[t, f]."""
    if spectrogram.num_channels != weights.shape[-1]:
        raise ValueError(
            f"beamformer has {weights.shape[-1]} channels, "
            f"spectrogram has {spectrogram.num_channels}"
        )
    out = np.einsum("fd,dtf->tf", weights.conj(), spectrogram.bins)
    return Spectrogram(out[None], spectrogram.config)


def apply_target_mask(spectrogram: Spectrogram, gamma: np.ndarray, target_class: int) -> Spectrogram:
    """Multiply a single-channel spectrogram with the raw target posterior
    of ``gamma`` (K, T, F)."""
    if spectrogram.num_channels != 1:
        raise ValueError("target masking expects a single-channel spectrogram")
    _check_posterior(spectrogram, gamma, target_class)
    masked = spectrogram.bins * gamma[target_class][None]
    return Spectrogram(masked, spectrogram.config)
