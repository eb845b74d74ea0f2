"""Separation quality measures against known references."""

import numpy as np

__all__ = ["si_sdr"]


def _as_mono(signal) -> np.ndarray:
    arr = np.asarray(signal, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"metric expects a 1-dim signal, got shape {arr.shape}")
    return arr


def si_sdr(estimate, reference) -> float:
    """Scale-invariant signal-to-distortion ratio in dB of two 1-D arrays.

    The reference is rescaled by the orthogonal projection of the estimate
    onto it, so constant gains do not affect the score. The result is
    clipped to [-100, 100] dB; numerically identical signals report the
    +100 cap instead of infinity.
    """
    est = _as_mono(estimate)
    ref = _as_mono(reference)
    if est.shape != ref.shape:
        raise ValueError(
            f"estimate and reference lengths differ: {est.shape[0]} vs {ref.shape[0]}"
        )
    ref_power = np.dot(ref, ref)
    if ref_power <= 0.0:
        raise ValueError("reference signal is silent")
    projection = (np.dot(ref, est) / ref_power) * ref
    distortion = est - projection
    target_power = np.dot(projection, projection)
    distortion_power = np.dot(distortion, distortion)
    if distortion_power <= 1e-20 * target_power:
        return 100.0
    if target_power == 0.0:
        return -100.0
    return float(np.clip(10.0 * np.log10(target_power / distortion_power), -100.0, 100.0))
