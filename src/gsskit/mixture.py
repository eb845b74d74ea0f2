"""Spatial mixture model with annotation-guided class posteriors.

Per frequency bin, the channel-normalised observation directions are
modelled by a mixture of complex angular central Gaussian components, one
per speaker plus one noise class (class index 0). Speaker activity from
the annotations clamps posteriors of inactive speakers to exactly zero in
every EM iteration, which resolves the class/speaker permutation per bin
by construction.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .signal import Spectrogram

logger = logging.getLogger(__name__)

__all__ = [
    "DirectionalObservations",
    "ActivityMask",
    "MixtureParams",
    "Posterior",
    "EmConfig",
    "normalize_observations",
    "init_posteriors",
    "em_fit",
    "trim_context",
]


@dataclass(frozen=True)
class DirectionalObservations:
    """Unit-norm observation directions, shape (T, F, D).

    ``valid`` marks frames whose original vector had non-zero norm; the
    others carry a uniform placeholder direction and are excluded from the
    model statistics.
    """

    units: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        units = np.asarray(self.units, dtype=np.complex128)
        valid = np.asarray(self.valid, dtype=bool)
        if units.ndim != 3:
            raise ValueError(f"units must be (T, F, D), got shape {units.shape}")
        if units.shape[2] < 2:
            raise ValueError(f"need at least 2 channels, got {units.shape[2]}")
        if valid.shape != units.shape[:2]:
            raise ValueError(
                f"valid mask shape {valid.shape} does not match units {units.shape[:2]}"
            )
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "valid", valid)


@dataclass(frozen=True)
class ActivityMask:
    """Class-by-frame activity, shape (K, T), class 0 is the noise class.

    The noise class is always active, so every frame has at least one
    admissible mixture component.
    """

    active: np.ndarray

    def __post_init__(self):
        active = np.asarray(self.active, dtype=bool)
        if active.ndim != 2 or active.shape[0] < 1:
            raise ValueError(f"activity must be (K, T) with K >= 1, got shape {active.shape}")
        if not active[0].all():
            raise ValueError("noise class (row 0) must be active in every frame")
        object.__setattr__(self, "active", active)

    @property
    def num_classes(self) -> int:
        return self.active.shape[0]

    @property
    def num_frames(self) -> int:
        return self.active.shape[1]


@dataclass(frozen=True)
class MixtureParams:
    """Fitted mixture: weights (F, K) on the simplex, shapes (F, K, D, D)
    Hermitian with trace equal to the channel count."""

    weights: np.ndarray
    shapes: np.ndarray


@dataclass(frozen=True)
class Posterior:
    """Class posteriors gamma, shape (K, T, F)."""

    gamma: np.ndarray


@dataclass(frozen=True)
class EmConfig:
    """EM schedule and numerical guards.

    Attributes:
        iterations: EM iterations on the full (context-extended) segment.
        eps_load: relative diagonal loading applied to shape matrices
            before inversion.
        weight_floor: lower bound on mixture weights, renormalised after
            flooring.
        refine_iterations: extra iterations restricted to the core frames
            after context trimming; 0 disables the refinement stage.
    """

    iterations: int = 20
    eps_load: float = 1e-6
    weight_floor: float = 1e-4
    refine_iterations: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.eps_load <= 0:
            raise ValueError("eps_load must be positive")
        if not 0 < self.weight_floor < 1:
            raise ValueError(f"weight_floor must be in (0, 1), got {self.weight_floor}")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be non-negative")


def normalize_observations(spectrogram: Spectrogram) -> DirectionalObservations:
    """Project STFT vectors onto the unit sphere, dropping level information.

    Zero vectors cannot be normalised; they receive the uniform real
    direction 1/sqrt(D) and are flagged invalid.
    """
    if spectrogram.num_channels < 2:
        raise ValueError(
            f"need at least 2 channels to model spatial structure, "
            f"got {spectrogram.num_channels}"
        )
    obs = spectrogram.bins.transpose(1, 2, 0)
    norm = np.linalg.norm(obs, axis=-1)
    valid = norm > 0.0
    units = obs / np.where(valid, norm, 1.0)[..., None]
    units[~valid] = 1.0 / np.sqrt(obs.shape[-1])
    return DirectionalObservations(units=units, valid=valid)


def init_posteriors(activity: ActivityMask, num_bins: int) -> Posterior:
    """Uniform posterior over the admissible classes of every frame."""
    active = activity.active
    gamma = active / active.sum(axis=0, keepdims=True)
    return Posterior(gamma=np.repeat(gamma[:, :, None], num_bins, axis=2).astype(np.float64))


def _prepare_shapes(shapes: np.ndarray, eps_load: float):
    """Loaded inverse and log-determinant of a stack of shape matrices.

    Returns (inverse, logdet) for shapes + eps_load * (trace / D) * I, the
    form used consistently for every density evaluation. The loaded matrix
    is Hermitian positive definite, so its log-determinant is twice the
    summed log of its Cholesky diagonal.
    """
    dim = shapes.shape[-1]
    trace = np.einsum("...dd->...", shapes).real
    loaded = shapes + (eps_load * trace / dim)[..., None, None] * np.eye(dim)
    inv = np.linalg.inv(loaded)
    inv = 0.5 * (inv + np.swapaxes(inv, -1, -2).conj())
    chol_diag = np.diagonal(np.linalg.cholesky(loaded), axis1=-2, axis2=-1).real
    return inv, 2.0 * np.log(chol_diag).sum(axis=-1)


def _pack_outer_products(units: np.ndarray) -> np.ndarray:
    """Real packing of the outer products z z^H of every bin and frame.

    Args:
        units: (F, T, D) unit observations.

    Returns:
        (F, D*D, T) float64 features. Along the second axis come the D
        values |z_d|^2, then Re(z_d conj(z_e)) for the P = D(D-1)/2 pairs
        d < e in ``np.triu_indices`` order, then Im(z_d conj(z_e)) for the
        same pairs.
    """
    bins, frames, dim = units.shape
    rows, cols = np.triu_indices(dim, 1)
    pairs = len(rows)
    chans = units.transpose(0, 2, 1)
    feats = np.empty((bins, dim * dim, frames))
    feats[:, :dim] = chans.real ** 2 + chans.imag ** 2
    for p, (d, e) in enumerate(zip(rows, cols)):
        cross = chans[:, d] * chans[:, e].conj()
        feats[:, dim + p] = cross.real
        feats[:, dim + pairs + p] = cross.imag
    return feats


def _unpack_hermitian(packed: np.ndarray, dim: int) -> np.ndarray:
    """(..., D*D) real packing, as built by :func:`_pack_outer_products`,
    back to (..., D, D) Hermitian matrices."""
    rows, cols = np.triu_indices(dim, 1)
    pairs = len(rows)
    diag = np.arange(dim)
    upper = packed[..., dim:dim + pairs] + 1j * packed[..., dim + pairs:]
    out = np.empty(packed.shape[:-1] + (dim, dim), dtype=np.complex128)
    out[..., diag, diag] = packed[..., :dim]
    out[..., rows, cols] = upper
    out[..., cols, rows] = upper.conj()
    return out


def _quadratic_form(feats: np.ndarray, inv: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Real quadratic form z^H B^-1 z as one GEMM over packed features.

    For Hermitian B^-1, z^H B^-1 z = sum_d B^-1_dd |z_d|^2
    + sum_{d<e} 2 Re(B^-1_de) Re(z_d conj z_e) + 2 Im(B^-1_de) Im(z_d conj z_e),
    so the coefficients of the packed features are diag(B^-1), then
    2 Re B^-1_de, then 2 Im B^-1_de.

    Args:
        feats: (F, D*D, T) features from :func:`_pack_outer_products`.
        inv: (F, K, D, D) Hermitian inverses.
        out: (F, K, T) float64 buffer the result is written to.

    Returns:
        ``out``, clipped away from zero.
    """
    dim = inv.shape[-1]
    rows, cols = np.triu_indices(dim, 1)
    pairs = len(rows)
    upper = inv[..., rows, cols]
    coeffs = np.empty(inv.shape[:-2] + (dim * dim,))
    coeffs[..., :dim] = np.diagonal(inv, axis1=-2, axis2=-1).real
    coeffs[..., dim:dim + pairs] = 2.0 * upper.real
    coeffs[..., dim + pairs:] = 2.0 * upper.imag
    np.matmul(coeffs, feats, out=out)
    return np.clip(out, 1e-12, None, out=out)


def _em_block(units, valid, active, gamma, config):
    """Run the EM iterations for one block of frequency bins.

    Both EM steps are real batched matrix products against one feature
    tensor ``feats`` of shape (F, D*D, T), built once per block by
    :func:`_pack_outer_products`: per bin and frame it holds z z^H packed
    as the D values |z_d|^2, then Re and then Im of z_d conj(z_e) for the
    pairs d < e. Shape matrices live in the same packing between steps.

    - M-step: sum_t (gamma / q) z z^H is ``scaled @ feats.T``, a GEMM of
      (F, K, T) by (F, T, D*D), unpacked to Hermitian (F, K, D, D).
    - E-step: q = z^H B^-1 z is ``coeffs @ feats``, (F, K, D*D) by
      (F, D*D, T), where ``coeffs`` holds diag(B^-1), 2 Re B^-1_de and
      2 Im B^-1_de for d < e (see :func:`_quadratic_form`).

    Block size: :func:`em_fit` passes F = 2**20 // (K * T * D) bins at a
    time (at least one), so ``feats`` takes about 8 * 2**20 * D / K bytes,
    8 MB when D = K, and each (F, K, T) array about 8 * 2**20 / D bytes.

    Args:
        units: (F, T, D) unit observations.
        valid: (F, T) bool.
        active: (K, T) bool.
        gamma: (F, K, T) initial posteriors.
        config: EmConfig.

    Returns:
        (weights (F, K), shapes (F, K, D, D), gamma (F, K, T),
         log-likelihood per iteration (iterations,)).
    """
    bins, frames, dim = units.shape
    classes = active.shape[0]
    feats = _pack_outer_products(units)
    feats_t = feats.transpose(0, 2, 1)
    eye = np.zeros(dim * dim)
    eye[:dim] = 1.0
    packed = np.broadcast_to(eye, (bins, classes, dim * dim)).copy()
    shapes = _unpack_hermitian(packed, dim)
    weights = np.full((bins, classes), 1.0 / classes)

    # Posterior of invalid frames: uniform over the admissible classes.
    uniform = (active / active.sum(axis=0, keepdims=True))[None, :, :]
    inactive = ~active[None, :, :]
    invalid = ~valid[:, None, :]

    quad = np.empty((bins, classes, frames))
    inv, logdet = _prepare_shapes(shapes, config.eps_load)
    _quadratic_form(feats, inv, quad)
    likelihoods = np.zeros(config.iterations)

    for it in range(config.iterations):
        # M-step: re-estimate weights and shape matrices from the current
        # posteriors; invalid frames carry no weight.
        scaled = gamma * valid[:, None, :]
        denom = scaled.sum(axis=-1)
        scaled /= quad
        update = dim * (scaled @ feats_t) / np.maximum(denom, 1e-300)[:, :, None]
        packed = np.where((denom > 0.0)[:, :, None], update, packed)
        trace = packed[..., :dim].sum(axis=-1)
        packed = np.where(
            (trace > 1e-300)[:, :, None], packed * (dim / np.maximum(trace, 1e-300))[:, :, None], eye
        )
        shapes = _unpack_hermitian(packed, dim)

        total = denom.sum(axis=-1, keepdims=True)
        weights = np.where(total > 0.0, denom / np.maximum(total, 1e-300), 1.0 / classes)
        weights = np.maximum(weights, config.weight_floor)
        weights = weights / weights.sum(axis=-1, keepdims=True)

        # E-step: clamped posteriors under the refreshed parameters. The
        # noise class is always active, so the peak is finite and the
        # normaliser is at least exp(0) = 1.
        inv, logdet = _prepare_shapes(shapes, config.eps_load)
        _quadratic_form(feats, inv, quad)
        log_score = np.log(quad)
        log_score *= -dim
        log_score += (np.log(weights) - logdet)[:, :, None]
        np.copyto(log_score, -np.inf, where=inactive)
        peak = log_score.max(axis=1, keepdims=True)
        log_score -= peak
        gamma = np.exp(log_score, out=log_score)
        norm = gamma.sum(axis=1, keepdims=True)
        gamma /= norm
        np.copyto(gamma, uniform, where=invalid)

        likelihoods[it] = np.sum(peak[:, 0, :] + np.log(norm[:, 0, :]), where=valid)
        if not np.isfinite(likelihoods[it]):
            raise RuntimeError(
                f"mixture model EM produced a non-finite log-likelihood "
                f"at iteration {it}"
            )

    return weights, shapes, gamma, likelihoods


def em_fit(
    observations: DirectionalObservations,
    activity: ActivityMask,
    config: EmConfig = EmConfig(),
    initial: Posterior | None = None,
    return_likelihoods: bool = False,
):
    """Fit the guided mixture model.

    Each iteration runs the M-step on the current posteriors and then the
    clamped E-step under the refreshed parameters; the first M-step
    consumes the activity-uniform initialisation (or ``initial``). The
    log-likelihood of the restricted mixture is recorded after every
    E-step and is non-decreasing up to the diagonal-loading perturbation.

    Args:
        observations: (T, F, D) unit directions with validity mask.
        activity: (K, T) admissible classes per frame.
        config: EM schedule.
        initial: posterior warm start, defaults to the activity-uniform
            initialisation.
        return_likelihoods: also return the per-iteration log-likelihood.

    Returns:
        (MixtureParams, Posterior), plus the likelihood trace when
        requested.
    """
    frames, bins, dim = observations.units.shape
    if activity.num_frames != frames:
        raise ValueError(
            f"activity covers {activity.num_frames} frames, observations "
            f"have {frames}"
        )
    classes = activity.num_classes
    if initial is None:
        initial = init_posteriors(activity, bins)
    if initial.gamma.shape != (classes, frames, bins):
        raise ValueError(
            f"initial posterior shape {initial.gamma.shape} does not match "
            f"(K, T, F) = {(classes, frames, bins)}"
        )

    units = observations.units.transpose(1, 0, 2)
    valid = observations.valid.T
    gamma0 = initial.gamma.transpose(2, 0, 1)

    weights = np.empty((bins, classes))
    shapes = np.empty((bins, classes, dim, dim), dtype=np.complex128)
    gamma = np.empty((bins, classes, frames))
    likelihoods = np.zeros(config.iterations)

    block = max(1, 2 ** 20 // max(1, classes * frames * dim))
    for lo in range(0, bins, block):
        hi = min(bins, lo + block)
        weights[lo:hi], shapes[lo:hi], gamma[lo:hi], block_ll = _em_block(
            units[lo:hi], valid[lo:hi], activity.active, gamma0[lo:hi], config
        )
        likelihoods += block_ll

    params = MixtureParams(weights=weights, shapes=shapes)
    posterior = Posterior(gamma=gamma.transpose(1, 2, 0))
    if return_likelihoods:
        return params, posterior, likelihoods
    return params, posterior


def trim_context(posterior: Posterior, core: range) -> Posterior:
    """Drop context frames, keeping posteriors for the core span only."""
    frames = posterior.gamma.shape[1]
    start, stop = core.start, core.stop
    if not 0 <= start < stop <= frames:
        raise ValueError(
            f"empty core segment: range [{start}, {stop}) is not a "
            f"non-empty sub-range of {frames} frames"
        )
    return Posterior(gamma=posterior.gamma[:, start:stop, :])
