"""Spatial mixture model with annotation-guided class posteriors.

Per frequency bin, the channel-normalised observation directions are
modelled by a mixture of complex angular central Gaussian components, one
per speaker plus one noise class (class index 0). Speaker activity from
the annotations clamps posteriors of inactive speakers to exactly zero in
every EM iteration, which resolves the class/speaker permutation per bin
by construction.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .signal import Spectrogram, _check_fields

__all__ = [
    "DirectionalObservations",
    "ActivityMask",
    "MixtureParams",
    "EmConfig",
    "normalize_observations",
    "em_fit",
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


EPS_LOAD = 1e-6  # shape-matrix diagonal loading, relative to the mean diagonal
WEIGHT_FLOOR = 1e-4  # lower bound on mixture weights, renormalised after flooring


@dataclass(frozen=True)
class EmConfig:
    """EM schedule.

    The numerical guards are the module constants :data:`EPS_LOAD` and
    :data:`WEIGHT_FLOOR`.

    Attributes:
        iterations: EM iterations on the full (context-extended) segment,
            the only fit of an utterance.
    """

    iterations: int = field(default=20, metadata={"minimum": 1})

    def __post_init__(self):
        _check_fields(self, "em")


def normalize_observations(spectrogram: Spectrogram) -> DirectionalObservations:
    """Project STFT vectors onto the unit sphere, dropping level information.

    Zero vectors cannot be normalised; they receive the uniform real
    direction 1/sqrt(D) and are flagged invalid. The squared norm is summed
    channel by channel from (conj(z_d) z_d).real, the products and order of
    ``np.linalg.norm``, so it has the same bits without full-size temporaries.
    """
    bins = spectrogram.bins
    power = (bins[0].conj() * bins[0]).real.copy()
    for chan in bins[1:]:
        power += (chan.conj() * chan).real
    norm = np.sqrt(power, out=power)
    valid = norm > 0.0
    norm[~valid] = 1.0
    units = bins.transpose(1, 2, 0) / norm[..., None]
    units[~valid] = 1.0 / np.sqrt(units.shape[-1])
    return DirectionalObservations(units=units, valid=valid)


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
    # Channel by channel, so that no temporary is larger than (F, T).
    for d in range(dim):
        np.square(chans[:, d].real, out=feats[:, d])
        feats[:, d] += chans[:, d].imag ** 2
    for p, (d, e) in enumerate(zip(rows, cols)):
        cross = chans[:, d] * chans[:, e].conj()
        feats[:, dim + p] = cross.real
        feats[:, dim + pairs + p] = cross.imag
    return feats


@functools.lru_cache(maxsize=None)
def _packing_maps(dim: int):
    """(unpack, load, coeffs): real maps between the packing of
    :func:`_pack_outer_products` and the float64 view of flattened (D, D)
    complex matrices; shared, so callers must not write to them.
    ``packed @ unpack`` is the Hermitian B of a packing, exactly, ``packed @
    load`` is B + EPS_LOAD (trace B / D) I, and ``view @ coeffs`` packs the
    quadratic-form coefficients of B's Hermitian part: Re B_dd, then
    Re (B_de + B_ed) and Im (B_de - B_ed) for d < e. z^H B z is the inner
    product of B with z z^H = ``packed @ unpack``, so ``coeffs`` is the
    adjoint ``unpack.T``, copied to be contiguous for the GEMM.
    """
    rows, cols = np.triu_indices(dim, 1)
    pairs = len(rows)
    diag = np.arange(dim)
    upper = dim + np.arange(pairs)
    unpack = np.zeros((dim * dim, dim, dim, 2))
    unpack[diag, diag, diag, 0] = 1.0
    unpack[upper, rows, cols, 0] = 1.0
    unpack[upper, cols, rows, 0] = 1.0
    unpack[upper + pairs, rows, cols, 1] = 1.0
    unpack[upper + pairs, cols, rows, 1] = -1.0
    load = unpack.copy()
    load[:dim, diag, diag, 0] += EPS_LOAD / dim
    flat = unpack.reshape(dim * dim, -1)
    return flat, load.reshape(dim * dim, -1), np.ascontiguousarray(flat.T)


def _unpack_hermitian(packed: np.ndarray, dim: int) -> np.ndarray:
    """(..., D*D) real packing, as built by :func:`_pack_outer_products`,
    back to (..., D, D) Hermitian matrices."""
    flat = packed.reshape(-1, dim * dim) @ _packing_maps(dim)[0]
    return flat.view(np.complex128).reshape(packed.shape[:-1] + (dim, dim))


def _prepare_shapes(packed: np.ndarray, dim: int):
    """Inverse (..., D, D) and log-determinant of the loaded B + EPS_LOAD
    (trace B / D) I of each packing, the form of every density: Gauss-Jordan
    elimination of all N matrices at once, in place in the (N, D, D) stack
    the unpacking GEMM writes, in D steps of a few numpy calls and with no
    LAPACK call per matrix. Loaded, B is Hermitian positive definite and
    needs no pivoting; the logs of its pivots sum to the log-determinant.
    """
    lead = packed.shape[:-1]
    loaded = packed.reshape(-1, dim * dim) @ _packing_maps(dim)[1]
    inv = loaded.view(np.complex128).reshape(-1, dim, dim)
    recip = np.empty((dim, inv.shape[0]))
    # Step k pivots on p = A_kk: A_ij -= A_ik A_kj / p off row and column k,
    # column k becomes -A_ik / p, and row k (due to become A_kj / p, with
    # A_kk = 1 / p) stays p times too large: later steps only add multiples of
    # other rows scaled by its own entries, so one product per row fixes it.
    for k in range(dim):
        np.divide(1.0, inv[:, k, k].real, out=recip[k])
        inv[:, :, k] *= -recip[k][:, None]
        inv[:, k, k] = 0.0
        inv += inv[:, :, k, None] * inv[:, None, k]
        inv[:, k, k] = 1.0
    inv *= recip.T[:, :, None]
    logdet = -np.log(recip).sum(axis=0)
    return inv.reshape(lead + (dim, dim)), logdet.reshape(lead)


def _quadratic_form(feats, inv, scale, out):
    """r = c z^H B^-1 z, clipped below at 1e-12 c, as one GEMM whose
    coefficients are c times those of ``_packing_maps(D)[2]``.

    Args:
        feats: (F, D*D, T) features from :func:`_pack_outer_products`.
        inv: (F, K, D, D) Hermitian inverses.
        scale: (F, K) positive factors c.
        out: (F, K, T) float64 buffer for r, which is returned.
    """
    dim = inv.shape[-1]
    flat = np.multiply(inv, scale[..., None, None])
    flat = flat.reshape(-1, dim * dim).view(np.float64)
    coeffs = (flat @ _packing_maps(dim)[2]).reshape(inv.shape[:-2] + (dim * dim,))
    np.matmul(coeffs, feats, out=out)
    return np.maximum(out, 1e-12 * scale[..., None], out=out)


def _em_block(units, valid, active, config, posterior):
    """Run the EM iterations for one block of frequency bins.

    The fit starts from the posterior that is uniform over the admissible
    classes of each frame; invalid frames carry a zero posterior during the
    iterations, so that they add nothing to the M-step, and return the
    uniform one. Both steps are GEMMs against ``feats`` (F, D*D, T) from
    :func:`_pack_outer_products`, and shapes stay in that packing.

    - M-step: ``(gamma / r) @ feats.T`` times c D / sum_t gamma is
      D sum_t (gamma / q) z z^H / sum_t gamma.
    - E-step, in the scale domain: class k scores w_k / (det B_k q_k^D),
      q_k = z^H B_k^-1 z, which is r_k^-D for r_k = c_k q_k and c_k =
      exp((logdet B_k - log w_k) / D), with B^-1 from :func:`_prepare_shapes`.
      :func:`_quadratic_form` returns r, inactive pairs get r = inf, and
      with r_min the least r of a frame, gamma_k = (r_min / r_k)^D /
      sum_j (r_min / r_j)^D and the frame's log-likelihood is
      log sum_j (r_min / r_j)^D - D log r_min: no log or exp over (F, K, T).

    Block size: :func:`em_fit` passes at most F = 2**19 // (K * T * D) bins,
    so ``feats`` takes 8 * 2**19 * D / K bytes and r 8 * 2**19 / D. Smaller
    blocks cost time with parallel threads, which queue for the interpreter
    lock at each of the numpy calls a block makes; nor does any step loop in
    Python over frames, pairs or classes.

    Args:
        units: (F, T, D) unit observations.
        valid: (F, T) bool.
        active: (K, T) bool.
        config: EmConfig.
        posterior: (F, K, T) float64 buffer that receives the posterior;
            within an iteration it also holds gamma / r and (r_min / r)^D.

    Returns:
        (weights (F, K), shapes (F, K, D, D),
         log-likelihood per iteration (iterations,)).
    """
    bins, frames, dim = units.shape
    classes = active.shape[0]
    feats = _pack_outer_products(units)
    eye = np.concatenate([np.ones(dim), np.zeros(dim * dim - dim)])
    packed = np.broadcast_to(eye, (bins, classes, dim * dim)).copy()

    # Uniform over the admissible classes: the start posterior of every
    # valid frame and the final posterior of invalid frames.
    uniform = (active / active.sum(axis=0, keepdims=True))[None, :, :]
    barred = np.where(active, 0.0, np.inf)[None, :, :]
    weight = valid[:, None, :].astype(np.float64)
    gamma = np.multiply(uniform, weight, out=posterior)
    # The identity start gives every valid frame q = 1 / (1 + EPS_LOAD), a
    # constant the first M-step's trace normalisation cancels: r = c = 1.
    ratio = np.ones((bins, classes, frames))
    scale = np.ones((bins, classes))
    # Per frame: the normaliser sum_j (r_min / r_j)^D, then r_min.
    stats = np.empty((2, bins, 1, frames))
    likelihoods = np.zeros(config.iterations)

    for it in range(config.iterations):
        # M-step on posteriors that are zero on invalid frames; shapes are
        # scaled to trace D, and a class without posterior mass keeps its own.
        denom = gamma.sum(axis=-1)
        fitted = denom > 0.0
        update = np.divide(gamma, ratio, out=posterior) @ feats.transpose(0, 2, 1)
        gain = np.where(fitted, dim * scale / np.maximum(denom, 1e-300), 0.0)
        trace = update[..., :dim].sum(axis=-1) * gain
        factor = (gain * dim / np.maximum(trace, 1e-300))[:, :, None]
        np.multiply(update, factor, out=packed, where=fitted[:, :, None])
        packed[fitted & ~(trace > 1e-300)] = eye

        total = denom.sum(axis=-1, keepdims=True)
        weights = np.where(total > 0.0, denom / np.maximum(total, 1e-300), 1.0 / classes)
        weights = np.maximum(weights, WEIGHT_FLOOR)
        weights = weights / weights.sum(axis=-1, keepdims=True)

        # E-step: clamped posteriors under the refreshed parameters. The
        # noise class is always active, so r_min is finite and the
        # normaliser is at least 1.
        inv, logdet = _prepare_shapes(packed, dim)
        scale = np.exp((logdet - np.log(weights)) / dim)
        _quadratic_form(feats, inv, scale, ratio)
        ratio += barred
        least = ratio.min(axis=1, keepdims=True, out=stats[1])
        gamma = np.divide(least, ratio, out=posterior)
        base = gamma.copy() if dim & (dim - 1) else None
        for bit in bin(dim)[3:]:  # gamma ** D by repeated squaring
            np.square(gamma, out=gamma)
            if bit == "1":
                gamma *= base
        gamma *= np.divide(weight, gamma.sum(axis=1, keepdims=True, out=stats[0]))

        logs = np.einsum("sfkt,fkt->s", np.log(stats, out=stats), weight)
        likelihoods[it] = logs[0] - dim * logs[1]
        if not np.isfinite(likelihoods[it]):
            raise RuntimeError(f"mixture EM produced a non-finite log-likelihood at iteration {it}")

    np.copyto(posterior, uniform, where=~valid[:, None, :])
    return weights, _unpack_hermitian(packed, dim), likelihoods


def em_fit(
    observations: DirectionalObservations,
    activity: ActivityMask,
    config: EmConfig = EmConfig(),
    frames: range | None = None,
):
    """Fit the guided mixture model.

    Each iteration runs the M-step on the current posteriors and then the
    clamped E-step under the refreshed parameters; the first M-step
    consumes the posterior that is uniform over the admissible classes of
    each frame. The log-likelihood of the restricted mixture is recorded
    after every E-step and is non-decreasing up to the diagonal-loading
    perturbation.

    Args:
        observations: (T, F, D) unit directions with validity mask.
        activity: (K, T) admissible classes per frame.
        config: EM schedule.
        frames: the frames whose posterior is returned, all by default;
            the fit uses every frame either way.

    Returns:
        (MixtureParams, class posteriors gamma (K, T, F) of ``frames``,
        the per-iteration log-likelihood).
    """
    total, bins, dim = observations.units.shape
    if activity.num_frames != total:
        raise ValueError(f"activity covers {activity.num_frames} frames, observations have {total}")
    classes = activity.num_classes
    units = observations.units.transpose(1, 0, 2)
    valid = observations.valid.T
    keep = range(total) if frames is None else frames

    weights = np.empty((bins, classes))
    shapes = np.empty((bins, classes, dim, dim), dtype=np.complex128)
    gamma = np.empty((bins, classes, len(keep)))
    likelihoods = np.zeros(config.iterations)

    block = max(1, 2 ** 19 // max(1, classes * total * dim))
    block = -(-bins // -(-bins // block))  # as many blocks, all of one size
    work = np.empty((block, classes, total))
    for lo in range(0, bins, block):
        hi = min(bins, lo + block)
        weights[lo:hi], shapes[lo:hi], block_ll = _em_block(
            units[lo:hi], valid[lo:hi], activity.active, config, work[: hi - lo]
        )
        gamma[lo:hi] = work[: hi - lo, :, keep.start:keep.stop]
        likelihoods += block_ll

    return MixtureParams(weights=weights, shapes=shapes), gamma.transpose(1, 2, 0), likelihoods

