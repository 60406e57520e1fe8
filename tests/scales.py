"""The scale models that the model and lower-bound tests run over, and the paper's
device for a non-periodic S, which builds the tilted one."""

import numpy as np

from hetreg.basis import DesignGrid, SampledFunction
from hetreg.models import ScaleModel, econometric_scale, homogeneous_scale, smooth_cutoff


def nonperiodic_transform(
    Y,
    scale: ScaleModel,
    chi: SampledFunction,
    epsilon: float,
    grid: DesignGrid,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ScaleModel]:
    """Taper the observations and regularize the noise floor.

    Returns y_j chi(x_j) + epsilon zeta_j with fresh standard Gaussian zeta,
    plus the induced scale model g~(x,S) = sqrt(g^2(x,S) chi^2(x) + eps^2),
    whose effective noise keeps zero mean and unit variance.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (grid.n,):
        raise ValueError(f"observation vector must have length n={grid.n}")
    zeta = rng.standard_normal(grid.n)
    Y_t = Y * chi.on_grid(grid) + epsilon * zeta

    eps2 = float(epsilon) ** 2

    def g2_t(x, s, norm_sq):
        return scale.g2(x, s, norm_sq) * chi(x) ** 2 + eps2

    def frechet_t(x, s):
        chi2 = chi(x) ** 2
        return tuple(p * chi2 for p in scale.frechet(x, s))

    tilted = ScaleModel(g2=g2_t, frechet=frechet_t, name=f"{scale.name}*chi+eps({epsilon})")
    return Y_t, tilted


def scale_models():
    econ = econometric_scale(1.0, 1.0, 0.5, 0.5)
    g = DesignGrid(11)
    _, tilted = nonperiodic_transform(np.zeros(g.n), econ, smooth_cutoff(0.3, 0.7), 0.05, g,
                                      np.random.default_rng(0))
    return [econ, econometric_scale(0.5, 0.0, 2.0, 0.0), homogeneous_scale(1.5), tilted]
