"""The scale models that the model and lower-bound tests run over."""

import numpy as np

from hetreg.basis import DesignGrid
from hetreg.models import econometric_scale, homogeneous_scale, nonperiodic_transform, smooth_cutoff


def scale_models():
    econ = econometric_scale(1.0, 1.0, 0.5, 0.5)
    g = DesignGrid(11)
    _, tilted = nonperiodic_transform(np.zeros(g.n), econ, smooth_cutoff(0.3, 0.7), 0.05, g,
                                      np.random.default_rng(0))
    return [econ, econometric_scale(0.5, 0.0, 2.0, 0.0), homogeneous_scale(1.5), tilted]
