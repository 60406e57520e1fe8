"""Adaptive, asymptotically efficient estimation for heteroscedastic
nonparametric regression, with the supporting minimax theory toolkit and a
Monte Carlo verification harness."""

from .basis import (
    DesignGrid,
    SampledFunction,
    TrigPolynomial,
    discrete_fourier,
    trig_basis_eval,
)
from .models import NoiseSpec, ScaleModel, econometric_scale, generate_observations, homogeneous_scale
from .selection import EstimatorOutput, estimate
from .theory import SobolevBall, pinsker_constant
from .weights import TuningSequences, WeightIndex, default_sequences, pinsker_weights, weight_family

__version__ = "0.1.0"
