"""Reference oracles: plain, fully checked versions of what the package
computes in fused form, for the tests to compare against."""

import math

import numpy as np

from fedsim.algorithms import REGISTRY
from fedsim.client import combine
from fedsim.errors import NumericError
from fedsim.models import gradient
from fedsim.params import l2_norm_sq


def clip_by_norm(g: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``g`` onto the clip ball; returned unchanged when inside."""
    norm = math.sqrt(l2_norm_sq(g))
    if norm <= clip_norm:
        return g
    return (clip_norm / norm) * g


def local_gradient_fedagm(spec, params, batch, broadcast, cfg) -> np.ndarray:
    """fedagm's local gradient alpha*grad_f(params) + beta*(params - broadcast),
    with alpha and beta as ``REGISTRY["fedagm"]`` reads them from ``cfg``."""
    agm = REGISTRY["fedagm"]
    g = combine(gradient(spec, params, batch), params, broadcast, agm.a(cfg), None, agm.c(cfg))
    if not np.all(np.isfinite(g)):
        raise NumericError("local gradient is not finite")
    return g
