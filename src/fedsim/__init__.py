"""fedsim: a seeded, bit-reproducible federated-optimization simulator.

Implements accelerated global-momentum averaging (fedagm) alongside six
baselines (fedavg, fedprox, fedavgm, fedadam, feddyn, fedcm) over small
differentiable models, with IID/Dirichlet client partitioning, per-round
communication accounting, and EMA-smoothed evaluation metrics.
"""

__version__ = "0.1.0"
