"""Masked-pruning federated learning at desk scale.

Nodes train small dense nets locally and send only one-bit-per-neuron pruning
masks; the server reaches a voted consensus mask and, once the target sparsity
is hit, runs standard FedAvg fine-tuning on the surviving subnetwork.
"""

from .errors import (
    ConfigError,
    ConstraintError,
    DataError,
    LayoutError,
    MpflError,
    NodeError,
    ProtocolError,
    TransportError,
)
from .model import ArchSpec, Batch, ModelParams, PruneMask, ScoreVector, VoteHistogram

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "Batch",
    "ConfigError",
    "ConstraintError",
    "DataError",
    "LayoutError",
    "ModelParams",
    "MpflError",
    "NodeError",
    "ProtocolError",
    "PruneMask",
    "ScoreVector",
    "TransportError",
    "VoteHistogram",
    "__version__",
]
