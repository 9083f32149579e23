"""Structure-preserving model reduction of Hamiltonian systems.

A symplectic autoencoder (GradientLayers + PSDLayers with Stiefel-manifold
weights) is trained by Riemannian Adam variants and used to build reduced
order models of Hamiltonian PDE discretizations, with a PSD (cotangent lift)
baseline for comparison.
"""

from .stiefel import (
    MetricKind,
    StiefelPoint,
    TangentVector,
    TransportKind,
    cayley_factors,
    cayley_parts,
    cayley_retract,
    cayley_system,
    metric_inner,
    project_tangent,
    random_stiefel,
    riemannian_gradient,
    transport_differential,
    transport_submanifold,
)

__version__ = "0.1.0"

__all__ = [
    "MetricKind",
    "StiefelPoint",
    "TangentVector",
    "TransportKind",
    "cayley_factors",
    "cayley_parts",
    "cayley_retract",
    "cayley_system",
    "metric_inner",
    "project_tangent",
    "random_stiefel",
    "riemannian_gradient",
    "transport_differential",
    "transport_submanifold",
]
