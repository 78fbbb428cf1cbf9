"""Finite-size spectral gap certification for frustration-free lattice models."""

__version__ = "0.1.0"

from .certification import (  # noqa: F401
    Certificate,
    GapEntry,
    GapSequence,
    ScalingHypothesis,
    certify,
    measure_delta_k,
    recursion_step,
    scaling_fit,
    threshold_test,
)
from .detectability import (  # noqa: F401
    ChebyshevStep,
    column_decomposition,
    dl_operator,
    layer_product,
    ma_mb_split,
    overlap_bound_check,
    refined_dl_bound,
    smuggle_check,
)
from .interaction import (  # noqa: F401
    Interaction,
    InteractionTerm,
    commutation_degree,
    layer_coloring,
    phi_bounds,
    reduce_to_projectors,
)
from .lattice import (  # noqa: F401
    EmbeddedGraph,
    RectangleFamily,
    ball,
    chain_graph,
    check_embedding,
    graph_distance,
    grid_graph,
    rectangle_members,
    side_length,
    split_pairs,
)
from .operators import (  # noqa: F401
    GlobalOperator,
    check_frustration_free,
    hamiltonian,
    sandwich_check,
    spectral_data,
)
