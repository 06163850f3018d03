"""Community detection via symmetric NMF and orthogonal symmetric NMF
tri-factorization of graph matrices, with block-model generators,
spectral-clustering baselines, agreement metrics and a benchmark harness."""

from .blockmodels import (
    DcsbmParams,
    SbmParams,
    dcsbm_powerlaw_preset,
    population_adjacency,
    population_laplacian,
    sample_graph,
    sbm_snr_preset,
)
from .factorization import (
    ExactnessReport,
    Factorization,
    SolverConfig,
    assign_communities,
    exactness_diagnostics,
    frobenius_residual,
    osntf,
    snmf,
)
from .graphs import (
    Graph,
    degrees,
    largest_connected_component,
    normalized_laplacian,
    regularized_laplacian,
    symmetrize_directed,
)
from .io import load_edgelist, load_gml, load_graph, save_edgelist, save_gml
from .metrics import misclustered_count, misclustering_rate, nmi
from .spectral import (
    EigenPairs,
    kmeans,
    nmf_init_from_partition,
    spectral_clustering,
    sym_eigs_topk,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "degrees",
    "normalized_laplacian",
    "regularized_laplacian",
    "largest_connected_component",
    "symmetrize_directed",
    "load_graph",
    "load_edgelist",
    "load_gml",
    "save_edgelist",
    "save_gml",
    "SbmParams",
    "DcsbmParams",
    "population_adjacency",
    "population_laplacian",
    "sample_graph",
    "sbm_snr_preset",
    "dcsbm_powerlaw_preset",
    "SolverConfig",
    "Factorization",
    "snmf",
    "osntf",
    "assign_communities",
    "ExactnessReport",
    "exactness_diagnostics",
    "frobenius_residual",
    "EigenPairs",
    "sym_eigs_topk",
    "kmeans",
    "spectral_clustering",
    "nmf_init_from_partition",
    "nmi",
    "misclustering_rate",
    "misclustered_count",
    "__version__",
]
