"""microclust: spectral clustering on density-derived micro-clusters.

The main pipeline coarsens a dataset into pseudo-clusters built from local
density structure, splits the curved ones until they are nearly convex, and
runs normalized-cut spectral clustering on a shared-nearest-neighbor
similarity graph over the micro-clusters.  A granular-ball baseline and
spectral clustering on the point-level k-NN graph (``run_pipeline`` with
algorithm "sc") share the same spectral stage, and ARI/NMI/ACC metrics are
included for evaluation.
"""

from .data import (
    DataError,
    Dataset,
    generate_synthetic,
    load_csv,
    normalize,
    normalize_minmax,
    normalize_zscore,
    save_csv,
)
from .granular import GranularBall, balls_to_microclusters, farthest_pair, gb_generate
from .linalg import NumericalError, jacobi_eigh, kmeans
from .metrics import ContingencyTable, acc, ari, contingency_table, metrics_report, nmi
from .neighbors import (
    LeaderForest,
    NeighborTable,
    PseudoClusterSet,
    build_pseudo_clusters,
    compute_density,
    compute_knn,
    compute_leaders,
)
from .pipeline import (
    ClusteringResult,
    ConfigError,
    RunConfig,
    micro_cluster_dump,
    run_pipeline,
    run_repeated,
)
from .spectral import (
    build_similarity_matrix,
    knn_adjacency,
    normalized_laplacian,
    propagate_labels,
    spectral_cluster,
    spectral_embedding,
)
from .splitting import (
    ClusterGeometry,
    SplitConfig,
    SplitReport,
    cluster_geometry,
    compactness_dm,
    round_geometry,
    split_all,
    split_once,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterGeometry",
    "ClusteringResult",
    "ConfigError",
    "ContingencyTable",
    "DataError",
    "Dataset",
    "GranularBall",
    "LeaderForest",
    "NeighborTable",
    "NumericalError",
    "PseudoClusterSet",
    "RunConfig",
    "SplitConfig",
    "SplitReport",
    "acc",
    "ari",
    "balls_to_microclusters",
    "build_pseudo_clusters",
    "build_similarity_matrix",
    "cluster_geometry",
    "compactness_dm",
    "compute_density",
    "compute_knn",
    "compute_leaders",
    "contingency_table",
    "farthest_pair",
    "gb_generate",
    "generate_synthetic",
    "jacobi_eigh",
    "kmeans",
    "knn_adjacency",
    "load_csv",
    "metrics_report",
    "micro_cluster_dump",
    "nmi",
    "normalize",
    "normalize_minmax",
    "normalize_zscore",
    "normalized_laplacian",
    "propagate_labels",
    "round_geometry",
    "run_pipeline",
    "run_repeated",
    "save_csv",
    "spectral_cluster",
    "spectral_embedding",
    "split_all",
    "split_once",
]
