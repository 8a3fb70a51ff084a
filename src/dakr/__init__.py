"""Density-adaptive kernel re-ranking for retrieval and re-identification
pipelines, with the classical neighbor-set baselines and an evaluation
harness."""

from .core import DistanceMetric, FeatureSet, RankedList
from .errors import DakrError
from .evaluation import (
    EvalReport,
    GroundTruth,
    MethodEval,
    cmc,
    evaluate_methods,
    generate_scenario,
    k_sweep,
    mean_average_precision,
)
from .kernels import (
    SigmaTable,
    bi_dakr_rank,
    compute_sigma_table,
    default_k_sigma,
    inv_dakr_rank,
    probe_sigma,
)
from .neighbors import (
    AugmentationPolicy,
    NeighborSet,
    inn,
    jaccard_distance,
    knn,
    rank_by_distance,
    rank_by_inn,
    rank_by_rnn,
    rnn,
)
from .rerank import rerank

__version__ = "0.1.0"

__all__ = [
    "AugmentationPolicy",
    "DakrError",
    "DistanceMetric",
    "EvalReport",
    "FeatureSet",
    "GroundTruth",
    "MethodEval",
    "NeighborSet",
    "RankedList",
    "SigmaTable",
    "bi_dakr_rank",
    "cmc",
    "compute_sigma_table",
    "default_k_sigma",
    "evaluate_methods",
    "generate_scenario",
    "inn",
    "inv_dakr_rank",
    "jaccard_distance",
    "k_sweep",
    "knn",
    "mean_average_precision",
    "probe_sigma",
    "rank_by_distance",
    "rank_by_inn",
    "rank_by_rnn",
    "rerank",
    "rnn",
]
