"""Partial-pattern matching by spatial feature reconstruction.

Variable-size feature maps are pooled into a global vector plus a multi-scale
spatial feature matrix; matching reconstructs probe columns from a gallery
dictionary with a closed-form ridge solve and fuses the residual distance with
the global Euclidean distance. Training embeds that distance in a batch-hard
triplet loss over a small convolutional encoder.
"""

from .encoder import (
    ConvLayer,
    EncoderParams,
    ToyImage,
    encode,
    encode_backward,
    encode_forward,
    init_params,
    load_params,
    save_params,
)
from .errors import FactorizationError, FormatError, MismatchError
from .features import (
    DEFAULT_PYRAMID,
    FeatureMatrix,
    GlobalFeature,
    PyramidSpec,
    SpatialFeatureMap,
    global_average_pool,
    l2_normalize_columns,
    load_feature_map,
    load_pooled,
    pyramid_pool,
    save_feature_map,
    save_pooled,
)
from .metric import (
    BatchSample,
    LossReport,
    MinedTriplet,
    TripletBatch,
    batch_hard_mine,
    combined_distance,
    euclidean_distance,
    sfr_triplet_loss,
    training_step,
)
from .oracle import OracleReport, exhaustive_mine, finite_difference, ridge_oracle, run_verification
from .reconstruction import (
    ReconstructionCoefficients,
    ReconstructionResult,
    reconstruction_objective,
    sfr_distance,
    sfr_gradients,
    solve_coefficients,
)
from .retrieval import (
    EvalReport,
    GalleryEntry,
    GalleryIndex,
    RetrievalRanking,
    build_gallery,
    evaluate,
    match_probe,
    merge_entries_by_subject,
)

__version__ = "0.1.0"

__all__ = [
    "BatchSample",
    "ConvLayer",
    "DEFAULT_PYRAMID",
    "EncoderParams",
    "EvalReport",
    "FactorizationError",
    "FeatureMatrix",
    "FormatError",
    "GalleryEntry",
    "GalleryIndex",
    "GlobalFeature",
    "LossReport",
    "MinedTriplet",
    "MismatchError",
    "OracleReport",
    "PyramidSpec",
    "ReconstructionCoefficients",
    "ReconstructionResult",
    "RetrievalRanking",
    "SpatialFeatureMap",
    "ToyImage",
    "TripletBatch",
    "batch_hard_mine",
    "build_gallery",
    "combined_distance",
    "encode",
    "encode_backward",
    "encode_forward",
    "euclidean_distance",
    "evaluate",
    "exhaustive_mine",
    "finite_difference",
    "global_average_pool",
    "init_params",
    "l2_normalize_columns",
    "load_feature_map",
    "load_params",
    "load_pooled",
    "match_probe",
    "merge_entries_by_subject",
    "pyramid_pool",
    "reconstruction_objective",
    "ridge_oracle",
    "run_verification",
    "save_feature_map",
    "save_params",
    "save_pooled",
    "sfr_distance",
    "sfr_gradients",
    "sfr_triplet_loss",
    "solve_coefficients",
    "training_step",
]
