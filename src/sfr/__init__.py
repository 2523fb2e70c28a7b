"""Partial-pattern matching by spatial feature reconstruction.

Variable-size feature maps are pooled into a global vector plus a multi-scale
spatial feature matrix; matching reconstructs probe columns from a gallery
dictionary with a closed-form ridge solve and fuses the residual distance with
the global Euclidean distance. Training embeds that distance in a batch-hard
triplet loss over a small convolutional encoder.

The package exports its data types, its errors, the CLI entry point and the
oracle suite; everything else is imported from its module.
"""

from .cli import main
from .encoder import EncoderParams
from .errors import FactorizationError, FormatError, MismatchError
from .features import FeatureMatrix, GlobalFeature, PyramidSpec, SpatialFeatureMap
from .oracle import OracleReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "EncoderParams",
    "FactorizationError",
    "FeatureMatrix",
    "FormatError",
    "GlobalFeature",
    "MismatchError",
    "OracleReport",
    "PyramidSpec",
    "SpatialFeatureMap",
    "main",
    "run_verification",
]
