"""Bayesian network classifier for rare binary outcomes on mixed data.

Training reads the dataset exactly four times: outcome alphabets, then
class-to-field mutual information, then class-conditional field-to-field
MI, then probability tables.  Inference multiplies CPT factors in rank
order with degeneracy pruning.  Discriminant-analysis baselines and an
F/C/V evaluation harness round out the toolkit.
"""

from .baselines import (
    DiscriminantModel,
    fit_discriminant,
    lda_label,
    lda_score,
    qda_label,
    qda_score,
)
from .dataio import MISSING, Chunk, CsvDataset, PassStats
from .errors import (
    CardinalityError,
    ConfigError,
    DatasetError,
    EvaluationError,
    EvidenceError,
    ModelSizeError,
    RareBayesError,
    SchemaError,
    SingularCovarianceError,
    TrainingError,
)
from .evaluation import ConfusionCounts, FCVRow, confusion, default_grid, fcv, sweep
from .inference import (
    ClassPosterior,
    classify,
    classify_file,
    posterior,
    symbolize,
)
from .infometrics import (
    MIScore,
    conditional_mutual_information,
    entropy,
    mutual_information,
    select_by_cumulative,
)
from .outcomes import (
    OutcomeTable,
    ReservoirSample,
    VariableOutcomes,
    collect_outcomes,
    entropy_bins,
    quantile_bins,
)
from .schema import Schema, VariableSpec, format_schema, parse_schema
from .structure import (
    CPT,
    NetworkModel,
    RankedField,
    estimate_cpts,
    load_model,
    select_dependencies,
    train,
)
from .synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DependentSpec,
    GenConfig,
    GenResult,
    GroupSpec,
    NoiseSpec,
    TruthModel,
    analytic_posterior,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "MISSING",
    "CPT",
    "CardinalityError",
    "CategoricalSpec",
    "Chunk",
    "ClassPosterior",
    "ConfigError",
    "ConfusionCounts",
    "ContinuousSpec",
    "CsvDataset",
    "DatasetError",
    "DependentSpec",
    "DiscriminantModel",
    "EvaluationError",
    "EvidenceError",
    "FCVRow",
    "GenConfig",
    "GenResult",
    "GroupSpec",
    "MIScore",
    "ModelSizeError",
    "NetworkModel",
    "NoiseSpec",
    "OutcomeTable",
    "PassStats",
    "RankedField",
    "RareBayesError",
    "ReservoirSample",
    "Schema",
    "SchemaError",
    "SingularCovarianceError",
    "TrainingError",
    "TruthModel",
    "VariableOutcomes",
    "VariableSpec",
    "analytic_posterior",
    "classify",
    "classify_file",
    "collect_outcomes",
    "conditional_mutual_information",
    "confusion",
    "default_grid",
    "entropy",
    "entropy_bins",
    "estimate_cpts",
    "fcv",
    "fit_discriminant",
    "format_schema",
    "generate",
    "lda_label",
    "lda_score",
    "load_model",
    "mutual_information",
    "parse_schema",
    "posterior",
    "qda_label",
    "qda_score",
    "quantile_bins",
    "select_by_cumulative",
    "select_dependencies",
    "sweep",
    "symbolize",
    "train",
]
