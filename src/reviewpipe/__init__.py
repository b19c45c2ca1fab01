"""reviewpipe: conference review scoring, dequantization, reviewer bias
calibration, and acceptance-rate decision pipeline."""

from .assignment import (
    AssignmentConstraints,
    AssignmentResult,
    SimilaritySources,
    assign,
    check_constraints,
    combined_similarity,
)
from .calibration import (
    AcceptanceEstimate,
    Calibration,
    CalibrationInputs,
    GridSpec,
    Hyperparams,
    PosteriorCovariance,
    acceptance_probability,
    build_covariance,
    calibrate,
    fit_hyperparams,
    fit_sigma_q,
    nll,
    posterior,
)
from .dequant import DequantConfig, DequantResult, dequantize, dequantize_rows
from .pipeline import (
    GrayAreaReport,
    PipelineConfig,
    PipelineResult,
    emit_plots,
    gray_area,
    run_pipeline,
)
from .records import (
    MetaReviewForm,
    ReviewForm,
    ReviewTable,
    ValidationReport,
    encode_likert,
    export_json,
    export_metas_csv,
    export_reviews_csv,
    label_score,
    likert_labels,
    read_exports,
    review_table,
    validate,
)
from .scoring import (
    DecisionConfig,
    DecisionList,
    ReviewScore,
    ScoreTable,
    build_score_table,
    normalize,
    rank_and_cut,
    review_score,
    score_index,
    score_table,
)

__version__ = "0.1.0"
