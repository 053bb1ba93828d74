"""Sparse logistic regression with weakly convex (MCP) regularization."""

from .certify import (
    CertificateReport,
    CoordinateVerdict,
    beta_threshold,
    check_critical_point,
    check_mcp_local_opt,
    check_necessary_local_opt,
    check_sufficient_local_opt,
    is_problem_nonconvex,
)
from .data import (
    DataError,
    SynthSpec,
    apply_center,
    center,
    gen_noisy,
    gen_separable,
    load_csv,
    load_sparse_classification_format,
    save_csv,
    train_test_split,
)
from .model import (
    Dataset,
    lipschitz_bound,
    loss,
    loss_gradient,
    predict,
    predict_many,
    sigmoid,
    spectral_norm,
)
from .modelfile import ModelFile, load_model, save_model
from .penalty import (
    MCP,
    PenaltySpec,
    penalty_derivatives,
    penalty_total,
    penalty_value,
    prox_scalar,
    prox_vector,
)
from .solver import (
    BACKTRACKING,
    CONSTANT,
    FitResult,
    NumericalError,
    SolverConfig,
    TraceRow,
    backtrack_stepsize,
    criticality_residual,
    fit,
    max_constant_stepsize,
    prox_grad_step,
    write_trace_csv,
)

__version__ = "0.1.0"
