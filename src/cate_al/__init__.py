"""Active learning benchmark harness for conditional average treatment effects."""

__version__ = "0.1.0"

from .acquisition import (
    AcquisitionMethod,
    fit_propensity,
    predict_pi,
    score_pool,
)
from .active_loop import (
    ActiveState,
    LabelOracle,
    LoopConfig,
    run_active_learning,
    select_batch,
    warm_start,
)
from .beliefs import CateModel
from .dgp import (
    Dataset,
    SplitSpec,
    gen_actg_outcomes,
    gen_causalbald,
    gen_hahn,
    gen_ihdp_outcomes,
    load_covariates_csv,
    make_benchmark,
    make_splits,
)
from .ensemble import EnsembleLinearModel, fit_ensemble
from .errors import InputError, NumericalError
from .evaluation import RunRecord, relative_improvement, sqrt_pehe, summarize_runs
from .gp import (
    CmgpParams,
    NsgpParams,
    SearchConfig,
    fit_gp,
    optimize_hyperparams,
)
from .kernels import CoregionalizationConfig, KernelConfig
