"""Progressive vision-graph backbone, desk scale.

Three mechanisms, each independently testable: progressive graph construction
(PSGC: with depth, channels move from a Chebyshev local branch to a second
cosine top-k graph beside the first), MaxE neighbor aggregation
(self || max neighbor difference || neighbor mean, then one linear map), and
the GraphLU activation (Gaussian-CDF gating with a learnable relaxation that
counteracts node-feature collapse in deep stacks). Everything runs on a small
reverse-mode tensor core certified against finite differences.
"""

from .aggregators import AGGREGATOR_KINDS, baseline_aggregate, maxe_aggregate
from .data import Dataset, load_dataset, make_two_class_patches, oracle_linear_accuracy, save_dataset
from .diagnostics import DiversityTrace, diversity, graph_stats, trace_diversity, write_trace_csv
from .errors import (
    CheckpointError,
    ConfigError,
    CountMismatchError,
    DegenerateInputError,
    DimensionError,
    EmptyReductionError,
    FileFormatError,
    GraphReleasedError,
    LabelRangeError,
    NonFiniteError,
    PvgError,
)
from .gradcheck import GradCheckReport, grad_check
from .graph import (
    GraphTopology,
    export_edges,
    psgc_schedule,
    similarity_matrix,
    topk_neighbors,
)
from .graphlu import gelu, phi
from .net import (
    Model,
    ModelConfig,
    count_params_flops,
    deep_tiny_config,
    load_checkpoint,
    node_embedding,
    save_checkpoint,
    tiny_config,
)
from .optim import AdamWState, adamw_step, cosine_lr
from .pvgt import read_tensor, write_tensor
from .tensor import DIFFERENTIABLE_OPS, Tensor, concat
from .train import EpochMetrics, OptimizerConfig, RunConfig, ScheduleConfig, evaluate

# ``train`` and ``graphlu`` are not re-exported: the functions would shadow
# the submodules pvg.train and pvg.graphlu. Import them from there.

__version__ = "0.1.0"
