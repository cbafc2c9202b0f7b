"""Core library: the paper's contribution — task-parallel ConvNet
training with direct/FFT autotuned convolution, FFT memoization,
priority scheduling, wait-free summation and dense-output inference."""

from repro.core.autotune import (
    autotune_graph,
    autotune_layer,
    crossover_kernel_size,
    layer_crossover_kernel_size,
)
from repro.core.custom import (
    CustomOp,
    get_custom_op,
    register_custom_op,
    registered_custom_ops,
    unregister_custom_op,
)
from repro.core.gradcheck import GradCheckReport, check_gradients
from repro.core.edges import (
    ConvEdge,
    CustomEdge,
    DropoutEdge,
    MaxWindowEdge,
    RuntimeEdge,
    SharedKernel,
    TransferEdge,
    make_runtime_edge,
)
from repro.core.inference import (
    copy_parameters,
    dense_equivalent_network,
    dense_network_field_of_view,
    pooling_period,
    sliding_window_forward,
    sparse_lattice,
)
from repro.core.loss import (
    BinaryLogisticLoss,
    EuclideanLoss,
    Loss,
    SoftmaxCrossEntropyLoss,
    get_loss,
)
from repro.core.multiscale import (
    branch_edge_names,
    build_multiscale_graph,
    make_scale_invariant,
)
from repro.core.network import Network
from repro.core.nodes import RuntimeNode
from repro.core.optimizer import SGD, UpdateState
from repro.core.serialization import (
    checkpoint_digest,
    latest_checkpoint,
    load_latest_checkpoint,
    load_network,
    network_state,
    save_network,
    state_digest,
)
from repro.core.tiling import field_of_view_of, tile_plan, tiled_forward
from repro.core.training import (
    DataProvider,
    Sample,
    Trainer,
    TrainingDiverged,
    TrainingReport,
    measure_seconds_per_update,
)

__all__ = [
    "autotune_graph",
    "autotune_layer",
    "crossover_kernel_size",
    "layer_crossover_kernel_size",
    "GradCheckReport",
    "check_gradients",
    "CustomOp",
    "get_custom_op",
    "register_custom_op",
    "registered_custom_ops",
    "unregister_custom_op",
    "ConvEdge",
    "CustomEdge",
    "DropoutEdge",
    "MaxWindowEdge",
    "RuntimeEdge",
    "SharedKernel",
    "TransferEdge",
    "make_runtime_edge",
    "copy_parameters",
    "dense_equivalent_network",
    "dense_network_field_of_view",
    "pooling_period",
    "sliding_window_forward",
    "sparse_lattice",
    "BinaryLogisticLoss",
    "EuclideanLoss",
    "Loss",
    "SoftmaxCrossEntropyLoss",
    "get_loss",
    "branch_edge_names",
    "build_multiscale_graph",
    "make_scale_invariant",
    "Network",
    "RuntimeNode",
    "SGD",
    "UpdateState",
    "checkpoint_digest",
    "latest_checkpoint",
    "load_latest_checkpoint",
    "load_network",
    "network_state",
    "save_network",
    "state_digest",
    "field_of_view_of",
    "tile_plan",
    "tiled_forward",
    "DataProvider",
    "Sample",
    "Trainer",
    "TrainingDiverged",
    "TrainingReport",
    "measure_seconds_per_update",
]
