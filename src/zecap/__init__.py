"""Zero-error capacity toolkit for quantum channels.

Computes what a channel can transmit with literally zero probability of
error: confusability graphs of state/measurement ensembles, independence
numbers of their strong powers, Lovász theta upper bounds, a search over
deterministic state/POVM alignments, and explicit zero-error block codes with
decoders.
"""

from ._version import __version__
from .capacity import CapacityBounds, RateEntry, capacity_bounds
from .blockcode import (
    DecoderTable,
    QuantumBlockCode,
    ZeroErrorReport,
    build_code,
    build_decoder,
    code_from_witness,
    verify_zero_error,
)
from .channels import (
    bitflip_channel,
    dephasing_channel,
    depolarizing_channel,
    embed_classical,
    identity_channel,
    pentagon_matrix,
)
from .confusability import (
    DEFAULT_EPS,
    ConfusabilityGraph,
    StateSet,
    confusability_graph,
    has_positive_zero_error_capacity,
    non_adjacent_pair_count,
    support_set,
)
from .errors import (
    AmbiguousSupportsError,
    DimensionMismatchError,
    EmptySupportError,
    InvalidProbabilitiesError,
    NotConvergedError,
    NotHermitianError,
    NotPsdError,
    NotStochasticError,
    NotTracePreservingError,
    PovmIncompleteError,
    SizeLimitError,
    TraceNotOneError,
    ValidationError,
    ZecapError,
)
from .formats import builtin_spec
from .graphs import (
    MAX_VERTICES,
    Graph,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    independence_number,
    strong_power,
    strong_product,
)
from .quantum import (
    DensityMatrix,
    Povm,
    QuantumChannel,
    apply_channel,
    basis_state,
    outcome_probabilities,
    pure_state,
    validate_channel,
    validate_povm,
    validate_state,
)
from .search import (
    SearchConfig,
    SearchResult,
    optimize_pair,
)
from .theta import MAX_SDP_VERTICES, ThetaResult, lovasz_theta
