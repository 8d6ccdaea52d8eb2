"""Graph-state quantum secret sharing: access structures, thresholds,
protocol simulation and exact counting bounds."""

from .access import (
    AccessReport,
    CVerdict,
    QVerdict,
    ThresholdReport,
    WitnessPair,
    access_report,
    classify_c,
    edge_mask_graph,
    exhaustive_graph_search,
    product_threshold_bound,
    q_accessing,
    q_classify,
    qstar_threshold,
    reconstruction_witnesses,
    scan_size_k,
    small_witness,
)
from .bounds import BoundReport, counting_inequality, min_feasible_k, pure_qss_feasibility
from .graphs import (
    Graph,
    VertexSet,
    c5_power,
    complement,
    delta_complement,
    family,
    lexicographic_product,
    odd_neighborhood,
    parse_graph,
    serialize_graph,
)
from .protocol import ProtocolConfig, RecoveredSecret, Transcript, deal, privacy_probe, reconstruct
from .quantum import (
    DensityMatrix,
    PauliOp,
    StateVector,
    apply_controlled_VC,
    apply_isometry_UD,
    apply_pauli,
    distinguishability,
    embed_secret,
    encode_classical,
    graph_state,
    measure_access_observable,
    reduced_density,
)
from .shamir import ClassicalShare

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
