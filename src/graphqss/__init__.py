"""Graph-state quantum secret sharing: access structures, thresholds,
protocol simulation and exact counting bounds."""


def _lazy_submodule(name: str):
    """The submodule ``name``, registered in sys.modules (so that ``import
    graphqss.<name>`` and anything that walks the package's modules find
    it) but run on its first attribute access."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f".{name}", __name__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# quantum imports NumPy when it loads (access only inside the level walk behind
# k*), so integer-only work never runs it; its seven re-exports resolve through
# __getattr__.  It is registered before any submodule is imported, so that the
# module-level `from . import quantum` in protocol and cli binds it unrun.
quantum = _lazy_submodule("quantum")

from .access import (
    AccessReport,
    CVerdict,
    QVerdict,
    ThresholdReport,
    access_report,
    edge_mask_graph,
    exhaustive_graph_search,
    product_threshold_bound,
    q_accessing,
    qstar_threshold,
    reconstruction_witnesses,
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
from .shamir import ClassicalShare

__version__ = "0.1.0"

_QUANTUM_NAMES = (
    "PauliOp",
    "StateVector",
    "apply_pauli",
    "distinguishability",
    "embed_secret",
    "encode_classical",
    "graph_state",
)


def __getattr__(name: str):
    if name in _QUANTUM_NAMES:
        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_QUANTUM_NAMES))
