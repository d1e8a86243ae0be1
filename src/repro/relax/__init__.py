"""Geometry optimisation: force field, minimiser, violation census, protocols."""

from .batch import BatchRelaxResult, relax_many
from .forcefield import ForceField, ForceFieldParams
from .hydrogens import MMSystem, prepare_system
from .minimize import MinimizationResult, minimize_system
from .protocols import (
    AlphaFoldRelaxProtocol,
    PreparedRelax,
    RelaxOutcome,
    SinglePassRelaxProtocol,
    relax_structure,
)
from .violations import (
    ViolationReport,
    count_violations,
    is_clashed,
    violating_pairs,
)

__all__ = [
    "BatchRelaxResult",
    "relax_many",
    "ForceField",
    "ForceFieldParams",
    "MMSystem",
    "prepare_system",
    "MinimizationResult",
    "minimize_system",
    "AlphaFoldRelaxProtocol",
    "PreparedRelax",
    "RelaxOutcome",
    "SinglePassRelaxProtocol",
    "relax_structure",
    "ViolationReport",
    "count_violations",
    "is_clashed",
    "violating_pairs",
]
