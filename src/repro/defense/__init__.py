"""repro.defense — placement/routing defenses (the paper's future work)."""

from .evaluation import DefenseCell, DefenseSweepReport
from .lifting import lifted_layout, lifted_net_names
from .perturbation import DefenseReport, perturbed_layout

__all__ = [
    "DefenseCell",
    "DefenseReport",
    "DefenseSweepReport",
    "lifted_layout",
    "lifted_net_names",
    "perturbed_layout",
]
