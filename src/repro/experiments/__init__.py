"""repro.experiments — declarative scenario registry, DAG-aware sweep
engine and queryable results store.

The subsystem turns experiment campaigns into data:

* :class:`ScenarioSpec` — one (design, split layer, defense, attack,
  config, budget) combination; dict/JSON round-trippable and
  content-hashable;
* :mod:`~repro.experiments.registry` — named grids of specs
  (``table3``, ``figure5``, ``defense-sweep``, ``candidate-lists``,
  ``attack-matrix``, ``cross-defense``, plus anything registered at
  runtime) — each paper artifact is one grid;
* :func:`run_sweep` — plans a grid as an artifact DAG (layouts ->
  trained weights -> evaluations), dedups shared artifacts across
  scenarios, executes ready nodes through the multi-process executor
  and resumes from cache/store on re-run;
* :class:`ResultsStore` — append-only JSONL of scenario records under
  ``results/`` with a query/report API the formatters and scripts read
  instead of recomputing.
"""

from .engine import (
    PlanNode,
    SweepPlan,
    SweepResult,
    evaluate_scenario,
    plan_sweep,
    run_node,
    run_sweep,
)
from .registry import (
    GRIDS,
    ScenarioGrid,
    build_grid,
    get_grid,
    list_grids,
    register,
)
from .reports import (
    candidate_lists_report,
    defense_report,
    figure5_report,
    render_records,
    store_summary,
    table3_report,
)
from .spec import ATTACK_KINDS, DEFENSE_KINDS, DefenseSpec, ScenarioSpec
from .store import ResultsStore, ScenarioRecord, record_matches, results_dir

__all__ = [
    "ATTACK_KINDS",
    "DEFENSE_KINDS",
    "DefenseSpec",
    "GRIDS",
    "PlanNode",
    "ResultsStore",
    "ScenarioGrid",
    "ScenarioRecord",
    "ScenarioSpec",
    "SweepPlan",
    "SweepResult",
    "build_grid",
    "candidate_lists_report",
    "defense_report",
    "evaluate_scenario",
    "figure5_report",
    "get_grid",
    "list_grids",
    "plan_sweep",
    "record_matches",
    "register",
    "render_records",
    "results_dir",
    "run_node",
    "run_sweep",
    "store_summary",
    "table3_report",
]
