"""Named scenario grids.

A *grid* is a function from a few parameters to a list of
:class:`~repro.experiments.spec.ScenarioSpec` — the declarative form of
an experiment campaign.  Every paper artifact is one grid here
(``table3``, ``figure5``, ``defense-sweep``, ``candidate-lists``): it
runs as ``Client.run(grid, params)`` and ``ResultSet.report()`` renders
it, on any backend.  The grid is the one place that holds the
artifact's defaults.  Grids without a bespoke report
(``attack-matrix``, ``cross-defense``, ...) render as a record table.
Registering a new grid is the only step needed to make a new campaign
runnable from the CLI (``python -m repro sweep <name>``) and queryable
from the results store.

Use :func:`register` as a decorator::

    @register("my-grid", "what it sweeps")
    def my_grid(designs=("c432",), split_layers=(1, 3)):
        return [ScenarioSpec(design=d, split_layer=m, attack="proximity")
                for d in designs for m in split_layers]
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..core.config import AttackConfig
from .spec import DefenseSpec, ScenarioSpec

# Scaled counterpart of the paper's 100 000 s flow-attack cap.  The
# paper's budget exceeds its largest per-design flow runtime (94 281 s)
# by ~6 %; ours is sized so the flow attack times out on the largest
# scaled designs, reproducing the "N/A" pattern of Table 3.
DEFAULT_FLOW_TIMEOUT_S = 120.0
# Defense-sweep points: perturbation strengths (grid tracks) and the
# fractions of nets lifted above the split layer.
DEFAULT_PERTURBATIONS = (4.0, 8.0, 16.0)
DEFAULT_LIFT_FRACTIONS = (0.25, 0.5)


@dataclass(frozen=True)
class ScenarioGrid:
    name: str
    description: str
    build: Callable[..., list[ScenarioSpec]]

    def parameters(self) -> dict[str, object]:
        """Grid parameter names and defaults (for ``repro scenarios``)."""
        return {
            name: param.default
            for name, param in inspect.signature(self.build).parameters.items()
        }

    def __call__(self, **params) -> list[ScenarioSpec]:
        allowed = set(inspect.signature(self.build).parameters)
        unknown = set(params) - allowed
        if unknown:
            raise TypeError(
                f"grid {self.name!r} takes no parameters {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        return self.build(**params)


GRIDS: dict[str, ScenarioGrid] = {}


def register(name: str, description: str):
    def wrap(fn: Callable[..., list[ScenarioSpec]]):
        if name in GRIDS:
            raise ValueError(f"grid {name!r} already registered")
        GRIDS[name] = ScenarioGrid(name, description, fn)
        return fn

    return wrap


def get_grid(name: str) -> ScenarioGrid:
    try:
        return GRIDS[name]
    except KeyError:
        raise KeyError(
            f"unknown grid {name!r}; registered: {sorted(GRIDS)}"
        ) from None


def list_grids() -> list[ScenarioGrid]:
    return [GRIDS[name] for name in sorted(GRIDS)]


def build_grid(name: str, **params) -> list[ScenarioSpec]:
    return get_grid(name)(**params)


# -- built-in grids -----------------------------------------------------


def _seq(value) -> tuple | None:
    """Coerce a grid parameter to a tuple (CLI ``--param`` may hand a
    bare scalar where the builder iterates)."""
    if value is None:
        return None
    if isinstance(value, (str, int, float)):
        return (value,)
    return tuple(value)


def _as_config(config, default) -> AttackConfig:
    """Accept an AttackConfig, its dict form (JSON ``--param``), or None."""
    if config is None:
        return default
    if isinstance(config, dict):
        return AttackConfig.from_dict(config)
    return config


def _defense_points(perturbations, lift_fractions, seed) -> list[DefenseSpec]:
    """Baseline + perturbation strengths + lift fractions, in sweep order."""
    points = [DefenseSpec()]
    points += [
        DefenseSpec(kind="perturb", strength=float(s), seed=seed)
        for s in _seq(perturbations) or ()
    ]
    points += [
        DefenseSpec(kind="lift", strength=float(f), seed=seed)
        for f in _seq(lift_fractions) or ()
    ]
    return points


def _table3_designs():
    from ..netlist.benchmarks import TABLE3_SPECS

    return [spec.name for spec in TABLE3_SPECS]


@register("table3", "flow vs DL attack over the 16-design suite (Table 3)")
def table3_grid(
    designs=None,
    split_layers=(1, 3),
    config=None,
    train_names=None,
    flow_timeout_s=DEFAULT_FLOW_TIMEOUT_S,
):
    designs = list(_seq(designs) or _table3_designs())
    config = _as_config(config, AttackConfig.benchmark())
    specs = []
    for layer in _seq(split_layers):
        for name in designs:
            specs.append(
                ScenarioSpec(
                    design=name,
                    split_layer=int(layer),
                    attack="flow",
                    flow_timeout_s=flow_timeout_s,
                    tags=("table3",),
                )
            )
            specs.append(
                ScenarioSpec(
                    design=name,
                    split_layer=int(layer),
                    attack="dl",
                    config=config,
                    train_names=train_names,
                    tags=("table3",),
                )
            )
    return specs


@register("figure5", "loss/image-feature ablation on one split layer (Figure 5)")
def figure5_grid(
    designs=("c432", "c880", "c1355", "b11"),
    split_layer=3,
    config=None,
    train_names=None,
):
    from ..eval.figure5 import VARIANTS, variant_config

    designs = _seq(designs)
    base = _as_config(config, AttackConfig.benchmark())
    return [
        ScenarioSpec(
            design=name,
            split_layer=int(split_layer),
            attack="dl",
            config=variant_config(base, variant),
            train_names=train_names,
            cache_free_inference=True,
            label=variant,
            tags=("figure5", variant),
        )
        for variant in VARIANTS
        for name in designs
    ]


@register("defense-sweep", "security/PPA trade-off of the defenses on one design")
def defense_sweep_grid(
    design="c432",
    split_layer=3,
    perturbations=DEFAULT_PERTURBATIONS,
    lift_fractions=DEFAULT_LIFT_FRACTIONS,
    with_flow=True,
    seed=0,
):
    defenses = _defense_points(perturbations, lift_fractions, seed)
    attacks = ["proximity"] + (["flow"] if with_flow else [])
    return [
        ScenarioSpec(
            design=design,
            split_layer=int(split_layer),
            attack=attack,
            defense=defense,
            label=defense.label,
            tags=("defense-sweep",),
        )
        for defense in defenses
        for attack in attacks
    ]


@register("attack-matrix", "every attack on every (design, split layer) cell")
def attack_matrix_grid(
    designs=("c432", "c880"),
    split_layers=(1, 3),
    attacks=("proximity", "flow", "dl"),
    config=None,
    train_names=None,
    flow_timeout_s=DEFAULT_FLOW_TIMEOUT_S,
):
    config = _as_config(config, AttackConfig.benchmark())
    return [
        ScenarioSpec(
            design=name,
            split_layer=int(layer),
            attack=attack,
            config=config if attack == "dl" else None,
            train_names=train_names if attack == "dl" else None,
            flow_timeout_s=flow_timeout_s if attack == "flow" else None,
            tags=("attack-matrix",),
        )
        for name in _seq(designs)
        for layer in _seq(split_layers)
        for attack in _seq(attacks)
    ]


@register(
    "candidate-lists",
    "DL single-pick vs [9]-style RF candidate lists (threshold ablation)",
)
def candidate_lists_grid(
    designs=("c432", "c880", "c1355", "b11"),
    split_layer=3,
    thresholds=(0.2, 0.5),
    config=None,
    train_names=None,
):
    """The paper-introduction argument as a grid: the DL attack's
    committed single pick next to the random forest's
    probability-thresholded candidate lists (recall / list size /
    combination count land in each rf record's ``extra['rf']``).
    ``ResultSet.report()`` renders one row per design and threshold."""
    config = _as_config(config, AttackConfig.benchmark())
    specs = []
    for name in _seq(designs):
        specs.append(
            ScenarioSpec(
                design=name,
                split_layer=int(split_layer),
                attack="dl",
                config=config,
                train_names=train_names,
                tags=("candidate-lists",),
            )
        )
        specs.extend(
            ScenarioSpec(
                design=name,
                split_layer=int(split_layer),
                attack="rf",
                rf_list_threshold=float(threshold),
                train_names=train_names,
                label=f"rf@{float(threshold):g}",
                tags=("candidate-lists",),
            )
            for threshold in _seq(thresholds)
        )
    return specs


@register(
    "ablation",
    "loss/image ablation study (examples/ablation_study.py)",
)
def ablation_grid(
    designs=("c432", "c880", "c1355", "b11"),
    split_layer=3,
    config=None,
    train_names=None,
):
    """The Figure 5 ablation under the name the example script uses.

    Identical scenario hashes to the ``figure5`` grid (the extra tag is
    presentation-only), so an ablation run and a Figure 5 run share
    every store record and cached artifact.
    """
    return [
        spec.with_(tags=spec.tags + ("ablation",))
        for spec in figure5_grid(
            designs=designs,
            split_layer=split_layer,
            config=config,
            train_names=train_names,
        )
    ]


#: Circuit families of the Table 3 suite, keyed by the slug the
#: ``transferability`` grid writes into each scenario's label/tags.
TRANSFER_FAMILIES = {
    "rand": ("c432", "c880", "c2670"),
    "seq": ("b11", "b13", "b7"),
    "arith": ("c6288",),
    "parity": ("c1355", "c1908"),
}


@register(
    "transferability",
    "cross-family generalisation of the trained DL attack",
)
def transferability_grid(
    families=None,
    split_layer=3,
    config=None,
    train_names=None,
):
    """One DL evaluation per design, grouped by circuit family.

    Probes how far the threat model's "database of layouts generated
    in a similar manner" stretches: the mixed-corpus model is evaluated
    on random logic, sequential controllers, arithmetic arrays and
    parity trees separately (``examples/transferability_study.py``
    renders the per-family averages from these records).
    """
    config = _as_config(config, AttackConfig.benchmark())
    wanted = _seq(families) or tuple(TRANSFER_FAMILIES)
    specs = []
    for family in wanted:
        try:
            designs = TRANSFER_FAMILIES[family]
        except KeyError:
            raise KeyError(
                f"unknown family {family!r}; known: "
                f"{sorted(TRANSFER_FAMILIES)}"
            ) from None
        specs.extend(
            ScenarioSpec(
                design=name,
                split_layer=int(split_layer),
                attack="dl",
                config=config,
                train_names=train_names,
                label=family,
                tags=("transferability", family),
            )
            for name in designs
        )
    return specs


@register(
    "cross-defense",
    "defense x split-layer x attack matrix (the paper's future-work space)",
)
def cross_defense_grid(
    designs=("c432",),
    split_layers=(1, 3),
    perturbations=(8.0,),
    lift_fractions=(0.5,),
    attacks=("proximity", "dl"),
    config=None,
    train_names=None,
    flow_timeout_s=DEFAULT_FLOW_TIMEOUT_S,
    seed=0,
):
    """Cross product the bespoke harnesses never covered: how every
    attack degrades under every defense at every split layer."""
    config = _as_config(config, AttackConfig.benchmark())
    defenses = _defense_points(perturbations, lift_fractions, seed)
    return [
        ScenarioSpec(
            design=name,
            split_layer=int(layer),
            attack=attack,
            defense=defense,
            config=config if attack == "dl" else None,
            train_names=train_names if attack == "dl" else None,
            flow_timeout_s=flow_timeout_s if attack == "flow" else None,
            label=defense.label,
            tags=("cross-defense",),
        )
        for name in _seq(designs)
        for layer in _seq(split_layers)
        for defense in defenses
        for attack in _seq(attacks)
    ]
