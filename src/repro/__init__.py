"""repro — reproduction of "Attacking Split Manufacturing from a Deep
Learning Perspective" (Li et al., DAC 2019).

The package is organised bottom-up:

* :mod:`repro.nn` — NumPy deep-learning framework (layers, losses,
  optimisers) replacing the paper's TensorFlow stack;
* :mod:`repro.cells` — NanGate-45nm-like standard cell library;
* :mod:`repro.netlist` — netlists, synthetic benchmark generators and
  the Table 3 design suite;
* :mod:`repro.layout` — floorplan, quadratic placement, grid routing;
* :mod:`repro.split` — split manufacturing: fragments, virtual pins,
  the CCR metric;
* :mod:`repro.attacks` — proximity and network-flow baselines;
* :mod:`repro.core` — the paper's contribution: candidate selection,
  vector/image features, SplitNet and the DL attack;
* :mod:`repro.defense` — placement/routing defenses (future work);
* :mod:`repro.pipeline` — cached end-to-end flow orchestration;
* :mod:`repro.eval` — report types for Table 3, Figure 5 and the
  candidate-list comparison;
* :mod:`repro.experiments` — scenario specs, grids, sweep engine,
  results store;
* :mod:`repro.service` — attack-as-a-service (queue/scheduler/HTTP);
* :mod:`repro.api` — the public SDK: one ``Client`` over pluggable
  local / service execution backends.

SDK quickstart::

    from repro.api import Client
    with Client() as client:
        print(client.attack("c432", attacks=("proximity",)).render())

Quickstart::

    from repro import quick_attack_demo
    print(quick_attack_demo())
"""

from . import attacks, cells, core, defense, eval, layout, netlist, nn, pipeline, split
from .core import AttackConfig, DLAttack
from .split import ccr, split_design

__version__ = "1.0.0"

__all__ = [
    "AttackConfig",
    "DLAttack",
    "attacks",
    "ccr",
    "cells",
    "core",
    "defense",
    "eval",
    "layout",
    "netlist",
    "nn",
    "pipeline",
    "quick_attack_demo",
    "split",
    "split_design",
]


def quick_attack_demo() -> str:
    """Train the attack on two tiny designs and attack a third.

    Returns a short report string; runs in well under a minute on a
    laptop CPU.  See ``examples/quickstart.py`` for the annotated
    version of the same flow.
    """
    from .attacks import ProximityAttack
    from .layout import build_layout
    from .netlist import TINY_DESIGNS, build_suite_design

    layer = 3
    splits = {
        d.name: split_design(build_layout(build_suite_design(d)), layer)
        for d in TINY_DESIGNS
    }
    test = splits.pop("tiny_seq")
    attack = DLAttack(AttackConfig.tiny(), split_layer=layer)
    attack.train(list(splits.values()))
    dl_ccr = ccr(test, attack.attack(test).assignment)
    prox_ccr = ccr(test, ProximityAttack().attack(test).assignment)
    return (
        f"design={test.name} split=M{layer} "
        f"DL CCR={dl_ccr:.1f}% proximity CCR={prox_ccr:.1f}%"
    )
