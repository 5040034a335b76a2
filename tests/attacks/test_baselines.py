"""Baseline attacks: proximity and network flow."""

import pytest

from repro.attacks import NetworkFlowAttack, ProximityAttack
from repro.attacks.network_flow import _min_sink_cap
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import ccr, split_design


@pytest.fixture(scope="module")
def design():
    nl = RandomLogicGenerator().generate("atktest", 100, seed=51)
    return build_layout(nl)


@pytest.fixture(scope="module")
def split_m3(design):
    return split_design(design, 3)


@pytest.fixture(scope="module")
def split_m1(design):
    return split_design(design, 1)


class TestProximity:
    def test_assigns_every_sink_fragment(self, split_m3):
        result = ProximityAttack().attack(split_m3)
        assert set(result.assignment) == {
            f.fragment_id for f in split_m3.sink_fragments
        }

    def test_assignments_are_source_fragments(self, split_m3):
        result = ProximityAttack().attack(split_m3)
        sources = {f.fragment_id for f in split_m3.source_fragments}
        assert set(result.assignment.values()) <= sources

    def test_beats_random_on_m3(self, split_m3):
        """Proximity must beat chance — the paper's premise that layout
        tools leak information."""
        import numpy as np

        result = ProximityAttack().attack(split_m3)
        attack_ccr = ccr(split_m3, result.assignment)
        rng = np.random.default_rng(0)
        sources = [f.fragment_id for f in split_m3.source_fragments]
        random_ccrs = []
        for _ in range(20):
            random_assignment = {
                f.fragment_id: sources[rng.integers(len(sources))]
                for f in split_m3.sink_fragments
            }
            random_ccrs.append(ccr(split_m3, random_assignment))
        assert attack_ccr > np.mean(random_ccrs) * 2

    def test_picks_nearest(self, split_m3):
        result = ProximityAttack().attack(split_m3)
        for sink in split_m3.sink_fragments:
            chosen = split_m3.fragment(result.assignment[sink.fragment_id])
            chosen_d = min(
                abs(a.x - b.x) + abs(a.y - b.y)
                for a in sink.virtual_pins
                for b in chosen.virtual_pins
            )
            for other in split_m3.source_fragments:
                other_d = min(
                    abs(a.x - b.x) + abs(a.y - b.y)
                    for a in sink.virtual_pins
                    for b in other.virtual_pins
                )
                assert chosen_d <= other_d

    def test_result_metadata(self, split_m3):
        result = ProximityAttack().attack(split_m3)
        assert result.attack_name == "proximity"
        assert result.split_layer == 3
        assert result.runtime_s >= 0.0


class TestNetworkFlow:
    def test_assigns_every_sink_fragment(self, split_m3):
        result = NetworkFlowAttack().attack(split_m3)
        expected = {f.fragment_id for f in split_m3.sink_fragments}
        # the escape edge may leave a few unmatched under tight capacity
        assert len(result.assignment) >= 0.9 * len(expected)

    def test_respects_fanout_capacity(self, split_m3):
        attack = NetworkFlowAttack()
        result = attack.attack(split_m3)
        loads: dict[int, int] = {}
        for src in result.assignment.values():
            loads[src] = loads.get(src, 0) + 1
        for src_id, load in loads.items():
            budget = attack._fanout_budget(
                split_m3, split_m3.fragment(src_id), _min_sink_cap(split_m3)
            )
            assert load <= budget

    def test_competitive_with_proximity_m3(self, split_m3):
        flow = ccr(split_m3, NetworkFlowAttack().attack(split_m3).assignment)
        prox = ccr(split_m3, ProximityAttack().attack(split_m3).assignment)
        # flow should not collapse; it usually matches or beats proximity
        assert flow >= 0.7 * prox

    def test_m1_much_harder_than_m3(self, split_m1, split_m3):
        attack = NetworkFlowAttack()
        m1 = ccr(split_m1, attack.attack(split_m1).assignment)
        m3 = ccr(split_m3, attack.attack(split_m3).assignment)
        assert m3 > 1.5 * m1

    def test_k_nearest_must_be_positive(self):
        with pytest.raises(ValueError):
            NetworkFlowAttack(k_nearest=0)

    def test_small_k_still_works(self, split_m3):
        result = NetworkFlowAttack(k_nearest=3).attack(split_m3)
        assert result.assignment
