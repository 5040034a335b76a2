"""Pipeline caching: layouts and trained attacks."""

import pytest

from repro.core import AttackConfig
from repro.core.artifacts import weights_key
from repro.pipeline import (
    build_netlist,
    clear_memo,
    get_defended_layout,
    get_split,
    trained_attack,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memo()
    yield
    clear_memo()


class TestNetlistLookup:
    def test_table3_design(self):
        nl = build_netlist("c432")
        assert nl.name == "c432"

    def test_suite_design(self):
        nl = build_netlist("tiny_a")
        assert nl.name == "tiny_a"

    def test_unknown_design(self):
        with pytest.raises(KeyError, match="unknown design"):
            build_netlist("nope_99")


class TestLayoutCache:
    def test_memoised_within_process(self):
        a = get_defended_layout("tiny_a")
        b = get_defended_layout("tiny_a")
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path):
        first = get_defended_layout("tiny_a")
        clear_memo()
        second = get_defended_layout("tiny_a")  # now from disk
        assert first is not second
        assert first.placement.locations == second.placement.locations
        for name, route in first.routes.items():
            assert route.edges == second.routes[name].edges

    def test_disk_cache_disabled(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        layout = get_defended_layout("tiny_b")
        assert layout is get_defended_layout("tiny_b")

    def test_split_memoised(self):
        a = get_split("tiny_a", 3)
        assert a is get_split("tiny_a", 3)
        assert a is not get_split("tiny_a", 1)


class TestTrainedAttackCache:
    def test_train_and_reload(self):
        cfg = AttackConfig.tiny().with_(epochs=2)
        names = ("tiny_a", "tiny_b")
        first = trained_attack(3, cfg, train_names=names)
        second = trained_attack(3, cfg, train_names=names)
        split = get_split("tiny_seq", 3)
        assert first.select(split) == second.select(split)
        # second load must not have retrained
        assert second.log.train_seconds == 0.0

    def test_fingerprint_sensitive_to_config(self):
        a = AttackConfig.tiny()
        b = AttackConfig.tiny().with_(epochs=99)
        names = ("x",)
        assert weights_key(a, 3, names) != weights_key(b, 3, names)
        assert weights_key(a, 1, names) != weights_key(a, 3, names)
