"""From-scratch random forest + the [9]-style candidate-list attack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import DecisionTree, RandomForest, RandomForestAttack
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import candidate_list_recall, ccr, split_design


def blobs(n=200, d=5, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(-1.0, 0.6, size=(n // 2, d))
    x1 = rng.normal(+1.0, 0.6, size=(n // 2, d))
    x = np.concatenate([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


class TestDecisionTree:
    def test_separable_data_high_accuracy(self):
        x, y = blobs()
        tree = DecisionTree(max_depth=6).fit(x, y)
        preds = (tree.predict_proba(x) > 0.5).astype(int)
        assert (preds == y).mean() > 0.95

    def test_pure_leaf_probability(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTree(max_depth=3, min_samples_leaf=1).fit(x, y)
        assert tree.predict_proba(np.array([[0.5]]))[0] < 0.5
        assert tree.predict_proba(np.array([[11.0]]))[0] > 0.5

    def test_depth_limit_respected(self):
        x, y = blobs(n=100)
        tree = DecisionTree(max_depth=1, min_samples_leaf=1).fit(x, y)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree.root) <= 1

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict_proba(np.zeros((1, 3)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((3,)), np.zeros(3))

    def test_constant_features_give_prior(self):
        x = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTree().fit(x, y)
        assert tree.predict_proba(np.ones((1, 3)))[0] == pytest.approx(0.5)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_probabilities_in_unit_interval(self, seed):
        x, y = blobs(n=60, seed=seed)
        tree = DecisionTree(max_depth=4).fit(x, y)
        probs = tree.predict_proba(x)
        assert np.all((probs >= 0.0) & (probs <= 1.0))


class TestRandomForest:
    def test_beats_or_matches_single_tree(self):
        x, y = blobs(n=300, seed=3)
        rng = np.random.default_rng(4)
        x_noisy = x + rng.normal(0, 0.8, x.shape)
        tree_acc = (
            (DecisionTree(max_depth=4).fit(x_noisy, y).predict_proba(x_noisy) > 0.5)
            == y
        ).mean()
        forest_acc = (
            (RandomForest(n_trees=15, max_depth=4).fit(x_noisy, y)
             .predict_proba(x_noisy) > 0.5)
            == y
        ).mean()
        assert forest_acc >= tree_acc - 0.02

    def test_deterministic_given_seed(self):
        x, y = blobs(n=100, seed=5)
        a = RandomForest(n_trees=5, seed=7).fit(x, y).predict_proba(x)
        b = RandomForest(n_trees=5, seed=7).fit(x, y).predict_proba(x)
        np.testing.assert_allclose(a, b)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict_proba(np.zeros((1, 2)))


class TestRandomForestAttack:
    @pytest.fixture(scope="class")
    def corpus(self):
        splits = []
        for seed in (301, 302, 303):
            nl = RandomLogicGenerator().generate(f"rf{seed}", 60, seed=seed)
            splits.append(split_design(build_layout(nl), 3))
        return splits

    @pytest.fixture(scope="class")
    def attack(self, corpus):
        return RandomForestAttack(n_trees=10, seed=1).train(corpus[:2])

    def test_untrained_raises(self, corpus):
        with pytest.raises(RuntimeError):
            RandomForestAttack().select(corpus[0])

    def test_single_guess_beats_chance(self, corpus, attack):
        test = corpus[2]
        result_ccr = ccr(test, attack.select(test))
        chance = 100.0 / len(test.source_fragments)
        assert result_ccr > 2 * chance

    def test_candidate_lists_nonempty_with_decent_recall(self, corpus, attack):
        """The [9] trade-off: bigger lists, higher recall than a single
        pick — but 'practically impossible to retrieve all connections'."""
        test = corpus[2]
        lists = attack.candidate_lists(test, 0.5)
        assert set(lists.lists) == {
            f.fragment_id for f in test.sink_fragments
        }
        recall = candidate_list_recall(test, lists.lists)
        single_ccr = ccr(test, attack.select(test))
        assert recall >= single_ccr  # lists can only add

    def test_lower_threshold_bigger_lists(self, corpus, attack):
        test = corpus[2]
        tight = attack.candidate_lists(test, 0.5).mean_size()
        loose = attack.candidate_lists(test, 0.05).mean_size()
        assert loose >= tight

    def test_attack_interface(self, corpus, attack):
        result = attack.attack(corpus[2])
        assert result.attack_name == "random-forest"
        assert result.runtime_s > 0
