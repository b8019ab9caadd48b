"""Unit tests for repro.kg.alignment."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import AlignmentSet, mapping_to_alignment


@pytest.fixture
def alignment():
    return AlignmentSet([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])


class TestBasics:
    def test_add_and_contains(self, alignment):
        assert ("a1", "b1") in alignment
        assert ("a1", "b2") not in alignment
        assert len(alignment) == 3

    def test_add_is_idempotent(self, alignment):
        alignment.add("a1", "b1")
        assert len(alignment) == 3

    def test_remove(self, alignment):
        alignment.remove("a1", "b1")
        assert ("a1", "b1") not in alignment
        assert alignment.target_of("a1") is None

    def test_remove_missing_is_noop(self, alignment):
        alignment.remove("zz", "yy")
        assert len(alignment) == 3

    def test_update(self, alignment):
        alignment.update([("a4", "b4"), ("a5", "b5")])
        assert len(alignment) == 5

    def test_equality(self):
        assert AlignmentSet([("a", "b")]) == AlignmentSet([("a", "b")])
        assert AlignmentSet([("a", "b")]) != AlignmentSet([("a", "c")])

    def test_mapping_to_alignment(self):
        alignment = mapping_to_alignment({"a": "b", "c": "d"})
        assert ("a", "b") in alignment and ("c", "d") in alignment


class TestLookup:
    def test_target_of_and_source_of(self, alignment):
        assert alignment.target_of("a1") == "b1"
        assert alignment.source_of("b2") == "a2"
        assert alignment.target_of("missing") is None

    def test_target_of_raises_on_one_to_many(self, alignment):
        alignment.add("a1", "b9")
        with pytest.raises(ValueError):
            alignment.target_of("a1")

    def test_sources_and_targets(self, alignment):
        assert alignment.sources() == {"a1", "a2", "a3"}
        assert alignment.targets() == {"b1", "b2", "b3"}

    def test_has_target_matches_targets(self, alignment):
        alignment.remove("a2", "b2")  # leaves an empty entry in the target index
        for target in ("b1", "b2", "b3", "missing"):
            assert alignment.has_target(target) == (target in alignment.targets())

    def test_targets_of_returns_copy(self, alignment):
        targets = alignment.targets_of("a1")
        targets.add("bogus")
        assert alignment.targets_of("a1") == {"b1"}

    def test_as_dict(self, alignment):
        assert alignment.as_dict() == {"a1": "b1", "a2": "b2", "a3": "b3"}

    def test_as_dict_raises_on_duplicate_source(self, alignment):
        alignment.add("a1", "b9")
        with pytest.raises(ValueError):
            alignment.as_dict()


class TestConflicts:
    def test_one_to_one_detection(self, alignment):
        assert alignment.is_one_to_one()
        alignment.add("a4", "b1")
        assert not alignment.is_one_to_one()

    def test_one_to_many_targets(self, alignment):
        alignment.add("a4", "b1")
        conflicts = alignment.one_to_many_targets()
        assert conflicts == {"b1": {"a1", "a4"}}

    def test_one_to_many_sources(self, alignment):
        alignment.add("a1", "b9")
        conflicts = alignment.one_to_many_sources()
        assert conflicts == {"a1": {"b1", "b9"}}


class TestQualityMetrics:
    def test_accuracy(self, alignment):
        gold = AlignmentSet([("a1", "b1"), ("a2", "bX"), ("a3", "b3")])
        assert alignment.accuracy(gold) == pytest.approx(2 / 3)

    def test_accuracy_empty_gold(self, alignment):
        assert alignment.accuracy(AlignmentSet()) == 0.0

    def test_precision_recall_f1(self):
        predicted = AlignmentSet([("a1", "b1"), ("a2", "bX")])
        gold = AlignmentSet([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
        precision, recall, f1 = predicted.precision_recall_f1(gold)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(1 / 3)
        assert f1 == pytest.approx(0.4)

    def test_precision_recall_empty(self):
        assert AlignmentSet().precision_recall_f1(AlignmentSet([("a", "b")])) == (0.0, 0.0, 0.0)


class TestNoise:
    def test_noise_keeps_size_and_sources(self, alignment):
        noisy = alignment.with_noise(2, rng=random.Random(1))
        assert len(noisy) == len(alignment)
        assert noisy.sources() == alignment.sources()

    def test_noise_breaks_some_pairs(self):
        pairs = [(f"a{i}", f"b{i}") for i in range(30)]
        alignment = AlignmentSet(pairs)
        noisy = alignment.with_noise(10, rng=random.Random(3))
        broken = sum(1 for pair in pairs if pair not in noisy)
        assert broken >= 5

    def test_zero_noise_is_identity(self, alignment):
        assert alignment.with_noise(0) == alignment

    def test_original_not_mutated(self, alignment):
        alignment.with_noise(2, rng=random.Random(5))
        assert len(alignment) == 3


pair_strategy = st.tuples(
    st.sampled_from([f"s{i}" for i in range(12)]),
    st.sampled_from([f"t{i}" for i in range(12)]),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(pair_strategy, max_size=30))
def test_accuracy_against_self_is_one(pairs):
    alignment = AlignmentSet(pairs)
    if len(alignment):
        assert alignment.accuracy(alignment) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(pair_strategy, max_size=30), st.lists(pair_strategy, max_size=30))
def test_precision_recall_bounds(predicted_pairs, gold_pairs):
    predicted = AlignmentSet(predicted_pairs)
    gold = AlignmentSet(gold_pairs)
    precision, recall, f1 = predicted.precision_recall_f1(gold)
    assert 0.0 <= precision <= 1.0
    assert 0.0 <= recall <= 1.0
    assert 0.0 <= f1 <= 1.0
