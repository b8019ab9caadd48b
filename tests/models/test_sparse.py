"""Tests for the sparse propagation operator of the GCN-based models.

Both operator builders (:func:`build_adjacency` for GCN-Align and
:meth:`DualAMN._attention_adjacency`) are checked against loop references
of the dense ``n × n`` constructions they replace, on random small KGs that
always contain the cases those constructions treat specially: parallel
triples, a self-loop triple, a seed pair on an existing edge and an
isolated entity.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_benchmark
from repro.kg import AlignmentSet, EADataset, KnowledgeGraph
from repro.models import DualAMN, EntityIndex, TrainingConfig, build_adjacency
from repro.models.sparse import PROPAGATION_CHUNK, SparseOperator

TOLERANCE = 1e-12

entity_strategy = st.integers(0, 7)
triple_strategy = st.tuples(entity_strategy, st.integers(0, 2), entity_strategy)

#: Present in every generated example (KG1 names): ``e0 -> e1`` under two
#: relations, a self-loop on ``e2``, and the seed pair ``(e0, e1)`` on that
#: existing edge.  ``lonely`` has no triple at all.
FORCED_TRIPLES = [(0, 0, 1), (0, 1, 1), (2, 0, 2)]
FORCED_SEED = (0, 1)


def make_dataset(kg1_triples, kg2_triples, seeds) -> EADataset:
    """KG1 over ``e0..e7``, KG2 over ``e4..e11``: the names ``e4..e7`` are shared.

    Both KGs hold all their entities whether or not a triple touches them,
    so a generated example may have more isolated entities than ``lonely``.
    """

    def triples(raw, offset):
        return [(f"e{h + offset}", f"r{r}", f"e{t + offset}") for h, r, t in raw]

    kg1_entities = [f"e{i}" for i in range(8)] + ["lonely"]
    kg2_entities = [f"e{i + 4}" for i in range(8)]
    kg1 = KnowledgeGraph(triples(FORCED_TRIPLES + kg1_triples, 0), entities=kg1_entities)
    kg2 = KnowledgeGraph(triples(kg2_triples, 4), entities=kg2_entities)
    seed = AlignmentSet([(f"e{s}", f"e{t + 4}") for s, t in seeds])
    seed.add(f"e{FORCED_SEED[0]}", f"e{FORCED_SEED[1]}")
    return EADataset(kg1, kg2, seed, AlignmentSet())


def dense_adjacency_reference(dataset: EADataset, index: EntityIndex) -> np.ndarray:
    """Former dense ``build_adjacency``: binary edges, plus I, symmetric-normalised."""
    n = index.num_entities()
    reference = np.zeros((n, n))
    for kg in (dataset.kg1, dataset.kg2):
        for triple in kg.triples:
            i = index.entity_to_id[triple.head]
            j = index.entity_to_id[triple.tail]
            reference[i, j] = 1.0
            reference[j, i] = 1.0
    for source, target in dataset.train_alignment:
        i = index.entity_to_id[source]
        j = index.entity_to_id[target]
        reference[i, j] = 1.0
        reference[j, i] = 1.0
    reference += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(reference.sum(axis=1))
    return reference * inv_sqrt[:, None] * inv_sqrt[None, :]


def dense_attention_reference(
    triples: np.ndarray,
    index: EntityIndex,
    entity_matrix: np.ndarray,
    source_ids: np.ndarray,
    target_ids: np.ndarray,
) -> np.ndarray:
    """Former dense ``DualAMN._attention_adjacency``, one cell update at a time."""
    n = index.num_entities()
    adjacency = np.zeros((n, n))
    if len(triples):
        relation_matrix = DualAMN()._relation_embeddings(triples, index, entity_matrix)
        scores = np.array([entity_matrix[h] @ relation_matrix[r] for h, r, _ in triples])
        weights = np.exp(np.clip(scores / (np.std(scores) + 1e-8), -10.0, 10.0))
        for (head, _, tail), weight in zip(triples, weights):
            adjacency[head, tail] += weight
        for (head, _, tail), weight in zip(triples, weights):
            adjacency[tail, head] += weight
    if len(source_ids):
        positive = adjacency[adjacency > 0]
        mean_weight = positive.mean() if positive.size else 1.0
        for source, target in zip(source_ids, target_ids):
            adjacency[source, target] += mean_weight
        for source, target in zip(source_ids, target_ids):
            adjacency[target, source] += mean_weight
    adjacency += np.eye(n)
    return adjacency / adjacency.sum(axis=1, keepdims=True)


def assert_matches_dense(operator: SparseOperator, dense: np.ndarray, rng: np.random.Generator):
    n = dense.shape[0]
    assert operator.shape == dense.shape
    # Widths below, at and above one propagation chunk.
    for width in (1, PROPAGATION_CHUNK, PROPAGATION_CHUNK + 5):
        matrix = rng.normal(size=(n, width))
        np.testing.assert_allclose(operator @ matrix, dense @ matrix, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(operator.T @ matrix, dense.T @ matrix, rtol=0, atol=TOLERANCE)


def seed_ids(dataset: EADataset, index: EntityIndex) -> tuple[np.ndarray, np.ndarray]:
    pairs = sorted(dataset.train_alignment.pairs)
    return index.entity_ids([s for s, _ in pairs]), index.entity_ids([t for _, t in pairs])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(triple_strategy, max_size=20),
    st.lists(triple_strategy, max_size=20),
    st.lists(st.tuples(entity_strategy, entity_strategy), max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_build_adjacency_matches_dense_reference(kg1_triples, kg2_triples, seeds, seed):
    dataset = make_dataset(kg1_triples, kg2_triples, seeds)
    index = EntityIndex(dataset)
    operator = build_adjacency(dataset.kg1, dataset.kg2, index, dataset.train_alignment)
    dense = dense_adjacency_reference(dataset, index)
    assert_matches_dense(operator, dense, np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(triple_strategy, max_size=20),
    st.lists(triple_strategy, max_size=20),
    st.lists(st.tuples(entity_strategy, entity_strategy), max_size=5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_attention_adjacency_matches_dense_reference(
    kg1_triples, kg2_triples, seeds, with_seeds, seed
):
    dataset = make_dataset(kg1_triples, kg2_triples, seeds)
    index = EntityIndex(dataset)
    rng = np.random.default_rng(seed)
    triples = index.triples_to_ids(DualAMN._all_triples(dataset))
    entity_matrix = rng.normal(size=(index.num_entities(), 4))
    source_ids, target_ids = seed_ids(dataset, index)
    if not with_seeds:
        source_ids, target_ids = source_ids[:0], target_ids[:0]
    operator = DualAMN()._attention_adjacency(
        triples, index, entity_matrix, source_ids, target_ids
    )
    dense = dense_attention_reference(triples, index, entity_matrix, source_ids, target_ids)
    np.testing.assert_allclose(dense.sum(axis=1), 1.0)
    assert_matches_dense(operator, dense, rng)


def test_attention_adjacency_without_triples_matches_dense_reference():
    dataset = EADataset(
        KnowledgeGraph(entities=["a", "b"]),
        KnowledgeGraph(entities=["x", "y"]),
        AlignmentSet([("a", "x")]),
        AlignmentSet(),
    )
    index = EntityIndex(dataset)
    source_ids, target_ids = seed_ids(dataset, index)
    triples = index.triples_to_ids([])
    entity_matrix = np.ones((4, 2))
    operator = DualAMN()._attention_adjacency(triples, index, entity_matrix, source_ids, target_ids)
    dense = dense_attention_reference(triples, index, entity_matrix, source_ids, target_ids)
    assert_matches_dense(operator, dense, np.random.default_rng(0))


def test_identity_operator_is_exact():
    matrix = np.random.default_rng(0).normal(size=(6, PROPAGATION_CHUNK + 3))
    identity = SparseOperator.identity(6)
    assert np.array_equal(identity @ matrix, matrix)
    assert np.array_equal(identity.T @ matrix, matrix)


@pytest.fixture(scope="module")
def zh_en_scale2():
    return load_benchmark("ZH-EN", scale=2)


def test_operators_hold_o_nnz_bytes(zh_en_scale2):
    dataset = zh_en_scale2
    index = EntityIndex(dataset)
    n = index.num_entities()
    triples = index.triples_to_ids(DualAMN._all_triples(dataset))
    source_ids, target_ids = seed_ids(dataset, index)
    embeddings = np.random.default_rng(0).normal(size=(n, 8))
    operators = {
        "build_adjacency": build_adjacency(
            dataset.kg1, dataset.kg2, index, dataset.train_alignment
        ),
        "attention": DualAMN()._attention_adjacency(
            triples, index, embeddings, source_ids, target_ids
        ),
    }
    max_nnz = 2 * len(triples) + 2 * len(source_ids) + n
    for name, operator in operators.items():
        operator @ np.ones((n, PROPAGATION_CHUNK))
        assert operator.values.size <= max_nnz, name
        # Triplets plus one cached flat index per propagated width.
        assert operator.nbytes <= 8 * operator.values.size * (3 + PROPAGATION_CHUNK), name
        assert operator.nbytes < 8 * n * n, name


def test_dual_amn_fit_stays_below_one_dense_matrix(zh_en_scale2):
    dataset = zh_en_scale2
    n = EntityIndex(dataset).num_entities()
    model = DualAMN(TrainingConfig(dim=32, epochs=3, seed=1))
    tracemalloc.start()
    try:
        model.fit(dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n

