"""Unit tests for repro.kg.graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import KnowledgeGraph, Triple


@pytest.fixture
def small_kg():
    return KnowledgeGraph(
        [
            ("newsom", "governor", "california"),
            ("brown", "predecessor", "newsom"),
            ("newsom", "party", "democrats"),
            ("brown", "governor", "california"),
            ("sacramento", "capital_of", "california"),
        ],
        name="toy",
    )


class TestBasicAccessors:
    def test_counts(self, small_kg):
        assert small_kg.num_triples() == 5
        assert small_kg.num_relations() == 4
        assert small_kg.num_entities() == 5

    def test_membership_and_len(self, small_kg):
        assert Triple("newsom", "governor", "california") in small_kg
        assert Triple("newsom", "governor", "texas") not in small_kg
        assert len(small_kg) == 5

    def test_add_triple_is_idempotent(self, small_kg):
        before = small_kg.num_triples()
        small_kg.add_triple(("newsom", "governor", "california"))
        assert small_kg.num_triples() == before

    def test_add_entity_without_triples(self):
        kg = KnowledgeGraph()
        kg.add_entity("lonely")
        assert "lonely" in kg.entities
        assert kg.degree("lonely") == 0

    def test_explicit_isolated_entities_kept(self):
        kg = KnowledgeGraph([("a", "r", "b")], entities=["c"])
        assert "c" in kg.entities


class TestAdjacency:
    def test_outgoing_incoming(self, small_kg):
        assert {t.tail for t in small_kg.outgoing("newsom")} == {"california", "democrats"}
        assert {t.head for t in small_kg.incoming("newsom")} == {"brown"}

    def test_triples_of_union(self, small_kg):
        assert len(small_kg.triples_of("newsom")) == 3

    def test_neighbors(self, small_kg):
        assert small_kg.neighbors("newsom") == {"california", "democrats", "brown"}

    def test_degree(self, small_kg):
        assert small_kg.degree("california") == 3
        assert small_kg.degree("unknown") == 0

    def test_triples_with_relation(self, small_kg):
        assert len(small_kg.triples_with_relation("governor")) == 2

    def test_triples_within_one_hop_equals_incident(self, small_kg):
        assert small_kg.triples_within_hops("newsom", 1) == small_kg.triples_of("newsom")

    def test_triples_within_two_hops_grows(self, small_kg):
        one = small_kg.triples_within_hops("newsom", 1)
        two = small_kg.triples_within_hops("newsom", 2)
        assert one <= two
        assert Triple("sacramento", "capital_of", "california") in two

    def test_triples_within_hops_rejects_zero(self, small_kg):
        with pytest.raises(ValueError):
            small_kg.triples_within_hops("newsom", 0)


class TestRelationPaths:
    def test_direct_path(self, small_kg):
        paths = small_kg.relation_paths("newsom", "california", max_length=1)
        assert paths == [(Triple("newsom", "governor", "california"),)]

    def test_two_hop_path_found(self, small_kg):
        paths = small_kg.relation_paths("democrats", "california", max_length=2)
        assert any(len(p) == 2 for p in paths)

    def test_paths_do_not_revisit_entities(self, small_kg):
        for path in small_kg.relation_paths("brown", "democrats", max_length=3):
            entities = ["brown"]
            for triple in path:
                entities.append(triple.other_entity(entities[-1]))
            assert len(entities) == len(set(entities))

    def test_invalid_max_length(self, small_kg):
        with pytest.raises(ValueError):
            small_kg.relation_paths("a", "b", max_length=0)


class TestFunctionality:
    def test_functional_relation(self):
        kg = KnowledgeGraph([("a", "born_in", "x"), ("b", "born_in", "y"), ("c", "born_in", "x")])
        assert kg.functionality("born_in") == pytest.approx(1.0)
        assert kg.inverse_functionality("born_in") == pytest.approx(2 / 3)

    def test_non_functional_relation(self):
        kg = KnowledgeGraph([("a", "likes", "x"), ("a", "likes", "y"), ("a", "likes", "z")])
        assert kg.functionality("likes") == pytest.approx(1 / 3)
        assert kg.inverse_functionality("likes") == pytest.approx(1.0)

    def test_unknown_relation_is_zero(self, small_kg):
        assert small_kg.functionality("nope") == 0.0

    def test_cache_invalidation_on_add(self):
        kg = KnowledgeGraph([("a", "r", "x")])
        assert kg.functionality("r") == 1.0
        kg.add_triple(("a", "r", "y"))
        assert kg.functionality("r") == pytest.approx(0.5)

    def test_functionality_table_covers_all_relations(self, small_kg):
        table = small_kg.functionality_table()
        assert set(table) == small_kg.relations


class TestCopiesAndSubgraphs:
    def test_copy_is_independent(self, small_kg):
        clone = small_kg.copy()
        clone.add_triple(("x", "r", "y"))
        assert Triple("x", "r", "y") not in small_kg

    def test_without_triples_preserves_entities(self, small_kg):
        reduced = small_kg.without_triples([Triple("newsom", "governor", "california")])
        assert reduced.num_triples() == small_kg.num_triples() - 1
        assert reduced.entities == small_kg.entities

    def test_remove_triple_keeps_entities(self, small_kg):
        small_kg.remove_triple(Triple("sacramento", "capital_of", "california"))
        assert "sacramento" in small_kg.entities
        assert small_kg.degree("sacramento") == 0

    def test_subgraph_of(self, small_kg):
        sub = small_kg.subgraph_of({"newsom", "california", "brown"})
        assert Triple("newsom", "governor", "california") in sub
        assert Triple("newsom", "party", "democrats") not in sub


triple_strategy = st.tuples(
    st.sampled_from("abcdefgh"),
    st.sampled_from(["r1", "r2", "r3"]),
    st.sampled_from("abcdefgh"),
).filter(lambda t: t[0] != t[2])


@settings(max_examples=50, deadline=None)
@given(st.lists(triple_strategy, max_size=40))
def test_functionality_bounds(raw):
    kg = KnowledgeGraph(raw)
    for relation in kg.relations:
        assert 0.0 < kg.functionality(relation) <= 1.0
        assert 0.0 < kg.inverse_functionality(relation) <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(triple_strategy, max_size=40))
def test_degree_sum_is_twice_triples(raw):
    kg = KnowledgeGraph(raw)
    assert sum(kg.degree(e) for e in kg.entities) == 2 * kg.num_triples()


@settings(max_examples=30, deadline=None)
@given(st.lists(triple_strategy, min_size=1, max_size=40), st.data())
def test_without_triples_never_contains_removed(raw, data):
    kg = KnowledgeGraph(raw)
    triples = sorted(kg.triples, key=lambda t: t.as_tuple())
    removed = data.draw(st.lists(st.sampled_from(triples), max_size=len(triples)))
    reduced = kg.without_triples(removed)
    for triple in removed:
        assert triple not in reduced


class TestMutationLog:
    def test_versions_advance_one_per_logged_mutation(self, small_kg):
        base = small_kg.version
        small_kg.add_triple(("newsom", "born_in", "san_francisco"))
        small_kg.remove_triple(("brown", "governor", "california"))
        records = small_kg.mutations_since(base)
        assert [record.op for record in records] == ["add", "remove"]
        assert [record.version for record in records] == [base + 1, base + 2]
        assert records[0].endpoints() == ("newsom", "san_francisco")

    def test_equal_version_yields_empty_and_future_yields_none(self, small_kg):
        assert small_kg.mutations_since(small_kg.version) == []
        assert small_kg.mutations_since(small_kg.version + 1) is None

    def test_uncovered_span_yields_none(self, small_kg):
        base = small_kg.version
        small_kg.add_triple(("a", "r", "b"))
        small_kg.add_triple(("c", "r", "d"))
        while small_kg._mutation_log[0].version <= base + 1:
            small_kg._mutation_log.popleft()  # simulate log overflow
        assert small_kg.mutations_since(base) is None
        # The span starting after the evicted record is still covered.
        assert len(small_kg.mutations_since(base + 1)) == 1

    def test_noop_mutations_do_not_log(self, small_kg):
        base = small_kg.version
        small_kg.add_triple(("newsom", "governor", "california"))  # already present
        small_kg.remove_triple(("nobody", "r", "nothing"))  # never present
        assert small_kg.version == base
        assert small_kg.mutations_since(base) == []

    def test_entity_only_mutation_has_empty_blast(self, small_kg):
        base = small_kg.version
        small_kg.add_entity("fresno")
        records = small_kg.mutations_since(base)
        assert [record.op for record in records] == ["add_entity"]
        assert records[0].endpoints() == ()
        assert small_kg.blast_radius(records, hops=2) == set()


class TestBlastRadius:
    @pytest.fixture
    def chain(self):
        return KnowledgeGraph(
            [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("d", "r", "e")],
            name="chain",
        )

    def test_removal_ball_on_post_mutation_graph(self, chain):
        base = chain.version
        chain.remove_triple(("a", "r", "b"))
        records = chain.mutations_since(base)
        # Post-mutation graph: a is isolated, b-c-d-e remains a chain.
        assert chain.blast_radius(records, hops=1) == {"a", "b", "c"}
        assert chain.blast_radius(records, hops=2) == {"a", "b", "c", "d"}

    def test_addition_seeds_both_endpoints(self, chain):
        base = chain.version
        chain.add_triple(("e", "r2", "a"))
        records = chain.mutations_since(base)
        assert chain.blast_radius(records, hops=1) == {"a", "b", "d", "e"}

    def test_relation_seeding_reaches_distant_carriers(self, chain):
        base = chain.version
        chain.remove_triple(("c", "r", "d"))
        records = chain.mutations_since(base)
        # Structurally only the ball around {c, d} is affected...
        assert chain.blast_radius(records, hops=1) == {"b", "c", "d", "e"}
        # ...but every surviving carrier of relation "r" shifts func(r),
        # so relation seeding pulls in the whole graph here.
        assert chain.blast_radius(records, hops=1, include_relations=True) == {
            "a", "b", "c", "d", "e",
        }

    def test_index_ball_ignores_unknown_seeds(self, chain):
        index = chain.index()
        assert index.blast_radius(["ghost"], hops=3) == set()
        assert index.blast_radius(["a", "a", "ghost"], hops=1) == {"a", "b"}

    def test_memoized_ball_is_a_frozenset_dropped_on_the_next_mutation(self, chain):
        base = chain.version
        chain.remove_triple(("a", "r", "b"))
        records = chain.mutations_since(base)
        ball = chain.blast_radius(records, hops=1)
        assert isinstance(ball, frozenset)
        assert chain.blast_radius(records, hops=1) is ball
        assert chain.blast_radius(records, hops=2) == {"a", "b", "c", "d"}
        chain.add_triple(("a", "r2", "e"))
        # Same records, new graph: recomputed on the post-mutation index.
        assert chain.blast_radius(records, hops=1) == {"a", "b", "c", "e"}


_graph_edges = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from(["p", "q"]), st.integers(0, 7)),
    max_size=16,
)


@settings(max_examples=60, deadline=None)
@given(
    edges=_graph_edges,
    seeds=st.lists(st.integers(0, 9), max_size=4),
    hops=st.integers(0, 3),
)
def test_multi_source_ball_equals_union_of_single_source_balls(edges, seeds, hops):
    kg = KnowledgeGraph(
        [(f"n{h}", r, f"n{t}") for h, r, t in edges],
        entities=[f"n{i}" for i in range(8)],
    )
    index = kg.index()
    names = [f"n{i}" for i in seeds]  # n8, n9 are unknown to the graph
    expected: set[str] = set()
    for name in names:
        if name in index.entity_to_id:
            seen, _ = index._bfs(index.entity_to_id[name], hops)
            expected |= {index.entities[i] for i in seen}
    assert index.blast_radius(names, hops) == expected
