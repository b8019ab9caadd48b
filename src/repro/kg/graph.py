"""Knowledge graph container with the indexes ExEA relies on.

A :class:`KnowledgeGraph` stores entities, relations and triples and
maintains adjacency indexes (outgoing/incoming triples per entity,
triples per relation) plus relation *functionality* statistics, which the
ADG edge-weight computation of the paper (Section III-B, Eq. 3-5, following
PARIS [2]) is built on.

Cache architecture / invalidation contract
------------------------------------------

On top of the set-based adjacency dictionaries, the graph keeps an
array-backed integer snapshot (:class:`KGIndex`, CSR-style incident-triple
arrays keyed by an entity-id map) plus memo tables for the traversal
queries on the explanation hot path:

* ``neighbors(entity)`` — per-entity neighbour sets,
* ``triples_within_hops(entity, h)`` — the candidate sets ``T_e``,
* ``entities_within_hops(entity, h)`` — the matched-neighbour universe,
* ``relation_paths(source, target, h)`` — path enumeration,
* ``blast_radius(records, h)`` — the ball a write invalidates, which the
  service and every engine backend ask for after the same write.

All of these are built lazily on first use and dropped wholesale by
:meth:`_invalidate_caches`, which every mutation (``add_triple``,
``remove_triple``, ``add_entity``) funnels through; each invalidation also
bumps the monotonically increasing :attr:`version` counter so that callers
holding *derived* caches (the explanation engine, the repair confidence
oracle) can detect staleness without subscribing to the graph.  The
fidelity protocol mutates graphs mid-experiment, so correctness of this
contract is covered by ``tests/core/test_engine.py``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .triple import Triple, make_triples

#: How many mutation records a graph retains.  The log only needs to span
#: the window between two consecutive scoped invalidations of a derived
#: cache; anything older falls back to wholesale invalidation.
MUTATION_LOG_CAPACITY = 4096


@dataclass(frozen=True)
class MutationRecord:
    """One structural mutation of a :class:`KnowledgeGraph`.

    ``version`` is the graph version *after* the mutation was applied, so a
    contiguous run of records reconstructs the exact version history.
    ``triple`` is ``None`` for entity-only mutations (``add_entity``), which
    have an empty structural blast radius.
    """

    op: str  # "add" | "remove" | "add_entity"
    version: int
    triple: Triple | None = None
    entity: str | None = None

    def endpoints(self) -> tuple[str, ...]:
        """The entities whose neighbourhood the mutation touched."""
        if self.triple is not None:
            return (self.triple.head, self.triple.tail)
        return ()


class KGIndex:
    """Array-backed integer adjacency snapshot of a :class:`KnowledgeGraph`.

    The index maps entities/relations to dense integer ids (sorted order,
    so ids are deterministic) and stores the incident triples of every
    entity in CSR form: ``indptr[e]:indptr[e+1]`` delimits the slots of
    entity ``e`` in the parallel ``incident_triples`` (triple ids) and
    ``incident_others`` (opposite-endpoint entity ids) arrays.  Outgoing
    slots precede incoming slots per entity, each in sorted-triple order,
    which makes every traversal below deterministic.

    Instances are immutable snapshots; the owning graph discards its index
    whenever it mutates.
    """

    def __init__(self, kg: "KnowledgeGraph") -> None:
        self.entities: list[str] = sorted(kg.entities)
        self.entity_to_id: dict[str, int] = {e: i for i, e in enumerate(self.entities)}
        self.relations: list[str] = sorted(kg.relations)
        self.relation_to_id: dict[str, int] = {r: i for i, r in enumerate(self.relations)}
        # key= builds each sort key once; dataclass __lt__ would rebuild
        # field tuples per comparison.
        self.triples: list[Triple] = sorted(kg.triples, key=Triple.as_tuple)
        num_entities = len(self.entities)
        num_triples = len(self.triples)
        self.head_ids = np.fromiter(
            (self.entity_to_id[t.head] for t in self.triples), dtype=np.int64, count=num_triples
        )
        self.tail_ids = np.fromiter(
            (self.entity_to_id[t.tail] for t in self.triples), dtype=np.int64, count=num_triples
        )
        self.relation_ids = np.fromiter(
            (self.relation_to_id[t.relation] for t in self.triples), dtype=np.int64, count=num_triples
        )
        endpoints = np.concatenate([self.head_ids, self.tail_ids])
        triple_ids = np.concatenate([np.arange(num_triples, dtype=np.int64)] * 2)
        others = np.concatenate([self.tail_ids, self.head_ids])
        order = np.argsort(endpoints, kind="stable")
        self.incident_triples = triple_ids[order]
        self.incident_others = others[order]
        counts = np.bincount(endpoints, minlength=num_entities)
        self.indptr = np.zeros(num_entities + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self._adjacency: list[list[tuple[int, int]]] | None = None
        self._walk_cache: dict[tuple[int, int], dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]] = {}
        self._neighbor_ids_cache: dict[int, list[int]] = {}

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-entity ``(other_id, triple_id)`` lists, derived from the CSR arrays.

        Built lazily on the first traversal: plain-int adjacency lists make
        the (recursive, tiny-frontier) BFS/DFS below several times faster
        than per-slot numpy scalar indexing, while the CSR arrays stay the
        canonical form for vectorised bulk operations.
        """
        if self._adjacency is None:
            others = self.incident_others.tolist()
            triple_ids = self.incident_triples.tolist()
            bounds = self.indptr.tolist()
            self._adjacency = [
                list(zip(others[bounds[e]:bounds[e + 1]], triple_ids[bounds[e]:bounds[e + 1]]))
                for e in range(len(self.entities))
            ]
        return self._adjacency

    # ------------------------------------------------------------------
    def num_entities(self) -> int:
        return len(self.entities)

    def num_triples(self) -> int:
        return len(self.triples)

    def neighbor_ids(self, entity_id: int) -> list[int]:
        """Sorted unique neighbour ids of *entity_id*, excluding itself (memoized).

        Entity ids follow sorted-entity order, so ascending id order equals
        the lexicographic order string-based callers used to sort into —
        integer consumers (e.g. the low-confidence candidate generator)
        inherit the same deterministic iteration for free.
        """
        cached = self._neighbor_ids_cache.get(entity_id)
        if cached is None:
            lo, hi = self.indptr[entity_id], self.indptr[entity_id + 1]
            others = np.unique(self.incident_others[lo:hi])
            cached = [i for i in others.tolist() if i != entity_id]
            self._neighbor_ids_cache[entity_id] = cached
        return cached

    def _bfs(self, entity_id: int, hops: int) -> tuple[set[int], set[int]]:
        """Breadth-first expansion; returns (seen entity ids, collected triple ids)."""
        adjacency = self.adjacency()
        seen = {entity_id}
        collected: set[int] = set()
        frontier = [entity_id]
        for _ in range(hops):
            next_frontier: list[int] = []
            for node in frontier:
                for other, triple_id in adjacency[node]:
                    collected.add(triple_id)
                    if other not in seen:
                        seen.add(other)
                        next_frontier.append(other)
            if not next_frontier:
                break
            frontier = next_frontier
        return seen, collected

    def triples_within_hops(self, entity_id: int, hops: int) -> set[int]:
        """Triple ids within *hops* hops of *entity_id* (BFS over the adjacency)."""
        _, triple_ids = self._bfs(entity_id, hops)
        return triple_ids

    def entities_within_hops(self, entity_id: int, hops: int) -> set[int]:
        """Entity ids within *hops* hops of *entity_id*, excluding itself."""
        seen, _ = self._bfs(entity_id, hops)
        seen.discard(entity_id)
        return seen

    def walks_from(
        self, source_id: int, max_length: int
    ) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
        """All simple walks up to *max_length* hops, grouped by terminal entity.

        Returns ``{terminal_id: [(triple_ids, node_ids), ...]}`` where
        ``node_ids`` is the walk's entity sequence *excluding* the terminal
        (i.e. source plus intermediates — exactly the entities Eq. 2
        averages).  One memoized walk per source replaces one full-ball DFS
        per (source, neighbour) endpoint pair: the per-terminal lists are
        identical — in content *and* order — to a per-target enumeration
        that stops at the target, because a walk never revisits entities
        and recursion follows the same deterministic slot order.

        ``visited`` is a tuple since walks are at most ``max_length`` hops
        deep — linear scans over <= 3 ints beat per-step set allocation.
        """
        key = (source_id, max_length)
        cached = self._walk_cache.get(key)
        if cached is None:
            adjacency = self.adjacency()
            found: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}

            def extend(current: int, visited: tuple[int, ...], path: tuple[int, ...]) -> None:
                deeper = len(path) + 1 < max_length
                for nxt, triple_id in adjacency[current]:
                    if nxt in visited:
                        continue
                    found.setdefault(nxt, []).append((path + (triple_id,), visited))
                    if deeper:
                        extend(nxt, visited + (nxt,), path + (triple_id,))

            extend(source_id, (source_id,), ())
            cached = found
            self._walk_cache[key] = cached
        return cached

    def blast_radius(self, entities: Iterable[str], hops: int) -> frozenset[str]:
        """Entities whose *hops*-hop neighbourhood touches any of *entities*.

        The ball is symmetric: an entity lies within ``hops`` of a seed iff
        the seed lies within ``hops`` of the entity, so the union of BFS
        balls around the mutated endpoints is exactly the set of entities
        whose ``hops``-hop neighbourhood (candidate triples, matched
        neighbours, relation paths) can differ from the previous
        generation.  Computing the ball on the *post-mutation* index is
        conservative for both mutation kinds: an added edge only shrinks
        distances (any entity newly reaching a seed does so through the new
        edge, hence lies in the new ball), and for a removed edge the
        shortest old path from an affected entity to the seed set never
        used the removed edge (it would have hit one of the removed edge's
        endpoints — themselves seeds — earlier), so it survives removal.
        Unknown entity names are ignored.

        The union of the per-seed balls is the ball of radius ``hops``
        around the whole seed set, so one multi-source BFS computes it: each
        level sweeps every triple once and marks the far endpoint of any
        triple with one endpoint reached.
        """
        reached = np.zeros(len(self.entities), dtype=bool)
        seed_ids = [self.entity_to_id[e] for e in entities if e in self.entity_to_id]
        reached[seed_ids] = True
        size = len(set(seed_ids))
        heads, tails = self.head_ids, self.tail_ids
        for _ in range(hops):
            grown = reached.copy()
            grown[tails[reached[heads]]] = True
            grown[heads[reached[tails]]] = True
            grown_size = int(np.count_nonzero(grown))
            if grown_size == size:
                break
            reached, size = grown, grown_size
        return frozenset(self.entities[i] for i in np.flatnonzero(reached).tolist())

    def relation_paths(
        self, source_id: int, target_id: int, max_length: int
    ) -> list[tuple[int, ...]]:
        """Simple paths from *source_id* to *target_id* as tuples of triple ids.

        Mirrors the path semantics of the paper (direction-agnostic walks,
        no revisited entities, the target is never an intermediate node) in
        deterministic slot order; served from the grouped walk cache.
        """
        walks = self.walks_from(source_id, max_length)
        return [triple_ids for triple_ids, _ in walks.get(target_id, [])]


class KnowledgeGraph:
    """A knowledge graph ``K = (E, R, T)`` with adjacency and functionality indexes.

    Args:
        triples: the relation triples of the graph.
        name: optional human-readable name (e.g. ``"zh"`` or ``"dbpedia"``).
        entities: optional explicit entity set; entities appearing in triples
            are always included, this argument only adds isolated entities.
    """

    def __init__(
        self,
        triples: Iterable[Triple | Sequence[str]] = (),
        name: str = "kg",
        entities: Iterable[str] = (),
    ) -> None:
        self.name = name
        self._triples: set[Triple] = set()
        self._entities: set[str] = set(entities)
        self._relations: set[str] = set()
        self._outgoing: dict[str, set[Triple]] = defaultdict(set)
        self._incoming: dict[str, set[Triple]] = defaultdict(set)
        self._by_relation: dict[str, set[Triple]] = defaultdict(set)
        self._functionality_cache: dict[str, float] | None = None
        self._inverse_functionality_cache: dict[str, float] | None = None
        self._version = 0
        self._mutation_log: deque[MutationRecord] = deque(maxlen=MUTATION_LOG_CAPACITY)
        self._index: KGIndex | None = None
        self._neighbor_cache: dict[str, frozenset[str]] = {}
        self._hop_triples_cache: dict[tuple[str, int], frozenset[Triple]] = {}
        self._hop_entities_cache: dict[tuple[str, int], frozenset[str]] = {}
        self._path_cache: dict[tuple[str, str, int], tuple[tuple[Triple, ...], ...]] = {}
        self._blast_cache: dict[tuple[tuple[int, ...], int, bool], frozenset[str]] = {}
        for triple in make_triples(triples):
            self.add_triple(triple)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_triple(self, triple: Triple | Sequence[str]) -> None:
        """Add a triple (and its entities/relation) to the graph."""
        if not isinstance(triple, Triple):
            head, relation, tail = triple
            triple = Triple(head, relation, tail)
        if triple in self._triples:
            return
        self._triples.add(triple)
        self._entities.add(triple.head)
        self._entities.add(triple.tail)
        self._relations.add(triple.relation)
        self._outgoing[triple.head].add(triple)
        self._incoming[triple.tail].add(triple)
        self._by_relation[triple.relation].add(triple)
        self._invalidate_caches()
        self._mutation_log.append(
            MutationRecord(op="add", version=self._version, triple=triple)
        )

    def add_entity(self, entity: str) -> None:
        """Add an isolated entity (no triples required)."""
        if entity in self._entities:
            return
        self._entities.add(entity)
        self._invalidate_caches()
        self._mutation_log.append(
            MutationRecord(op="add_entity", version=self._version, entity=entity)
        )

    def remove_triple(self, triple: Triple | Sequence[str]) -> None:
        """Remove a triple from the graph.

        Entities and relations are kept even if they become isolated, so
        that embeddings indexed by entity id remain valid after removal
        (this mirrors the fidelity protocol of Section V-B.2, which removes
        triples but keeps the entity inventory fixed).
        """
        if not isinstance(triple, Triple):
            head, relation, tail = triple
            triple = Triple(head, relation, tail)
        if triple not in self._triples:
            return
        self._triples.discard(triple)
        self._outgoing[triple.head].discard(triple)
        self._incoming[triple.tail].discard(triple)
        self._by_relation[triple.relation].discard(triple)
        self._invalidate_caches()
        self._mutation_log.append(
            MutationRecord(op="remove", version=self._version, triple=triple)
        )

    def remove_triples(self, triples: Iterable[Triple]) -> None:
        """Remove several triples at once."""
        for triple in triples:
            self.remove_triple(triple)

    def _invalidate_caches(self) -> None:
        """Drop every derived structure and advance the mutation counter."""
        self._functionality_cache = None
        self._inverse_functionality_cache = None
        self._index = None
        self._neighbor_cache.clear()
        self._hop_triples_cache.clear()
        self._hop_entities_cache.clear()
        self._path_cache.clear()
        self._blast_cache.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; increases whenever the graph structure changes.

        Derived caches outside the graph (explanation engine, confidence
        oracle) key on this value to detect staleness.
        """
        return self._version

    def mutations_since(self, version: int) -> list[MutationRecord] | None:
        """The ordered mutations applied after *version*, or ``None``.

        ``None`` means the bounded mutation log no longer covers the span
        ``(version, current]`` (the caller was too far behind, or asked
        about an unknown/future version) and the caller must fall back to
        wholesale invalidation.  Versions advance by exactly one per
        logged mutation, so coverage reduces to the oldest retained record
        being at most ``version + 1``, and the span is the newest
        ``current - version`` records (read from the log's end, not by a
        scan of the whole log).
        """
        if version == self._version:
            return []
        if version > self._version:
            return None
        log = self._mutation_log
        if not log or log[0].version > version + 1:
            return None
        return [log[i] for i in range(len(log) - (self._version - version), len(log))]

    def blast_radius(
        self,
        records: Iterable[MutationRecord],
        hops: int,
        include_relations: bool = False,
    ) -> frozenset[str]:
        """Entities whose *hops*-hop neighbourhood the *records* may have changed.

        Unions the :meth:`KGIndex.blast_radius` balls around every mutated
        endpoint on the **current** (post-mutation) index; see that method
        for why the post-mutation ball is conservative.  The multi-record
        argument extends inductively: with every mutated endpoint a seed,
        removing a later edge cannot cut the shortest path from an affected
        entity to the seed set, so the final-graph ball covers each
        intermediate generation's ball.

        With ``include_relations`` the seeds additionally include the
        endpoints of every current triple carrying a mutated relation:
        mutating a triple of relation ``r`` shifts the *global*
        functionality statistics ``func(r)``/``ifunc(r)``, which feed the
        ADG edge weights of any pair whose neighbourhood contains an
        ``r``-triple — and every such pair lies within ``hops`` of one of
        those triples' endpoints.

        Every holder of a derived cache asks for the same ball after a
        write, so the result is memoized per (record span, ``hops``,
        ``include_relations``) until the next mutation.
        """
        records = tuple(records)
        key = (tuple(record.version for record in records), hops, include_relations)
        cached = self._blast_cache.get(key)
        if cached is not None:
            return cached
        seeds: set[str] = set()
        relations: set[str] = set()
        for record in records:
            seeds.update(record.endpoints())
            if include_relations and record.triple is not None:
                relations.add(record.triple.relation)
        for relation in relations:
            for triple in self.triples_with_relation(relation):
                seeds.add(triple.head)
                seeds.add(triple.tail)
        cached = self.index().blast_radius(seeds, hops)
        self._blast_cache[key] = cached
        return cached

    def index(self) -> KGIndex:
        """The integer adjacency snapshot, built lazily and cached until mutation."""
        if self._index is None:
            self._index = KGIndex(self)
        return self._index

    @property
    def entities(self) -> set[str]:
        """The entity set ``E`` (returned as a copy-free live set; do not mutate)."""
        return self._entities

    @property
    def relations(self) -> set[str]:
        """The relation set ``R``."""
        return self._relations

    @property
    def triples(self) -> set[Triple]:
        """The triple set ``T``."""
        return self._triples

    def num_entities(self) -> int:
        return len(self._entities)

    def num_relations(self) -> int:
        return len(self._relations)

    def num_triples(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KnowledgeGraph(name={self.name!r}, entities={self.num_entities()}, "
            f"relations={self.num_relations()}, triples={self.num_triples()})"
        )

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def outgoing(self, entity: str) -> set[Triple]:
        """Triples where *entity* is the head."""
        return self._outgoing.get(entity, set())

    def incoming(self, entity: str) -> set[Triple]:
        """Triples where *entity* is the tail."""
        return self._incoming.get(entity, set())

    def triples_of(self, entity: str) -> set[Triple]:
        """All triples incident to *entity* (outgoing plus incoming)."""
        return self.outgoing(entity) | self.incoming(entity)

    def triples_with_relation(self, relation: str) -> set[Triple]:
        """All triples using *relation*."""
        return self._by_relation.get(relation, set())

    def neighbors(self, entity: str) -> set[str]:
        """Entities directly connected to *entity* by any triple (memoized)."""
        cached = self._neighbor_cache.get(entity)
        if cached is None:
            found: set[str] = set()
            for triple in self.outgoing(entity):
                found.add(triple.tail)
            for triple in self.incoming(entity):
                found.add(triple.head)
            found.discard(entity)
            cached = frozenset(found)
            self._neighbor_cache[entity] = cached
        return set(cached)

    def degree(self, entity: str) -> int:
        """Number of triples incident to *entity*."""
        return len(self.outgoing(entity)) + len(self.incoming(entity))

    def triples_within_hops(self, entity: str, hops: int = 1) -> set[Triple]:
        """All triples within *hops* hops of *entity*.

        This is the candidate set ``T_e`` of the paper (Section II-B): with
        ``hops=1`` it is exactly the triples incident to the entity, with
        ``hops=2`` it additionally contains the triples incident to the
        entity's neighbours, and so on.  Computed by an integer BFS over
        the CSR index and memoized per ``(entity, hops)``.
        """
        if hops < 1:
            raise ValueError("hops must be >= 1")
        key = (entity, hops)
        cached = self._hop_triples_cache.get(key)
        if cached is None:
            index = self.index()
            entity_id = index.entity_to_id.get(entity)
            if entity_id is None:
                cached = frozenset()
            else:
                triple_ids = index.triples_within_hops(entity_id, hops)
                cached = frozenset(index.triples[i] for i in triple_ids)
            self._hop_triples_cache[key] = cached
        return set(cached)

    def entities_within_hops(self, entity: str, hops: int) -> frozenset[str]:
        """Entities within *hops* hops of *entity*, excluding itself (memoized).

        The returned frozenset is shared with the cache — treat it as
        immutable.
        """
        if hops < 0:
            raise ValueError("hops must be >= 0")
        key = (entity, hops)
        cached = self._hop_entities_cache.get(key)
        if cached is None:
            index = self.index()
            entity_id = index.entity_to_id.get(entity)
            if entity_id is None or hops == 0:
                cached = frozenset()
            else:
                entity_ids = index.entities_within_hops(entity_id, hops)
                cached = frozenset(index.entities[i] for i in entity_ids)
            self._hop_entities_cache[key] = cached
        return cached

    def relation_paths(
        self, source: str, target: str, max_length: int = 2
    ) -> list[tuple[Triple, ...]]:
        """Enumerate simple relation paths from *source* to *target*.

        A path is a tuple of triples; each consecutive triple shares an
        entity with the previous one regardless of direction (the paper's
        relation paths ``p = (e1, r1, e1', ..., rn, en')`` also ignore
        direction when walking the graph).  Paths do not revisit entities.
        Enumeration runs on the integer index in deterministic order and is
        memoized per ``(source, target, max_length)``.
        """
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        key = (source, target, max_length)
        cached = self._path_cache.get(key)
        if cached is None:
            index = self.index()
            source_id = index.entity_to_id.get(source)
            target_id = index.entity_to_id.get(target)
            if source_id is None or target_id is None:
                cached = ()
            else:
                cached = tuple(
                    tuple(index.triples[i] for i in path)
                    for path in index.relation_paths(source_id, target_id, max_length)
                )
            self._path_cache[key] = cached
        return list(cached)

    # ------------------------------------------------------------------
    # Relation functionality (PARIS-style)
    # ------------------------------------------------------------------
    def functionality(self, relation: str) -> float:
        """Functionality ``func(r) = #distinct heads / #triples`` of a relation.

        A relation with functionality 1.0 maps every head entity to exactly
        one tail (like ``birth_place``); low functionality means a head has
        many tails.  Used for ADG edge weights (Eq. 4).
        """
        if self._functionality_cache is None:
            self._rebuild_functionality_caches()
        assert self._functionality_cache is not None
        return self._functionality_cache.get(relation, 0.0)

    def inverse_functionality(self, relation: str) -> float:
        """Inverse functionality ``ifunc(r) = #distinct tails / #triples``.

        Used for ADG edge weights when the central entity is the head of the
        matched path (Eq. 3).
        """
        if self._inverse_functionality_cache is None:
            self._rebuild_functionality_caches()
        assert self._inverse_functionality_cache is not None
        return self._inverse_functionality_cache.get(relation, 0.0)

    def _rebuild_functionality_caches(self) -> None:
        functionality: dict[str, float] = {}
        inverse_functionality: dict[str, float] = {}
        for relation, triples in self._by_relation.items():
            if not triples:
                functionality[relation] = 0.0
                inverse_functionality[relation] = 0.0
                continue
            heads = {t.head for t in triples}
            tails = {t.tail for t in triples}
            functionality[relation] = len(heads) / len(triples)
            inverse_functionality[relation] = len(tails) / len(triples)
        self._functionality_cache = functionality
        self._inverse_functionality_cache = inverse_functionality

    def functionality_table(self) -> Mapping[str, float]:
        """Return functionality for every relation in the graph."""
        if self._functionality_cache is None:
            self._rebuild_functionality_caches()
        assert self._functionality_cache is not None
        return dict(self._functionality_cache)

    # ------------------------------------------------------------------
    # Copy / subgraph helpers
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "KnowledgeGraph":
        """Return a deep structural copy of the graph."""
        return KnowledgeGraph(
            self._triples, name=name or self.name, entities=self._entities
        )

    def without_triples(self, triples: Iterable[Triple], name: str | None = None) -> "KnowledgeGraph":
        """Return a copy of the graph with *triples* removed.

        The entity inventory of the original graph is preserved so entity
        indexing (and therefore embedding matrices) stays aligned.
        """
        excluded = set(triples)
        kept = (t for t in self._triples if t not in excluded)
        return KnowledgeGraph(kept, name=name or self.name, entities=self._entities)

    def subgraph_of(self, entities: Iterable[str], name: str | None = None) -> "KnowledgeGraph":
        """Return the induced subgraph over *entities*."""
        entity_set = set(entities)
        kept = (
            t
            for t in self._triples
            if t.head in entity_set and t.tail in entity_set
        )
        return KnowledgeGraph(kept, name=name or f"{self.name}-sub", entities=entity_set)
