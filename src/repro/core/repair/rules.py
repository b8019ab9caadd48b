"""Relation alignment mining and ¬sameAs rule mining (Section IV-A).

Two ingredients feed the relation-alignment conflict detector:

* a **relation alignment** between the two KGs.  The paper encodes relation
  names with a pre-trained language model (BERT) when names are available
  and falls back to the EA model's relation embeddings otherwise; aligned
  relations are the mutual best matches.  This reproduction replaces BERT
  with a character-n-gram name encoder (documented in DESIGN.md) combined
  with the model's relation embeddings.
* a set of **¬sameAs rules** per KG: a pair of different relations
  ``(r1, r2)`` yields the rule ``(x, r1, y) ∧ (x, r2, z) → y ¬sameAs z``
  when the two relations never point a common subject at the same object
  but do co-occur on at least one subject with different objects (the
  paper's "real rule instance" condition).
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ...embedding import cosine_matrix, greedy_match
from ...kg import KnowledgeGraph
from ...models import EAModel


# ----------------------------------------------------------------------
# Relation name similarity (BERT substitute)
# ----------------------------------------------------------------------
def _character_ngrams(text: str, n: int = 3) -> set[str]:
    cleaned = "".join(ch.lower() if ch.isalnum() else " " for ch in text)
    cleaned = " ".join(cleaned.split())
    padded = f"  {cleaned}  "
    return {padded[i:i + n] for i in range(len(padded) - n + 1)}


def relation_name_similarity(name1: str, name2: str) -> float:
    """Dice similarity of character trigrams of two relation names."""
    grams1 = _character_ngrams(name1)
    grams2 = _character_ngrams(name2)
    if not grams1 or not grams2:
        return 0.0
    return 2.0 * len(grams1 & grams2) / (len(grams1) + len(grams2))


# ----------------------------------------------------------------------
# Relation alignment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelationAlignment:
    """Mutual mapping between relations of the two KGs."""

    forward: dict[str, str] = field(default_factory=dict)

    def counterpart(self, relation: str) -> str | None:
        """The KG2 relation aligned with a KG1 relation (or vice versa)."""
        if relation in self.forward:
            return self.forward[relation]
        for source, target in self.forward.items():
            if target == relation:
                return source
        return None

    def are_aligned(self, relation1: str, relation2: str) -> bool:
        return self.forward.get(relation1) == relation2

    def __len__(self) -> int:
        return len(self.forward)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self.forward.items())


def mine_relation_alignment(
    model: EAModel,
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    name_weight: float = 0.5,
    min_score: float = 0.3,
) -> RelationAlignment:
    """Greedy mutual matching of relations across the two KGs.

    The matching score blends name similarity (the BERT stand-in) with the
    cosine similarity of the model's relation embeddings.  Greedy matching
    (highest scores first, each relation used once) keeps only pairs above
    ``min_score``.
    """
    relations1 = sorted(kg1.relations)
    relations2 = sorted(kg2.relations)
    if not relations1 or not relations2:
        return RelationAlignment()
    name_scores = np.array(
        [[relation_name_similarity(r1, r2) for r2 in relations2] for r1 in relations1]
    )
    embeddings1 = np.stack([model.relation_embedding(r) for r in relations1])
    embeddings2 = np.stack([model.relation_embedding(r) for r in relations2])
    embedding_scores = cosine_matrix(embeddings1, embeddings2)
    scores = name_weight * name_scores + (1.0 - name_weight) * embedding_scores

    forward: dict[str, str] = {}
    for i, j in greedy_match(scores):
        if scores[i, j] < min_score:
            continue
        forward[relations1[i]] = relations2[j]
    return RelationAlignment(forward=forward)


# ----------------------------------------------------------------------
# ¬sameAs rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NotSameAsRule:
    """Rule ``(x, relation1, y) ∧ (x, relation2, z) → (y, ¬sameAs, z)``."""

    relation1: str
    relation2: str

    def involves(self, relation1: str, relation2: str) -> bool:
        """True if the rule covers the (unordered) relation pair."""
        return {relation1, relation2} == {self.relation1, self.relation2}


class NotSameAsRuleSet:
    """Immutable set of ¬sameAs rules mined from one KG, indexed for fast lookup.

    Rules are unordered relation pairs, stored as sorted tuples.
    """

    def __init__(self, rules: Iterable[NotSameAsRule] = ()) -> None:
        self._pairs: frozenset[tuple[str, str]] = frozenset(
            _pair(rule.relation1, rule.relation2) for rule in rules
        )

    @classmethod
    def _of_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "NotSameAsRuleSet":
        rules = cls()
        rules._pairs = frozenset(pairs)
        return rules

    def applies(self, relation1: str, relation2: str) -> bool:
        """True if a rule exists for the (unordered) relation pair."""
        if relation1 == relation2:
            return False
        return _pair(relation1, relation2) in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NotSameAsRuleSet):
            return NotImplemented
        return self is other or self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __iter__(self):
        for pair in sorted(self._pairs):
            yield NotSameAsRule(*pair)


def _pair(relation1: str, relation2: str) -> tuple[str, str]:
    return (relation1, relation2) if relation1 <= relation2 else (relation2, relation1)


def mine_not_same_as_rules(kg: KnowledgeGraph) -> NotSameAsRuleSet:
    """Mine ¬sameAs rules from a single KG.

    For an ordered relation pair to yield a rule, two conditions must hold:

    1. the relations never share a (subject, object) pair — otherwise the
       objects can clearly coincide;
    2. at least one subject has both relations with different objects — the
       "real rule instance" filter the paper adds to avoid vacuous rules.

    This scans every triple.  Callers that follow a live graph read
    :func:`not_same_as_rules` instead; this from-scratch miner is the
    reference it is tested against.
    """
    # subject -> relation -> objects
    objects_by_subject: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
    for triple in kg.triples:
        objects_by_subject[triple.head][triple.relation].add(triple.tail)

    candidate_pairs: set[tuple[str, str]] = set()
    violating_pairs: set[tuple[str, str]] = set()
    for relation_objects in objects_by_subject.values():
        relations = sorted(relation_objects)
        for i, relation1 in enumerate(relations):
            for relation2 in relations[i + 1:]:
                pair = (relation1, relation2)
                objects1 = relation_objects[relation1]
                objects2 = relation_objects[relation2]
                if objects1 & objects2:
                    # The two relations point this subject at the same
                    # object: the rule would be wrong.
                    violating_pairs.add(pair)
                if objects1 - objects2 or objects2 - objects1:
                    candidate_pairs.add(pair)

    return NotSameAsRuleSet._of_pairs(candidate_pairs - violating_pairs)


class NotSameAsMiner:
    """The ¬sameAs rules of one KG, kept current from its mutation log.

    Rule support is a sum over subjects: a relation pair is a rule iff it
    is a *candidate* on at least one subject (the subject's two object sets
    differ) and a *violation* on none (they share an object).  The miner
    keeps each subject's ``relation -> objects`` sets and, per relation
    pair, how many subjects make it a candidate and a violation.  A
    mutation of triple ``(h, r, t)`` changes only subject ``h``'s sets, so
    advancing over :meth:`KnowledgeGraph.mutations_since` re-counts just
    the mutated heads: their old contribution is subtracted and the
    current one added.  When the log no longer covers the span, the miner
    rebuilds in full.  :meth:`rules` returns an immutable snapshot, and
    the same object for as long as the rules do not change.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version: int | None = None
        self._objects: dict[str, dict[str, frozenset[str]]] = {}
        self._candidates: dict[tuple[str, str], int] = {}
        self._violations: dict[tuple[str, str], int] = {}
        self._rule_pairs: set[tuple[str, str]] = set()
        self._rules = NotSameAsRuleSet()

    def rules(self, kg: KnowledgeGraph) -> NotSameAsRuleSet:
        """The rules of *kg* at its current version."""
        with self._lock:
            version = kg.version
            if version != self._version:
                records = None if self._version is None else kg.mutations_since(self._version)
                if records is None:
                    self._rebuild(kg)
                else:
                    self._recount(kg, {r.triple.head for r in records if r.triple is not None})
                self._version = version
            return self._rules

    def _rebuild(self, kg: KnowledgeGraph) -> None:
        """Count every subject afresh: the first read, or a span the log lost."""
        self._objects.clear()
        self._candidates.clear()
        self._violations.clear()
        self._rule_pairs.clear()
        self._rules = NotSameAsRuleSet()
        self._recount(kg, {triple.head for triple in kg.triples})

    def _recount(self, kg: KnowledgeGraph, subjects: set[str]) -> None:
        """Replace the contributions of *subjects* with their current ones."""
        touched: set[tuple[str, str]] = set()
        for subject in subjects:
            old = self._objects.pop(subject, None)
            if old is not None:
                touched.update(self._count(old, -1))
            current: dict[str, set[str]] = defaultdict(set)
            for triple in kg.outgoing(subject):
                current[triple.relation].add(triple.tail)
            if current:
                new = {relation: frozenset(objects) for relation, objects in current.items()}
                self._objects[subject] = new
                touched.update(self._count(new, 1))
        changed = False
        for pair in touched:
            holds = pair in self._candidates and pair not in self._violations
            if holds != (pair in self._rule_pairs):
                changed = True
                if holds:
                    self._rule_pairs.add(pair)
                else:
                    self._rule_pairs.discard(pair)
        if changed:
            self._rules = NotSameAsRuleSet._of_pairs(self._rule_pairs)

    def _count(
        self, relation_objects: dict[str, frozenset[str]], delta: int
    ) -> list[tuple[str, str]]:
        """Add *delta* to the counts one subject contributes; returns its pairs."""
        relations = sorted(relation_objects)
        pairs = []
        for i, relation1 in enumerate(relations):
            objects1 = relation_objects[relation1]
            for relation2 in relations[i + 1:]:
                objects2 = relation_objects[relation2]
                pair = (relation1, relation2)
                pairs.append(pair)
                if not objects1.isdisjoint(objects2):
                    _bump(self._violations, pair, delta)
                if objects1 != objects2:
                    _bump(self._candidates, pair, delta)
        return pairs


def _bump(counts: dict[tuple[str, str], int], key: tuple[str, str], delta: int) -> None:
    value = counts.get(key, 0) + delta
    if value:
        counts[key] = value
    else:
        del counts[key]


#: One miner per live graph, shared by every caller in the process.  Weak
#: keys keep the miners out of the graphs' pickles and let them go with
#: their graphs.
_MINERS: "weakref.WeakKeyDictionary[KnowledgeGraph, NotSameAsMiner]" = (
    weakref.WeakKeyDictionary()
)
_MINERS_LOCK = threading.Lock()


def not_same_as_rules(kg: KnowledgeGraph) -> NotSameAsRuleSet:
    """The ¬sameAs rules of *kg* now, from the graph's shared incremental miner.

    Equal to :func:`mine_not_same_as_rules` on the same graph, at the cost
    of re-counting only the subjects mutated since the last call.
    """
    with _MINERS_LOCK:
        miner = _MINERS.get(kg)
        if miner is None:
            miner = _MINERS[kg] = NotSameAsMiner()
    return miner.rules(kg)


#: model -> (key, alignment) of the last relation alignment mined for it.
_ALIGNMENTS: "weakref.WeakKeyDictionary[EAModel, tuple[tuple, RelationAlignment]]" = (
    weakref.WeakKeyDictionary()
)
_ALIGNMENTS_LOCK = threading.Lock()


def shared_relation_alignment(
    model: EAModel, kg1: KnowledgeGraph, kg2: KnowledgeGraph
) -> RelationAlignment:
    """:func:`mine_relation_alignment`, memoized per model.

    The alignment depends only on the relation names of both graphs and
    the model's relation embeddings, so it is keyed on the model's
    ``embedding_version`` and both relation inventories.  A triple add or
    remove changes none of them and is served from the memo.
    """
    key = (model.embedding_version, frozenset(kg1.relations), frozenset(kg2.relations))
    with _ALIGNMENTS_LOCK:
        cached = _ALIGNMENTS.get(model)
        if cached is not None and cached[0] == key:
            return cached[1]
        alignment = mine_relation_alignment(model, kg1, kg2)
        _ALIGNMENTS[model] = (key, alignment)
        return alignment
