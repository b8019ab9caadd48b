"""Entity alignment sets.

An :class:`AlignmentSet` is a set of ``(source_entity, target_entity)``
pairs ("owl:sameAs" links in the paper's notation).  It supports the
operations the ExEA repair module needs: membership by either side,
one-to-many conflict detection, accuracy against a gold alignment, and
noise injection for the robustness experiments (Section V-E).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Iterable, Iterator, Mapping


EntityPair = tuple[str, str]

#: Shared empty result of the copy-free lookup views (frozen so a caller
#: mutating a miss result cannot poison every other alignment's lookups).
_EMPTY_SET: frozenset[str] = frozenset()


class AlignmentSet:
    """A collection of entity alignment pairs across two KGs.

    The set may contain one-to-many alignments (several source entities
    mapped to one target or vice versa); detecting and repairing those is
    part of the ExEA pipeline, so the container does not forbid them.
    """

    def __init__(self, pairs: Iterable[EntityPair] = ()) -> None:
        self._pairs: set[EntityPair] = set()
        self._by_source: dict[str, set[str]] = defaultdict(set)
        self._by_target: dict[str, set[str]] = defaultdict(set)
        self._version = 0
        for source, target in pairs:
            self.add(source, target)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; increases whenever a pair is added or removed.

        Lets derived caches (e.g. the repair confidence oracle) detect
        staleness without copying the set.
        """
        return self._version

    def add(self, source: str, target: str) -> None:
        """Add an alignment pair ``(source, target)``."""
        pair = (source, target)
        if pair in self._pairs:
            return
        self._pairs.add(pair)
        self._by_source[source].add(target)
        self._by_target[target].add(source)
        self._version += 1

    def remove(self, source: str, target: str) -> None:
        """Remove an alignment pair if present."""
        pair = (source, target)
        if pair not in self._pairs:
            return
        self._pairs.discard(pair)
        self._by_source[source].discard(target)
        self._by_target[target].discard(source)
        self._version += 1

    def update(self, pairs: Iterable[EntityPair]) -> None:
        """Add several pairs."""
        for source, target in pairs:
            self.add(source, target)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> set[EntityPair]:
        return self._pairs

    def __contains__(self, pair: EntityPair) -> bool:
        return pair in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[EntityPair]:
        return iter(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlignmentSet):
            return NotImplemented
        return self._pairs == other._pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AlignmentSet({len(self._pairs)} pairs)"

    def sources(self) -> set[str]:
        """All source-side entities with at least one alignment."""
        return {s for s, targets in self._by_source.items() if targets}

    def targets(self) -> set[str]:
        """All target-side entities with at least one alignment."""
        return {t for t, sources in self._by_target.items() if sources}

    def targets_of(self, source: str) -> set[str]:
        """Target entities aligned to *source*."""
        return set(self._by_source.get(source, set()))

    def targets_view(self, source: str) -> set[str] | frozenset[str]:
        """Copy-free view of the targets aligned to *source* — do not mutate.

        The explanation hot path performs one such lookup per neighbour per
        pair; skipping the defensive copy of :meth:`targets_of` matters
        there.  Misses return a shared frozen empty set.
        """
        return self._by_source.get(source, _EMPTY_SET)

    def sources_of(self, target: str) -> set[str]:
        """Source entities aligned to *target*."""
        return set(self._by_target.get(target, set()))

    def has_target(self, target: str) -> bool:
        """Whether some source is aligned to *target*; a lookup, no set copy."""
        return bool(self._by_target.get(target))

    def target_of(self, source: str) -> str | None:
        """The single target aligned with *source*, or ``None``.

        Raises:
            ValueError: if *source* participates in a one-to-many alignment.
        """
        targets = self._by_source.get(source, set())
        if not targets:
            return None
        if len(targets) > 1:
            raise ValueError(f"source {source!r} is aligned to {len(targets)} targets")
        return next(iter(targets))

    def source_of(self, target: str) -> str | None:
        """The single source aligned with *target*, or ``None``."""
        sources = self._by_target.get(target, set())
        if not sources:
            return None
        if len(sources) > 1:
            raise ValueError(f"target {target!r} is aligned to {len(sources)} sources")
        return next(iter(sources))

    def as_dict(self) -> dict[str, str]:
        """Return a source->target mapping.

        Raises:
            ValueError: if the alignment is not one-to-one on the source side.
        """
        mapping: dict[str, str] = {}
        for source, target in self._pairs:
            if source in mapping:
                raise ValueError(f"source {source!r} has multiple targets")
            mapping[source] = target
        return mapping

    def copy(self) -> "AlignmentSet":
        return AlignmentSet(self._pairs)

    # ------------------------------------------------------------------
    # Conflicts & quality
    # ------------------------------------------------------------------
    def is_one_to_one(self) -> bool:
        """True if no entity on either side participates in two pairs."""
        return not self.one_to_many_targets() and not self.one_to_many_sources()

    def one_to_many_targets(self) -> dict[str, set[str]]:
        """Targets aligned with multiple sources (the conflict of Section IV-B)."""
        return {
            target: set(sources)
            for target, sources in self._by_target.items()
            if len(sources) > 1
        }

    def one_to_many_sources(self) -> dict[str, set[str]]:
        """Sources aligned with multiple targets."""
        return {
            source: set(targets)
            for source, targets in self._by_source.items()
            if len(targets) > 1
        }

    def accuracy(self, gold: "AlignmentSet | Iterable[EntityPair]") -> float:
        """Fraction of gold pairs that are present in this alignment.

        This is the repair-experiment metric of Section V-C.1: the
        proportion of correctly aligned entity pairs among the pairs to be
        found.
        """
        gold_pairs = set(gold.pairs if isinstance(gold, AlignmentSet) else gold)
        if not gold_pairs:
            return 0.0
        correct = sum(1 for pair in gold_pairs if pair in self._pairs)
        return correct / len(gold_pairs)

    def precision_recall_f1(
        self, gold: "AlignmentSet | Iterable[EntityPair]"
    ) -> tuple[float, float, float]:
        """Precision, recall and F1 of this alignment against *gold*."""
        gold_pairs = set(gold.pairs if isinstance(gold, AlignmentSet) else gold)
        if not self._pairs or not gold_pairs:
            return (0.0, 0.0, 0.0)
        correct = len(self._pairs & gold_pairs)
        precision = correct / len(self._pairs)
        recall = correct / len(gold_pairs)
        if precision + recall == 0:
            return (precision, recall, 0.0)
        f1 = 2 * precision * recall / (precision + recall)
        return (precision, recall, f1)

    # ------------------------------------------------------------------
    # Noise (Section V-E)
    # ------------------------------------------------------------------
    def with_noise(
        self, num_corrupted: int, rng: random.Random | None = None
    ) -> "AlignmentSet":
        """Return a copy where *num_corrupted* pairs have their targets shuffled.

        The paper's robustness experiment randomly disrupts the entities in
        750 of the 4,500 seed pairs.  We corrupt pairs by permuting the
        target entities among the selected pairs (a derangement-style
        shuffle), which keeps the size of the seed set constant while
        breaking the selected links.
        """
        rng = rng or random.Random(0)
        pairs = sorted(self._pairs)
        if num_corrupted <= 0 or len(pairs) < 2:
            return self.copy()
        num_corrupted = min(num_corrupted, len(pairs))
        chosen_idx = rng.sample(range(len(pairs)), num_corrupted)
        chosen_targets = [pairs[i][1] for i in chosen_idx]
        shuffled = chosen_targets[:]
        # Rotate until no chosen pair keeps its original target (guaranteed
        # to terminate because a single rotation already fixes every slot
        # unless all targets are identical).
        rng.shuffle(shuffled)
        if any(a == b for a, b in zip(chosen_targets, shuffled)) and len(set(chosen_targets)) > 1:
            shuffled = shuffled[1:] + shuffled[:1]
        noisy = AlignmentSet(self._pairs)
        for position, pair_index in enumerate(chosen_idx):
            source, original_target = pairs[pair_index]
            noisy.remove(source, original_target)
            noisy.add(source, shuffled[position])
        return noisy


class AlignmentUnionView:
    """Read-only live union of two alignment sets.

    The repair algorithms repeatedly need "the working alignment plus the
    seed alignment" as the reference for neighbour matching.  Building that
    union as a fresh :class:`AlignmentSet` copy per confidence query is
    O(|alignment|); this view answers the only lookups explanation
    generation performs (``targets_of`` / ``sources_of``) directly against
    the two underlying sets, reflecting their mutations immediately.
    """

    __slots__ = ("primary", "secondary")

    def __init__(self, primary: AlignmentSet, secondary: AlignmentSet) -> None:
        self.primary = primary
        self.secondary = secondary

    @property
    def version(self) -> tuple[int, int]:
        """Combined mutation counter of the two underlying sets."""
        return (self.primary.version, self.secondary.version)

    def targets_of(self, source: str) -> set[str]:
        return self.primary.targets_of(source) | self.secondary.targets_of(source)

    def targets_view(self, source: str) -> set[str] | frozenset[str]:
        """Copy-free union lookup — do not mutate; copies only when both sides hit."""
        primary = self.primary.targets_view(source)
        secondary = self.secondary.targets_view(source)
        if not secondary:
            return primary
        if not primary:
            return secondary
        return primary | secondary

    def sources_of(self, target: str) -> set[str]:
        return self.primary.sources_of(target) | self.secondary.sources_of(target)

    def __contains__(self, pair: EntityPair) -> bool:
        return pair in self.primary or pair in self.secondary


def mapping_to_alignment(mapping: Mapping[str, str]) -> AlignmentSet:
    """Build an :class:`AlignmentSet` from a source->target dictionary."""
    return AlignmentSet(mapping.items())
