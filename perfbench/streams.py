"""Seeded inputs of the benchmark workloads: read streams and toggle writes.

Everything a workload sends to the program is generated here from the
workload seed, so the same seed replays the same traffic.  The dataset and
the model are fixed (see ``run.py``); the seed only picks the popularity
order of the pairs, the request stream over them and the triples the
churn workload toggles.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.datasets import replay_workload
from repro.service import CONFIDENCE, EXPLAIN, VERIFY, MutationSpec

#: Read mix of every request stream (explain : confidence : verify).
KINDS = (EXPLAIN, CONFIDENCE, VERIFY)
KIND_WEIGHTS = (3, 1, 1)
#: Zipf exponent of the pair popularity; with 1,179 pairs and three kinds
#: the stream touches ~2.3k distinct cache keys, four times the serving
#: cache, so the hit rate stays near 0.64 however long a run lasts.
SKEW = 0.9
#: One write after every this many reads (writes at 2% of reads).
READS_PER_WRITE = 50
#: Distinct triples the churn workload toggles, half from each KG.  A
#: window's ~100 writes toggle ~50 different triples, so the write cost
#: (and the reads blocked behind it) averages over many blast radii
#: instead of hanging on a few picks of the seed.
TOGGLE_TRIPLES = 64


def pair_population(pairs, seed: int) -> list[tuple[str, str]]:
    """The predicted pairs in a seeded rank order (first = hottest)."""
    population = sorted(pairs)
    random.Random(seed).shuffle(population)
    return population


def read_stream(population, num_reads: int, seed: int) -> list[tuple[str, str, str]]:
    """*num_reads* ``(kind, source, target)`` reads over *population*."""
    return replay_workload(
        population, num_reads, seed=seed, skew=SKEW, kinds=KINDS, kind_weights=KIND_WEIGHTS
    )


def toggle_triples(dataset, seed: int, count: int = TOGGLE_TRIPLES) -> list[tuple[int, object]]:
    """*count* seeded ``(kg, triple)`` picks, half from each KG."""
    rng = random.Random(seed)
    per_kg = []
    for side, kg in ((1, dataset.kg1), (2, dataset.kg2)):
        pool = sorted(kg.triples, key=lambda triple: triple.as_tuple())
        per_kg.append([(side, triple) for triple in rng.sample(pool, count // 2)])
    # Alternate the KGs, so any stretch of writes touches both.
    return [pick for pair in zip(*per_kg) for pick in pair]


def toggle_writes(triples, num_writes: int) -> list[MutationSpec]:
    """Writes that remove one toggled triple and re-add it next, cycling over *triples*.

    The graphs are never more than one triple away from the originals, so
    the write mix is the same however far into the stream a window gets,
    and a stream of even length leaves the graphs exactly as it found them.
    """
    return [
        MutationSpec(
            op="remove" if index % 2 == 0 else "add",
            kg=triples[(index // 2) % len(triples)][0],
            triple=triples[(index // 2) % len(triples)][1],
        )
        for index in range(num_writes)
    ]


def interleave(reads, writes, every: int = READS_PER_WRITE) -> list[tuple[str, object]]:
    """One event stream: a ``("write", spec)`` after every *every* reads."""
    events: list[tuple[str, object]] = []
    pending = iter(writes)
    for position, request in enumerate(reads, start=1):
        events.append(("read", request))
        if position % every == 0:
            write = next(pending, None)
            if write is not None:
                events.append(("write", write))
    return events


def churn_events(reads, triples) -> list[tuple[str, object]]:
    """*reads* with toggle writes interleaved at 2% of reads.

    The write count is rounded down to whole remove/re-add periods, so
    replaying the full stream (or cycling over it) restores the graphs.
    """
    period = 2 * len(triples)
    num_writes = (len(reads) // READS_PER_WRITE) // period * period
    return interleave(reads, toggle_writes(triples, num_writes))


def apply_writes(dataset, writes) -> None:
    """Apply *writes* to *dataset*'s graphs in order (the local replica)."""
    for spec in writes:
        kg = dataset.kg1 if spec.kg == 1 else dataset.kg2
        if spec.op == "remove":
            kg.remove_triple(spec.triple)
        else:
            kg.add_triple(spec.triple)


def restoring_writes(writes) -> list[MutationSpec]:
    """The re-adds that undo every removal left standing after *writes*."""
    removed: dict[tuple[int, object], bool] = {}
    for spec in writes:
        removed[(spec.kg, spec.triple)] = spec.op == "remove"
    return [
        MutationSpec(op="add", kg=kg, triple=triple)
        for (kg, triple), is_removed in removed.items()
        if is_removed
    ]


def _plain(value):
    if isinstance(value, MutationSpec):
        return [value.op, value.kg, list(value.triple.as_tuple())]
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def digest(events) -> str:
    """SHA-256 of a request or event stream, to show two runs replayed the same traffic."""
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(json.dumps(_plain(event), separators=(",", ":")).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()
