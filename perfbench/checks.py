"""Correctness checks a run must pass before its numbers count.

Each check returns a list of failure messages; an empty list means it
passed.  A run with any failure reports ``"correct": false`` and no
metrics.
"""

from __future__ import annotations

from repro.service import CONFIDENCE, EXPLAIN

MAX_MESSAGES = 5


def expected_value(kind: str, pair, explanations, confidences, threshold: float):
    """What a direct library call answers for one ``(kind, pair)`` read."""
    if kind == EXPLAIN:
        return explanations[pair]
    if kind == CONFIDENCE:
        return confidences[pair]
    return bool(confidences[pair] > threshold)


def check_passes_agree(repaired_alignments) -> list[str]:
    """Every paper pass repaired the predictions to the first pass's alignment."""
    first = repaired_alignments[0]
    return [
        f"pass {index} repaired alignment differs from pass 0"
        for index, alignment in enumerate(repaired_alignments[1:], start=1)
        if alignment != first
    ][:MAX_MESSAGES]


def check_reads(responses, explanations, confidences, threshold: float) -> list[str]:
    """Every ``(kind, source, target, value)`` read equals the direct library answer."""
    failures = []
    for kind, source, target, value in responses:
        expected = expected_value(kind, (source, target), explanations, confidences, threshold)
        if value != expected or type(value) is not type(expected):
            failures.append(f"{kind}({source}, {target}) served {value!r:.80}, direct call gives {expected!r:.80}")
            if len(failures) == MAX_MESSAGES:
                break
    return failures


def check_graphs_equal(dataset, original) -> list[str]:
    """Both KGs of *dataset* hold exactly the triples of *original*."""
    return [
        f"kg{side} differs from the original after the toggle writes"
        for side, (kg, reference) in enumerate(
            ((dataset.kg1, original.kg1), (dataset.kg2, original.kg2)), start=1
        )
        if kg.triples != reference.triples
    ]
