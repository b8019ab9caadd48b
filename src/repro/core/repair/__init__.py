"""EA repair: conflict detection and resolution (Section IV)."""

from .cross_kg import CrossKGTriple, cross_kg_triples_for_entity, translate_triple
from .low_confidence import LowConfidenceRepairer, LowConfidenceRepairResult
from .one_to_many import (
    OneToManyRepairResult,
    repair_one_to_many,
    resolve_to_one_to_one,
)
from .pipeline import EARepairer, RepairConfig, RepairResult
from .relation_conflicts import RelationConflict, RelationConflictResolver
from .rules import (
    NotSameAsRule,
    NotSameAsRuleSet,
    RelationAlignment,
    mine_not_same_as_rules,
    mine_relation_alignment,
    not_same_as_rules,
    relation_name_similarity,
    shared_relation_alignment,
)

__all__ = [
    "CrossKGTriple",
    "EARepairer",
    "LowConfidenceRepairer",
    "LowConfidenceRepairResult",
    "NotSameAsRule",
    "NotSameAsRuleSet",
    "OneToManyRepairResult",
    "RelationAlignment",
    "RelationConflict",
    "RelationConflictResolver",
    "RepairConfig",
    "RepairResult",
    "cross_kg_triples_for_entity",
    "mine_not_same_as_rules",
    "mine_relation_alignment",
    "not_same_as_rules",
    "relation_name_similarity",
    "repair_one_to_many",
    "resolve_to_one_to_one",
    "shared_relation_alignment",
    "translate_triple",
]
