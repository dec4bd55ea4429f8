"""Fuzzy rule-based HRB (AASHTO M145) soil classification."""

from .errors import (
    EvaluationError,
    FuzzificationError,
    PartitionError,
    RuleConfigError,
    SampleError,
    SoilFuzzError,
)
from .fuzzy import LinguisticVariable, MembershipVector, fuzzify, make_partition
from .rules import (
    Aggregator,
    ClassificationReport,
    InductionResult,
    Rule,
    RuleBase,
    classify,
    rule_dof,
    score_rulebase,
    search_rules,
)
from .dsl import Diagnostic, RuleParseError, parse_rules, serialize
from .hrb import (
    CLASS_ORDER,
    SUBGRADE_RATINGS,
    HrbPreset,
    HrbResult,
    ReferenceFixture,
    SoilSample,
    a7_split,
    classify_hrb,
    crisp_classify,
    fuzzify_sample,
    load_preset,
    load_variables,
    reference_fixtures,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregator",
    "CLASS_ORDER",
    "ClassificationReport",
    "Diagnostic",
    "EvaluationError",
    "FuzzificationError",
    "HrbPreset",
    "HrbResult",
    "InductionResult",
    "LinguisticVariable",
    "MembershipVector",
    "PartitionError",
    "ReferenceFixture",
    "Rule",
    "RuleBase",
    "RuleConfigError",
    "RuleParseError",
    "SUBGRADE_RATINGS",
    "SampleError",
    "SoilFuzzError",
    "SoilSample",
    "a7_split",
    "classify",
    "classify_hrb",
    "crisp_classify",
    "fuzzify",
    "fuzzify_sample",
    "load_preset",
    "load_variables",
    "make_partition",
    "parse_rules",
    "reference_fixtures",
    "rule_dof",
    "score_rulebase",
    "search_rules",
    "serialize",
]
