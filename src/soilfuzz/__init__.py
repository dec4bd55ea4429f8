"""Fuzzy rule-based HRB (AASHTO M145) soil classification.

Importing the package loads none of its modules.  Each name in ``__all__``
and each submodule loads on first use (PEP 562), so a command that only
fuzzifies never compiles the rule engine.
"""

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    "errors": (
        "EvaluationError", "FuzzificationError", "PartitionError", "RuleConfigError",
        "SampleError", "SoilFuzzError",
    ),
    "fuzzy": ("Aggregator", "LinguisticVariable", "MembershipVector", "fuzzify", "make_partition"),
    "rules": (
        "ClassificationReport", "InductionResult", "Rule", "RuleBase", "Scores", "classify",
        "classify_many", "rule_dof", "score_rulebase", "search_rules",
    ),
    "dsl": ("Diagnostic", "RuleParseError", "parse_rules", "serialize"),
    "hrb": (
        "CLASS_ORDER", "SUBGRADE_RATINGS", "HrbPreset", "HrbResult", "ReferenceFixture",
        "SoilSample", "a7_split", "classify_hrb", "crisp_classify", "fuzzify_sample",
        "load_preset", "load_variables", "reference_fixtures",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "cli", "render")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = name if name in _SUBMODULES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it here; the builtin import, unlike
    # ``importlib.import_module``, shows it under ``-X importtime``.
    __import__(f"{__name__}.{home}")
    if home == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
