import math
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilfuzz import rules as rules_module
from soilfuzz import (
    Aggregator,
    ClassificationReport,
    EvaluationError,
    FuzzificationError,
    HrbResult,
    MembershipVector,
    Rule,
    RuleBase,
    RuleConfigError,
    SoilFuzzError,
    SoilSample,
    a7_split,
    classify,
    classify_hrb,
    classify_many,
    crisp_classify,
    fuzzify,
    fuzzify_sample,
    make_partition,
    reference_fixtures,
    rule_dof,
    score_rulebase,
    search_rules,
)
from soilfuzz.hrb import SUBGRADE_RATINGS, VARIABLE_NAMES

CLASSES = (
    "A-1-a", "A-1-b", "A-3", "A-2-4", "A-2-5", "A-2-6", "A-2-7",
    "A-4", "A-5", "A-6", "A-7",
)

# The eleven linguistic rules, typed out independently of the shipped
# preset files so the oracle below exercises nothing but this test's data.
RULES = (
    ("R1", (("p2mm", {"VL", "L", "M", "H", "VH"}), ("p425", {"VL", "L"}),
            ("p075", {"VVVL", "VVL", "VL"}), ("pi", {"VL"})), "A-1-a"),
    ("R2", (("p425", {"VL", "L", "LM", "M"}),
            ("p075", {"VVVL", "VVL", "VL", "L", "M"}), ("pi", {"VL"})), "A-1-b"),
    ("R3", (("p425", {"H", "VH"}), ("p075", {"VVVL", "VVL"}),
            ("pi", {"VL", "L"})), "A-3"),
    ("R4", (("p075", {"VVVL", "VVL", "VL", "L", "LM", "M", "MH"}),
            ("ll", {"VL", "L"}), ("pi", {"VL", "L"})), "A-2-4"),
    ("R5", (("p075", {"VVVL", "VVL", "VL", "L", "LM", "M", "MH"}),
            ("ll", {"MH", "H", "VH", "VVH"}), ("pi", {"VL", "L"})), "A-2-5"),
    ("R6", (("p075", {"VVVL", "VVL", "VL", "L", "LM", "M", "MH"}),
            ("ll", {"VL", "L"}), ("pi", {"M", "MH", "H", "VH"})), "A-2-6"),
    ("R7", (("p075", {"VVVL", "VVL", "VL", "L", "LM", "M", "MH"}),
            ("ll", {"MH", "H", "VH", "VVH"}), ("pi", {"M", "MH", "H", "VH"})), "A-2-7"),
    ("R8", (("p075", {"VH", "VVH", "VVVH"}), ("ll", {"VVL", "VL", "L", "LM"}),
            ("pi", {"VL", "L"})), "A-4"),
    ("R9", (("p075", {"VH", "VVH", "VVVH"}), ("ll", {"MH", "H", "VH", "VVH"}),
            ("pi", {"VL", "L"})), "A-5"),
    ("R10", (("p075", {"VH", "VVH", "VVVH"}), ("ll", {"VVL", "VL", "L", "LM"}),
             ("pi", {"M", "MH", "H", "VH"})), "A-6"),
    ("R11", (("p075", {"VH", "VVH", "VVVH"}), ("ll", {"MH", "H", "VH", "VVH"}),
             ("pi", {"M", "MH", "H", "VH"})), "A-7"),
)

# Nonzero membership degrees of the six reference specimens, typed from the
# hand-checked grids.  The plasticity rows were evaluated by hand on the
# (0, 5, 10, 25, 40, 55, 70) ladder at pi values 11, 8, 40, 3, 24, 4.
SAMPLES = (
    {"p2mm": {}, "p425": {"VH": 1.0}, "p075": {"MH": 1.0},
     "ll": {"LM": 0.8, "M": 0.2}, "pi": {"LM": 14 / 15, "M": 1 / 15}},
    {"p2mm": {}, "p425": {"H": 0.8, "VH": 0.2}, "p075": {"VH": 1.0},
     "ll": {"L": 0.5, "LM": 0.5}, "pi": {"L": 0.4, "LM": 0.6}},
    {"p2mm": {}, "p425": {"VH": 1.0}, "p075": {"VVH": 8 / 30, "VVVH": 22 / 30},
     "ll": {"MH": 1 / 3, "H": 2 / 3}, "pi": {"MH": 1.0}},
    {"p2mm": {}, "p425": {"H": 0.96, "VH": 0.04}, "p075": {"VVL": 0.6, "VL": 0.4},
     "ll": {"VL": 0.1, "L": 0.9}, "pi": {"VL": 0.4, "L": 0.6}},
    {"p2mm": {}, "p425": {"VH": 1.0}, "p075": {"VVH": 22 / 30, "VVVH": 8 / 30},
     "ll": {"LM": 0.6, "M": 0.4}, "pi": {"LM": 1 / 15, "M": 14 / 15}},
    {"p2mm": {"H": 0.96, "VH": 0.04}, "p425": {"LM": 1.0},
     "p075": {"VL": 0.8, "L": 0.2}, "ll": {"L": 0.7, "LM": 0.3},
     "pi": {"VL": 0.2, "L": 0.8}},
)

LABELS = ("A-2-6", "A-4", "A-7", "A-3", "A-6", "A-1-a")


def mv(variables, name, nonzero):
    entries = {lab: nonzero.get(lab, 0.0) for lab in variables[name].labels}
    return MembershipVector(variable=name, entries=entries)


def sample_memberships(variables, nonzero_by_var):
    return {name: mv(variables, name, nz) for name, nz in nonzero_by_var.items()}


def rulebase():
    rules = tuple(
        Rule(rid, tuple((var, frozenset(allowed)) for var, allowed in ants), cls)
        for rid, ants, cls in RULES
    )
    return RuleBase(rules, CLASSES)


def brute_dof(antecedents, nonzero_by_var, agg="mean"):
    matches = [
        max(nonzero_by_var[var].get(lab, 0.0) for lab in allowed)
        for var, allowed in antecedents
    ]
    if agg == "min":
        return min(matches)
    if agg == "product":
        out = 1.0
        for m in matches:
            out *= m
        return out
    return sum(matches) / len(matches)


def brute_classify(nonzero_by_var, agg="mean"):
    scores = {cls: 0.0 for cls in CLASSES}
    for _, ants, cls in RULES:
        scores[cls] = max(scores[cls], brute_dof(ants, nonzero_by_var, agg))
    winner = min(CLASSES, key=lambda c: (-scores[c], CLASSES.index(c)))
    return winner, scores


def match(v, allowed):
    # A one-antecedent rule's DOF under MIN is its variable's match.
    rule = Rule("R", ((v.variable, frozenset(allowed)),), "A-4")
    return rule_dof(rule, {v.variable: v}, Aggregator.MIN)


class TestVariableMatch:
    def test_max_over_allowed(self, variables):
        v = mv(variables, "p2mm", {"H": 0.96, "VH": 0.04})
        assert match(v, {"VL", "L", "M", "H", "VH"}) == 0.96

    def test_no_overlap_is_zero(self, variables):
        v = mv(variables, "p425", {"LM": 1.0})
        assert match(v, {"VL", "L"}) == 0.0

    def test_singleton_exact(self, variables):
        v = mv(variables, "p2mm", {"M": 1.0})
        assert match(v, {"M"}) == 1.0

    def test_unknown_label(self, variables):
        v = mv(variables, "p2mm", {"M": 1.0})
        with pytest.raises(RuleConfigError, match="unknown descriptor"):
            match(v, {"NOPE"})


class TestRuleDof:
    def test_mean_matches_hand_value(self, variables):
        # R11 against specimen 3: matches are 0.7333, 0.6667 and 1.0, whose
        # mean is 0.8.
        memberships = sample_memberships(variables, SAMPLES[2])
        rule = rulebase().rules[10]
        got = rule_dof(rule, memberships, Aggregator.MEAN)
        assert got == pytest.approx(0.8, abs=1e-4)
        assert got == pytest.approx(
            brute_dof(RULES[10][1], SAMPLES[2], "mean"), abs=1e-12
        )

    def test_product_absorbs_zero(self, variables):
        memberships = sample_memberships(variables, SAMPLES[0])
        # R3 on specimen 1: p425 matches 1.0 but pi matches 0.
        assert rule_dof(rulebase().rules[2], memberships, Aggregator.PRODUCT) == 0.0

    def test_min_with_zero(self, variables):
        memberships = sample_memberships(variables, SAMPLES[0])
        assert rule_dof(rulebase().rules[2], memberships, Aggregator.MIN) == 0.0

    def test_missing_variable(self, variables):
        memberships = sample_memberships(variables, SAMPLES[0])
        del memberships["pi"]
        with pytest.raises(EvaluationError, match="pi"):
            rule_dof(rulebase().rules[2], memberships, Aggregator.MEAN)


class TestClassify:
    @pytest.mark.parametrize("index", range(6))
    def test_matches_brute_force(self, variables, index):
        rb = rulebase()
        memberships = sample_memberships(variables, SAMPLES[index])
        report = classify(rb, memberships, Aggregator.MEAN)
        winner, scores = brute_classify(SAMPLES[index])
        assert report.winner == winner
        for cls in CLASSES:
            assert report.scores[cls] == pytest.approx(scores[cls], abs=1e-12)

    def test_specimen3_top_group(self, variables):
        report = classify(rulebase(), sample_memberships(variables, SAMPLES[2]))
        assert report.winner == "A-7"
        assert report.scores["A-7"] == pytest.approx(0.8, abs=1e-4)

    def test_specimen2_winner(self, variables):
        report = classify(rulebase(), sample_memberships(variables, SAMPLES[1]))
        assert report.winner == "A-4"
        assert report.scores["A-4"] == pytest.approx(0.6333, abs=1e-4)

    def test_tie_breaks_by_class_order(self, variables):
        report = classify(rulebase(), sample_memberships(variables, SAMPLES[0]))
        assert report.winner == "A-2-6"
        assert report.tie
        assert set(report.tied) == {"A-2-6", "A-2-7"}
        assert report.scores["A-2-6"] == pytest.approx(0.3556, abs=1e-4)

    def test_all_zero_memberships(self, variables):
        memberships = sample_memberships(
            variables, {name: {} for name in ("p2mm", "p425", "p075", "ll", "pi")}
        )
        report = classify(rulebase(), memberships)
        assert all(score == 0.0 for score in report.scores.values())
        assert report.winner == CLASSES[0]
        assert report.tie
        assert set(report.tied) == set(CLASSES)

    def test_deterministic(self, variables):
        memberships = sample_memberships(variables, SAMPLES[0])
        first = classify(rulebase(), memberships)
        second = classify(rulebase(), memberships)
        assert first == second

    def test_empty_rulebase_rejected(self):
        with pytest.raises(RuleConfigError, match="empty rule base"):
            RuleBase((), CLASSES)


ONE_RULE = Rule("R1", (("p075", frozenset({"VH"})),), "A-4")


class TestRecords:
    """The record contract: repr, construction, immutability, equality, messages."""

    def test_reprs(self):
        assert repr(ONE_RULE) == (
            "Rule(id='R1', antecedents=(('p075', frozenset({'VH'})),), consequent='A-4')"
        )
        assert repr(RuleBase((ONE_RULE,), ("A-4", "A-6"))) == (
            "RuleBase(rules=(Rule(id='R1', antecedents=(('p075', frozenset({'VH'})),), "
            "consequent='A-4'),), class_order=('A-4', 'A-6'))"
        )
        assert repr(MembershipVector("ll", {"L": 0.5, "LM": 0.5})) == (
            "MembershipVector(variable='ll', entries={'L': 0.5, 'LM': 0.5})"
        )

    def test_keyword_and_positional_construction(self):
        antecedents = (("p075", frozenset({"VH"})),)
        assert Rule(id="R1", antecedents=antecedents, consequent="A-4") == ONE_RULE
        rb = RuleBase((ONE_RULE,), ("A-4",))
        assert RuleBase(rules=(ONE_RULE,), class_order=("A-4",)) == rb
        entries = {"L": 0.5, "LM": 0.5}
        assert MembershipVector(variable="ll", entries=entries) == MembershipVector("ll", entries)
        assert MembershipVector("ll", entries).nonzero() == entries

    def test_fields_cannot_be_assigned(self):
        rb = RuleBase((ONE_RULE,), ("A-4",))
        vector = MembershipVector("ll", {"L": 1.0})
        for record, field in [(ONE_RULE, "id"), (rb, "class_order"), (vector, "entries")]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            assert getattr(record, field) is not None

    def test_equal_records_hash_equal(self):
        twin = Rule("R1", (("p075", frozenset({"VH"})),), "A-4")
        assert twin == ONE_RULE and hash(twin) == hash(ONE_RULE)
        a, b = RuleBase((ONE_RULE,), ("A-4", "A-6")), RuleBase((twin,), ("A-4", "A-6"))
        assert a == b and hash(a) == hash(b)
        assert RuleBase((ONE_RULE,), ("A-6", "A-4")) != a
        assert MembershipVector("ll", {"L": 1.0}) == MembershipVector("ll", {"L": 1.0})

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Rule("R1", (), "A-4"), "rule R1: no antecedents"),
            (
                lambda: Rule("R2", (("ll", frozenset({"L"})), ("pi", frozenset())), "A-4"),
                "rule R2: empty descriptor set for pi",
            ),
            (lambda: RuleBase((), ("A-4",)), "empty rule base"),
            (lambda: RuleBase((ONE_RULE, ONE_RULE), ("A-4",)), "duplicate rule id R1"),
            (
                lambda: RuleBase((ONE_RULE,), ("A-6",)),
                "rule R1: consequent A-4 missing from class order",
            ),
        ],
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(RuleConfigError) as exc:
            build()
        assert str(exc.value) == message

    def test_class_order_must_not_repeat(self):
        # A repeated class would get two score columns but one score.
        with pytest.raises(RuleConfigError) as exc:
            RuleBase((ONE_RULE,), ("A-4", "A-7", "A-4"))
        assert str(exc.value) == "duplicate class A-4 in class order"

    def test_replace_is_validated(self):
        rb = RuleBase((ONE_RULE,), ("A-4", "A-7"))
        assert rb._replace(class_order=("A-7", "A-4")).class_order == ("A-7", "A-4")
        with pytest.raises(RuleConfigError, match="duplicate class A-7"):
            rb._replace(class_order=("A-4", "A-7", "A-7"))
        with pytest.raises(RuleConfigError, match="no antecedents"):
            ONE_RULE._replace(antecedents=())


class TestScoreRulebase:
    def test_reference_specimens(self, variables):
        labeled = [
            (sample_memberships(variables, nz), cls)
            for nz, cls in zip(SAMPLES, LABELS)
        ]
        score = score_rulebase(rulebase(), labeled, Aggregator.MEAN)
        assert score == pytest.approx(5 / 6)

    def test_full_agreement(self, variables):
        labeled = [
            (sample_memberships(variables, nz), brute_classify(nz)[0])
            for nz in SAMPLES
        ]
        assert score_rulebase(rulebase(), labeled) == 1.0

    def test_zero_agreement(self, variables):
        labeled = [(sample_memberships(variables, SAMPLES[1]), "A-1-a")]
        assert score_rulebase(rulebase(), labeled) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            score_rulebase(rulebase(), [])


def random_memberships(variables, rng):
    out = {}
    for name, var in variables.items():
        x = var.domain_min + rng.random() * (var.domain_max - var.domain_min)
        out[name] = fuzzify(var, x)
    return out


def random_rule(variables, rng, rid="R1", cls="C"):
    antecedents = []
    for name, var in variables.items():
        size = rng.randint(1, len(var.labels))
        antecedents.append((name, frozenset(rng.sample(var.labels, size))))
    return Rule(rid, tuple(antecedents), cls)


class TestRuleProperties:
    def test_dof_monotone_under_enlargement(self, variables):
        rng = random.Random(3)
        for _ in range(300):
            rule = random_rule(variables, rng)
            memberships = random_memberships(variables, rng)
            base = rule_dof(rule, memberships, Aggregator.MEAN)
            ai = rng.randrange(len(rule.antecedents))
            var, allowed = rule.antecedents[ai]
            extra = set(variables[var].labels) - allowed
            if not extra:
                continue
            enlarged = list(rule.antecedents)
            enlarged[ai] = (var, allowed | {rng.choice(sorted(extra))})
            grown = Rule(rule.id, tuple(enlarged), rule.consequent)
            assert rule_dof(grown, memberships, Aggregator.MEAN) >= base - 1e-12

    def test_aggregator_ordering(self, variables):
        rng = random.Random(5)
        for _ in range(1000):
            rule = random_rule(variables, rng)
            memberships = random_memberships(variables, rng)
            product = rule_dof(rule, memberships, Aggregator.PRODUCT)
            minimum = rule_dof(rule, memberships, Aggregator.MIN)
            mean = rule_dof(rule, memberships, Aggregator.MEAN)
            assert product <= minimum + 1e-12
            assert minimum <= mean + 1e-12
            assert 0.0 <= product and mean <= 1.0

    def test_report_scores_bounded(self, variables):
        rng = random.Random(9)
        rb = rulebase()
        for _ in range(100):
            report = classify(rb, random_memberships(variables, rng))
            assert all(0.0 <= s <= 1.0 for s in report.scores.values())
            assert all(0.0 <= d <= 1.0 for d in report.per_rule.values())


def fixture_rows():
    """The reference specimens' value columns, which fuzzify to ``SAMPLES``, and ``LABELS``."""
    return value_columns([fx.sample for fx in reference_fixtures()]), list(LABELS)


class TestInduceRules:
    def test_zero_iterations_returns_initial(self, variables):
        rb = search_rules(*fixture_rows(), variables, iterations=0, seed=17).rulebase
        assert len(rb.rules) == len(set(LABELS))
        assert rb.class_order == LABELS

    def test_deterministic_per_seed(self, variables):
        first = search_rules(*fixture_rows(), variables, iterations=200, seed=3).rulebase
        second = search_rules(*fixture_rows(), variables, iterations=200, seed=3).rulebase
        assert first == second

    def test_more_iterations_never_worse(self, variables):
        short = search_rules(*fixture_rows(), variables, iterations=50, seed=23)
        long = search_rules(*fixture_rows(), variables, iterations=500, seed=23)
        assert long.score >= short.score
        assert long.best_scores[:50] == short.best_scores

    def test_best_trace_non_decreasing(self, variables):
        result = search_rules(*fixture_rows(), variables, iterations=300, seed=29)
        assert all(a <= b for a, b in zip(result.best_scores, result.best_scores[1:]))

    def test_rules_per_class(self, variables):
        rb = search_rules(
            *fixture_rows(), variables, rules_per_class=2, iterations=0, seed=1
        ).rulebase
        assert len(rb.rules) == 2 * len(set(LABELS))

    def test_negative_seed_rejected(self, variables):
        # ``random.Random`` seeds with ``abs(seed)``: -5 would repeat seed 5.
        with pytest.raises(EvaluationError, match="^seed must not be negative$"):
            search_rules(*fixture_rows(), variables, seed=-5)

    def test_class_without_sample_rejected(self, variables):
        with pytest.raises(EvaluationError, match="A-5"):
            search_rules(*fixture_rows(), variables, seed=1, classes=list(LABELS) + ["A-5"])

    def test_empty_variables_or_classes_rejected(self, variables):
        # Both are argument errors, not a rule or rule base that fails to build.
        with pytest.raises(EvaluationError, match="^variables must not be empty$"):
            search_rules(*fixture_rows(), {}, seed=1)
        with pytest.raises(EvaluationError, match="^classes must not be empty$"):
            search_rules(*fixture_rows(), variables, seed=1, classes=[])


# Each input error of ``search_rules``: a change to the reference rows, the
# error it raises and its message, or None where ``classify_many`` raises
# the same error on the same columns.
SEARCH_INPUT_ERRORS = {
    "column without a ladder": (
        lambda columns, labels: ({**columns, "cbr": [1.0] * 6}, labels), EvaluationError, None,
    ),
    "short column": (
        lambda columns, labels: ({**columns, "ll": columns["ll"][:-1]}, labels),
        EvaluationError, None,
    ),
    "value outside its domain": (
        lambda columns, labels: ({**columns, "ll": [*columns["ll"][:-1], 150.0]}, labels),
        FuzzificationError, None,
    ),
    "NaN": (
        lambda columns, labels: ({**columns, "pi": [math.nan, *columns["pi"][1:]]}, labels),
        FuzzificationError, None,
    ),
    "a label short": (
        lambda columns, labels: (columns, labels[:-1]), EvaluationError,
        "labels: length 5, not 6",
    ),
    "no labels": (lambda columns, labels: (columns, []), EvaluationError, "labels: length 0, not 6"),
    "no samples": (
        lambda columns, labels: ({name: [] for name in columns}, []), EvaluationError,
        "no labeled samples",
    ),
    "ladder without a column": (
        lambda columns, labels: (
            {name: column for name, column in columns.items() if name != "pi"}, labels
        ),
        EvaluationError, "rule R1: no membership vector for pi",
    ),
}


@pytest.mark.parametrize("case", list(SEARCH_INPUT_ERRORS))
def test_search_checks_its_inputs(variables, paper_preset, case):
    change, error, message = SEARCH_INPUT_ERRORS[case]
    columns, labels = change(*fixture_rows())
    if message is None:
        with pytest.raises(error) as raised:
            classify_many(paper_preset.rulebase, columns, variables)
        message = str(raised.value)
    with pytest.raises(error) as raised:
        search_rules(columns, labels, variables, iterations=5, seed=1)
    assert (type(raised.value), str(raised.value)) == (error, message)


# The evaluator before active descriptors: a label -> degree dict per
# variable, every allowed label looked up, the rule base checked lazily on
# every sample.


def reference_variable_match(mv, allowed):
    best = None
    for lab in allowed:
        if lab not in mv.entries:
            raise RuleConfigError(f"{mv.variable}: unknown descriptor {lab}")
        d = mv.entries[lab]
        if best is None or d > best:
            best = d
    if best is None:
        raise RuleConfigError(f"{mv.variable}: empty descriptor set")
    return best


def reference_rule_dof(rule, memberships, agg):
    matches = []
    for var, allowed in rule.antecedents:
        if var not in memberships:
            raise EvaluationError(f"rule {rule.id}: no membership vector for {var}")
        matches.append(reference_variable_match(memberships[var], allowed))
    if agg is Aggregator.MIN:
        return min(matches)
    if agg is Aggregator.PRODUCT:
        return math.prod(matches)
    # Left to right, as ``sum()`` added floats before Python 3.12.
    total = 0.0
    for m in matches:
        total += m
    return total / len(matches)


def reference_classify(rb, memberships, agg):
    per_rule = {rule.id: reference_rule_dof(rule, memberships, agg) for rule in rb.rules}
    scores = dict.fromkeys(rb.class_order, 0.0)
    for rule in rb.rules:
        dof = per_rule[rule.id]
        if dof > scores[rule.consequent]:
            scores[rule.consequent] = dof
    ranking = tuple(sorted(scores, key=scores.__getitem__, reverse=True))
    winner = ranking[0]
    tied = tuple(cls for cls in ranking if scores[cls] == scores[winner])
    return ClassificationReport(scores, ranking, winner, len(tied) > 1, tied, per_rule)


def reference_score_rulebase(rb, labeled, agg):
    hits = sum(
        1 for memberships, cls in labeled
        if reference_classify(rb, memberships, agg).winner == cls
    )
    return hits / len(labeled)


def reference_classify_hrb(sample, rb, agg, pi_source, variables):
    memberships = fuzzify_sample(sample, pi_source, variables)
    report = reference_classify(rb, memberships, agg)
    subgroup = report.winner
    if subgroup == "A-7":
        subgroup = a7_split(sample.ll, sample.pi)
    return HrbResult(report, subgroup, SUBGRADE_RATINGS.get(subgroup, ""))


def full_rescoring_search(
    labeled, variables, rules_per_class, iterations, seed, agg, classes=None
):
    """The search loop before incremental scoring: every proposal re-scored."""
    if classes is None:
        classes = list(dict.fromkeys(cls for _, cls in labeled))
    rng = random.Random(seed)
    current = rules_module._random_rulebase(rng, variables, classes, rules_per_class)
    current_score = reference_score_rulebase(current, labeled, agg)
    best, best_score = current, current_score
    trace = []
    for _ in range(iterations):
        toggle = rules_module._mutate(rng, current.rules, variables)
        proposal = current
        if toggle is not None:
            ri, rule = toggle
            proposal = current._replace(
                rules=(*current.rules[:ri], rule, *current.rules[ri + 1:])
            )
        proposal_score = reference_score_rulebase(proposal, labeled, agg)
        if proposal_score >= current_score:
            current, current_score = proposal, proposal_score
            if current_score > best_score:
                best, best_score = current, current_score
        trace.append(best_score)
    return best, best_score, tuple(trace)


# Whole units hit ladder centers, where scores tie; fractions fall between.
DOMAIN_VALUE = st.integers(0, 100) | st.floats(0, 100)


@st.composite
def labeled_sets(draw, variables):
    """Labeled samples: a column of values per variable, and each sample's label."""
    classes = draw(
        st.lists(st.sampled_from(CLASSES), min_size=1, max_size=4, unique=True)
    )
    columns, labels = {name: [] for name in variables}, []
    for _ in range(draw(st.integers(1, 25))):
        for column in columns.values():
            column.append(draw(DOMAIN_VALUE))
        labels.append(draw(st.sampled_from(classes)))
    return columns, labels


def fuzzified(columns, labels, variables):
    """The ``(vectors, class)`` pairs of labeled samples given as value columns."""
    return [
        ({name: fuzzify(variables[name], column[s]) for name, column in columns.items()}, label)
        for s, label in enumerate(labels)
    ]


@settings(max_examples=50, deadline=None)
@given(
    st.data(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Aggregator)),
    st.integers(1, 3),
    st.integers(0, 60),
)
def test_search_equals_full_rescoring(
    variables, data, seed, agg, rules_per_class, iterations
):
    columns, labels = data.draw(labeled_sets(variables))
    present = list(dict.fromkeys(labels))
    # An explicit class order may leave some labels out; those never score.
    prefixes = st.permutations(present).map(lambda p: p[: len(p) // 2 + 1])
    classes = data.draw(st.none() | prefixes)
    result = search_rules(
        columns, labels, variables, rules_per_class=rules_per_class,
        iterations=iterations, seed=seed, agg=agg, classes=classes,
    )
    rulebase, score, best_scores = full_rescoring_search(
        fuzzified(columns, labels, variables), variables, rules_per_class, iterations, seed,
        agg, classes,
    )
    assert result.rulebase == rulebase
    assert result.score == score
    assert result.best_scores == best_scores


@pytest.mark.parametrize("iterations", [0, 40])
def test_search_scores_once_in_full(variables, monkeypatch, iterations):
    # The benchmark tracer reads the initial score from the first
    # ``score_rulebase`` call, looked up through the module.  ``_evaluate``
    # scores the whole rule base on a batch of samples once, for the
    # search's DOF table, whose hit count ``score_rulebase`` reads;
    # proposals never need it, so the count does not grow with the
    # iterations.
    calls = {"score_rulebase": 0, "_evaluate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(rules_module, name))
        monkeypatch.setattr(rules_module, name, wrapped)
    search_rules(*fixture_rows(), variables, iterations=iterations, seed=11)
    assert calls == {"score_rulebase": 1, "_evaluate": 1}


@pytest.mark.parametrize("agg", list(Aggregator))
@pytest.mark.parametrize("seed", [1, 10, 163])
def test_search_scores_the_first_system(variables, monkeypatch, agg, seed):
    # The score the benchmark tracer reads from the one ``score_rulebase``
    # call is the first system's accuracy, as ``score_rulebase`` gives it
    # on the rows' vectors.  A search of no iterations returns that first
    # system, the rule base the same RNG draws first.  Most toggles a
    # search keeps leave its hits as they were; seed 10 under the mean and
    # seed 163 under every aggregator keep a first toggle that raises
    # them, so a score read after it would differ.
    columns, labels = fixture_rows()
    initial = search_rules(columns, labels, variables, iterations=0, seed=seed, agg=agg).rulebase
    pairs = [
        (fuzzify_sample(fx.sample, variables=variables), label)
        for fx, label in zip(reference_fixtures(), labels)
    ]
    expected = score_rulebase(initial, pairs, agg)
    returned = []
    score = rules_module.score_rulebase

    def recording(*args):
        returned.append(score(*args))
        return returned[-1]

    monkeypatch.setattr(rules_module, "score_rulebase", recording)
    search_rules(columns, labels, variables, iterations=40, seed=seed, agg=agg)
    assert returned == [expected]


def test_each_offer_builds_only_the_toggled_match_column(variables, monkeypatch):
    # A toggle changes one antecedent of one rule, so an offer builds the
    # match column of that antecedent alone and reuses the rule's others;
    # the whole rule base is scored only by the one ``_evaluate`` call of
    # a search.
    rng = random.Random(5)
    samples = []
    for _ in range(80):
        p2mm, p425, p075 = sorted((rng.uniform(0, 100) for _ in range(3)), reverse=True)
        ll = rng.uniform(10, 95)
        pi = rng.uniform(0, min(ll, 70))
        samples.append(SoilSample(p2mm, p425, p075, ll=ll, pl=ll - pi, pi=pi))

    offers, evaluations, built = [], [], None
    match_column, evaluate = rules_module._match_column, rules_module._evaluate
    offer = rules_module._DofTable.offer

    def recording_match_column(antecedent, batch):
        if built is not None:
            built.append(antecedent)
        return match_column(antecedent, batch)

    def counting_evaluate(*args):
        evaluations.append(args)
        return evaluate(*args)

    def recording_offer(table, ri, rule):
        nonlocal built
        built, old = [], table.rules[ri]
        try:
            return offer(table, ri, rule)
        finally:
            offers.append((old, rule, built))
            built = None

    monkeypatch.setattr(rules_module, "_match_column", recording_match_column)
    monkeypatch.setattr(rules_module, "_evaluate", counting_evaluate)
    monkeypatch.setattr(rules_module._DofTable, "offer", recording_offer)
    search_rules(
        value_columns(samples), list(map(crisp_classify, samples)), variables,
        rules_per_class=2, iterations=300, seed=4,
    )
    assert len(offers) > 250
    for old, rule, calls in offers:
        assert len(rule.antecedents) == len(old.antecedents)
        toggled = [new for new, was in zip(rule.antecedents, old.antecedents) if new != was]
        assert len(toggled) == 1 and calls == toggled
    assert len(evaluations) == 1


@pytest.mark.parametrize("agg", list(Aggregator))
@pytest.mark.parametrize("seed", [1, 2])
def test_search_keeps_shared_antecedents_apart(variables, monkeypatch, agg, seed):
    # R1, R2 and R4 have one antecedent, the same one, so the evaluator builds
    # one match column for all three, which is each one's DOF column; an
    # offer that replaces one rule's column must leave the others' alone.
    # Every accepted system's score must be the one ``score_rulebase`` gives
    # it from scratch.
    shared = ("p075", frozenset({"L", "LM", "M"}))
    start = RuleBase(
        (
            Rule("R1", (shared,), "A"),
            Rule("R2", (shared,), "A"),
            Rule("R3", (("p075", frozenset({"H", "VH"})),), "B"),
            Rule("R4", (shared,), "B"),
        ),
        ("A", "B"),
    )
    monkeypatch.setattr(rules_module, "_random_rulebase", lambda *args: start)
    rng = random.Random(seed)
    samples = [SoilSample(100, 100, rng.uniform(0, 100), 40, 20) for _ in range(120)]
    labels = ["A" if sample.p075 < 22 else "B" for sample in samples]
    labeled = [
        (fuzzify_sample(sample, variables=variables), label)
        for sample, label in zip(samples, labels)
    ]

    accepted = []
    offer = rules_module._DofTable.offer

    def recording_offer(table, ri, rule):
        taken = offer(table, ri, rule)
        if taken:
            accepted.append((RuleBase(tuple(table.rules), start.class_order), table.hits))
        return taken

    monkeypatch.setattr(rules_module._DofTable, "offer", recording_offer)
    result = search_rules(
        value_columns(samples, names=["p075"]), labels, {"p075": variables["p075"]},
        rules_per_class=2, iterations=300, seed=seed, agg=agg, classes=["A", "B"],
    )
    assert len({rb for rb, _ in accepted}) > 10
    for rb, hits in accepted:
        assert hits / len(labeled) == score_rulebase(rb, labeled, agg)
    assert result.score == score_rulebase(result.rulebase, labeled, agg)


def table_fields(table):
    """Every field of a ``_DofTable``, with its batch's fields, as text.

    ``repr`` copies them and pins the sign of zero; two tables compared by
    it must hold the same ``Rule`` objects, whose sets print in the order
    they were built.
    """
    return repr(dict(vars(table), batch=table.batch._asdict()))


@settings(max_examples=50, deadline=None)
@given(
    st.data(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Aggregator)),
    st.integers(1, 3),
)
def test_offer_declines_untouched_and_accepts_as_a_fresh_table(
    variables, data, seed, agg, rules_per_class
):
    # A declined offer leaves every field of the table as it was; an accepted
    # one leaves the table equal to one built from scratch on its new rules.
    columns, labels = data.draw(labeled_sets(variables))
    present = list(dict.fromkeys(labels))
    # An explicit class order may leave some labels out; those never score.
    classes = data.draw(st.permutations(present).map(lambda p: p[: len(p) // 2 + 1]))
    rng = random.Random(seed)
    rb = rules_module._random_rulebase(rng, variables, classes, rules_per_class)
    batch = rules_module._column_batch(columns, variables)
    table = rules_module._DofTable(rb, batch, labels, agg)
    for _ in range(100):
        toggle = rules_module._mutate(rng, table.rules, variables)
        if toggle is None:
            continue
        before = table_fields(table)
        if table.offer(*toggle):
            rules = tuple(table.rules)
            fresh = rules_module._DofTable(rb._replace(rules=rules), batch, labels, agg)
            assert table_fields(table) == table_fields(fresh)
        else:
            assert table_fields(table) == before


def ladder_values(var):
    """Centers, domain ends, values beyond the end centers and anything between."""
    c = var.centers
    return (
        st.sampled_from((*c, var.domain_min, var.domain_max))
        | st.floats(var.domain_min, c[0])
        | st.floats(c[-1], var.domain_max)
        | st.integers(int(var.domain_min), int(var.domain_max)).map(float)
        | st.floats(var.domain_min, var.domain_max)
    )


@st.composite
def soil_samples(draw, variables):
    sieves = sorted(
        (draw(ladder_values(variables[name])) for name in ("p2mm", "p425", "p075")),
        reverse=True,
    )
    ll = draw(ladder_values(variables["ll"]))
    # ``pi`` and ``pl`` both feed the pi ladder (``pi_source``), so both
    # are drawn from it and ``pi`` is given explicitly.
    pi, pl = draw(ladder_values(variables["pi"])), draw(ladder_values(variables["pi"]))
    return SoilSample(*sieves, ll=ll, pl=pl, pi=pi)


@st.composite
def random_rulebases(draw, variables):
    classes = draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=5, unique=True))
    rules = []
    for i in range(draw(st.integers(1, 8))):
        names = draw(st.lists(st.sampled_from(list(variables)), min_size=1, unique=True))
        antecedents = tuple(
            (name, frozenset(draw(
                st.lists(st.sampled_from(variables[name].labels), min_size=1, unique=True)
            )))
            for name in names
        )
        rules.append(Rule(f"R{i + 1}", antecedents, draw(st.sampled_from(classes))))
    # Classes without a rule score 0 and tie.
    return RuleBase(tuple(rules), tuple(classes))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(list(Aggregator)), st.sampled_from(["pi", "pl"]))
def test_evaluator_equals_dict_reference(
    variables, paper_preset, calibrated_preset, data, agg, pi_source
):
    presets = [paper_preset.rulebase, calibrated_preset.rulebase]
    rb = data.draw(st.sampled_from(presets) | random_rulebases(variables))
    hrb_variables = data.draw(st.sampled_from([None, variables]))
    labeled = []
    for sample in data.draw(st.lists(soil_samples(variables), min_size=1, max_size=4)):
        memberships = fuzzify_sample(sample, pi_source, variables)
        for rule in rb.rules:
            assert rule_dof(rule, memberships, agg) == (
                reference_rule_dof(rule, memberships, agg)
            )
        report = classify(rb, memberships, agg)
        expected = reference_classify(rb, memberships, agg)
        # ``repr`` also pins the order of the dicts and the sign of zero.
        assert report == expected and repr(report) == repr(expected)
        result = classify_hrb(sample, rb, agg, pi_source, hrb_variables)
        expected = reference_classify_hrb(sample, rb, agg, pi_source, variables)
        assert result == expected and repr(result) == repr(expected)
        labeled.append((memberships, data.draw(st.sampled_from(rb.class_order))))
    assert score_rulebase(rb, labeled, agg) == reference_score_rulebase(rb, labeled, agg)


def sample_vectors(draw, variables, ladders, pi_source):
    """A fuzzified soil sample or hand-built vectors, over ``ladders``.

    Hand-built vectors take any degree in [0, 1] for every label, so most
    have three or more nonzero degrees where a Ruspini ladder has two.
    """
    if draw(st.booleans()):
        sample = draw(soil_samples(variables))
        pi = sample.pi if pi_source == "pi" else sample.pl
        values = (sample.p2mm, sample.p425, sample.p075, sample.ll, pi)
        return {
            name: fuzzify(ladders[name], value)
            for name, value in zip(VARIABLE_NAMES, values) if name in ladders
        }
    return {
        name: MembershipVector(name, {
            label: draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1))
            for label in var.labels
        })
        for name, var in ladders.items()
    }


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(list(Aggregator)), st.sampled_from(["pi", "pl"]))
def test_batch_scoring_equals_reference(variables, data, agg, pi_source):
    rb = data.draw(random_rulebases(variables))
    # Samples over other ladder sets fail the rule base's check when it names
    # a pi descriptor; the first failing sample's error is the one raised.
    relabeled = {**variables, "pi": make_partition("pi", ["lo", "hi"], [0, 70], (0, 100))}
    without_pi = {name: var for name, var in variables.items() if name != "pi"}
    ladder_sets = st.sampled_from([variables, relabeled, without_pi])
    mixed = data.draw(st.booleans())
    samples = [
        sample_vectors(
            data.draw, variables, data.draw(ladder_sets) if mixed else variables, pi_source
        )
        for _ in range(data.draw(st.integers(1, 30)))
    ]
    labeled = [(memberships, data.draw(st.sampled_from(rb.class_order))) for memberships in samples]
    # The single-sample path, on each sample alone.
    for memberships in samples:
        for rule in rb.rules:
            try:
                dof = reference_rule_dof(rule, memberships, agg)
            except (EvaluationError, RuleConfigError) as exc:
                with pytest.raises(SoilFuzzError) as raised:
                    rule_dof(rule, memberships, agg)
                assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            else:
                # ``repr`` also pins the sign of zero.
                assert repr(rule_dof(rule, memberships, agg)) == repr(dof)
        try:
            expected = reference_classify(rb, memberships, agg)
        except (EvaluationError, RuleConfigError) as exc:
            with pytest.raises(SoilFuzzError) as raised:
                classify(rb, memberships, agg)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            continue
        # ``repr`` also pins the order of the dicts and the sign of zero.
        assert repr(classify(rb, memberships, agg)) == repr(expected)
    try:
        expected = [reference_classify(rb, memberships, agg) for memberships in samples]
    except (EvaluationError, RuleConfigError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            score_rulebase(rb, labeled, agg)
        return

    _, scored = rules_module._evaluate(rb, rules_module._vector_batch(samples), agg)
    assert scored.classes == rb.class_order
    rows = list(zip(*scored.by_class))
    for s, report in enumerate(expected):
        scores = dict(zip(scored.classes, rows[s]))
        per_rule = {rule.id: column[s] for rule, column in zip(rb.rules, scored.per_rule)}
        # ``repr`` also pins the order of the dicts and the sign of zero.
        assert repr((scores, per_rule)) == repr((report.scores, report.per_rule))
        top = max(rows[s])
        assert tuple(c for c, score in zip(scored.classes, rows[s]) if score == top) == report.tied
        assert scored.winners[s] == report.winner
        assert tuple(scored.tied.get(s, (report.winner,))) == report.tied
        assert repr(scored.report(rb, s)) == repr(report)
    assert score_rulebase(rb, labeled, agg) == reference_score_rulebase(rb, labeled, agg)


def batch_added_one_by_one(samples):
    """The batch of ``(ladders, pairs)`` samples, built one sample at a time.

    Each new ladder set is listed, and each active ``(label, degree)`` pair
    appends the sample and its degree to its label's entry.
    """
    index, ladder_sets = {}, []
    for s, (ladders, pairs) in enumerate(samples):
        if ladders not in ladder_sets:
            ladder_sets.append(ladders)
        for var, active in pairs.items():
            entries = index.setdefault(var, {})
            for label, degree in active:
                at, degrees = entries.setdefault(label, ([], []))
                at.append(s)
                degrees.append(degree)
    return rules_module._Batch(len(samples), index, ladder_sets)


def convert(memberships):
    """A fuzzified sample's ladders and active pairs, for ``batch_added_one_by_one``."""
    ladders = {name: tuple(mv.entries) for name, mv in memberships.items()}
    pairs = {name: tuple(mv.nonzero().items()) for name, mv in memberships.items()}
    return ladders, pairs


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["pi", "pl"]))
def test_vector_batch_equals_adding_each_sample(variables, data, pi_source):
    relabeled = {**variables, "pi": make_partition("pi", ["lo", "hi"], [0, 70], (0, 100))}
    without_pi = {name: var for name, var in variables.items() if name != "pi"}
    ladder_sets = st.sampled_from([variables, relabeled, without_pi])
    samples = [
        sample_vectors(data.draw, variables, data.draw(ladder_sets), pi_source)
        for _ in range(data.draw(st.integers(0, 20)))
    ]
    expected = batch_added_one_by_one([convert(memberships) for memberships in samples])
    batch = rules_module._vector_batch(iter(samples))
    # ``repr`` also pins the order of the ladder sets, of every dict and of
    # each entry's samples.
    assert repr((batch.size, batch.ladders, batch.index)) == repr(
        (expected.size, expected.ladders, expected.index)
    )


@st.composite
def signed_soil_samples(draw, variables):
    """Soil samples as ``soil_samples`` draws them, whose values may also be -0.0."""
    values = {name: ladder_values(var) | st.just(-0.0) for name, var in variables.items()}
    sieves = sorted((draw(values[name]) for name in ("p2mm", "p425", "p075")), reverse=True)
    pi, pl = draw(values["pi"]), draw(values["pi"])
    return SoilSample(*sieves, ll=draw(values["ll"]), pl=pl, pi=pi)


@st.composite
def labeled_rows(draw, variables):
    """Labeled soil samples whose values may also be -0.0."""
    return [
        (draw(signed_soil_samples(variables)), draw(st.sampled_from(CLASSES[:3])))
        for _ in range(draw(st.integers(1, 25)))
    ]


def value_columns(samples, pi_source="pi", names=VARIABLE_NAMES):
    """The value columns of ``samples`` for ``names``; under ``pl`` the ``pi`` one holds ``pl``."""
    return {
        name: [getattr(sample, pi_source if name == "pi" else name) for sample in samples]
        for name in names
    }


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(list(Aggregator)), st.sampled_from(["pi", "pl"]))
def test_classify_many_equals_classify_row_by_row(
    variables, paper_preset, calibrated_preset, data, agg, pi_source
):
    # Row ``s`` of the batch is ``classify`` on sample ``s``'s vectors.  The
    # column index keeps the 0.0 and -0.0 degrees at a center that vectors
    # drop; a match starts at 0.0 and takes only greater degrees, so neither
    # changes a score.
    presets = [paper_preset.rulebase, calibrated_preset.rulebase]
    rb = data.draw(st.sampled_from(presets) | random_rulebases(variables))
    n = data.draw(st.sampled_from([0, 1]) | st.integers(0, 25))
    samples = [data.draw(signed_soil_samples(variables)) for _ in range(n)]
    scored = classify_many(rb, value_columns(samples, pi_source), variables, agg)
    assert scored.classes == rb.class_order
    assert [len(column) for column in (*scored.by_class, *scored.per_rule)] == [n] * (
        len(rb.class_order) + len(rb.rules)
    )
    assert len(scored.winners) == n and all(0 <= s < n for s in scored.tied)
    for s, sample in enumerate(samples):
        expected = classify(rb, fuzzify_sample(sample, pi_source, variables), agg)
        scores = {cls: column[s] for cls, column in zip(scored.classes, scored.by_class)}
        per_rule = {rule.id: column[s] for rule, column in zip(rb.rules, scored.per_rule)}
        tied = tuple(scored.tied.get(s, (scored.winners[s],)))
        # ``repr`` also pins the order of the dicts and the sign of zero.
        assert repr((scores, per_rule, scored.winners[s], tied)) == repr(
            (expected.scores, expected.per_rule, expected.winner, expected.tied)
        )
        assert (s in scored.tied) == expected.tie
        assert repr(scored.report(rb, s)) == repr(expected)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(list(Aggregator)), st.sampled_from(["pi", "pl"]))
def test_classify_hrb_is_a_batch_of_one(
    variables, paper_preset, calibrated_preset, data, agg, pi_source
):
    # ``classify_hrb`` reports row 0 of ``classify_many`` on the sample's
    # one-row columns, splits a winning A-7 and attaches the rating.
    presets = [paper_preset.rulebase, calibrated_preset.rulebase]
    rb = data.draw(st.sampled_from(presets) | random_rulebases(variables))
    hrb_variables = data.draw(st.sampled_from([None, variables]))
    sample = data.draw(signed_soil_samples(variables))
    report = classify_many(rb, value_columns([sample], pi_source), variables, agg).report(rb, 0)
    subgroup = a7_split(sample.ll, sample.pi) if report.winner == "A-7" else report.winner
    expected = HrbResult(report, subgroup, SUBGRADE_RATINGS.get(subgroup, ""))
    result = classify_hrb(sample, rb, agg, pi_source, hrb_variables)
    # ``repr`` also pins the order of the dicts and the sign of zero.
    for field in HrbResult._fields:
        assert repr(getattr(result, field)) == repr(getattr(expected, field)), field


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Aggregator)),
    st.sampled_from(["pi", "pl"]),
    st.integers(1, 2),
    st.integers(0, 40),
)
def test_search_on_columns_equals_full_rescoring(
    variables, data, seed, agg, pi_source, rules_per_class, iterations
):
    # The search scores a batch of value columns, whose index keeps the 0.0
    # and -0.0 degrees that the reference's vectors drop.  A match starts at
    # 0.0 and takes only greater degrees, so neither changes a DOF.
    rows = data.draw(labeled_rows(variables))
    samples, labels = [sample for sample, _ in rows], [label for _, label in rows]
    columns = value_columns(samples, pi_source)
    pairs = [(fuzzify_sample(sample, pi_source, variables), label) for sample, label in rows]
    result = search_rules(
        columns, labels, variables, rules_per_class=rules_per_class, iterations=iterations,
        seed=seed, agg=agg,
    )
    expected = full_rescoring_search(pairs, variables, rules_per_class, iterations, seed, agg)
    # ``repr`` also pins the order of each descriptor set and the sign of zero.
    assert repr(result) == repr(rules_module.InductionResult(*expected))
    batch = rules_module._column_batch(columns, variables)
    for rb in (result.rulebase, data.draw(random_rulebases(variables))):
        table = rules_module._DofTable(rb, batch, labels, agg)
        scores = [score_rulebase(rb, labeled, agg) for labeled in (table, pairs)]
        assert repr(scores[0]) == repr(scores[1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_picks_the_first_class_at_the_top(data):
    # Scores from a set of three make ties common.
    classes = data.draw(st.permutations(CLASSES))[: data.draw(st.integers(1, 11))]
    n = data.draw(st.integers(0, 40))
    scores = st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n, max_size=n)
    by_class = [data.draw(scores) for _ in classes]
    winners, tied = rules_module._rank(classes, by_class)
    expected_tied = {}
    for i, row in enumerate(zip(*by_class)):
        at_top = [cls for cls, score in zip(classes, row) if score == max(row)]
        assert winners[i] == at_top[0]
        if len(at_top) > 1:
            expected_tied[i] = at_top
    assert len(winners) == n
    assert tied == expected_tied


def memberships_over(variables, sample):
    """``fuzzify_sample`` over whichever HRB variables ``variables`` has."""
    values = (sample.p2mm, sample.p425, sample.p075, sample.ll, sample.pi)
    return {
        name: fuzzify(variables[name], value)
        for name, value in zip(VARIABLE_NAMES, values) if name in variables
    }


# Each public entry point that evaluates a rule base on one sample, called
# as ``entry(rb, variables, sample)``.
ENTRY_POINTS = {
    "classify": lambda rb, variables, sample: classify(
        rb, memberships_over(variables, sample)
    ),
    "rule_dof": lambda rb, variables, sample: [
        rule_dof(rule, memberships_over(variables, sample)) for rule in rb.rules
    ],
    "classify_hrb": lambda rb, variables, sample: classify_hrb(
        sample, rb, variables=variables
    ),
    "score_rulebase": lambda rb, variables, sample: score_rulebase(
        rb, [(memberships_over(variables, sample), rb.class_order[0])]
    ),
    "classify_many": lambda rb, variables, sample: classify_many(
        rb, value_columns([sample], names=[n for n in VARIABLE_NAMES if n in variables]), variables
    ),
}

GOOD_RULES = RuleBase(
    (Rule("R1", (("ll", frozenset({"LM", "M"})), ("pi", frozenset({"L"}))), "C"),),
    ("C",),
)
UNKNOWN_DESCRIPTOR = RuleBase(
    (Rule("R1", (("ll", frozenset({"LM"})), ("pi", frozenset({"NOPE"}))), "C"),),
    ("C",),
)
MISSING_VARIABLE = RuleBase(
    (Rule("R1", (("ll", frozenset({"LM"})), ("cbr", frozenset({"L"}))), "C"),),
    ("C",),
)
SAMPLE = SoilSample(100, 80, 40, ll=32, pl=21)


@pytest.mark.parametrize(
    "rb, error, message",
    [
        (UNKNOWN_DESCRIPTOR, RuleConfigError, "pi: unknown descriptor NOPE"),
        (MISSING_VARIABLE, EvaluationError, "rule R1: no membership vector for cbr"),
    ],
    ids=["unknown-descriptor", "missing-variable"],
)
def test_classify_many_checks_rules_on_zero_rows(variables, rb, error, message):
    # A batch of no samples still has its one ladder set to check rules against.
    raised = []
    for n in (0, 1):
        with pytest.raises(SoilFuzzError) as info:
            classify_many(rb, value_columns([SAMPLE] * n), variables)
        raised.append((type(info.value), str(info.value)))
    assert raised == [(error, message)] * 2


def raised_by(call):
    """The type and message of the error ``call()`` raises."""
    with pytest.raises(SoilFuzzError) as info:
        call()
    return type(info.value), str(info.value)


def test_classify_many_checks_the_first_bad_value(variables, paper_preset):
    columns = {**value_columns([SAMPLE]), "ll": [150.0], "pi": [math.nan]}
    raised = raised_by(lambda: classify_many(paper_preset.rulebase, columns, variables))
    assert raised == raised_by(
        lambda: fuzzify_sample(SAMPLE._replace(ll=150.0), variables=variables)
    )
    assert raised == (FuzzificationError, "ll: value 150.0 outside domain [0.0, 100.0]")


@pytest.mark.parametrize(
    "name, value",
    [
        ("p2mm", -0.5),
        ("p075", 100.25),
        ("ll", 1e6),
        ("pi", math.nan),
        ("pi", -math.inf),
        ("pi", math.inf),
    ],
)
def test_classify_many_checks_domains_as_fuzzify(variables, paper_preset, name, value):
    # The bad value sits in the middle row, among values past pi's last center.
    columns = value_columns([SAMPLE._replace(pi=85.0)] * 3)
    columns[name][1] = value
    raised = raised_by(lambda: classify_many(paper_preset.rulebase, columns, variables))
    assert raised == raised_by(lambda: fuzzify(variables[name], value))
    assert raised[0] is FuzzificationError


@pytest.mark.parametrize(
    "columns, ladders, message",
    [
        ({"ll": [32.0]}, VARIABLE_NAMES, "column ll: length 1, not 2"),
        ({"xx": [1.0, 2.0]}, VARIABLE_NAMES, "column xx: no ladder in variables"),
        ({}, ("p2mm", "p425", "p075", "ll"), "column pi: no ladder in variables"),
    ],
    ids=["short-column", "unknown-column", "missing-ladder"],
)
def test_classify_many_checks_its_columns(variables, paper_preset, columns, ladders, message):
    columns = {**value_columns([SAMPLE] * 2), **columns}
    variables = {name: variables[name] for name in ladders}
    raised = raised_by(lambda: classify_many(paper_preset.rulebase, columns, variables))
    assert raised == (EvaluationError, message)


class TestCheckedOnce:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "rb, error, message",
        [
            (UNKNOWN_DESCRIPTOR, RuleConfigError, "pi: unknown descriptor NOPE"),
            (MISSING_VARIABLE, EvaluationError, "rule R1: no membership vector for cbr"),
        ],
        ids=["unknown-descriptor", "missing-variable"],
    )
    def test_failed_check_is_never_remembered(self, variables, entry, rb, error, message):
        call = ENTRY_POINTS[entry]
        for _ in range(2):
            call(GOOD_RULES, variables, SAMPLE)
            for _ in range(2):
                with pytest.raises(error, match=message):
                    call(rb, variables, SAMPLE)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_other_ladders_are_checked_again(self, variables, entry):
        call = ENTRY_POINTS[entry]
        relabeled = {**variables, "pi": make_partition("pi", ["lo", "hi"], [0, 70], (0, 100))}
        without_pi = {name: var for name, var in variables.items() if name != "pi"}
        for _ in range(2):
            call(GOOD_RULES, variables, SAMPLE)
            with pytest.raises(RuleConfigError, match="pi: unknown descriptor L"):
                call(GOOD_RULES, relabeled, SAMPLE)
            with pytest.raises(EvaluationError, match="no membership vector for pi"):
                call(GOOD_RULES, without_pi, SAMPLE)

    def test_rule_base_checked_once_per_ladder_set(
        self, variables, paper_preset, fixtures, monkeypatch
    ):
        checks = []
        check_rules = rules_module._check_rules

        def counting(rules, ladders):
            checks.append(ladders)
            check_rules(rules, ladders)

        monkeypatch.setattr(rules_module, "_check_rules", counting)
        rb = paper_preset.rulebase
        plain = [fuzzify_sample(fx.sample, variables=variables) for fx in fixtures]
        # A ladder no rule names makes another ladder set that passes.
        cbr = make_partition("cbr", ["lo", "hi"], [0, 100], (0, 100))
        extended = [{**memberships, "cbr": fuzzify(cbr, 50)} for memberships in plain]
        ladders = [convert(samples[0])[0] for samples in (plain, extended)]

        score_rulebase(rb, [(memberships, "A-4") for memberships in plain * 5])
        assert checks == ladders[:1]
        checks.clear()
        mixed = [m for pair in zip(extended, plain) for m in pair] * 5
        score_rulebase(rb, [(memberships, "A-4") for memberships in mixed])
        assert checks == ladders[::-1]

    def test_memo_holds_under_threads(self, variables, paper_preset, fixtures):
        # Each of two (rule base, ladders) pairs passes and each mixed pair
        # fails, so any check state shared between threads, such as a
        # remembered pair, that let one thread's passed check stand for
        # another's would let a mixed pair through.
        relabeled = {**variables, "pi": make_partition("pi", ["lo", "hi"], [0, 70], (0, 100))}
        relabeled_rules = RuleBase(
            (Rule("R1", (("ll", frozenset({"LM"})), ("pi", frozenset({"lo"}))), "C"),),
            ("C",),
        )
        good = [(paper_preset.rulebase, variables), (relabeled_rules, relabeled)]
        mixed = [(paper_preset.rulebase, relabeled), (relabeled_rules, variables)]
        samples = [fx.sample for fx in fixtures]
        expected = {
            (g, j): classify_hrb(samples[j], rb, variables=ladders)
            for g, (rb, ladders) in enumerate(good) for j in range(len(samples))
        }
        problems = []

        def worker(k):
            try:
                for i in range(400):
                    j, g = (i + k) % len(samples), (i // 2 + k) % 2
                    if (i + k) % 2:
                        rb, ladders = good[g]
                        if classify_hrb(samples[j], rb, variables=ladders) != expected[g, j]:
                            problems.append(("wrong result", g, j))
                        continue
                    rb, ladders = mixed[g]
                    try:
                        classify_hrb(samples[j], rb, variables=ladders)
                    except RuleConfigError:
                        continue
                    problems.append(("not checked", g, j))
            except Exception as exc:  # reported with the thread's other findings
                problems.append(("raised", repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []


class TestMeansAddLeftToRight:
    """A mean DOF adds its matches left to right, in antecedent order.

    With matches 0.1, 0.2 and 0.3 that is ((0.1 + 0.2) + 0.3) / 3, one bit
    above 0.2, where a compensated sum (``sum()`` from Python 3.12 on, or
    ``math.fsum``) gives one bit below.  So a rule whose DOF is exactly 0.2
    loses to it here and would win under a compensated sum.  A product
    multiplies left to right too.
    """

    DEGREES = (0.1, 0.2, 0.3)
    EXPECTED = {
        Aggregator.MEAN: ((0.1 + 0.2) + 0.3) / 3,
        Aggregator.PRODUCT: (0.1 * 0.2) * 0.3,
    }

    @pytest.fixture(scope="class")
    def memberships(self):
        # On a ladder centered on 0 and 100, B's degree at x is x / 100.
        names = ("p075", "p425", "p2mm")
        ladders = {name: make_partition(name, ("A", "B"), (0, 100), (0, 100)) for name in names}
        out = {name: fuzzify(ladders[name], x) for name, x in zip(names, (10, 20, 30))}
        assert tuple(mv.entries["B"] for mv in out.values()) == self.DEGREES
        return out

    @staticmethod
    def rulebase(first=frozenset({"B"})):
        # X's matches are 0.1, 0.2 and 0.3; Y's one match is 0.2.  Y comes
        # first in class order, so it wins any tie.
        x = Rule("X", (("p075", first), ("p425", frozenset({"B"})), ("p2mm", frozenset({"B"}))), "X")
        y = Rule("Y", (("p425", frozenset({"B"})),), "Y")
        return RuleBase((x, y), ("Y", "X"))

    def test_the_sums_differ(self):
        assert self.EXPECTED[Aggregator.MEAN] > 0.2 > math.fsum(self.DEGREES) / 3
        assert self.EXPECTED[Aggregator.PRODUCT] != 0.1 * (0.2 * 0.3)

    @pytest.mark.parametrize("agg", [Aggregator.MEAN, Aggregator.PRODUCT])
    def test_rule_dof_and_classify(self, memberships, agg):
        rb = self.rulebase()
        assert rule_dof(rb.rules[0], memberships, agg) == self.EXPECTED[agg]
        report = classify(rb, memberships, agg)
        assert report.per_rule["X"] == report.scores["X"] == self.EXPECTED[agg]

    def test_classify_and_score_rulebase_pick_x(self, memberships):
        rb = self.rulebase()
        assert classify(rb, memberships, Aggregator.MEAN).winner == "X"
        # A batch of one and a batch of three.
        for n in (1, 3):
            assert score_rulebase(rb, [(memberships, "X")] * n, Aggregator.MEAN) == 1.0

    @pytest.mark.parametrize("agg", [Aggregator.MEAN, Aggregator.PRODUCT])
    def test_dof_table_and_proposal(self, memberships, agg):
        batch = rules_module._vector_batch([memberships] * 3)
        table = rules_module._DofTable(self.rulebase(), batch, ["X"] * 3, agg)
        assert table.dofs[0] == [self.EXPECTED[agg]] * 3
        # Start X at p075 IS {A}, whose match is 0.9, and offer {B}: X still
        # wins under the mean and Y under the product, so the hits hold.
        table = rules_module._DofTable(self.rulebase(frozenset({"A"})), batch, ["X"] * 3, agg)
        assert table.offer(0, self.rulebase().rules[0])
        assert table.dofs[0] == [self.EXPECTED[agg]] * 3
        if agg is Aggregator.MEAN:
            assert table.hits == 3
