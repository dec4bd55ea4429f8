import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilfuzz import rules as rules_module
from soilfuzz import (
    Aggregator,
    EvaluationError,
    MembershipVector,
    Rule,
    RuleBase,
    RuleConfigError,
    classify,
    fuzzify,
    rule_dof,
    score_rulebase,
    search_rules,
    variable_match,
)

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
    # Matching only reads the degree table, so the input value is immaterial.
    entries = {lab: nonzero.get(lab, 0.0) for lab in variables[name].labels}
    return MembershipVector(variable=name, input_value=0.0, entries=entries)


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


class TestVariableMatch:
    def test_max_over_allowed(self, variables):
        v = mv(variables, "p2mm", {"H": 0.96, "VH": 0.04})
        assert variable_match(v, {"VL", "L", "M", "H", "VH"}) == 0.96

    def test_no_overlap_is_zero(self, variables):
        v = mv(variables, "p425", {"LM": 1.0})
        assert variable_match(v, {"VL", "L"}) == 0.0

    def test_singleton_exact(self, variables):
        v = mv(variables, "p2mm", {"M": 1.0})
        assert variable_match(v, {"M"}) == 1.0

    def test_unknown_label(self, variables):
        v = mv(variables, "p2mm", {"M": 1.0})
        with pytest.raises(RuleConfigError, match="unknown descriptor"):
            variable_match(v, {"NOPE"})


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


class TestInduceRules:
    def _labeled(self, variables):
        return [
            (sample_memberships(variables, nz), cls)
            for nz, cls in zip(SAMPLES, LABELS)
        ]

    def test_zero_iterations_returns_initial(self, variables):
        labeled = self._labeled(variables)
        rb = search_rules(labeled, variables, iterations=0, seed=17).rulebase
        assert len(rb.rules) == len(set(LABELS))
        assert rb.class_order == LABELS

    def test_deterministic_per_seed(self, variables):
        labeled = self._labeled(variables)
        first = search_rules(labeled, variables, iterations=200, seed=3).rulebase
        second = search_rules(labeled, variables, iterations=200, seed=3).rulebase
        assert first == second

    def test_more_iterations_never_worse(self, variables):
        labeled = self._labeled(variables)
        short = search_rules(labeled, variables, iterations=50, seed=23)
        long = search_rules(labeled, variables, iterations=500, seed=23)
        assert long.score >= short.score
        assert long.best_scores[:50] == short.best_scores

    def test_best_trace_non_decreasing(self, variables):
        labeled = self._labeled(variables)
        result = search_rules(labeled, variables, iterations=300, seed=29)
        assert all(a <= b for a, b in zip(result.best_scores, result.best_scores[1:]))

    def test_rules_per_class(self, variables):
        labeled = self._labeled(variables)
        rb = search_rules(
            labeled, variables, rules_per_class=2, iterations=0, seed=1
        ).rulebase
        assert len(rb.rules) == 2 * len(set(LABELS))

    def test_class_without_sample_rejected(self, variables):
        labeled = self._labeled(variables)
        with pytest.raises(EvaluationError, match="A-5"):
            search_rules(labeled, variables, seed=1, classes=list(LABELS) + ["A-5"])


def full_rescoring_search(
    labeled, variables, rules_per_class, iterations, seed, agg, classes=None
):
    """The search loop before incremental scoring: every proposal re-scored."""
    if classes is None:
        classes = list(dict.fromkeys(cls for _, cls in labeled))
    rng = random.Random(seed)
    current = rules_module._random_rulebase(rng, variables, classes, rules_per_class)
    current_score = score_rulebase(current, labeled, agg)
    best, best_score = current, current_score
    trace = []
    for _ in range(iterations):
        proposal, _ = rules_module._mutate(rng, current, variables)
        proposal_score = score_rulebase(proposal, labeled, agg)
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
    classes = draw(
        st.lists(st.sampled_from(CLASSES), min_size=1, max_size=4, unique=True)
    )
    labeled = []
    for _ in range(draw(st.integers(1, 25))):
        memberships = {
            name: fuzzify(var, draw(DOMAIN_VALUE)) for name, var in variables.items()
        }
        labeled.append((memberships, draw(st.sampled_from(classes))))
    return labeled


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
    labeled = data.draw(labeled_sets(variables))
    present = list(dict.fromkeys(cls for _, cls in labeled))
    # An explicit class order may leave some labels out; those never score.
    prefixes = st.permutations(present).map(lambda p: p[: len(p) // 2 + 1])
    classes = data.draw(st.none() | prefixes)
    result = search_rules(
        labeled, variables, rules_per_class=rules_per_class,
        iterations=iterations, seed=seed, agg=agg, classes=classes,
    )
    rulebase, score, best_scores = full_rescoring_search(
        labeled, variables, rules_per_class, iterations, seed, agg, classes
    )
    assert result.rulebase == rulebase
    assert result.score == score
    assert result.best_scores == best_scores


@pytest.mark.parametrize("iterations", [0, 40])
def test_search_scores_once_in_full(variables, monkeypatch, iterations):
    # The benchmark tracer reads the initial score from the first
    # ``score_rulebase`` call, looked up through the module.
    calls = {"score_rulebase": 0, "classify": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(rules_module, name))
        monkeypatch.setattr(rules_module, name, wrapped)
    labeled = [
        (sample_memberships(variables, nz), cls) for nz, cls in zip(SAMPLES, LABELS)
    ]
    search_rules(labeled, variables, iterations=iterations, seed=11)
    assert calls == {"score_rulebase": 1, "classify": len(labeled)}
