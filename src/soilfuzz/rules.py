"""Fuzzy classification rules, their evaluation, and rule induction.

A rule pairs antecedents (variable -> allowed descriptor set) with a class
label.  Matching a variable means taking the maximum membership degree over
the rule's allowed descriptors; a rule's degree of fulfilment (DOF) combines
its per-variable matches with a configurable aggregator.  A class scores the
best DOF among its rules, and classes are ranked score-first with ties broken
by the rule base's class order.

Every entry point scores rules with one private evaluator over each
variable's active descriptors, the ``(label, degree)`` pairs of
:mod:`soilfuzz.fuzzy` (at most two per value): a match is the best degree
among the pairs whose label the rule allows, or 0.  ``classify_hrb`` feeds it
pairs straight from the fuzzifier; the functions here convert their
membership vectors once, with ``nonzero()``.

A rule base is checked against the variable ladders (every antecedent names
a ladder and descriptors on it) once per rule base and ladder set, not once
per sample.  The last pair that passed is remembered, replaced in one
assignment and only after its check passes, so a failed check is repeated
on every call and concurrent callers at worst check twice.

Rule bases and reports are immutable and evaluation has no other side
effect.  The induction search owns a private seeded RNG, so concurrent
searches need distinct seeds.
"""

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EvaluationError, RuleConfigError
from .fuzzy import LinguisticVariable, MembershipVector


class Aggregator(enum.Enum):
    """How a rule's per-variable matches are combined into its DOF."""

    MIN = "min"
    PRODUCT = "product"
    MEAN = "mean"

    def combine(self, matches: Sequence[float]) -> float:
        return _COMBINE[self](matches)


# Each aggregator's combining function, looked up once per sample.
_COMBINE = {
    Aggregator.MIN: min,
    Aggregator.PRODUCT: math.prod,
    Aggregator.MEAN: lambda matches: sum(matches) / len(matches),
}


@dataclass(frozen=True)
class Rule:
    """One IF-THEN rule: every antecedent must be matched for a full DOF."""

    id: str
    antecedents: tuple[tuple[str, frozenset[str]], ...]
    consequent: str

    def __post_init__(self):
        if not self.antecedents:
            raise RuleConfigError(f"rule {self.id}: no antecedents")
        for var, allowed in self.antecedents:
            if not allowed:
                raise RuleConfigError(
                    f"rule {self.id}: empty descriptor set for {var}"
                )


@dataclass(frozen=True)
class RuleBase:
    """An ordered rule collection plus the tie-breaking class order."""

    rules: tuple[Rule, ...]
    class_order: tuple[str, ...]

    def __post_init__(self):
        if not self.rules:
            raise RuleConfigError("empty rule base")
        seen = set()
        for rule in self.rules:
            if rule.id in seen:
                raise RuleConfigError(f"duplicate rule id {rule.id}")
            seen.add(rule.id)
        known = set(self.class_order)
        for rule in self.rules:
            if rule.consequent not in known:
                raise RuleConfigError(
                    f"rule {rule.id}: consequent {rule.consequent} "
                    "missing from class order"
                )


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class possibility scores, in class order, with a deterministic ranking."""

    scores: dict[str, float]
    ranking: tuple[str, ...]
    winner: str
    tie: bool
    tied: tuple[str, ...]
    per_rule: dict[str, float]


# Variable name -> its descriptor labels, and -> its active (label, degree) pairs.
Ladders = Mapping[str, tuple[str, ...]]
Pairs = Mapping[str, Sequence[tuple[str, float]]]


def _convert(memberships: Mapping[str, MembershipVector]) -> tuple[dict, dict]:
    """The ladders and the active pairs of a fuzzified sample."""
    ladders = {name: tuple(mv.entries) for name, mv in memberships.items()}
    pairs = {name: tuple(mv.nonzero().items()) for name, mv in memberships.items()}
    return ladders, pairs


def _check_rules(rules: Iterable[Rule], ladders: Ladders) -> None:
    for rule in rules:
        for var, allowed in rule.antecedents:
            if var not in ladders:
                raise EvaluationError(f"rule {rule.id}: no membership vector for {var}")
            for lab in allowed:
                if lab not in ladders[var]:
                    raise RuleConfigError(f"{var}: unknown descriptor {lab}")


# The last (rule base, ladders) pair that passed ``_check``.
_checked: tuple = (None, None)


def _check(rb: RuleBase, ladders: Ladders) -> None:
    """Raise unless ``ladders`` have every variable and descriptor of ``rb``.

    The pair is remembered, so callers pass ``ladders`` built for the call.

    Raises:
        EvaluationError: if a rule names a variable the ladders lack.
        RuleConfigError: if a rule names a descriptor its variable lacks.
    """
    global _checked
    last_rb, last_ladders = _checked
    if rb is last_rb and ladders == last_ladders:
        return
    _check_rules(rb.rules, ladders)
    _checked = rb, ladders


def _dof(rule: Rule, pairs: Pairs, combine: Callable[[list[float]], float]) -> float:
    """Degree of fulfilment of a checked rule on a sample's active pairs."""
    matches = []
    for var, allowed in rule.antecedents:
        match = 0.0
        for lab, degree in pairs[var]:
            if degree > match and lab in allowed:
                match = degree
        matches.append(match)
    return combine(matches)


def _evaluate(
    rb: RuleBase, ladders: Ladders, pairs: Pairs, agg: Aggregator
) -> ClassificationReport:
    """Check ``rb`` against ``ladders``, then score it on one sample's pairs."""
    _check(rb, ladders)
    combine = _COMBINE[agg]
    per_rule = {rule.id: _dof(rule, pairs, combine) for rule in rb.rules}
    scores = dict.fromkeys(rb.class_order, 0.0)
    for rule in rb.rules:
        dof = per_rule[rule.id]
        if dof > scores[rule.consequent]:
            scores[rule.consequent] = dof

    # A stable sort keeps equal scores in class order.
    ranking = tuple(sorted(scores, key=scores.__getitem__, reverse=True))
    winner = ranking[0]
    tied = tuple(cls for cls in ranking if scores[cls] == scores[winner])
    return ClassificationReport(
        scores=scores,
        ranking=ranking,
        winner=winner,
        tie=len(tied) > 1,
        tied=tied,
        per_rule=per_rule,
    )


def variable_match(mv: MembershipVector, allowed: Iterable[str]) -> float:
    """Best membership degree over the descriptors a rule allows.

    Raises:
        RuleConfigError: if ``allowed`` is empty or names a descriptor the
            vector's variable does not have.
    """
    allowed = frozenset(allowed)
    if not allowed:
        raise RuleConfigError(f"{mv.variable}: empty descriptor set")
    rule = Rule("", ((mv.variable, allowed),), "")
    return rule_dof(rule, {mv.variable: mv}, Aggregator.MIN)


def rule_dof(
    rule: Rule,
    memberships: Mapping[str, MembershipVector],
    agg: Aggregator = Aggregator.MEAN,
) -> float:
    """Degree of fulfilment of one rule against a fuzzified sample."""
    ladders, pairs = _convert(memberships)
    _check_rules((rule,), ladders)
    return _dof(rule, pairs, _COMBINE[agg])


def classify(
    rb: RuleBase,
    memberships: Mapping[str, MembershipVector],
    agg: Aggregator = Aggregator.MEAN,
) -> ClassificationReport:
    """Score every class of ``rb`` against a fuzzified sample.

    A class scores the maximum DOF over its rules.  The ranking sorts by
    score descending and breaks ties by class order, so the report is fully
    deterministic for identical inputs.
    """
    return _evaluate(rb, *_convert(memberships), agg)


def score_rulebase(
    rb: RuleBase,
    labeled: Sequence[tuple[Mapping[str, MembershipVector], str]],
    agg: Aggregator = Aggregator.MEAN,
) -> float:
    """Fraction of labeled samples whose classify winner matches the label."""
    if not labeled:
        raise EvaluationError("no labeled samples to score")
    hits = sum(
        1 for memberships, cls in labeled
        if _evaluate(rb, *_convert(memberships), agg).winner == cls
    )
    return hits / len(labeled)


@dataclass(frozen=True)
class InductionResult:
    """Outcome of a rule search: the best base found and its score trace."""

    rulebase: RuleBase
    score: float
    best_scores: tuple[float, ...]


def _random_subset(rng: random.Random, labels: tuple[str, ...]) -> frozenset[str]:
    # Uniform over the 2^n - 1 non-empty subsets.
    mask = rng.randrange(1, 2 ** len(labels))
    return frozenset(lab for i, lab in enumerate(labels) if mask >> i & 1)


def _random_rulebase(
    rng: random.Random,
    variables: Mapping[str, LinguisticVariable],
    classes: Sequence[str],
    rules_per_class: int,
) -> RuleBase:
    rules = []
    for cls in classes:
        for _ in range(rules_per_class):
            antecedents = tuple(
                (name, _random_subset(rng, var.labels))
                for name, var in variables.items()
            )
            rules.append(Rule(f"R{len(rules) + 1}", antecedents, cls))
    return RuleBase(tuple(rules), tuple(classes))


def _mutate(
    rng: random.Random,
    rb: RuleBase,
    variables: Mapping[str, LinguisticVariable],
) -> tuple[RuleBase, int | None]:
    # Toggle one descriptor in one antecedent set of one rule, and report the
    # index of the changed rule.  A toggle that would empty the set is
    # dropped: the proposal is ``rb`` itself and the index is None.
    rules = list(rb.rules)
    ri = rng.randrange(len(rules))
    rule = rules[ri]
    ai = rng.randrange(len(rule.antecedents))
    var, allowed = rule.antecedents[ai]
    labels = variables[var].labels
    lab = labels[rng.randrange(len(labels))]
    toggled = allowed - {lab} if lab in allowed else allowed | {lab}
    if not toggled:
        return rb, None
    antecedents = list(rule.antecedents)
    antecedents[ai] = (var, toggled)
    rules[ri] = Rule(rule.id, tuple(antecedents), rule.consequent)
    return RuleBase(tuple(rules), rb.class_order), ri


class _DofTable:
    """Every rule's DOF on every labeled sample, and every sample's class scores.

    A class scores ``max(0.0, its rules' DOFs)`` and a sample's winner is the
    first class in class order with the top score, exactly as ``classify``
    ranks.  A proposal that changes one rule needs that rule's DOF column
    and a re-rank of each sample, not a full re-scoring.  Each sample is
    converted to its active pairs once, and each column's rule is checked
    once against every distinct ladder set among the samples.
    """

    def __init__(
        self,
        rb: RuleBase,
        labeled: Sequence[tuple[Mapping[str, MembershipVector], str]],
        agg: Aggregator,
    ):
        self.ladders, self.samples = [], []
        for memberships, _ in labeled:
            ladders, pairs = _convert(memberships)
            if ladders not in self.ladders:
                self.ladders.append(ladders)
            self.samples.append(pairs)
        self.combine = _COMBINE[agg]
        position = {cls: i for i, cls in enumerate(rb.class_order)}
        self.truth = [position.get(cls) for _, cls in labeled]
        self.owner = [position[rule.consequent] for rule in rb.rules]
        self.dofs = [self._column(rule) for rule in rb.rules]
        self.rows = [[0.0] * len(position) for _ in self.samples]
        for c, column in zip(self.owner, self.dofs):
            for row, dof in zip(self.rows, column):
                row[c] = max(row[c], dof)

    def _column(self, rule: Rule) -> list[float]:
        for ladders in self.ladders:
            _check_rules((rule,), ladders)
        return [_dof(rule, pairs, self.combine) for pairs in self.samples]

    def propose(self, ri: int, rule: Rule) -> tuple[int, tuple]:
        """Hits with rule ``ri`` replaced by ``rule``, and the change to accept."""
        column = self._column(rule)
        c = self.owner[ri]
        siblings = [
            self.dofs[r] for r, owner in enumerate(self.owner) if owner == c and r != ri
        ]
        scores = [max(0.0, *dofs) for dofs in zip(column, *siblings)]
        hits = 0
        for row, score, true in zip(self.rows, scores, self.truth):
            kept, row[c] = row[c], score
            # ``max`` and ``index`` both take the first of equal scores.
            hits += row.index(max(row)) == true
            row[c] = kept
        return hits, (ri, column, scores)

    def accept(self, change: tuple) -> None:
        ri, column, scores = change
        self.dofs[ri] = column
        c = self.owner[ri]
        for row, score in zip(self.rows, scores):
            row[c] = score


def search_rules(
    labeled: Sequence[tuple[Mapping[str, MembershipVector], str]],
    variables: Mapping[str, LinguisticVariable],
    rules_per_class: int = 1,
    iterations: int = 1000,
    seed: int = 0,
    agg: Aggregator = Aggregator.MEAN,
    classes: Sequence[str] | None = None,
) -> InductionResult:
    """Greedy random search over rule systems, scored by training accuracy.

    Starts from a fully random rule system (every antecedent a uniformly
    random non-empty descriptor subset), then proposes single-descriptor
    toggles and keeps each proposal whose accuracy does not decrease.  The
    best system seen is returned together with the best-so-far score after
    every iteration; the whole run is reproducible from ``seed``.

    Proposals are scored incrementally: the search keeps every rule's DOF on
    every sample, recomputes only the changed rule's DOFs and re-ranks each
    sample.  The result is identical to re-scoring every proposal with
    ``score_rulebase``; a toggle that would empty a descriptor set is kept
    with the current score and not re-scored.

    Args:
        labeled: (membership vectors, true class) training pairs.
        variables: the variables rules may mention, in antecedent order.
        rules_per_class: how many rules the system holds per class.
        iterations: number of mutation proposals (0 keeps the initial system).
        seed: RNG seed; identical inputs and seed give identical output.
        agg: DOF aggregator used during scoring.
        classes: optional explicit class list; defaults to the labels'
            first-appearance order.  Every class must have a labeled sample.
    """
    if rules_per_class < 1:
        raise EvaluationError("rules_per_class must be at least 1")
    if iterations < 0:
        raise EvaluationError("iterations must not be negative")
    if not labeled:
        raise EvaluationError("no labeled samples")

    present = {cls for _, cls in labeled}
    if classes is None:
        classes = list(dict.fromkeys(cls for _, cls in labeled))
    else:
        classes = list(classes)
        missing = [cls for cls in classes if cls not in present]
        if missing:
            raise EvaluationError(
                f"no labeled sample for class(es): {', '.join(missing)}"
            )

    rng = random.Random(seed)
    current = _random_rulebase(rng, variables, classes, rules_per_class)
    current_score = score_rulebase(current, labeled, agg)
    table = _DofTable(current, labeled, agg)
    best, best_score = current, current_score
    trace = []
    for _ in range(iterations):
        proposal, ri = _mutate(rng, current, variables)
        if ri is not None:
            hits, change = table.propose(ri, proposal.rules[ri])
            proposal_score = hits / len(labeled)
            if proposal_score >= current_score:
                table.accept(change)
                current, current_score = proposal, proposal_score
                if current_score > best_score:
                    best, best_score = current, current_score
        trace.append(best_score)
    return InductionResult(best, best_score, tuple(trace))
