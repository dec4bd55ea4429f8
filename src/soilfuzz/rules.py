"""Fuzzy classification rules, their evaluation, and rule induction.

A rule pairs antecedents (variable -> allowed descriptor set) with a class
label.  Matching a variable means taking the maximum membership degree over
the rule's allowed descriptors; a rule's degree of fulfilment (DOF) combines
its per-variable matches with a configurable aggregator.  A class scores the
best DOF among its rules, and classes are ranked score-first with ties broken
by the rule base's class order.

Two private kernels score rules on fuzzified samples, given as active
descriptors: the ``(label, degree)`` pairs of :mod:`soilfuzz.fuzzy`, at
most two per value.  ``classify``, ``classify_hrb`` and ``rule_dof`` score
one sample with ``_dof``, as does an induction proposal on each sample it
can change (see ``_DofTable``).  The CLI and ``_DofTable`` score all their
samples as one batch with ``_evaluate``, one rule column at a time, over
an index by variable, then label: each active descriptor lists the
samples where it is active and its degree there.  In both, an
antecedent's match starts at 0 and takes the greatest degree of the
active labels it allows.  A batch's rules that share an antecedent, as
rules read off one decision tree do, share its match column.  A rule's
DOF column combines its match columns whole, in C: the mean adds them
left to right, in antecedent order, then divides by their count; the
product multiplies them left to right; the minimum takes each sample's
least.  ``_dof`` gives the same floats with ``_COMBINE``.  A class's
score column takes the first maximum of its rules' columns.

``_rank`` is the one batch ranker.  It picks each sample's winner, the
first class in class order with the top score, by column, for the CLI
and for ``_DofTable``; ``score_rulebase`` reads the table's hit count.
The CLI builds its index a property at a time with
``fuzzy.active_columns``, ``classify_hrb`` its pairs with
``fuzzy.active_descriptors``; the functions here convert membership
vectors with ``nonzero()``.

The mean never calls ``sum()``, which compensates float rounding from
Python 3.12 on, so its last bit would depend on the version.  Adding left
to right gives ``((a + b) + c) / 3`` on every version, the bits ``sum()``
gave before 3.12 (matches start at 0.0 and are never -0.0).

Every call checks its rules against the ladders (every antecedent names a
ladder and descriptors on it) before it scores, a batch once per distinct
ladder set among its samples.

Rule bases and reports are immutable and evaluation has no other side
effect.  The induction search owns a private seeded RNG, so concurrent
searches need distinct seeds.
"""

import enum
import itertools
import math
import operator
import random
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import EvaluationError, RuleConfigError
from .fuzzy import LinguisticVariable, MembershipVector


class Aggregator(enum.Enum):
    """How a rule's per-variable matches are combined into its DOF."""

    MIN = "min"
    PRODUCT = "product"
    MEAN = "mean"


def _mean(matches: Sequence[float]) -> float:
    total = 0.0
    for match in matches:
        total += match
    return total / len(matches)


# Each aggregator's combining function of one sample's matches, in
# antecedent order.  ``_mean`` adds and ``math.prod`` multiplies left to right.
_COMBINE = {Aggregator.MIN: min, Aggregator.PRODUCT: math.prod, Aggregator.MEAN: _mean}


class _RuleFields(NamedTuple):
    id: str
    antecedents: tuple[tuple[str, frozenset[str]], ...]
    consequent: str


class Rule(_RuleFields):
    """One IF-THEN rule: every antecedent must be matched for a full DOF."""

    __slots__ = ()

    def __new__(cls, id: str, antecedents: tuple, consequent: str):
        if not antecedents:
            raise RuleConfigError(f"rule {id}: no antecedents")
        for var, allowed in antecedents:
            if not allowed:
                raise RuleConfigError(f"rule {id}: empty descriptor set for {var}")
        return super().__new__(cls, id, antecedents, consequent)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, so it is checked too.
        return cls(*iterable)


class _RuleBaseFields(NamedTuple):
    rules: tuple[Rule, ...]
    class_order: tuple[str, ...]


class RuleBase(_RuleBaseFields):
    """An ordered rule collection plus the tie-breaking class order."""

    __slots__ = ()

    def __new__(cls, rules: tuple[Rule, ...], class_order: tuple[str, ...]):
        if not rules:
            raise RuleConfigError("empty rule base")
        seen = set()
        for rule in rules:
            if rule.id in seen:
                raise RuleConfigError(f"duplicate rule id {rule.id}")
            seen.add(rule.id)
        known = set(class_order)
        for rule in rules:
            if rule.consequent not in known:
                raise RuleConfigError(
                    f"rule {rule.id}: consequent {rule.consequent} "
                    "missing from class order"
                )
        if len(known) != len(class_order):
            repeated = [c for i, c in enumerate(class_order) if c in class_order[:i]]
            raise RuleConfigError(f"duplicate class {repeated[0]} in class order")
        return super().__new__(cls, rules, class_order)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, so it is checked too.
        return cls(*iterable)


class ClassificationReport(NamedTuple):
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


class _Batch:
    """Fuzzified samples, indexed by variable and label for column scoring.

    ``index[var][label]`` holds the samples where that label is active, in
    sample order, and their degrees, as ``(samples, degrees)``.  ``ladders``
    lists the samples' distinct ladder sets in order of first appearance,
    so the first check that fails is the first failing sample's.
    """

    def __init__(self):
        self.size = 0
        self.index: dict[str, dict[str, tuple[list[int], list[float]]]] = {}
        self.ladders: list[Ladders] = []

    def add(self, ladders: Ladders, pairs: Pairs) -> None:
        """Append one sample: its ladders and its active pairs by variable."""
        if ladders not in self.ladders:
            self.ladders.append(ladders)
        s = self.size
        self.size = s + 1
        index = self.index
        for var, active in pairs.items():
            entries = index.get(var)
            if entries is None:
                entries = index[var] = {}
            for lab, degree in active:
                entry = entries.get(lab)
                if entry is None:
                    entry = entries[lab] = ([], [])
                entry[0].append(s)
                entry[1].append(degree)


def _convert(memberships: Mapping[str, MembershipVector]) -> tuple[dict, dict]:
    """The ladders and the active pairs of a fuzzified sample."""
    ladders = {name: tuple(mv.entries) for name, mv in memberships.items()}
    pairs = {name: tuple(mv.nonzero().items()) for name, mv in memberships.items()}
    return ladders, pairs


def _check_rules(rules: Iterable[Rule], ladders: Ladders) -> None:
    """Raise unless ``ladders`` have every variable and descriptor of ``rules``.

    Raises:
        EvaluationError: if a rule names a variable the ladders lack.
        RuleConfigError: if a rule names a descriptor its variable lacks.
    """
    for rule in rules:
        for var, allowed in rule.antecedents:
            if var not in ladders:
                raise EvaluationError(f"rule {rule.id}: no membership vector for {var}")
            for lab in allowed:
                if lab not in ladders[var]:
                    raise RuleConfigError(f"{var}: unknown descriptor {lab}")


def _fold(op: Callable[[float, float], float], columns: list[list[float]]) -> Iterable[float]:
    """``op`` applied left to right across ``columns``, sample by sample."""
    total = columns[0]
    for column in columns[1:]:
        total = map(op, total, column)
    return total


# Each aggregator's DOF column from a rule's two or more match columns, in
# antecedent order: each sample's DOF equals ``_COMBINE`` of its matches.
_COMBINE_COLUMNS = {
    Aggregator.MIN: lambda matches: list(map(min, *matches)),
    Aggregator.PRODUCT: lambda matches: list(_fold(operator.mul, matches)),
    Aggregator.MEAN: lambda matches: list(
        map(operator.truediv, _fold(operator.add, matches), itertools.repeat(len(matches)))
    ),
}


def _dof_columns(rules: Iterable[Rule], batch: _Batch, agg: Aggregator) -> list[list[float]]:
    """Each checked rule's DOF on every sample of ``batch``, each a list of its own.

    An antecedent's match column starts at 0 and takes each greater degree
    of an allowed label, walking only those labels' index entries; rules
    that share an antecedent share its match column, built once.  The DOF
    column combines the match columns with ``_COMBINE_COLUMNS``.  A single
    match column is the DOF column (m / 1, 1 * m and min((m,)) are all m),
    copied, since ``_DofTable.accept`` changes DOF columns in place.
    """
    n, index = batch.size, batch.index
    combine = _COMBINE_COLUMNS[agg]
    built: dict[tuple[str, frozenset[str]], list[float]] = {}
    columns = []
    for rule in rules:
        matches = []
        for antecedent in rule.antecedents:
            match = built.get(antecedent)
            if match is None:
                var, allowed = antecedent
                match = built[antecedent] = [0.0] * n
                entries = index.get(var, {})
                for lab in allowed:
                    entry = entries.get(lab)
                    if entry is not None:
                        for s, degree in zip(*entry):
                            if degree > match[s]:
                                match[s] = degree
            matches.append(match)
        columns.append(combine(matches) if len(matches) > 1 else matches[0][:])
    return columns


def _evaluate(
    rb: RuleBase, batch: _Batch, agg: Aggregator
) -> tuple[tuple[str, ...], list[list[float]], list[list[float]]]:
    """Check ``rb`` against the batch's ladders, then score it on every sample.

    Returns the class order, each rule's DOF column, and each class's score
    column in that order.  A class scores the first maximum of 0 and its
    rules' DOFs, as a loop that replaces the score only by a greater DOF
    would.  A DOF is never below +0.0 (a match starts at 0.0 and only
    grows), so that is its rules' first maximum, and a class with one rule
    scores that rule's column itself.
    """
    for ladders in batch.ladders:
        _check_rules(rb.rules, ladders)
    columns = _dof_columns(rb.rules, batch, agg)
    owned: dict[str, list[list[float]]] = {cls: [] for cls in rb.class_order}
    for rule, column in zip(rb.rules, columns):
        owned[rule.consequent].append(column)
    n = batch.size
    by_class = [
        cols[0] if len(cols) == 1 else list(map(max, *cols)) if cols else [0.0] * n
        for cols in owned.values()
    ]
    return rb.class_order, columns, by_class


def _rank(classes, by_class) -> tuple[list[str], dict[int, list[str]]]:
    """Each sample's winner, and the classes at the top score of each tied sample.

    ``by_class`` holds each class's score column, in the order of
    ``classes``; the winner is the first class in that order with the top
    score.
    """
    n = len(by_class[0])
    tops = list(map(max, *by_class)) if len(by_class) > 1 else by_class[0]
    winners: list = [None] * n
    tied = set()
    # From the last class to the first, so the first class at the top is
    # kept; a sample a later class has already taken is tied.
    for cls, column in zip(reversed(classes), reversed(by_class)):
        for i in itertools.compress(range(n), map(operator.eq, column, tops)):
            if winners[i] is not None:
                tied.add(i)
            winners[i] = cls
    return winners, {
        i: [cls for cls, column in zip(classes, by_class) if column[i] == tops[i]]
        for i in tied
    }


def _dof(rule: Rule, pairs: Pairs, combine: Callable[[list[float]], float]) -> float:
    """Degree of fulfilment of a checked rule on one sample's active pairs.

    The kernel of every single-sample call, and of ``_DofTable.propose``:
    indexing the few samples a proposal touches costs more than scoring
    them.  The floats equal ``_dof_columns``'s.
    """
    matches = []
    for var, allowed in rule.antecedents:
        match = 0.0
        for lab, degree in pairs[var]:
            if degree > match and lab in allowed:
                match = degree
        matches.append(match)
    return combine(matches)


def _report(
    rb: RuleBase, ladders: Ladders, pairs: Pairs, agg: Aggregator
) -> ClassificationReport:
    """Check ``rb`` against one sample's ladders, then score it on the sample's pairs.

    A class scores the first maximum of 0 and its rules' DOFs.
    """
    _check_rules(rb.rules, ladders)
    combine = _COMBINE[agg]
    per_rule, scores = {}, dict.fromkeys(rb.class_order, 0.0)
    for rule in rb.rules:
        dof = per_rule[rule.id] = _dof(rule, pairs, combine)
        if dof > scores[rule.consequent]:
            scores[rule.consequent] = dof
    # The classes at the top score, in class order: the first one wins.
    top = max(scores.values())
    tied = tuple(cls for cls, score in scores.items() if score == top)
    # A stable sort keeps equal scores in class order.
    ranking = tuple(sorted(scores, key=scores.__getitem__, reverse=True))
    return ClassificationReport(
        scores=scores,
        ranking=ranking,
        winner=tied[0],
        tie=len(tied) > 1,
        tied=tied,
        per_rule=per_rule,
    )


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
    return _report(rb, *_convert(memberships), agg)


def score_rulebase(
    rb: RuleBase,
    labeled: Sequence[tuple[Mapping[str, MembershipVector], str]],
    agg: Aggregator = Aggregator.MEAN,
) -> float:
    """Fraction of labeled samples whose classify winner matches the label."""
    if not labeled:
        raise EvaluationError("no labeled samples to score")
    return _DofTable(rb, labeled, agg).hits / len(labeled)


class InductionResult(NamedTuple):
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

    The table is scored once by ``_evaluate`` and ranked once by ``_rank``,
    whose winners give each sample's hit flag and the hit count.  It keeps
    the batch's ``(variable, label)`` index, each sample's active pairs and
    its row of class scores, and checks a proposed rule once against every
    distinct ladder set among the samples.

    A proposal that changes one rule can change its DOF only on the samples
    where a label it adds or drops is active (Ruspini ladders make at most
    two labels of a value active).  A proposal scores the new rule on just
    those touched samples, one by one with ``_dof``, and re-ranks only them:
    its cost is proportional to them, not to every sample.
    """

    def __init__(
        self,
        rb: RuleBase,
        labeled: Sequence[tuple[Mapping[str, MembershipVector], str]],
        agg: Aggregator,
    ):
        self.batch, self.samples = _Batch(), []
        for memberships, _ in labeled:
            ladders, pairs = _convert(memberships)
            self.batch.add(ladders, pairs)
            self.samples.append(pairs)
        classes, self.dofs, by_class = _evaluate(rb, self.batch, agg)
        self.combine = _COMBINE[agg]
        position = {cls: i for i, cls in enumerate(classes)}
        self.truth = [position.get(cls) for _, cls in labeled]
        self.rules = list(rb.rules)
        self.owner = [position[rule.consequent] for rule in rb.rules]
        self.rows = [list(row) for row in zip(*by_class)]
        winners, _ = _rank(classes, by_class)
        self.hit = [winner == cls for winner, (_, cls) in zip(winners, labeled)]
        self.hits = sum(self.hit)

    def _touched(self, old: Rule, new: Rule) -> set[int]:
        """The samples where a label in one rule's set but not the other's is active.

        The rules name the same variables in the same order.
        """
        touched: set[int] = set()
        index = self.batch.index
        for (var, was), (_, now) in zip(old.antecedents, new.antecedents):
            entries = index.get(var, {})
            for lab in was ^ now:
                entry = entries.get(lab)
                if entry is not None:
                    touched.update(entry[0])
        return touched

    def propose(self, ri: int, rule: Rule) -> tuple[int, tuple]:
        """Hits with rule ``ri`` replaced by ``rule``, and the change to accept."""
        for ladders in self.batch.ladders:
            _check_rules((rule,), ladders)
        c = self.owner[ri]
        siblings = [
            self.dofs[r] for r, owner in enumerate(self.owner) if owner == c and r != ri
        ]
        samples, rows, truth, hit = self.samples, self.rows, self.truth, self.hit
        combine = self.combine
        hits = self.hits
        changed = []
        for s in self._touched(self.rules[ri], rule):
            dof = _dof(rule, samples[s], combine)
            score = max(0.0, dof, *[column[s] for column in siblings])
            row = rows[s]
            kept, row[c] = row[c], score
            # The first class at the top score, as ``_rank`` picks it.
            now = row.index(max(row)) == truth[s]
            row[c] = kept
            hits += now - hit[s]
            changed.append((s, dof, score, now))
        return hits, (ri, rule, changed, hits)

    def accept(self, change: tuple) -> None:
        ri, rule, changed, self.hits = change
        self.rules[ri] = rule
        column, c = self.dofs[ri], self.owner[ri]
        rows, hit = self.rows, self.hit
        for s, dof, score, now in changed:
            column[s] = dof
            rows[s][c] = score
            hit[s] = now


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
    every sample and each sample's hit.  Toggling one descriptor of one rule
    can change that rule's DOF only where the descriptor is active, which
    on a Ruspini ladder is at most two adjacent descriptors per value, so a
    proposal recomputes the changed rule's DOF and re-ranks only those
    samples; its cost is proportional to them, not to every sample.  The
    result is identical to re-scoring every proposal with
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
