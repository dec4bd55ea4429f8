"""Fuzzy classification rules, their evaluation, and rule induction.

A rule pairs antecedents (variable -> allowed descriptor set) with a class
label.  Matching a variable means taking the maximum membership degree over
the rule's allowed descriptors; a rule's degree of fulfilment (DOF) combines
its per-variable matches with a configurable aggregator.  A class scores the
best DOF among its rules, and classes are ranked score-first with ties broken
by the rule base's class order.

Two kernels compute every DOF.  They score a ``_Batch`` of fuzzified
samples, indexed by variable, then label: each active descriptor lists
the samples where it is active and its degree there.  ``_vector_batch``
builds one from membership vectors, a sample at a time;
``_column_batch`` from value columns, a variable at a time with
``fuzzy.active_columns``.  ``_match_column`` builds one antecedent's
match column: it starts at 0 and takes the greatest degree of the active
labels the antecedent allows.  A batch's rules that share an antecedent,
as rules read off one decision tree do, share its match column.
``_dof_column`` combines a rule's match columns whole, in C: the mean
adds them left to right, in antecedent order, then divides by their
count; the product multiplies them left to right; the minimum takes each
sample's least.  ``_evaluate`` scores a rule base with them, and a
class's score column takes the first maximum of its rules' columns.
``classify_many`` and ``search_rules`` score a batch of value columns;
``classify`` and ``rule_dof`` a batch of one vector sample.  An induction
toggle changes one antecedent of one rule, so ``_DofTable.offer`` builds
that antecedent's match column on the whole training batch and combines
it with the rule's other columns, which the table keeps.

``_rank``, the one batch ranker, runs only inside ``_evaluate``.  It picks
each sample's winner, the first class in class order with the top score,
and the classes tied at that score, row by row, into the ``Scores`` that
``_evaluate`` returns and every caller reads.

Labeled samples have one route: ``_evaluate`` scores them and a
``_DofTable`` counts their hits.  ``score_rulebase`` builds the table
from ``(vectors, class)`` pairs, or reads the one ``search_rules`` builds
from value columns and labels and hands it, so induction never builds a
vector and scores its first rule base once.

The mean never calls ``sum()``, which compensates float rounding from
Python 3.12 on, so its last bit would depend on the version.  Adding left
to right gives ``((a + b) + c) / 3`` on every version, the bits ``sum()``
gave before 3.12 (matches start at 0.0 and are never -0.0).

Every call checks its rules against the ladders (every antecedent names a
ladder and descriptors on it) before it scores, a batch once per distinct
ladder set among its samples; a search, its first rule base only.

Rule bases and reports are immutable and evaluation has no other side
effect.  The induction search owns a private seeded RNG, so concurrent
searches need distinct seeds.
"""

import itertools
import operator
import random
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import EvaluationError, RuleConfigError
from .fuzzy import Aggregator, LinguisticVariable, MembershipVector, active_columns


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


class Scores(NamedTuple):
    """A rule base's score columns on a batch of samples, and each sample's ranking.

    ``by_class`` holds each class's score column, in class order, and ``per_rule`` each
    rule's DOF column; ``winners`` each sample's first class at the top score, and
    ``tied`` the classes at the top score of each sample where several are.
    """

    classes: tuple[str, ...]
    by_class: list[list[float]]
    per_rule: list[list[float]]
    winners: list[str]
    tied: dict[int, list[str]]

    def report(self, rb: RuleBase, s: int) -> ClassificationReport:
        """Sample ``s``'s scores as ``classify`` reports them; ``rb`` is the rule base scored."""
        scores = {cls: column[s] for cls, column in zip(self.classes, self.by_class)}
        tied = tuple(self.tied.get(s, self.winners[s:s + 1]))
        return ClassificationReport(
            scores=scores,
            # A stable sort keeps equal scores in class order.
            ranking=tuple(sorted(scores, key=scores.__getitem__, reverse=True)),
            winner=self.winners[s], tie=len(tied) > 1, tied=tied,
            per_rule={rule.id: column[s] for rule, column in zip(rb.rules, self.per_rule)},
        )


# Variable name -> its descriptor labels.
Ladders = Mapping[str, tuple[str, ...]]


class _Batch(NamedTuple):
    """Fuzzified samples, indexed by variable and label for column scoring.

    ``index[var][label]`` holds the samples where that label is active, in
    sample order, and their degrees, as ``(samples, degrees)``.  ``ladders``
    lists the samples' distinct ladder sets in order of first appearance,
    so the first check that fails is the first failing sample's.
    """

    size: int
    index: dict[str, dict[str, tuple[list[int], list[float]]]]
    ladders: list[Ladders]


def _vector_batch(vectors: Iterable[Mapping[str, MembershipVector]]) -> _Batch:
    """The batch of fuzzified samples, each a mapping of membership vectors.

    A sample's ladders are its vectors' labels, and its active labels those
    with a positive degree, as ``MembershipVector.nonzero`` gives them.
    """
    index: dict[str, dict[str, tuple[list[int], list[float]]]] = {}
    ladder_sets: list[Ladders] = []
    s = -1
    for s, memberships in enumerate(vectors):
        ladders = {name: tuple(mv.entries) for name, mv in memberships.items()}
        if ladders not in ladder_sets:
            ladder_sets.append(ladders)
        for name, mv in memberships.items():
            entries = index.get(name)
            if entries is None:
                entries = index[name] = {}
            for lab, degree in mv.entries.items():
                if degree > 0.0:
                    entry = entries.get(lab)
                    if entry is None:
                        entry = entries[lab] = ([], [])
                    entry[0].append(s)
                    entry[1].append(degree)
    return _Batch(s + 1, index, ladder_sets)


def _column_batch(
    columns: Mapping[str, Sequence[float]], variables: Mapping[str, LinguisticVariable]
) -> _Batch:
    """The batch of samples given as one column of values per variable.

    Each column is checked for a ladder in ``variables`` and the first
    column's length, then fuzzified whole with ``fuzzy.active_columns``.
    The samples, even none, share one ladder set, and every variable's
    index shares one list of sample ints.
    """
    size = len(next(iter(columns.values()), ()))
    for name, col in columns.items():
        if name not in variables:
            raise EvaluationError(f"column {name}: no ladder in variables")
        if len(col) != size:
            raise EvaluationError(f"column {name}: length {len(col)}, not {size}")
    positions = list(range(size))
    return _Batch(
        size,
        {name: active_columns(variables[name], col, positions) for name, col in columns.items()},
        [{name: variables[name].labels for name in columns}],
    )


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
# antecedent order.
_COMBINE_COLUMNS = {
    Aggregator.MIN: lambda matches: list(map(min, *matches)),
    Aggregator.PRODUCT: lambda matches: list(_fold(operator.mul, matches)),
    Aggregator.MEAN: lambda matches: list(
        map(operator.truediv, _fold(operator.add, matches), itertools.repeat(len(matches)))
    ),
}


def _match_column(antecedent: tuple[str, frozenset[str]], batch: _Batch) -> list[float]:
    """One antecedent's match on every sample of ``batch``, as a new list.

    The match starts at 0 and takes each greater degree of an allowed
    label, walking only those labels' index entries.
    """
    var, allowed = antecedent
    match = [0.0] * batch.size
    entries = batch.index.get(var, {})
    for lab in allowed:
        entry = entries.get(lab)
        if entry is not None:
            for s, degree in zip(*entry):
                if degree > match[s]:
                    match[s] = degree
    return match


def _rule_matches(rules: Sequence[Rule], batch: _Batch) -> list[list[list[float]]]:
    """Each rule's match columns on ``batch``, in antecedent order.

    Rules that share an antecedent share its match column, built once.
    """
    built: dict[tuple[str, frozenset[str]], list[float]] = {}
    for rule in rules:
        for antecedent in rule.antecedents:
            if antecedent not in built:
                built[antecedent] = _match_column(antecedent, batch)
    return [[built[antecedent] for antecedent in rule.antecedents] for rule in rules]


def _dof_column(matches: list[list[float]], agg: Aggregator) -> list[float]:
    """A rule's DOF column from its match columns, in antecedent order.

    The columns are combined with ``_COMBINE_COLUMNS``.  A single match
    column is the DOF column (m / 1, 1 * m and min((m,)) are all m),
    shared with every rule that has it alone: no caller writes into a
    column.
    """
    return _COMBINE_COLUMNS[agg](matches) if len(matches) > 1 else matches[0]


def _evaluate(
    rb: RuleBase, batch: _Batch, agg: Aggregator
) -> tuple[list[list[list[float]]], Scores]:
    """Check ``rb`` against the batch's ladders, then score and rank it on every sample.

    Returns each rule's match columns (see ``_rule_matches``) and the
    ``Scores``, ranked by ``_rank``.  A class scores the first maximum of 0
    and its rules' DOFs, as a loop that replaces the score only by a greater
    DOF would.  A DOF is never below +0.0 (a match starts at 0.0 and only
    grows), so that is its rules' first maximum, and a class with one rule
    scores that rule's column itself.
    """
    for ladders in batch.ladders:
        _check_rules(rb.rules, ladders)
    matches = _rule_matches(rb.rules, batch)
    columns = [_dof_column(rule_matches, agg) for rule_matches in matches]
    owned: dict[str, list[list[float]]] = {cls: [] for cls in rb.class_order}
    for rule, column in zip(rb.rules, columns):
        owned[rule.consequent].append(column)
    n = batch.size
    by_class = [
        cols[0] if len(cols) == 1 else list(map(max, *cols)) if cols else [0.0] * n
        for cols in owned.values()
    ]
    return matches, Scores(rb.class_order, by_class, columns, *_rank(rb.class_order, by_class))


def _rank(classes, by_class) -> tuple[list[str], dict[int, list[str]]]:
    """Each sample's winner, and the classes at the top score of each tied sample.

    ``by_class`` holds each class's score column, in the order of
    ``classes``; the winner is the first class in that order with the top
    score.  The samples are ranked row by row.
    """
    winners = []
    tied = {}
    for i, row in enumerate(zip(*by_class)):
        top = max(row)
        winners.append(classes[row.index(top)])
        if row.count(top) > 1:
            tied[i] = [cls for cls, score in zip(classes, row) if score == top]
    return winners, tied


def rule_dof(
    rule: Rule,
    memberships: Mapping[str, MembershipVector],
    agg: Aggregator = Aggregator.MEAN,
) -> float:
    """Degree of fulfilment of one rule against a fuzzified sample."""
    batch = _vector_batch((memberships,))
    _check_rules((rule,), batch.ladders[0])
    return _dof_column(_rule_matches((rule,), batch)[0], agg)[0]


def classify(
    rb: RuleBase,
    memberships: Mapping[str, MembershipVector],
    agg: Aggregator = Aggregator.MEAN,
) -> ClassificationReport:
    """Score every class of ``rb`` against a fuzzified sample.

    A class scores the maximum DOF over its rules.  ``Scores.report`` ranks by
    score descending and breaks ties by class order: the report is deterministic.
    """
    return _evaluate(rb, _vector_batch((memberships,)), agg)[1].report(rb, 0)


def classify_many(
    rb: RuleBase, columns: Mapping[str, Sequence[float]],
    variables: Mapping[str, LinguisticVariable], agg: Aggregator = Aggregator.MEAN,
) -> Scores:
    """``rb``'s scores on samples given as one column of values per variable of ``variables``.

    ``Scores.report(rb, s)`` is ``classify`` on sample ``s``'s ``fuzzify`` vectors.

    Raises:
        FuzzificationError: as ``fuzzify``, in the first column with a value outside its
            domain or NaN.
        EvaluationError: naming a column with no ladder, or of another length than the first.
    """
    return _evaluate(rb, _column_batch(columns, variables), agg)[1]


def score_rulebase(
    rb: RuleBase,
    labeled: "Sequence[tuple[Mapping[str, MembershipVector], str]] | _DofTable",
    agg: Aggregator = Aggregator.MEAN,
) -> float:
    """Fraction of labeled samples whose classify winner matches the label.

    ``labeled`` is ``(vectors, class)`` pairs, scored in one ``_DofTable``,
    or the table ``search_rules`` built for ``rb`` under ``agg``, read as it is.
    """
    if not isinstance(labeled, _DofTable):
        labels = [cls for _, cls in labeled]
        if not labels:
            raise EvaluationError("no labeled samples to score")
        batch = _vector_batch(memberships for memberships, _ in labeled)
        labeled = _DofTable(rb, batch, labels, agg)
    return labeled.hits / len(labeled.hit)


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
    rules: Sequence[Rule],
    variables: Mapping[str, LinguisticVariable],
) -> tuple[int, Rule] | None:
    # Toggle one descriptor in one antecedent set of one rule: the rule's index
    # and the toggled rule, or None for a toggle that would empty the set.
    ri = rng.randrange(len(rules))
    rule = rules[ri]
    ai = rng.randrange(len(rule.antecedents))
    var, allowed = rule.antecedents[ai]
    labels = variables[var].labels
    lab = labels[rng.randrange(len(labels))]
    toggled = allowed - {lab} if lab in allowed else allowed | {lab}
    if not toggled:
        return None
    antecedents = list(rule.antecedents)
    antecedents[ai] = (var, toggled)
    return ri, Rule(rule.id, tuple(antecedents), rule.consequent)


class _DofTable:
    """A rule system's DOFs, class scores and hits on its labeled samples; the search's state.

    The table is scored and ranked once by ``_evaluate``, whose winners,
    against ``labels``, give each sample's hit flag; ``score_rulebase``
    reads its accuracy from them.  It keeps the batch's ``(variable,
    label)`` index, each rule's match columns in antecedent order and each
    sample's row of class scores.  An offered rule is not checked against
    the batch's ladders: ``search_rules`` draws its toggles from them.

    ``offer`` builds a match column only for an antecedent the old rule
    lacks, reusing the old rule's other columns, combines them with
    ``_dof_column`` and re-ranks only the samples where the DOF differs
    from the old rule's.
    """

    def __init__(self, rb: RuleBase, batch: _Batch, labels: Sequence[str], agg: Aggregator):
        self.batch, self.agg = batch, agg
        self.matches, scores = _evaluate(rb, self.batch, agg)
        self.dofs = scores.per_rule
        position = {cls: i for i, cls in enumerate(scores.classes)}
        self.truth = [position.get(cls) for cls in labels]
        self.rules = list(rb.rules)
        self.owner = [position[rule.consequent] for rule in rb.rules]
        self.rows = [list(row) for row in zip(*scores.by_class)]
        self.hit = list(map(operator.eq, scores.winners, labels))
        self.hits = sum(self.hit)

    def offer(self, ri: int, rule: Rule) -> bool:
        """Replace rule ``ri`` by ``rule``, changing nothing if hits would fall; say if it did."""
        old = dict(zip(self.rules[ri].antecedents, self.matches[ri]))
        matches = [
            old[antecedent] if antecedent in old else _match_column(antecedent, self.batch)
            for antecedent in rule.antecedents
        ]
        column = _dof_column(matches, self.agg)
        c = self.owner[ri]
        siblings = [
            self.dofs[r] for r, owner in enumerate(self.owner) if owner == c and r != ri
        ]
        rows, truth, hit = self.rows, self.truth, self.hit
        hits = self.hits
        changed = []
        for s in itertools.compress(itertools.count(), map(operator.ne, column, self.dofs[ri])):
            # ``max(0.0, column[s], *siblings' DOFs)``: the first greatest.
            score = column[s] if column[s] > 0.0 else 0.0
            for dofs in siblings:
                if dofs[s] > score:
                    score = dofs[s]
            row = rows[s]
            kept, row[c] = row[c], score
            # The first class at the top score, as ``_rank`` picks it.
            now = row.index(max(row)) == truth[s]
            row[c] = kept
            hits += now - hit[s]
            changed.append((s, score, now))
        if hits < self.hits:
            return False
        self.rules[ri], self.matches[ri], self.dofs[ri], self.hits = rule, matches, column, hits
        for s, score, now in changed:
            rows[s][c] = score
            hit[s] = now
        return True


def search_rules(
    columns: Mapping[str, Sequence[float]],
    labels: Sequence[str],
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

    The columns are checked and fuzzified as ``classify_many`` does, into
    one batch; labels of another length, or none, raise ``EvaluationError``.
    The current system is a ``_DofTable`` on that batch, with every rule's
    DOF on every sample and each sample's hit; the initial system's score
    is ``score_rulebase`` of that table, so it is scored once.  Each toggle
    is offered to the table: ``offer`` builds the toggled rule's DOF column
    and re-ranks only the samples where it changed.  A ``RuleBase`` is
    built only when the best score rises.
    The result is identical to re-scoring every proposal with
    ``score_rulebase``; a toggle that would empty a descriptor set is
    dropped and not scored.

    Args:
        columns: one column of training values per variable, as for ``classify_many``.
        labels: each sample's true class, in sample order.
        variables: the variables rules may mention, in antecedent order; not empty.
        rules_per_class: how many rules the system holds per class.
        iterations: number of mutation proposals (0 keeps the initial system).
        seed: RNG seed, not negative (``random.Random`` seeds with ``abs``, so
            -n would repeat n); identical inputs and seed give identical output.
        agg: DOF aggregator used during scoring.
        classes: optional explicit, non-empty class list; defaults to the labels'
            first-appearance order.  Every class must have a labeled sample.
    """
    if rules_per_class < 1:
        raise EvaluationError("rules_per_class must be at least 1")
    if iterations < 0:
        raise EvaluationError("iterations must not be negative")
    if seed < 0:
        raise EvaluationError("seed must not be negative")
    if not variables:
        raise EvaluationError("variables must not be empty")
    if classes is not None and not classes:
        raise EvaluationError("classes must not be empty")
    batch = _column_batch(columns, variables)
    if len(labels) != batch.size:
        raise EvaluationError(f"labels: length {len(labels)}, not {batch.size}")
    if not labels:
        raise EvaluationError("no labeled samples")

    present = set(labels)
    if classes is None:
        classes = list(dict.fromkeys(labels))
    else:
        classes = list(classes)
        missing = [cls for cls in classes if cls not in present]
        if missing:
            raise EvaluationError(
                f"no labeled sample for class(es): {', '.join(missing)}"
            )

    rng = random.Random(seed)
    best = _random_rulebase(rng, variables, classes, rules_per_class)
    table = _DofTable(best, batch, labels, agg)
    best_score = score_rulebase(best, table, agg)
    trace = []
    for _ in range(iterations):
        toggle = _mutate(rng, table.rules, variables)
        if toggle is not None and table.offer(*toggle):
            score = table.hits / len(labels)
            if score > best_score:
                best, best_score = best._replace(rules=tuple(table.rules)), score
        trace.append(best_score)
    return InductionResult(best, best_score, tuple(trace))
