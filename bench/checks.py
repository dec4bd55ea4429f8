"""Output checks for one CLI run of each benchmark workload.

Every check returns a list of problems; an empty list means the run's
output is correct.  Structure is checked on every record, and a seeded
subset of records is compared with the public API called in-process.
"""

import csv
import io
import json
import random

from soilfuzz import Aggregator, SoilSample, classify_hrb, fuzzify_sample, load_preset
from soilfuzz import SoilFuzzError, load_variables, parse_rules, score_rulebase
from soilfuzz.hrb import SUBGRADE_RATINGS, VARIABLE_NAMES
from soilfuzz.render import fmt_degree, fmt_score, round4

import corpus

SUBSET = 64


def _subset(rows, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(len(rows)), min(SUBSET, len(rows))))


def _sample(row: corpus.Row) -> SoilSample:
    return SoilSample(**corpus.values(row))


def check_classify(output: str, console: str, rows, seed: int, iterations: int) -> list[str]:
    """``classify --preset paper`` CSV: header, one record per row, scores."""
    problems = []
    if console:
        problems.append(f"unexpected console output: {console[:200]!r}")
    variables = load_variables()
    rb = load_preset("paper", variables=variables).rulebase
    header = ["id", "winner", "rating", "tie", "tied_with", *rb.class_order, "a7_ll", "a7_pi"]
    table = list(csv.reader(io.StringIO(output)))
    if not table or table[0] != header:
        return problems + ["missing or wrong header"]
    records = table[1:]
    if len(records) != len(rows):
        return problems + [f"{len(records)} records for {len(rows)} rows"]
    for row, record in zip(rows, records):
        if len(record) != len(header) or record[0] != row.id:
            return problems + [f"malformed record for {row.id}: {record}"]
        if SUBGRADE_RATINGS.get(record[1]) != record[2]:
            return problems + [f"{row.id}: unknown winner or rating {record[1:3]}"]
    for i in _subset(rows, seed):
        sample = _sample(rows[i])
        res = classify_hrb(sample, rb, Aggregator.MEAN, "pi", variables)
        a7 = res.subgroup.startswith("A-7")
        expected = [
            rows[i].id,
            res.subgroup,
            res.rating,
            "true" if res.report.tie else "false",
            "|".join(res.report.tied) if res.report.tie else "",
            *(fmt_score(res.report.scores[cls]) for cls in rb.class_order),
            fmt_degree(sample.ll) if a7 else "",
            fmt_degree(sample.pi) if a7 else "",
        ]
        if records[i] != expected:
            problems.append(f"{rows[i].id}: got {records[i]}, library gives {expected}")
    return problems


def check_memberships(output: str, console: str, rows, seed: int, iterations: int) -> list[str]:
    """``memberships --format json``: five tables, one entry per row each."""
    problems = []
    if console:
        problems.append(f"unexpected console output: {console[:200]!r}")
    variables = load_variables()
    try:
        payload = json.loads(output)
    except json.JSONDecodeError as exc:
        return problems + [f"output is not JSON: {exc}"]
    if not isinstance(payload, dict) or payload.get("command") != "memberships":
        return problems + ["missing memberships payload"]
    tables = payload.get("tables") or []
    if [t.get("variable") for t in tables] != list(VARIABLE_NAMES):
        return problems + ["wrong variable tables"]
    ids = [row.id for row in rows]
    for table in tables:
        name = table["variable"]
        labels = list(variables[name].labels)
        entries = table.get("rows") or []
        if table.get("labels") != labels or [e.get("id") for e in entries] != ids:
            return problems + [f"{name}: wrong labels or row ids"]
        if any(list(e.get("degrees", {})) != labels for e in entries):
            return problems + [f"{name}: wrong degree labels"]
    for i in _subset(rows, seed):
        mv = fuzzify_sample(_sample(rows[i]), "pi", variables)
        for table in tables:
            name = table["variable"]
            expected = {lab: round4(mv[name].entries[lab]) for lab in variables[name].labels}
            got = table["rows"][i]["degrees"]
            if got != expected:
                problems.append(f"{rows[i].id} {name}: got {got}, library gives {expected}")
    return problems


def check_induce(output: str, console: str, rows, seed: int, iterations: int) -> list[str]:
    """``induce``: a parsable rule file whose re-scored accuracy matches."""
    variables = load_variables()
    lines = output.split("\n")
    head = f"# induced: seed={seed} iterations={iterations} rules_per_class=1 agg=mean"
    prefix = "# training accuracy: "
    if len(lines) < 3 or lines[0] != head or not lines[1].startswith(prefix):
        return [f"wrong header lines: {lines[:2]}"]
    accuracy = lines[1][len(prefix):]
    problems = []
    if console != f"training accuracy: {accuracy}\n":
        problems.append(f"unexpected console output: {console[:200]!r}")
    try:
        rb = parse_rules(output, variables)
    except SoilFuzzError as exc:
        return problems + [f"rule file does not re-parse: {exc}"]
    labeled = [
        (fuzzify_sample(_sample(row), "pi", variables), corpus.m145_group(row))
        for row in rows
    ]
    rescored = fmt_score(score_rulebase(rb, labeled, Aggregator.MEAN))
    if rescored != accuracy:
        problems.append(f"printed accuracy {accuracy}, re-scored {rescored}")
    return problems
