"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""

import itertools
import random
import time

import soilfuzz as sf
from soilfuzz import Aggregator, Rule, fuzzify, rule_dof

from test_dsl import random_valid_doc


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_membership_reproduction(variables, fixtures):
    """All 234 reference grid cells reproduce within 1e-3 (pi rows from pl)."""
    cells = 0
    worst = 0.0
    for fx in fixtures:
        memberships = sf.fuzzify_sample(fx.sample, pi_source="pl", variables=variables)
        for name, var in variables.items():
            expected_row = fx.memberships[name]
            for label in var.labels:
                expected = expected_row.get(label, 0.0)
                got = memberships[name].entries[label]
                worst = max(worst, abs(got - expected))
                cells += 1
    check(
        "criterion 1: membership grid reproduction",
        cells == 234 and worst <= 1e-3,
        f"{cells} cells, max |delta| = {worst:.2e}",
    )


def test_criterion_2_paper_preset_winners(fixtures, paper_preset):
    """Linguistic preset + mean reproduces the expected subgroups 1-5.

    Specimen 6 lands in A-2-4 with this preset; that divergence is part of
    the contract (crisp table and calibrated preset both give A-1-a).
    """
    results = [sf.classify_hrb(fx.sample, paper_preset) for fx in fixtures]
    winners = tuple(res.subgroup for res in results)
    expected = ("A-2-6", "A-4", "A-7-6", "A-3", "A-6", "A-2-4")
    tie = results[0].report
    tie_ok = tie.tie and set(tie.tied) == {"A-2-6", "A-2-7"} and tie.winner == "A-2-6"
    check(
        "criterion 2: paper preset winners",
        winners == expected and tie_ok,
        f"winners {winners}, specimen 1 tie-break {tie.tied} -> {tie.winner}",
    )


def test_criterion_3_calibrated_preset_winners(fixtures, calibrated_preset):
    """Calibrated preset matches the expected classes / the crisp oracle."""
    winners = tuple(
        sf.classify_hrb(fx.sample, calibrated_preset).subgroup for fx in fixtures
    )
    crisp = tuple(sf.crisp_classify(fx.sample) for fx in fixtures)
    ok = (
        winners[1:3] == ("A-4", "A-7-6")
        and winners[4:6] == ("A-6", "A-1-a")
        # specimen 1 is the recorded pi = 11 boundary case
        and winners[0] in ("A-2-4", "A-2-6") and crisp[0] == "A-2-6"
        and winners[3] == "A-2-4" and crisp[3] == "A-2-4"
    )
    check("criterion 3: calibrated preset winners", ok, f"winners {winners}")


def test_criterion_4_crisp_oracle(fixtures):
    """Crisp first-fit classes for the six specimens, exact."""
    got = tuple(sf.crisp_classify(fx.sample) for fx in fixtures)
    expected = ("A-2-6", "A-4", "A-7-6", "A-2-4", "A-6", "A-1-a")
    check("criterion 4: crisp oracle", got == expected, f"{got}")


def test_criterion_5_property_suite(variables):
    """Partition, DOF and split invariants over randomized inputs."""
    rng = random.Random(2718)

    ruspini_ok = locality_ok = True
    for var in variables.values():
        lo, hi = var.centers[0], var.centers[-1]
        for _ in range(1000):
            x = lo + rng.random() * (hi - lo)
            entries = fuzzify(var, x).entries
            if abs(sum(entries.values()) - 1.0) > 1e-9:
                ruspini_ok = False
            active = [i for i, lab in enumerate(var.labels) if entries[lab] > 0]
            if len(active) > 2 or (len(active) == 2 and active[1] - active[0] != 1):
                locality_ok = False

    def random_rule_and_sample():
        antecedents = []
        for name, var in variables.items():
            size = rng.randint(1, len(var.labels))
            antecedents.append((name, frozenset(rng.sample(var.labels, size))))
        rule = Rule("R1", tuple(antecedents), "C")
        memberships = {
            name: fuzzify(var, var.domain_min + rng.random() * (var.domain_max - var.domain_min))
            for name, var in variables.items()
        }
        return rule, memberships

    monotone_ok = True
    for _ in range(1000):
        rule, memberships = random_rule_and_sample()
        base = rule_dof(rule, memberships, Aggregator.MEAN)
        ai = rng.randrange(len(rule.antecedents))
        var, allowed = rule.antecedents[ai]
        extra = sorted(set(variables[var].labels) - allowed)
        if not extra:
            continue
        grown = list(rule.antecedents)
        grown[ai] = (var, allowed | {rng.choice(extra)})
        if rule_dof(Rule("R1", tuple(grown), "C"), memberships, Aggregator.MEAN) < base - 1e-12:
            monotone_ok = False

    ordering_ok = True
    for _ in range(1000):
        rule, memberships = random_rule_and_sample()
        product = rule_dof(rule, memberships, Aggregator.PRODUCT)
        minimum = rule_dof(rule, memberships, Aggregator.MIN)
        mean = rule_dof(rule, memberships, Aggregator.MEAN)
        if not (-1e-12 <= product <= minimum + 1e-12 <= mean + 2e-12 <= 1.0 + 3e-12):
            ordering_ok = False

    split_ok = all(
        (sf.a7_split(ll, pi) == "A-7-5") == (pi <= ll - 30)
        for ll in range(0, 101)
        for pi in range(0, 101)
    )

    check(
        "criterion 5: property suite",
        ruspini_ok and locality_ok and monotone_ok and ordering_ok and split_ok,
        f"ruspini={ruspini_ok} locality={locality_ok} dof-monotone={monotone_ok} "
        f"agg-order={ordering_ok} a7-total={split_ok}",
    )


def test_criterion_6_oracle_agreement_grid(variables, calibrated_preset):
    """Calibrated preset vs crisp oracle on a deterministic anchored grid.

    Grid values stay >= 2 units from every crisp threshold and sit where the
    linguistic encoding is decisive: at a descriptor center (degree 1 in
    exactly one descriptor) or beyond the ladder top (categorically outside
    every descriptor).  The plasticity ladder has no usable center on the
    low side, so 3 and 8 stand in for it.
    """
    thresholds = {
        "p2mm": (50,),
        "p425": (30, 50, 51),
        "p075": (10, 15, 25, 35, 36),
        "ll": (40, 41),
        "pi": (0, 6, 10, 11),
    }

    def far(value, name):
        return all(abs(value - t) >= 2 for t in thresholds[name])

    def anchors(name, extra=()):
        values = [c for c in variables[name].centers if far(c, name)]
        values += [v for v in extra if far(v, name)]
        return sorted(values)

    grid = {
        "p2mm": anchors("p2mm", extra=(60, 80, 100)),
        "p425": anchors("p425"),
        "p075": anchors("p075"),
        "ll": anchors("ll"),
        "pi": [3.0, 8.0] + [c for c in variables["pi"].centers if far(c, "pi")],
    }

    start = time.time()
    total = agreed = 0
    for p2, p4, p0, ll, pi in itertools.product(
        grid["p2mm"], grid["p425"], grid["p075"], grid["ll"], grid["pi"]
    ):
        if not (p0 <= p4 <= p2) or pi > ll:
            continue
        sample = sf.SoilSample(p2, p4, p0, ll, ll - pi, pi)
        total += 1
        fuzzy = sf.classify_hrb(sample, calibrated_preset).subgroup
        agreed += fuzzy == sf.crisp_classify(sample)
    elapsed = time.time() - start
    rate = agreed / total
    check(
        "criterion 6: oracle agreement grid",
        rate >= 0.95 and elapsed < 10.0,
        f"{agreed}/{total} = {rate:.4f} in {elapsed:.2f}s",
    )


def test_criterion_7_rule_induction(variables, fixtures):
    """Seeded random search reaches >= 5/6 accuracy with a monotone trace."""
    columns = {
        name: [getattr(fx.sample, name) for fx in fixtures] for name in sf.hrb.VARIABLE_NAMES
    }
    labels = ["A-7" if fx.winner.startswith("A-7") else fx.winner for fx in fixtures]
    start = time.time()
    result = sf.search_rules(
        columns, labels, variables, rules_per_class=1, iterations=2000, seed=42
    )
    elapsed = time.time() - start
    monotone = all(
        a <= b for a, b in zip(result.best_scores, result.best_scores[1:])
    )
    check(
        "criterion 7: rule induction",
        result.score >= 5 / 6 and monotone and elapsed < 30.0,
        f"score {result.score:.4f}, monotone={monotone}, {elapsed:.2f}s",
    )


def test_criterion_8_dsl_round_trip(variables, paper_preset, calibrated_preset):
    """Round-trip law on presets and fuzz documents; no parser crashes."""
    presets_ok = True
    for preset in (paper_preset, calibrated_preset):
        text = sf.serialize(preset.rulebase, variables)
        if sf.parse_rules(text, variables) != preset.rulebase:
            presets_ok = False

    rng = random.Random(31415)
    fuzz_ok = True
    for _ in range(1000):
        doc = random_valid_doc(variables, rng)
        rb = sf.parse_rules(doc, variables)
        if sf.parse_rules(sf.serialize(rb, variables), variables) != rb:
            fuzz_ok = False

    crash_free = True
    for _ in range(1000):
        data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 150)))
        try:
            sf.parse_rules(data.decode("latin-1"), variables)
        except sf.RuleParseError:
            pass
        except Exception:
            crash_free = False

    check(
        "criterion 8: rule text round-trip",
        presets_ok and fuzz_ok and crash_free,
        f"presets={presets_ok} fuzz-docs={fuzz_ok} crash-free={crash_free}",
    )
