import random

import pytest

from soilfuzz import (
    Rule,
    RuleBase,
    RuleConfigError,
    RuleParseError,
    make_partition,
    parse_rules,
    serialize,
)


def diag_messages(excinfo):
    return [d.message for d in excinfo.value.diagnostics]


class TestParse:
    def test_two_clause_rule(self, variables):
        rb = parse_rules(
            "RULE R3: p425 IS {H,VH} AND p075 IS {VVVL,VVL} => A-3", variables
        )
        assert len(rb.rules) == 1
        rule = rb.rules[0]
        assert rule.id == "R3"
        assert rule.antecedents == (
            ("p425", frozenset({"H", "VH"})),
            ("p075", frozenset({"VVVL", "VVL"})),
        )
        assert rule.consequent == "A-3"
        assert rb.class_order == ("A-3",)

    def test_empty_input(self, variables):
        with pytest.raises(RuleParseError) as exc:
            parse_rules("", variables)
        assert diag_messages(exc) == ["empty rule base"]

    def test_comment_only_input(self, variables):
        with pytest.raises(RuleParseError, match="empty rule base"):
            parse_rules("# nothing here\n\n", variables)

    def test_empty_descriptor_set(self, variables):
        with pytest.raises(RuleParseError) as exc:
            parse_rules("RULE R1: p2mm IS {} => A-1-a", variables)
        assert "empty descriptor set" in diag_messages(exc)[0]

    def test_unknown_variable(self, variables):
        text = "RULE R1: bogus IS {VL} => A-1-a"
        with pytest.raises(RuleParseError) as exc:
            parse_rules(text, variables)
        diag = exc.value.diagnostics[0]
        assert diag.message == "unknown variable bogus"
        assert diag.line == 1
        assert diag.column == text.index("bogus") + 1

    def test_unknown_descriptor(self, variables):
        text = "RULE R1: p2mm IS {VL, NOPE} => A-1-a"
        with pytest.raises(RuleParseError) as exc:
            parse_rules(text, variables)
        diag = exc.value.diagnostics[0]
        assert diag.message == "unknown descriptor NOPE for p2mm"
        assert diag.column == text.index("NOPE") + 1

    def test_duplicate_rule_id(self, variables):
        text = (
            "RULE R1: p2mm IS {VL} => A-1-a\n"
            "RULE R1: p2mm IS {L} => A-1-b\n"
        )
        with pytest.raises(RuleParseError) as exc:
            parse_rules(text, variables)
        diag = exc.value.diagnostics[0]
        assert diag.message == "duplicate rule id R1"
        assert diag.line == 2

    def test_all_errors_collected(self, variables):
        text = (
            "RULE R1: p2mm IS {VL, NOPE} => A-1-a\n"
            "RULE R2: bogus IS {VL} => A-1-b\n"
            "RULE R2: p2mm IS {} => A-3\n"
        )
        with pytest.raises(RuleParseError) as exc:
            parse_rules(text, variables)
        messages = diag_messages(exc)
        assert len(messages) == 3
        assert any("NOPE" in m for m in messages)
        assert any("bogus" in m for m in messages)
        assert any("empty descriptor set" in m for m in messages)

    def test_syntax_error_position(self, variables):
        text = "RULE R1 p2mm IS {VL} => A-1-a"
        with pytest.raises(RuleParseError) as exc:
            parse_rules(text, variables)
        diag = exc.value.diagnostics[0]
        assert "':'" in diag.message
        assert diag.column == text.index("p2mm") + 1

    def test_classes_header_sets_order(self, variables):
        text = (
            "CLASSES A-3, A-1-a\n"
            "RULE R1: p2mm IS {VL} => A-1-a\n"
        )
        rb = parse_rules(text, variables)
        assert rb.class_order == ("A-3", "A-1-a")

    def test_consequent_must_be_in_header(self, variables):
        text = (
            "CLASSES A-3\n"
            "RULE R1: p2mm IS {VL} => A-1-a\n"
        )
        with pytest.raises(RuleParseError, match="not in CLASSES header"):
            parse_rules(text, variables)

    def test_duplicate_header(self, variables):
        text = "CLASSES A-3\nCLASSES A-3\nRULE R1: p2mm IS {VL} => A-3\n"
        with pytest.raises(RuleParseError, match="duplicate CLASSES"):
            parse_rules(text, variables)

    def test_class_named_twice_in_header(self, variables):
        # Each repeat is a header diagnostic, before the semantic ones.
        text = (
            "CLASSES A-4, A-7, A-4, A-7\n"
            "RULE R1: bogus IS {VL} => A-4\n"
            "RULE R2 p2mm IS {VL} => A-4\n"
        )
        with pytest.raises(RuleParseError) as exc:
            parse_rules(text, variables)
        assert [(d.line, d.column, d.message) for d in exc.value.diagnostics] == [
            (1, 19, "duplicate class A-4 in CLASSES header"),
            (1, 24, "duplicate class A-7 in CLASSES header"),
            (3, 9, "expected ':', found 'p2mm'"),
            (2, 10, "unknown variable bogus"),
        ]

    def test_header_after_rules(self, variables):
        text = "RULE R1: p2mm IS {VL} => A-3\nCLASSES A-3\n"
        with pytest.raises(RuleParseError, match="must precede"):
            parse_rules(text, variables)

    def test_crlf_and_comments(self, variables):
        text = "# leading comment\r\nRULE R1: p2mm IS {VL} => A-3  # trailing\r\n"
        rb = parse_rules(text, variables)
        assert rb.rules[0].id == "R1"

    def test_default_class_order_is_first_mention(self, variables):
        text = (
            "RULE R1: p2mm IS {VL} => A-6\n"
            "RULE R2: p2mm IS {L} => A-3\n"
            "RULE R3: p2mm IS {M} => A-6\n"
        )
        assert parse_rules(text, variables).class_order == ("A-6", "A-3")

    def test_diagnostic_order(self, variables):
        # Syntax and header diagnostics first, then semantic ones, each in
        # line order.
        text = (
            "RULE R1: bogus IS {VL} => A-3\n"
            "RULE R2 p2mm IS {VL} => A-3\n"
            "CLASSES A-3\n"
        )
        with pytest.raises(RuleParseError) as exc:
            parse_rules(text, variables)
        assert [(d.line, d.column, d.message) for d in exc.value.diagnostics] == [
            (2, 9, "expected ':', found 'p2mm'"),
            (3, 1, "CLASSES header must precede rules"),
            (1, 10, "unknown variable bogus"),
        ]


class TestSerialize:
    def test_canonical_descriptor_order(self, variables):
        rb = parse_rules("RULE R1: p2mm IS {VH, VL, M} => A-3", variables)
        out = serialize(rb, variables)
        assert "p2mm IS {VL, M, VH}" in out

    def test_single_spaces_and_lf(self, variables):
        rb = parse_rules("RULE   R1:  p2mm   IS  { VL ,M }   =>   A-3", variables)
        out = serialize(rb, variables)
        assert out == "CLASSES A-3\nRULE R1: p2mm IS {VL, M} => A-3\n"
        assert "\r" not in out

    def test_preset_round_trip(self, variables, paper_preset, calibrated_preset):
        for preset in (paper_preset, calibrated_preset):
            text = serialize(preset.rulebase, variables)
            assert parse_rules(text, variables) == preset.rulebase
            # header line plus one line per rule
            assert len(text.splitlines()) == 1 + len(preset.rulebase.rules)

    def test_round_trip_is_identity_on_canonical_text(self, variables, paper_preset):
        text = serialize(paper_preset.rulebase, variables)
        assert serialize(parse_rules(text, variables), variables) == text

    @pytest.mark.parametrize(
        "antecedent, message",
        [
            (("sand", frozenset({"VL"})), "R1: unknown variable sand"),
            (("p2mm", frozenset({"VL", "XX"})), "R1: p2mm has no descriptor XX"),
        ],
    )
    def test_unknown_names_rejected_not_dropped(self, variables, antecedent, message):
        # Induced or hand-built bases never pass through the parser.
        rb = RuleBase((Rule("R1", (antecedent,), "A-3"),), ("A-3",))
        with pytest.raises(RuleConfigError, match=message):
            serialize(rb, variables)


    @pytest.mark.parametrize(
        "rule_id, antecedent, cls, message",
        [
            ("R1", ("p2mm", frozenset({"VL"})), "x y", "cannot write class 'x y'"),
            ("R1", ("p2mm", frozenset({"VL"})), "A#1", "cannot write class 'A#1'"),
            ("R,1", ("p2mm", frozenset({"VL"})), "A-3", "cannot write rule id 'R,1'"),
            ("R1", ("p 2", frozenset({"lo"})), "A-3", "cannot write variable 'p 2'"),
            ("R1", ("p2", frozenset({"l\no"})), "A-3", "cannot write descriptor 'l\\\\no'"),
        ],
    )
    def test_words_the_parser_cannot_read_are_rejected(
        self, variables, rule_id, antecedent, cls, message
    ):
        odd = {
            "p 2": make_partition("p 2", ["lo", "hi"], [0, 100], (0, 100)),
            "p2": make_partition("p2", ["l\no", "hi"], [0, 100], (0, 100)),
        }
        rb = RuleBase((Rule(rule_id, (antecedent,), cls),), (cls,))
        with pytest.raises(RuleConfigError, match=message):
            serialize(rb, {**variables, **odd})


def random_valid_doc(variables, rng):
    names = list(variables)
    classes = [f"C{i}" for i in range(rng.randint(1, 4))]
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    lines = []
    if rng.random() < 0.5:
        lines.append("CLASSES " + ", ".join(classes))
    for i in range(rng.randint(1, 6)):
        clauses = []
        for name in rng.sample(names, rng.randint(1, len(names))):
            labels = list(variables[name].labels)
            chosen = rng.sample(labels, rng.randint(1, len(labels)))
            sep = rng.choice([",", ", ", " , "])
            clauses.append(f"{name} IS {{{sep.join(chosen)}}}")
        lines.append(f"RULE R{i + 1}: {' AND '.join(clauses)} => {rng.choice(classes)}")
        if rng.random() < 0.3:
            lines.append("# noise")
    return eol.join(lines) + eol


class TestRobustness:
    def test_round_trip_random_documents(self, variables):
        rng = random.Random(2024)
        for _ in range(300):
            doc = random_valid_doc(variables, rng)
            rb = parse_rules(doc, variables)
            again = parse_rules(serialize(rb, variables), variables)
            assert again == rb

    def test_fuzz_random_bytes_never_crash(self, variables):
        rng = random.Random(99)
        for _ in range(500):
            data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 120)))
            try:
                parse_rules(data.decode("latin-1"), variables)
            except RuleParseError:
                pass

    def test_fuzz_token_soup_never_crashes(self, variables):
        fragments = [
            "RULE", "CLASSES", "IS", "AND", "=>", "{", "}", ",", ":",
            "R1", "p2mm", "VL", "A-1-a", "#", "\n", "\r\n", " ", "\t",
            "\x00", "é", "=>=>", "{}", "RULE R1:",
        ]
        rng = random.Random(101)
        for _ in range(500):
            text = "".join(rng.choice(fragments) for _ in range(rng.randint(0, 40)))
            try:
                parse_rules(text, variables)
            except RuleParseError:
                pass
