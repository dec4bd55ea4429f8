"""Line-oriented text format for rule bases (``.frules`` files).

Grammar (one statement per line, ``#`` starts a comment, blank lines ignored):

    doc    := header? rule+
    header := "CLASSES" label ("," label)*
    rule   := "RULE" id ":" clause ("AND" clause)* "=>" label
    clause := varname "IS" "{" label ("," label)* "}"

Labels are case-sensitive.  Files are UTF-8; LF and CRLF are both accepted
and LF is emitted.  Parsing collects every diagnostic (with line and column)
before failing, so a hand-edited file reports all its mistakes at once.
Syntax and ``CLASSES`` header diagnostics (a second header, a header after
rules, a class named twice) come first, in line order; name checks on
syntactically sound rules (duplicate id, unknown variable or descriptor,
class missing from the header) follow, also in line order.
"""

import re
from typing import Mapping, NamedTuple

from .errors import RuleConfigError, SoilFuzzError
from .fuzzy import LinguisticVariable
from .rules import Rule, RuleBase


class Diagnostic(NamedTuple):
    line: int
    column: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


class RuleParseError(SoilFuzzError):
    """Carries every diagnostic found in the document."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "; ".join(str(d) for d in self.diagnostics) or "parse failed"
        )


# A name or label: rule ids, variables, descriptors and classes.
_WORD = r"[A-Za-z0-9_][A-Za-z0-9_.\-]*"
_WORD_RE = re.compile(_WORD)

_TOKEN_RE = re.compile(
    r"""(?P<ws>[^\S\n]+)
      | (?P<arrow>=>)
      | (?P<punct>[:,{}])
      | (?P<word>""" + _WORD + r""")
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _is_word(text: str) -> bool:
    """Whether ``text`` reads back as a single word token."""
    return _WORD_RE.fullmatch(text) is not None


def _word(text: str, what: str) -> str:
    """``text``, which ``serialize`` writes as a word token.

    Raises:
        RuleConfigError: if it would not read back as one.
    """
    if not _is_word(text):
        raise RuleConfigError(f"cannot write {what} {text!r}: not a rule-file word")
    return text


def _tokenize(line: str) -> list[tuple[str, str, int]]:
    """Split one line into (kind, text, column) triples, columns 1-based."""
    tokens = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class _LineParser:
    """Cursor over one line's tokens; records a diagnostic on mismatch."""

    def __init__(self, lineno: int, tokens: list[tuple[str, str, int]], errors: list):
        self.lineno = lineno
        self.tokens = tokens
        self.pos = 0
        self.errors = errors
        self.failed = False

    def _at(self) -> tuple[str, str, int]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        last_col = self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 1
        return ("eol", "", last_col)

    def fail(self, message: str, column: int | None = None) -> None:
        if not self.failed:
            kind, text, col = self._at()
            self.errors.append(
                Diagnostic(self.lineno, column if column is not None else col, message)
            )
            self.failed = True

    def peek(self) -> str:
        return self._at()[1]

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def take_word(self, what: str) -> tuple[str, int] | None:
        kind, text, col = self._at()
        if kind == "word":
            self.pos += 1
            return text, col
        self.fail(f"expected {what}, found {text!r}" if text else f"expected {what}")
        return None

    def take(self, literal: str) -> bool:
        kind, text, col = self._at()
        if text == literal:
            self.pos += 1
            return True
        self.fail(f"expected {literal!r}, found {text!r}" if text else f"expected {literal!r}")
        return False


def _parse_label_list(p: _LineParser, what: str) -> list[tuple[str, int]]:
    items = []
    first = p.take_word(what)
    if first is None:
        return items
    items.append(first)
    while p.peek() == ",":
        p.take(",")
        nxt = p.take_word(what)
        if nxt is None:
            break
        items.append(nxt)
    return items


def _parse_clause(p: _LineParser):
    var = p.take_word("variable name")
    if var is None or not p.take("IS"):
        return None
    brace = p._at()
    if not p.take("{"):
        return None
    if p.peek() == "}":
        p.fail("empty descriptor set", column=brace[2])
        return None
    labels = _parse_label_list(p, "descriptor")
    if p.failed or not p.take("}"):
        return None
    return var, labels


def _parse_rule_line(p: _LineParser):
    ident = p.take_word("rule id")
    if ident is None or not p.take(":"):
        return None
    clauses = []
    clause = _parse_clause(p)
    if clause is None:
        return None
    clauses.append(clause)
    while p.peek() == "AND":
        p.take("AND")
        clause = _parse_clause(p)
        if clause is None:
            return None
        clauses.append(clause)
    if not p.take("=>"):
        return None
    consequent = p.take_word("class label")
    if consequent is None:
        return None
    if not p.at_end():
        p.fail("unexpected trailing input")
        return None
    return ident, clauses, consequent


def parse_rules(text: str, variables: Mapping[str, LinguisticVariable]) -> RuleBase:
    """Parse rule text against known variables, collecting all diagnostics.

    Raises:
        RuleParseError: with the full diagnostic list if anything is wrong.
    """
    errors: list[Diagnostic] = []
    # Name checks run on every structurally sound rule as its line is read,
    # but their diagnostics go after all syntax and header ones.
    semantic: list[Diagnostic] = []
    header: list[str] | None = None
    seen_ids: set[str] = set()
    rules: list[Rule] = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip("\r")
        tokens = _tokenize(line)
        if not tokens:
            continue
        p = _LineParser(lineno, tokens, errors)
        keyword, col = tokens[0][1], tokens[0][2]
        if keyword == "CLASSES":
            p.take("CLASSES")
            labels = _parse_label_list(p, "class label")
            if not p.failed and not p.at_end():
                p.fail("unexpected trailing input")
            if p.failed:
                continue
            if header is not None:
                errors.append(Diagnostic(lineno, col, "duplicate CLASSES header"))
            elif seen_ids:
                errors.append(
                    Diagnostic(lineno, col, "CLASSES header must precede rules")
                )
            else:
                header = [lab for lab, _ in labels]
                for i, (lab, lab_col) in enumerate(labels):
                    if lab in header[:i]:
                        message = f"duplicate class {lab} in CLASSES header"
                        errors.append(Diagnostic(lineno, lab_col, message))
        elif keyword == "RULE":
            p.take("RULE")
            parsed = _parse_rule_line(p)
            if parsed is None:
                continue
            (ident, id_col), clauses, (consequent, cons_col) = parsed
            if ident in seen_ids:
                semantic.append(Diagnostic(lineno, id_col, f"duplicate rule id {ident}"))
                continue
            seen_ids.add(ident)
            reported = len(semantic)
            antecedents = []
            for (var, var_col), labels in clauses:
                if var not in variables:
                    semantic.append(Diagnostic(lineno, var_col, f"unknown variable {var}"))
                    continue
                for lab, lab_col in labels:
                    if lab not in variables[var].labels:
                        semantic.append(
                            Diagnostic(
                                lineno, lab_col, f"unknown descriptor {lab} for {var}"
                            )
                        )
                antecedents.append((var, frozenset(lab for lab, _ in labels)))
            if header is not None and consequent not in header:
                semantic.append(
                    Diagnostic(
                        lineno, cons_col, f"class {consequent} not in CLASSES header"
                    )
                )
            if len(semantic) == reported:
                rules.append(Rule(ident, tuple(antecedents), consequent))
        else:
            p.fail(f"expected RULE or CLASSES, found {keyword!r}")

    if not seen_ids and not errors:
        errors.append(Diagnostic(1, 1, "empty rule base"))
    errors += semantic
    if errors:
        raise RuleParseError(errors)
    # Without a header, classes rank in order of first mention.
    class_order = header or dict.fromkeys(rule.consequent for rule in rules)
    return RuleBase(tuple(rules), tuple(class_order))


def serialize(rb: RuleBase, variables: Mapping[str, LinguisticVariable]) -> str:
    """Render a rule base in canonical form.

    One rule per line, descriptors listed in their variable's ladder order,
    single spaces, LF endings.  ``parse_rules(serialize(rb)) == rb``.

    Raises:
        RuleConfigError: if a rule names a variable or descriptor that
            ``variables`` lacks, rather than silently dropping it, or if a
            name or label is not a word the parser reads back.
    """
    classes = (_word(cls, "class") for cls in rb.class_order)
    lines = ["CLASSES " + ", ".join(classes)]
    for rule in rb.rules:
        clauses = []
        for var, allowed in rule.antecedents:
            if var not in variables:
                raise RuleConfigError(f"rule {rule.id}: unknown variable {var}")
            ordered = [lab for lab in variables[var].labels if lab in allowed]
            if len(ordered) != len(allowed):
                unknown = ", ".join(sorted(allowed.difference(ordered)))
                raise RuleConfigError(
                    f"rule {rule.id}: {var} has no descriptor {unknown}"
                )
            labels = (_word(lab, "descriptor") for lab in ordered)
            clauses.append(f"{_word(var, 'variable')} IS {{{', '.join(labels)}}}")
        lines.append(
            f"RULE {_word(rule.id, 'rule id')}: {' AND '.join(clauses)} => {rule.consequent}"
        )
    return "\n".join(lines) + "\n"
