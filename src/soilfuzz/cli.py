"""Batch command-line front end.

Reads samples from CSV (columns ``id,p2mm,p425,p075,ll,pl[,pi][,class]``;
a missing pi is computed as ll - pl), classifies them against a preset or a
rule file, dumps membership tables, or induces a rule base from labeled
rows.  Output is byte-deterministic for identical inputs and flags.  A
JSON document is written as text laid out as ``json.dumps(indent=2)`` lays
it out: its few top-level fields through ``json.dumps``, its rows joined
from columns of pre-rendered pieces.

Exit codes: 0 success, 2 unreadable input, unwritable output (stdout
included) or bad usage, 3 invalid rule file, 4 row validation failures
(including missing or repeated columns).
"""

import argparse
import csv
import io
import operator
import os
import sys
from itertools import chain, compress, repeat
from pathlib import Path
from typing import NamedTuple

from . import dsl, hrb
from .errors import FuzzificationError, SampleError, SoilFuzzError
from .fuzzy import active_columns, active_descriptors
# ``fmt_degree`` is unused here, but bench/tracing.py wraps it by this name.
from .render import degree_text, fmt_degree, fmt_score, round4  # noqa: F401
from .rules import Aggregator, RuleBase, _Batch, _evaluate, _rank, search_rules

REQUIRED_COLUMNS = ("id", "p2mm", "p425", "p075", "ll", "pl")
READ_COLUMNS = (*REQUIRED_COLUMNS, "pi", "class")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RULES = 3
EXIT_ROWS = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class SampleRow(NamedTuple):
    row: int
    id: str
    sample: hrb.SoilSample
    label: str | None


def read_samples(
    stream, name: str = "<stream>"
) -> tuple[list[SampleRow], list[tuple[int, str]], bool]:
    """Parse a sample CSV into rows, per-row diagnostics, and a class flag.

    Each diagnostic is a ``(row, message)`` pair with the 1-based data row
    number (blank lines are not rows); a short row's missing cells, and a
    missing ``pi`` or ``class`` column, read as empty.  A missing required
    column, or a column that is read but named twice, fails the whole file,
    and so does text the CSV reader rejects, such as a cell longer than
    ``csv.field_size_limit()``, reported with ``name`` and its line.
    Column names are read with surrounding spaces stripped.
    """
    reader = csv.reader(stream)
    try:
        return _read_records(reader)
    except csv.Error as exc:
        raise CliError(
            EXIT_INPUT, f"cannot read {name}: line {reader.line_num}: {exc}"
        ) from None


def _read_records(reader) -> tuple[list[SampleRow], list[tuple[int, str]], bool]:
    """Read the header, then every non-blank line as one numbered row."""
    fields = [f.strip() for f in next(reader, [])]
    missing = [col for col in REQUIRED_COLUMNS if col not in fields]
    if missing:
        raise CliError(EXIT_ROWS, f"missing column(s): {', '.join(missing)}")
    repeated = [col for col in READ_COLUMNS if fields.count(col) > 1]
    if repeated:
        raise CliError(EXIT_ROWS, f"duplicate column(s): {', '.join(repeated)}")
    has_class = "class" in fields

    # Each read column's position.  A row is cut or padded with empty cells
    # to the header's width, then given one more empty cell, which is where
    # a column the header lacks is read.
    width = len(fields)
    at = {col: fields.index(col) if col in fields else width for col in READ_COLUMNS}
    numeric = [(col, at[col]) for col in ("p2mm", "p425", "p075", "ll", "pl", "pi")]
    pad = [""] * width
    # A row's numeric cells; without a pi column, pi is left to its default.
    cells = operator.itemgetter(*[i for _, i in numeric if i < width])

    rows: list[SampleRow] = []
    problems: list[tuple[int, str]] = []
    n = 0
    for record in reader:
        if not record:
            continue
        n += 1
        if len(record) != width:
            record = (record + pad)[:width]
        record.append("")
        try:
            # ``float`` skips only spaces that ``strip`` removes too.
            values = list(map(float, cells(record)))
        except ValueError:
            # Cell by cell, stripped, to name each empty or non-numeric one.
            values, bad = [], False
            for col, i in numeric:
                cell = record[i].strip()
                if cell == "":
                    if col == "pi":
                        values.append(None)
                        continue
                    problems.append((n, f"empty {col}"))
                    bad = True
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    problems.append((n, f"non-numeric {col}: {cell!r}"))
                    bad = True
            if bad:
                continue
        try:
            sample = hrb.SoilSample(*values)
        except SampleError as exc:
            problems.append((n, str(exc)))
            continue
        label = record[at["class"]].strip() or None
        rows.append(SampleRow(n, record[at["id"]].strip(), sample, label))
    return rows, problems, has_class


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from None


def _write_output(args, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot write {args.output}: {exc}") from None
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except UnicodeEncodeError as exc:
            raise CliError(EXIT_INPUT, f"cannot write <stdout>: {exc}") from None
        except OSError as exc:
            _discard_stdout()
            raise CliError(EXIT_INPUT, f"cannot write <stdout>: {exc}") from None


def _discard_stdout() -> None:
    """Point file descriptor 1 at the null device.

    What a failed write left buffered would fail again in the flush at
    exit, as an "Exception ignored" traceback; the null device takes it.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _load_rows(args) -> tuple[list[SampleRow], list[tuple[int, str]], bool]:
    """The input's rows, its CSV diagnostics (not yet reported), a class flag."""
    return read_samples(io.StringIO(_read_text(args.input)), args.input)


def _report_problems(args, problems: list[tuple[int, str]]) -> None:
    """Print the row diagnostics in row order; any of them exits 4 unless --skip-bad-rows."""
    # A stable sort: a row's CSV diagnostics keep their order.
    problems.sort(key=lambda problem: problem[0])
    for n, message in problems:
        print(f"row {n}: {message}", file=sys.stderr)
    if problems and not args.skip_bad_rows:
        bad = len({n for n, _ in problems})
        raise CliError(EXIT_ROWS, f"{bad} bad row(s) in {args.input}")


def _preset_dir() -> str | None:
    return os.environ.get("SOILFUZZ_PRESET_DIR") or None


def _load_variables() -> dict:
    """The HRB-property ladders of the preset directory (``SOILFUZZ_PRESET_DIR``).

    Rules may name only the HRB properties, which are the sample's columns,
    so a ladder under any other name is left out.  The rest keep their
    file order.
    """
    directory = _preset_dir()
    try:
        variables = hrb.load_variables(directory)
    except (OSError, UnicodeDecodeError) as exc:
        where = directory or "the shipped presets"
        raise CliError(EXIT_INPUT, f"cannot read hrb-variables.txt in {where}: {exc}") from None
    return {name: var for name, var in variables.items() if name in hrb.VARIABLE_NAMES}


def _load_rulebase(args, variables) -> tuple[str, RuleBase]:
    """Resolve --rules FILE or --preset into (name, rule base)."""
    if getattr(args, "rules", None):
        try:
            rb = dsl.parse_rules(_read_text(args.rules), variables)
        except dsl.RuleParseError as exc:
            for diag in exc.diagnostics:
                print(f"{args.rules}:{diag}", file=sys.stderr)
            raise CliError(EXIT_RULES, f"invalid rule file {args.rules}") from None
        return args.rules, rb
    try:
        preset = hrb.load_preset(args.preset, directory=_preset_dir(), variables=variables)
    except (OSError, UnicodeDecodeError, dsl.RuleParseError) as exc:
        raise CliError(EXIT_RULES, f"cannot load preset {args.preset}: {exc}") from None
    return preset.kind, preset.rulebase


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


_float_repr = float.__repr__


def _json_head(head: dict, key: str, indent: str) -> str:
    """The text of the JSON object ``{**head, key: ...}`` up to ``key``'s value.

    The object is laid out ``indent`` in, as ``json.dumps(indent=2)`` lays
    it out; ``key`` is its last member, so the text stops after its
    ``": "``.  The caller writes the value and closes the object.
    """
    # Only JSON output imports the encoder.
    import json

    # The text is cut at its end, where no id or label can reach.
    text = json.dumps({**head, key: None}, indent=2)[: -len("null\n}")]
    return text.replace("\n", "\n" + indent)


def _json_text(head: dict, key: str, value) -> str:
    """The JSON document ``json.dumps({**head, key: v}, indent=2) + "\\n"``.

    ``value`` is the text of ``v`` as pieces, laid out where ``v`` sits:
    its lines after the first are indented 2 spaces or more.  Only the
    small ``head`` reaches ``json.dumps``; the document is joined once.
    """
    return "".join(chain((_json_head(head, key, ""),), value, ("\n}\n",)))


def _json_objects(indent: str, n: int, *members):
    """The text of a JSON array of ``n`` objects, ``indent`` in, as pieces.

    The k-th object holds the k-th piece of each iterable in ``members``,
    in order: each is one or more members, laid out ``indent + "  "`` in
    and led by their newline and, but for the first, a comma.
    """
    if not n:
        return ("[]",)
    opens = chain((f"[\n{indent}{{",), repeat(f",\n{indent}{{", n - 1))
    objects = chain.from_iterable(zip(opens, *members, repeat(f"\n{indent}}}")))
    return chain(objects, (f"\n{indent[2:]}]",))


def cmd_classify(args) -> int:
    variables = _load_variables()
    rows, problems, _ = _load_rows(args)

    if args.crisp:
        header = {"command": "classify", "mode": "crisp"}
        _report_problems(args, problems)
        winners = [hrb.crisp_classify(row.sample) for row in rows]
        scored = None
    else:
        name, rb = _load_rulebase(args, variables)
        header = {
            "command": "classify",
            "rules": name,
            "aggregator": args.agg,
            "pi_source": args.pi_source,
        }
        batch, rows = _fuzzy_batch(args, rows, problems, variables)
        classes, columns, by_class = _evaluate(rb, batch, Aggregator(args.agg))
        # Free the index and the DOF columns before the output is built.
        del batch, columns
        winners, tied = _rank(classes, by_class)
        scored = classes, by_class, tied

    # The limits of each A-7 subgroup's rows; a fuzzy A-7 is split here.
    a7 = {}
    for i in compress(range(len(rows)), map(str.startswith, winners, repeat("A-7"))):
        sample = rows[i].sample
        if winners[i] == "A-7":
            winners[i] = hrb.a7_split(sample.ll, sample.pi)
        a7[i] = sample.ll, sample.pi
    results = (
        [row.id for row in rows],
        winners,
        list(map(hrb.SUBGRADE_RATINGS.get, winners, repeat(""))),
        a7,
        scored,
    )
    # Free the rows too: the output needs only their ids and A-7 limits.
    del rows
    if args.format == "json":
        _write_output(args, _json_text(header, "results", _classify_json(*results)))
    else:
        _write_output(args, _csv_text(_classify_table(*results)))
    return EXIT_OK


def _property_columns(args, rows, problems, variables) -> tuple[list[SampleRow], dict]:
    """The rows whose values all lie in their domains, and those values by property.

    The columns hold, for each HRB property that ``variables`` has a ladder
    for, in ``VARIABLE_NAMES`` order, the value fuzzified for it (``pl`` for
    ``pi`` under ``--pi-source pl``) on each kept row.  A row with a value
    outside its variable's domain is a diagnostic, with
    ``active_descriptors``' message for its first such value, reported with
    the CSV diagnostics in ``problems`` (see ``_report_problems``).
    """
    fields = hrb.SoilSample._fields
    samples = [row.sample for row in rows]
    columns, bad = {}, {}
    for name in hrb.VARIABLE_NAMES:
        if name not in variables:
            continue
        k, var = fields.index(args.pi_source if name == "pi" else name), variables[name]
        column = columns[name] = list(map(operator.itemgetter(k), samples))
        if column and not var.domain_min <= min(column) <= max(column) <= var.domain_max:
            for i, x in enumerate(column):
                if i not in bad:
                    try:
                        active_descriptors(var, x)
                    except FuzzificationError as exc:
                        bad[i] = str(exc)
    _report_problems(args, [*problems, *((rows[i].row, message) for i, message in bad.items())])
    if bad:
        keep = [i not in bad for i in range(len(rows))]
        rows = list(compress(rows, keep))
        columns = {name: list(compress(column, keep)) for name, column in columns.items()}
    return rows, columns


def _fuzzy_batch(args, rows, problems, variables) -> tuple[_Batch, list[SampleRow]]:
    """The batch of the rows that fuzzify, and those rows (see ``_property_columns``).

    The batch equals one built by ``_Batch.add(hrb._ladders(variables),
    hrb._active_pairs(row.sample, args.pi_source, variables))`` row by row
    over those rows.  Each property is fuzzified as one column.
    """
    rows, columns = _property_columns(args, rows, problems, variables)
    batch = _Batch()
    if rows:
        batch.size = len(rows)
        batch.ladders.append(hrb._ladders(variables))
        # Every property's index holds the same ints, as ``_Batch.add`` makes it.
        positions = list(range(len(rows)))
        for name in list(columns):
            # Each property's values are freed once its index is built.
            batch.index[name] = active_columns(variables[name], columns.pop(name), positions)
    return batch, rows


def _classify_table(ids, winners, ratings, a7, scored):
    """The CSV rows of the results: the column names, then one row each.

    ``scored`` is None for a crisp run, and otherwise the classes, their
    score columns and the tied samples' top classes (see ``_rank``).
    """
    n = len(ids)
    a7_ll, a7_pi = [""] * n, [""] * n
    for i, (ll, pi) in a7.items():
        a7_ll[i], a7_pi[i] = degree_text(round4(ll)), degree_text(round4(pi))
    if scored is None:
        header = ("id", "winner", "rating", "a7_ll", "a7_pi")
        return chain((header,), zip(ids, winners, ratings, a7_ll, a7_pi))
    classes, by_class, tied = scored
    header = ("id", "winner", "rating", "tie", "tied_with", *classes, "a7_ll", "a7_pi")
    ties, tied_with = ["false"] * n, [""] * n
    for i, names in tied.items():
        ties[i], tied_with[i] = "true", "|".join(names)
    # Each distinct score is formatted once.  Scores are never -0.0, which
    # would share 0.0's key.
    text = {score: fmt_score(score) for score in set().union(*by_class)}
    cells = [map(text.__getitem__, column) for column in by_class]
    return chain((header,), zip(ids, winners, ratings, ties, tied_with, *cells, a7_ll, a7_pi))


def _classify_json(ids, winners, ratings, a7, scored):
    """The ``results`` array of the results as JSON text, in pieces (see ``_classify_table``).

    Each row object is laid out where it sits in the document: 4 spaces
    in, its members 6 and theirs 8.  Each distinct score is rounded once
    and written by ``float.__repr__``, as ``json.dumps`` writes a float.
    """
    # Only JSON output imports the encoder's string escaper.
    from json.encoder import encode_basestring_ascii as encode

    n = len(ids)
    labels = {
        pair: f',\n      "winner": {encode(pair[0])},\n      "rating": {encode(pair[1])}'
        for pair in set(zip(winners, ratings))
    }
    members = [
        repeat('\n      "id": '), map(encode, ids), map(labels.__getitem__, zip(winners, ratings))
    ]
    if scored is not None:
        classes, by_class, tied = scored
        ties = [',\n      "tie": false,\n      "tied": []'] * n
        for i, names in tied.items():
            items = ",".join([f"\n        {encode(name)}" for name in names])
            ties[i] = f',\n      "tie": true,\n      "tied": [{items}\n      ]'
        text = {score: _float_repr(round4(score)) for score in set().union(*by_class)}
        keys = [f",\n        {encode(cls)}: " for cls in classes]
        keys[0] = ',\n      "scores": {' + keys[0][1:]
        members.append(ties)
        for key, column in zip(keys, by_class):
            members += repeat(key), map(text.__getitem__, column)
        members.append(repeat("\n      }"))
    limits = [',\n      "a7": null'] * n
    for i, (ll, pi) in a7.items():
        limits[i] = (
            f',\n      "a7": {{\n        "ll": {_float_repr(round4(ll))},'
            f'\n        "pi": {_float_repr(round4(pi))}\n      }}'
        )
    return _json_objects("    ", n, *members, limits)


class _Degrees(dict):
    """One property's rendered degrees by value, rendered on first use.

    With ``encode``, a value's text is its JSON ``degrees`` object, laid
    out where it sits in the document; without, a tuple of its CSV cells.
    The text is a layout cut around the numbers of the value's two active
    labels, keyed by the upper label (``head + number(lower) + mid +
    number(upper) + tail``), with ``active_descriptors``' degrees rounded
    by ``round4``, or the all-zero layout where no label is active.
    ``_property_columns`` has checked every value against its domain.
    Zero is never a key: 0.0 == -0.0, but a -0.0 value has a -0.0 degree,
    which prints as such.
    """

    def __init__(self, var, encode=None):
        super().__init__()
        # A value's text, cut around the numbers of its k labels, and
        # ``fill``, which joins pieces with an inactive label's number.
        if encode is None:
            cut, self.number = [()] * (len(var.labels) + 1), lambda r: (degree_text(r),)
            fill = lambda parts: ("0",) * (len(parts) - 1)
        else:
            # The object's members are 12 spaces in, its closing brace 10.
            members = "\0,".join(f"\n            {encode(label)}: " for label in var.labels)
            cut = ("{" + members + "\0\n          }").split("\0")
            fill, self.number = "0.0".join, _float_repr
        self.var, self.zero = var, fill(cut)
        self.layouts = {
            upper: (fill(cut[:j]), cut[j], fill(cut[j + 1:]))
            for j, upper in enumerate(var.labels[1:], 1)
        }

    def __missing__(self, x: float):
        text = self.zero
        active = active_descriptors(self.var, x)
        if active:
            (_, falling), (upper, rising) = active
            head, mid, tail = self.layouts[upper]
            text = head + self.number(round4(falling)) + mid + self.number(round4(rising)) + tail
        if x:
            self[x] = text
        return text


def cmd_memberships(args) -> int:
    variables = _load_variables()
    rows, problems, _ = _load_rows(args)
    # The HRB properties the variables file has a ladder for, in column order.
    ladders = hrb._ladders(variables)
    if args.variable is not None and args.variable not in ladders:
        raise CliError(EXIT_INPUT, f"unknown variable {args.variable}")
    names = list(ladders) if args.variable is None else [args.variable]
    encode = None
    if args.format == "json":
        # Only JSON output imports the encoder's string escaper.
        from json.encoder import encode_basestring_ascii as encode

    # Every property with a ladder is checked against its domain, listed or
    # not; only the listed ones are rendered, each distinct value once.
    rows, columns = _property_columns(args, rows, problems, variables)
    ids = [row.id for row in rows]
    texts = {
        name: list(map(_Degrees(variables[name], encode).__getitem__, columns[name]))
        for name in names
    }
    if args.format == "json":
        # A table object opens 4 spaces in; its rows open 8, their members 10.
        ids = list(map(encode, ids))
        tables = []
        for name in names:
            head = {"variable": name, "labels": list(ladders[name])}
            tables += ",\n    ", _json_head(head, "rows", "    ")
            tables += _json_objects(
                "        ", len(ids),
                repeat('\n          "id": '), ids, repeat(',\n          "degrees": '), texts[name],
            )
            tables.append("\n    }")
        if tables:
            tables[0] = "[\n    "
            tables.append("\n  ]")
        head = {"command": "memberships", "pi_source": args.pi_source}
        _write_output(args, _json_text(head, "tables", tables or ["[]"]))
    else:
        table = []
        for name in names:
            table.append(["variable", "id", *ladders[name]])
            table += [[name, row_id, *cells] for row_id, cells in zip(ids, texts[name])]
        _write_output(args, _csv_text(table))
    return EXIT_OK


def cmd_rules(args) -> int:
    variables = _load_variables()
    _, rb = _load_rulebase(args, variables)
    _write_output(args, dsl.serialize(rb, variables))
    return EXIT_OK


def cmd_induce(args) -> int:
    variables = _load_variables()
    rows, problems, has_class = _load_rows(args)
    if not has_class:
        raise CliError(EXIT_ROWS, "missing class column: induce needs labeled rows")
    # A class the rule file could not name back is a bad row.
    unwritable = {
        row.row: f"class {row.label!r} cannot be written to a rule file"
        for row in rows if row.label is not None and not dsl._is_word(row.label)
    }
    kept, _ = _property_columns(
        args, [row for row in rows if row.row not in unwritable],
        [*problems, *unwritable.items()], variables,
    )
    labeled = [
        (hrb.fuzzify_sample(row.sample, args.pi_source, variables), row.label) for row in kept
    ]
    unlabeled = [row.row for row in rows if row.label is None]
    if unlabeled:
        raise CliError(
            EXIT_ROWS,
            f"empty class cell on row(s): {', '.join(map(str, unlabeled))}",
        )
    if not labeled:
        raise CliError(EXIT_ROWS, "no labeled rows to induce from")

    result = search_rules(
        labeled,
        variables,
        rules_per_class=args.rules_per_class,
        iterations=args.iters,
        seed=args.seed,
        agg=Aggregator(args.agg),
    )
    text = (
        f"# induced: seed={args.seed} iterations={args.iters} "
        f"rules_per_class={args.rules_per_class} agg={args.agg}\n"
        f"# training accuracy: {fmt_score(result.score)}\n"
        + dsl.serialize(result.rulebase, variables)
    )
    _write_output(args, text)
    print(f"training accuracy: {fmt_score(result.score)}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soilfuzz",
        description="Fuzzy rule-based HRB (AASHTO M145) soil classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", metavar="IN", help="input CSV path")
        p.add_argument("-o", "--output", help="output path (default: stdout)")
        p.add_argument(
            "--skip-bad-rows", action="store_true",
            help="skip rows that fail validation instead of exiting 4",
        )

    def add_ruleset(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--preset", choices=("paper", "calibrated"), default="paper",
            help="shipped rule preset (default: paper)",
        )
        group.add_argument("--rules", help="custom .frules file")

    classify_p = sub.add_parser("classify", help="classify samples")
    add_ruleset(classify_p)
    classify_p.add_argument("--agg", choices=("min", "product", "mean"), default="mean")
    classify_p.add_argument("--pi-source", choices=("pi", "pl"), default="pi", dest="pi_source")
    classify_p.add_argument(
        "--crisp", action="store_true",
        help="use the crisp M145 table instead of fuzzy rules",
    )
    classify_p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_io(classify_p)
    classify_p.set_defaults(func=cmd_classify)

    memb_p = sub.add_parser("memberships", help="dump membership tables")
    memb_p.add_argument("--variable", help="limit output to one variable")
    memb_p.add_argument("--pi-source", choices=("pi", "pl"), default="pi", dest="pi_source")
    memb_p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_io(memb_p)
    memb_p.set_defaults(func=cmd_memberships)

    rules_p = sub.add_parser("rules", help="print a rule base in canonical form")
    add_ruleset(rules_p)
    rules_p.add_argument("-o", "--output", help="output path (default: stdout)")
    rules_p.set_defaults(func=cmd_rules)

    induce_p = sub.add_parser("induce", help="induce rules from labeled samples")
    induce_p.add_argument("--seed", type=int, required=True)
    induce_p.add_argument("--iters", type=int, default=1000)
    induce_p.add_argument("--rules-per-class", type=int, default=1, dest="rules_per_class")
    induce_p.add_argument("--agg", choices=("min", "product", "mean"), default="mean")
    induce_p.add_argument("--pi-source", choices=("pi", "pl"), default="pi", dest="pi_source")
    add_io(induce_p)
    induce_p.set_defaults(func=cmd_induce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"soilfuzz: {exc}", file=sys.stderr)
        return exc.code
    except SoilFuzzError as exc:
        print(f"soilfuzz: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
