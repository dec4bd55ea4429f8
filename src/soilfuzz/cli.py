"""Batch command-line front end.

Reads samples from CSV (columns ``id,p2mm,p425,p075,ll,pl[,pi][,class]``;
a missing pi is computed as ll - pl) into columns, classifies them against
a preset or a rule file, dumps membership tables, or induces a rule base
from labeled rows.  The rows are read in chunks, each property column of
a chunk converted and checked as a whole; a chunk that fails a check is
read again row by row, to state each bad row's diagnostics.  Output is
byte-deterministic for identical inputs and flags.  Each document is text
joined once from columns of pre-rendered pieces: CSV rows end in LF, a
cell quoted only if it holds a comma, ``"``, CR or LF; JSON is laid out as
``json.dumps(indent=2)`` lays it out.

The rule parser and the rule engine are imported in the commands that
parse or score rules, so ``memberships`` and ``classify --crisp`` start
without compiling them.

Exit codes: 0 success, 2 unreadable input, unwritable output (stdout
included) or bad usage, 3 invalid rule file, 4 row validation failures
(including missing or repeated columns).  A stderr that cannot be written
to changes no exit code.  ``main(argv)`` returns the exit code; ``run``,
behind the ``soilfuzz`` command and ``python -m soilfuzz.cli``, ends the
process with it once the output is flushed.
"""

import argparse
import csv
import io
import math
import operator
import os
import sys
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING

from . import hrb
from .errors import FuzzificationError, SampleError, SoilFuzzError
from .fuzzy import Aggregator, active_descriptors
from .render import fmt_degree, fmt_score, round4

if TYPE_CHECKING:
    from .rules import RuleBase

REQUIRED_COLUMNS = ("id", "p2mm", "p425", "p075", "ll", "pl")
READ_COLUMNS = (*REQUIRED_COLUMNS, "pi", "class")
FIELDS = hrb.SoilSample._fields

# The reader converts this many rows at a time, so that it holds only one
# small chunk's cells as text; each chunk reuses the memory the last freed.
CHUNK_ROWS = 128

# An -o file is written this many characters at a time (see ``_write_output``).
WRITE_CHARS = 1 << 16

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RULES = 3
EXIT_ROWS = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def read_samples(
    stream, name: str = "<stream>"
) -> tuple[list[int], dict[str, list], list[tuple[int, str]], bool]:
    """Parse a sample CSV into its good rows, per-row diagnostics, and a class flag.

    The good rows are their 1-based data row numbers (blank lines are not
    rows) and a table of columns: ``id``, ``class`` (None for an empty
    cell), and one float column per ``SoilSample`` field, where ``pi`` is
    ``ll - pl`` on a row whose ``pi`` cell is empty.  Each diagnostic is a
    ``(row, message)`` pair.  A short row's missing cells, and a missing
    ``pi`` or ``class`` column, read as empty; cells past the header are
    ignored.  A missing required column, or a column that is read but
    named twice, fails the whole file, and so does text the CSV reader
    rejects, such as a cell longer than ``csv.field_size_limit()``,
    reported with ``name`` and its line.  Column names are read with
    surrounding spaces stripped.
    """
    reader = csv.reader(stream)
    try:
        return _read_records(reader)
    except csv.Error as exc:
        raise CliError(
            EXIT_INPUT, f"cannot read {name}: line {reader.line_num}: {exc}"
        ) from None


def _read_records(reader) -> tuple[list[int], dict[str, list], list[tuple[int, str]], bool]:
    """Read the header, then every non-blank line as one numbered row.

    The rows are read ``CHUNK_ROWS`` at a time (see ``_read_chunk``), so
    that the cells of only one chunk are held at once.
    """
    fields = [f.strip() for f in next(reader, [])]
    missing = [col for col in REQUIRED_COLUMNS if col not in fields]
    if missing:
        raise CliError(EXIT_ROWS, f"missing column(s): {', '.join(missing)}")
    repeated = [col for col in READ_COLUMNS if fields.count(col) > 1]
    if repeated:
        raise CliError(EXIT_ROWS, f"duplicate column(s): {', '.join(repeated)}")
    has_class = "class" in fields
    at = {col: fields.index(col) if col in fields else len(fields) for col in READ_COLUMNS}

    rows: list[int] = []
    table: dict[str, list] = {col: [] for col in (*FIELDS, "id", "class")}
    problems: list[tuple[int, str]] = []
    records, n = filter(None, reader), 0
    while chunk := list(islice(records, CHUNK_ROWS)):
        kept, columns = _read_chunk(chunk, n, len(fields), at, problems)
        n += len(chunk)
        rows += kept
        for col, column in columns.items():
            table[col] += column
    return rows, table, problems, has_class


def _read_chunk(records, start, width, at, problems) -> tuple[list[int], dict[str, list]]:
    """Rows ``start + 1`` on: the numbers and table of those without diagnostics.

    Each numeric column is converted, and checked as ``SoilSample``
    checks a row, as a whole.  If a cell does not convert or a check
    fails, the whole chunk is read again row by row, by ``_read_row``,
    which puts each bad row's diagnostics in ``problems``.
    """
    n = len(records)
    if set(map(len, records)) - {width}:
        # A row is cut or padded with empty cells to the header's width.
        pad = [""] * width
        records = [(record + pad)[:width] for record in records]
    # The cells by column, and one more column of empty cells, which is
    # where a column the header lacks is read.
    cells = [*zip(*records)]
    cells.append(("",) * n)

    try:
        table = {col: list(map(float, cells[at[col]])) for col in FIELDS[:-1]}
        # ``pi`` is ``ll - pl`` where its cell is empty or its column missing.
        ll_pl, pi_cells = map(operator.sub, table["ll"], table["pl"]), cells[at["pi"]]
        try:
            table["pi"] = list(map(float, pi_cells)) if at["pi"] < width else list(ll_pl)
        except ValueError:
            table["pi"] = [float(cell) if cell.strip() else x for cell, x in zip(pi_cells, ll_pl)]
    except ValueError:
        checked = False
    else:
        # ``SoilSample``'s checks.  A sum is finite only if every term is,
        # though it may overflow.
        p2mm, p425, p075, _, _, pi = columns = [table[col] for col in FIELDS]
        le = operator.le
        checked = (
            all(map(math.isfinite, map(sum, columns))) and min(pi) >= 0.0
            and 0.0 <= min(p075) and max(p2mm) <= 100.0
            and all(map(le, p075, p425)) and all(map(le, p425, p2mm))
        )
    bad = ()
    if not checked:
        samples = [_read_row(start + i, row, at, problems) for i, row in enumerate(zip(*cells), 1)]
        bad = {i for i, sample in enumerate(samples) if sample is None}
        # A bad row's place holds Nones until ``_drop`` removes it.
        dropped = (None,) * len(FIELDS)
        table = dict(zip(FIELDS, zip(*[sample or dropped for sample in samples])))
    table["id"] = list(map(str.strip, cells[at["id"]]))
    table["class"] = (
        [label or None for label in map(str.strip, cells[at["class"]])]
        if at["class"] < width else [None] * n
    )
    return _drop(list(range(start + 1, start + n + 1)), table, bad)


def _read_row(n: int, record: tuple[str, ...], at: dict, problems: list) -> hrb.SoilSample | None:
    """Row ``n``'s sample from its stripped cells, or None once its diagnostics are in ``problems``.

    ``float`` skips only spaces that ``strip`` removes too, so a cell it
    reads as it is gives the same value here.
    """
    values = []
    for col in FIELDS:
        cell = record[at[col]].strip()
        if cell == "" and col == "pi":
            values.append(None)
            continue
        try:
            values.append(float(cell))
        except ValueError:
            problems.append((n, f"empty {col}" if cell == "" else f"non-numeric {col}: {cell!r}"))
    if len(values) < len(FIELDS):
        return None
    try:
        return hrb.SoilSample(*values)
    except SampleError as exc:
        problems.append((n, str(exc)))
        return None


def _drop(rows: list[int], table: dict, bad) -> tuple[list[int], dict]:
    """``rows`` and ``table`` without the rows at the indexes in ``bad``."""
    if not bad:
        return rows, table
    keep = [i not in bad for i in range(len(rows))]
    return list(compress(rows, keep)), {
        col: list(compress(column, keep)) for col, column in table.items()
    }


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from None


def _write_output(args, text: str) -> None:
    """Write ``text`` to the ``-o`` file, or else to stdout; exit 2 if it cannot be written.

    A file is written ``WRITE_CHARS`` characters at a time through one open
    file, so that the document is never also held whole as UTF-8 bytes.
    UTF-8 encodes every string of the input, which is decoded strictly, so
    no slice can fail to encode after an earlier one was written.  Stdout
    takes the text in one write: its encoding may refuse a character, and
    then none of the document may reach it.
    """
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                for start in range(0, len(text), WRITE_CHARS):
                    out.write(text[start:start + WRITE_CHARS])
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot write {args.output}: {exc}") from None
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except UnicodeEncodeError as exc:
            raise CliError(EXIT_INPUT, f"cannot write <stdout>: {exc}") from None
        except OSError as exc:
            _discard(sys.stdout)
            raise CliError(EXIT_INPUT, f"cannot write <stdout>: {exc}") from None


def _warn(line: str) -> None:
    """Print a diagnostic ``line`` to stderr; if stderr cannot take it, discard stderr."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _discard(sys.stderr)


def _discard(stream) -> None:
    """Point ``stream``'s file descriptor at the null device.

    What a failed write left buffered would fail again in the next flush,
    at the latest the one at exit, as an "Exception ignored" traceback or
    exit code 120; the null device takes it.
    """
    try:
        fd = stream.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _load_rows(args) -> tuple[list[int], dict[str, list], list[tuple[int, str]], bool]:
    """The input's rows and their table, its CSV diagnostics (not yet reported), a class flag."""
    return read_samples(io.StringIO(_read_text(args.input)), args.input)


def _report_problems(args, problems: list[tuple[int, str]]) -> None:
    """Print the row diagnostics in row order; any of them exits 4 unless --skip-bad-rows."""
    # A stable sort: a row's CSV diagnostics keep their order.
    problems.sort(key=lambda problem: problem[0])
    for n, message in problems:
        _warn(f"row {n}: {message}")
    if problems and not args.skip_bad_rows:
        bad = len({n for n, _ in problems})
        raise CliError(EXIT_ROWS, f"{bad} bad row(s) in {args.input}")


def _preset_dir() -> str | None:
    return os.environ.get("SOILFUZZ_PRESET_DIR") or None


def _variables_file() -> str:
    return f"hrb-variables.txt in {_preset_dir() or 'the shipped presets'}"


def _property_ladders(variables) -> dict[str, tuple[str, ...]]:
    """The ladders of the HRB properties ``variables`` has; exit 2 if there is none."""
    ladders = hrb.property_ladders(variables)
    if not ladders:
        raise CliError(
            EXIT_INPUT,
            f"{_variables_file()} has no ladder for any of {', '.join(hrb.VARIABLE_NAMES)}",
        )
    return ladders


def _load_variables() -> dict:
    """The HRB-property ladders of the preset directory (``SOILFUZZ_PRESET_DIR``).

    Rules may name only the HRB properties, which are the sample's columns,
    so a ladder under any other name is left out.  The rest keep their
    file order.
    """
    try:
        variables = hrb.load_variables(_preset_dir())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {_variables_file()}: {exc}") from None
    return {name: var for name, var in variables.items() if name in hrb.VARIABLE_NAMES}


def _load_rulebase(args, variables) -> "tuple[str, RuleBase]":
    """Resolve --rules FILE or --preset into (name, rule base)."""
    from . import dsl

    if getattr(args, "rules", None):
        try:
            rb = dsl.parse_rules(_read_text(args.rules), variables)
        except dsl.RuleParseError as exc:
            for diag in exc.diagnostics:
                _warn(f"{args.rules}:{diag}")
            raise CliError(EXIT_RULES, f"invalid rule file {args.rules}") from None
        return args.rules, rb
    try:
        preset = hrb.load_preset(args.preset, directory=_preset_dir(), variables=variables)
    except (OSError, UnicodeDecodeError, dsl.RuleParseError) as exc:
        raise CliError(EXIT_RULES, f"cannot load preset {args.preset}: {exc}") from None
    return preset.kind, preset.rulebase


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell: quoted, each ``"`` doubled, if it holds ``,``, ``"``, CR or LF."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(lines) -> str:
    """The CSV document of ``lines``, each a row's cells joined by commas; rows end in LF."""
    return "\n".join(chain(lines, ("",)))


def _json_number(x: float) -> str:
    """A degree, score or limit as ``json.dumps`` writes its ``round4``."""
    return repr(round4(x))


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
    # The crisp oracle reads no ladder, so it needs no variables file.
    variables = None if args.crisp else _load_variables()
    rows, table, problems, _ = _load_rows(args)

    if args.crisp:
        header = {"command": "classify", "mode": "crisp"}
        _report_problems(args, problems)
        winners = list(map(hrb.crisp_subgroup, *[table[name] for name in hrb.VARIABLE_NAMES]))
        scored = None
    else:
        from .rules import classify_many

        name, rb = _load_rulebase(args, variables)
        header = {
            "command": "classify",
            "rules": name,
            "aggregator": args.agg,
            "pi_source": args.pi_source,
        }
        table, values = _property_columns(args, rows, table, problems, variables)
        scores = classify_many(rb, values, variables, Aggregator(args.agg))
        winners, scored = scores.winners, (scores.classes, scores.by_class, scores.tied)
        # Free the values and the DOF columns before the output is built.
        del values, scores

    # The limits of each A-7 subgroup's rows; a fuzzy A-7 is split here.
    a7, ll, pi = {}, table["ll"], table["pi"]
    for i in compress(range(len(winners)), map(str.startswith, winners, repeat("A-7"))):
        if winners[i] == "A-7":
            winners[i] = hrb.a7_split(ll[i], pi[i])
        a7[i] = ll[i], pi[i]
    results = table["id"], winners, a7, scored
    # Free the rows too: the output needs only their ids and A-7 limits.
    del rows, table, ll, pi
    if args.format == "json":
        _write_output(args, _json_text(header, "results", _classify_json(*results)))
    else:
        _write_output(args, _csv_text(_classify_csv(*results)))
    return EXIT_OK


def _property_columns(args, rows, table, problems, variables) -> tuple[dict, dict]:
    """The table of the rows whose values all lie in their domains, and those values by property.

    The columns hold, for each HRB property that ``variables`` has a ladder
    for, in ``VARIABLE_NAMES`` order, the table's column of the value
    fuzzified for it (``pl`` for ``pi`` under ``--pi-source pl``).  A row
    with a value outside its variable's domain is a diagnostic, with
    ``active_descriptors``' message for its first such value, reported
    with the CSV diagnostics in ``problems`` (see ``_report_problems``).
    """
    ladders = hrb.property_ladders(variables)
    source = {name: args.pi_source if name == "pi" else name for name in ladders}
    bad = {}
    for name, col in source.items():
        var, column = variables[name], table[col]
        if column and not var.domain_min <= min(column) <= max(column) <= var.domain_max:
            for i, x in enumerate(column):
                if i not in bad:
                    try:
                        active_descriptors(var, x)
                    except FuzzificationError as exc:
                        bad[i] = str(exc)
    _report_problems(args, [*problems, *((rows[i], message) for i, message in bad.items())])
    _, table = _drop(rows, table, bad)
    return table, {name: table[col] for name, col in source.items()}


class _ScoreTexts(dict):
    """Each score's text, made by ``render`` on first use (no score is -0.0, 0.0's key)."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _classify_csv(ids, winners, a7, scored):
    """The CSV rows of the results as text: the column names, then one row each.

    ``scored`` is None for a crisp run, and otherwise the classes, their
    score columns and the tied samples' top classes (see ``rules.Scores``).
    """
    n, ratings = len(ids), hrb.SUBGRADE_RATINGS
    labels = {w: f"{_csv_cell(w)},{_csv_cell(ratings.get(w, ''))}" for w in set(winners)}
    columns = [map(_csv_cell, ids), map(labels.__getitem__, winners)]
    header = ["id", "winner", "rating"]
    if scored is not None:
        classes, by_class, tied = scored
        ties = ["false,"] * n
        for i, names in tied.items():
            ties[i] = "true," + _csv_cell("|".join(names))
        text = _ScoreTexts(fmt_score)
        header += "tie", "tied_with", *classes
        columns += [ties, *[map(text.__getitem__, column) for column in by_class]]
    limits = [","] * n
    for i, (ll, pi) in a7.items():
        limits[i] = f"{fmt_degree(ll)},{fmt_degree(pi)}"
    header = ",".join(map(_csv_cell, [*header, "a7_ll", "a7_pi"]))
    return chain((header,), map(",".join, zip(*columns, limits)))


def _classify_json(ids, winners, a7, scored):
    """The ``results`` array of the results as JSON text, in pieces (see ``_classify_csv``).

    Each row object is laid out where it sits in the document: 4 spaces
    in, its members 6 and theirs 8.  Each distinct score is written once,
    by ``_json_number``, as are the A-7 limits.
    """
    # Only JSON output imports the encoder's string escaper.
    from json.encoder import encode_basestring_ascii as encode

    n, ratings = len(ids), hrb.SUBGRADE_RATINGS
    labels = {
        w: f',\n      "winner": {encode(w)},\n      "rating": {encode(ratings.get(w, ""))}'
        for w in set(winners)
    }
    members = [repeat('\n      "id": '), map(encode, ids), map(labels.__getitem__, winners)]
    if scored is not None:
        classes, by_class, tied = scored
        ties = [',\n      "tie": false,\n      "tied": []'] * n
        for i, names in tied.items():
            items = ",".join([f"\n        {encode(name)}" for name in names])
            ties[i] = f',\n      "tie": true,\n      "tied": [{items}\n      ]'
        text = _ScoreTexts(_json_number)
        keys = [f",\n        {encode(cls)}: " for cls in classes]
        keys[0] = ',\n      "scores": {' + keys[0][1:]
        members.append(ties)
        for key, column in zip(keys, by_class):
            members += repeat(key), map(text.__getitem__, column)
        members.append(repeat("\n      }"))
    limits = [',\n      "a7": null'] * n
    for i, (ll, pi) in a7.items():
        limits[i] = (
            f',\n      "a7": {{\n        "ll": {_json_number(ll)},'
            f'\n        "pi": {_json_number(pi)}\n      }}'
        )
    return _json_objects("    ", n, *members, limits)


class _Degrees(dict):
    """One property's rendered degrees by value, rendered on first use.

    With ``encode``, a value's text is its JSON ``degrees`` object, laid
    out where it sits in the document; without, its CSV cells, joined.
    The text is a layout cut around the numbers of the value's two active
    labels, keyed by the upper label (``head + number(lower) + mid +
    number(upper) + tail``), with ``active_descriptors``' degrees rendered
    by ``_json_number`` or ``fmt_degree``, or the all-zero layout.
    ``_property_columns`` has checked every value against its domain.
    Zero is never a key: 0.0 == -0.0, but a -0.0 value has a -0.0 degree,
    which prints as such.
    """

    def __init__(self, var, encode=None):
        # A value's text, cut around the numbers of its k labels, and
        # ``fill``, which joins pieces with an inactive label's number.
        if encode is None:
            cut, fill, self.number = ["", *[","] * (len(var.labels) - 1), ""], "0".join, fmt_degree
        else:
            # The object's members are 12 spaces in, its closing brace 10.
            members = "\0,".join(f"\n            {encode(label)}: " for label in var.labels)
            cut = ("{" + members + "\0\n          }").split("\0")
            fill, self.number = "0.0".join, _json_number
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
            text = head + self.number(falling) + mid + self.number(rising) + tail
        if x:
            self[x] = text
        return text


def cmd_memberships(args) -> int:
    variables = _load_variables()
    rows, table, problems, _ = _load_rows(args)
    # The HRB properties the variables file has a ladder for, in column order.
    ladders = _property_ladders(variables)
    if args.variable is not None and args.variable not in ladders:
        raise CliError(EXIT_INPUT, f"unknown variable {args.variable}")
    names = list(ladders) if args.variable is None else [args.variable]
    encode = None
    if args.format == "json":
        # Only JSON output imports the encoder's string escaper.
        from json.encoder import encode_basestring_ascii as encode

    # Every property with a ladder is checked against its domain, listed or
    # not; only the listed ones are rendered, each distinct value once.
    table, columns = _property_columns(args, rows, table, problems, variables)
    ids = table["id"]
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
        ids = list(map(_csv_cell, ids))
        lines = []
        for name in names:
            lines.append(",".join(map(_csv_cell, ["variable", "id", *ladders[name]])))
            lines += map(",".join, zip(repeat(_csv_cell(name)), ids, texts[name]))
        _write_output(args, _csv_text(lines))
    return EXIT_OK


def cmd_rules(args) -> int:
    from . import dsl

    variables = _load_variables()
    _, rb = _load_rulebase(args, variables)
    _write_output(args, dsl.serialize(rb, variables))
    return EXIT_OK


def search_rules(*args, **kwargs):
    """``rules.search_rules``, which loads the rule engine on its first call.

    ``cmd_induce`` calls it by this name, the one bench/tracing.py wraps.
    """
    from .rules import search_rules

    return search_rules(*args, **kwargs)


def cmd_induce(args) -> int:
    from . import dsl

    variables = _load_variables()
    rows, table, problems, has_class = _load_rows(args)
    _property_ladders(variables)
    if not has_class:
        raise CliError(EXIT_ROWS, "missing class column: induce needs labeled rows")
    # A class the rule file could not name back is a bad row.
    unwritable = {
        i: f"class {label!r} cannot be written to a rule file"
        for i, label in enumerate(table["class"]) if label is not None and not dsl.is_word(label)
    }
    unlabeled = [n for n, label in zip(rows, table["class"]) if label is None]
    kept, values = _property_columns(
        args, *_drop(rows, table, unwritable),
        [*problems, *((rows[i], message) for i, message in unwritable.items())], variables,
    )
    if unlabeled:
        raise CliError(
            EXIT_ROWS,
            f"empty class cell on row(s): {', '.join(map(str, unlabeled))}",
        )
    if not kept["class"]:
        raise CliError(EXIT_ROWS, "no labeled rows to induce from")

    result = search_rules(
        values, kept["class"], variables, rules_per_class=args.rules_per_class,
        iterations=args.iters, seed=args.seed, agg=Aggregator(args.agg),
    )
    text = (
        f"# induced: seed={args.seed} iterations={args.iters} "
        f"rules_per_class={args.rules_per_class} agg={args.agg}\n"
        f"# training accuracy: {fmt_score(result.score)}\n"
        + dsl.serialize(result.rulebase, variables)
    )
    _write_output(args, text)
    _warn(f"training accuracy: {fmt_score(result.score)}")
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
    """Run one command and return its exit code; the process goes on."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        _warn(f"soilfuzz: {exc}")
        return exc.code
    except SoilFuzzError as exc:
        _warn(f"soilfuzz: {exc}")
        return EXIT_INPUT


def run() -> None:
    """The ``soilfuzz`` command: run ``main``, then end the process with its code.

    Once stdout and stderr are flushed, ``os._exit`` ends the process
    without the interpreter's teardown, which would free every object one
    by one.  The program registers no ``atexit`` callback and starts no
    thread, and ``main`` has closed its ``-o`` file, so no work of the
    program's is skipped.  If a flush fails, ``sys.exit`` ends the process,
    and its teardown reports the failure.  ``SystemExit`` from argparse and
    any other exception propagate.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # ValueError: a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
