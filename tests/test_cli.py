import ast
import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilfuzz as sf
from soilfuzz import cli
from test_rules import batch_added_one_by_one

FIXTURE_CSV = """\
id,p2mm,p425,p075,ll,pl
1,100,100,30,32,21
2,100,80,40,25,17
3,100,100,92,65,25
4,100,76,7,19,16
5,100,100,78,34,10
6,38,30,11,23,19
"""

LABELED_CSV = """\
id,p2mm,p425,p075,ll,pl,class
1,100,100,30,32,21,A-2-6
2,100,80,40,25,17,A-4
3,100,100,92,65,25,A-7
4,100,76,7,19,16,A-3
5,100,100,78,34,10,A-6
6,38,30,11,23,19,A-1-a
"""


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(FIXTURE_CSV)
    return str(path)


@pytest.fixture
def labeled_csv(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text(LABELED_CSV)
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def as_samples(table):
    """The rows of a table ``read_samples`` returns, as tuples of ``SoilSample``'s fields."""
    return list(zip(*[table[field] for field in cli.FIELDS]))


def sample_table(ids, samples, labels):
    """The table ``read_samples`` returns for rows of these ids, samples and labels."""
    fields = sf.SoilSample._fields
    return {
        **{field: [sample[k] for sample in samples] for k, field in enumerate(fields)},
        "id": ids,
        "class": labels,
    }


class TestReadSamples:
    def test_reference_table(self):
        rows, table, problems, has_class = cli.read_samples(io.StringIO(FIXTURE_CSV))
        assert not problems and not has_class
        assert len(rows) == 6
        assert table["pi"][3] == 3.0  # ll - pl
        assert table["id"][0] == "1"

    def test_explicit_pi_column(self):
        text = "id,p2mm,p425,p075,ll,pl,pi\na,100,50,10,30,20,5\n"
        _, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert not problems
        assert table["pi"][0] == 5.0

    def test_row_diagnostics(self):
        text = (
            "id,p2mm,p425,p075,ll,pl\n"
            "a,50,60,10,30,20\n"       # p425 > p2mm
            "b,100,50,10,thirty,20\n"  # non-numeric
            "c,100,50,10,30,20\n"
        )
        rows, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert len(rows) == 1 and table["id"][0] == "c"
        assert [n for n, _ in problems] == [1, 2]
        assert "sieve" in problems[0][1]
        assert problems[1][1] == "non-numeric ll: 'thirty'"

    def test_spaces_after_header_commas(self):
        text = (
            "id, p2mm, p425, p075, ll, pl, pi, class\n"
            "a, 100, 50, 10, 30, 20, 5, A-2-4\n"
        )
        _, table, problems, has_class = cli.read_samples(io.StringIO(text))
        assert not problems and has_class
        assert table["id"][0] == "a" and table["class"][0] == "A-2-4"
        assert as_samples(table)[0] == sf.SoilSample(100, 50, 10, ll=30, pl=20, pi=5)

    def test_missing_column(self):
        with pytest.raises(cli.CliError) as exc:
            cli.read_samples(io.StringIO("id,p2mm,p425,p075,ll\n"))
        assert exc.value.code == cli.EXIT_ROWS
        assert "pl" in str(exc.value)

    @pytest.mark.parametrize("header", [
        "id,p2mm,p425,p075,ll,pl,ll",
        "id,p2mm,p425,p075,ll,pl, ll",
    ])
    def test_duplicate_column(self, header, tmp_path, capsys):
        # csv.DictReader would keep the last ll cell (80) and classify A-2-7.
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\na,100,60,20,30,20,80\n")
        code, out, err = run(["classify", "--crisp", str(path)], capsys)
        assert code == cli.EXIT_ROWS and out == ""
        assert err == "soilfuzz: duplicate column(s): ll\n"

    @pytest.mark.parametrize("command", [
        ["classify"], ["memberships"], ["induce", "--seed", "1"],
    ])
    def test_cell_over_the_csv_field_limit(self, command, tmp_path, capsys):
        # A cell the CSV reader rejects is unreadable input, not a traceback.
        path = tmp_path / "long.csv"
        path.write_text(f"id,p2mm,p425,p075,ll,pl,class\nb,{'1' * 200_000},1,1,1,1,A-4\n")
        code, out, err = run([*command, str(path)], capsys)
        assert code == cli.EXIT_INPUT and out == ""
        assert err == (
            f"soilfuzz: cannot read {path}: line 2: field larger than field limit (131072)\n"
        )

    def test_unread_columns_may_repeat(self):
        text = "id,p2mm,p425,p075,ll,pl,note,note,,\na,100,50,10,30,20,x,y,,\n"
        _, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert not problems and table["ll"][0] == 30.0

    def test_blank_lines_are_not_rows(self):
        text = "id,p2mm,p425,p075,ll,pl\n\na,100,50,10,30,20\n\n\nb,100,50,10,thirty,20\n"
        rows, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert list(zip(rows, table["id"])) == [(1, "a")]
        assert problems == [(2, "non-numeric ll: 'thirty'")]

    def test_short_and_long_rows(self):
        # Missing cells read as empty; cells past the header are ignored,
        # even where the header lacks pi or class.
        text = (
            "id,p2mm,p425,p075,ll,pl\n"
            "a,100,50,10,30,20,7,A-4\n"
            "b,100,50,10,30\n"
            "c\n"
        )
        _, table, problems, has_class = cli.read_samples(io.StringIO(text))
        assert not has_class
        assert list(zip(table["id"], table["pi"], table["class"])) == [("a", 10.0, None)]
        assert problems == [
            (2, "empty pl"),
            (3, "empty p2mm"), (3, "empty p425"), (3, "empty p075"), (3, "empty ll"),
            (3, "empty pl"),
        ]

    def test_cells_float_reads_only_once_stripped(self):
        # ``str.strip`` removes U+001C-U+001F and ``float`` does not, so a
        # row with such a cell is read cell by cell, to the same values.
        padded = "\x1c100\x1d,\x1e50,10\x1f"
        with pytest.raises(ValueError):
            float("\x1c100\x1d")
        text = f"id,p2mm,p425,p075,ll,pl\na,{padded},30,20\nb,100,50,10,30,\x1f20\x1c\n"
        _, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert not problems
        assert as_samples(table) == [sf.SoilSample(100, 50, 10, 30, 20)] * 2

    def test_underscores(self):
        text = "id,p2mm,p425,p075,ll,pl\na,1_00,5_0,1_0,3_0,2_0\nb,1_00,5_0,1_0,3_0,\x1c2_0\n"
        _, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert not problems
        assert as_samples(table) == [sf.SoilSample(100, 50, 10, 30, 20)] * 2

    @pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["p2mm", "p425", "p075", "ll", "pl", "pi"])
    def test_non_finite_cells_name_their_field(self, field, word):
        # Each row gives the same message on the fast path and, with a cell
        # ``float`` cannot read as it is, cell by cell.
        columns = ["p2mm", "p425", "p075", "ll", "pl", "pi"]
        cells = ["100", "50", "10", "30", "20", "10"]
        cells[columns.index(field)] = word
        slow = [*cells[:-1], "\x1c" + cells[-1]]
        text = f"id,{','.join(columns)}\na,{','.join(cells)}\nb,{','.join(slow)}\n"
        rows, _, problems, _ = cli.read_samples(io.StringIO(text))
        assert rows == []
        assert problems == [(n, f"non-finite {field} {float(word)}") for n in (1, 2)]

    def test_six_value_sum_may_overflow(self):
        # pi = ll - pl = 1.7e308, and the six values sum past the float range.
        text = "id,p2mm,p425,p075,ll,pl\na,100,50,10,1.7e308,0\n"
        _, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert not problems
        assert as_samples(table)[0] == sf.SoilSample(100, 50, 10, 1.7e308, 0)
        assert table["pi"][0] == 1.7e308

    def test_short_rows_with_and_without_a_pi_column(self):
        text = "id,p2mm,p425,p075,ll,pl,pi\na,100,50,10,30,20\nb,100,50,10\n"
        _, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert list(zip(table["id"], table["pi"])) == [("a", 10.0)]
        assert problems == [(2, "empty ll"), (2, "empty pl")]
        text = "id,p2mm,p425,p075,ll,pl\na,100,50,10,30,20\nb,100,50,10,30\n"
        _, table, problems, _ = cli.read_samples(io.StringIO(text))
        assert list(zip(table["id"], table["pi"])) == [("a", 10.0)]
        assert problems == [(2, "empty pl")]

    def test_csv_error_names_its_line(self):
        text = "id,p2mm,p425,p075,ll,pl\n\na,100,50,10,30,20\nb,100000,1\n"
        with csv_field_limit(4):
            with pytest.raises(cli.CliError) as exc:
                cli.read_samples(io.StringIO(text), "in.csv")
        assert exc.value.code == cli.EXIT_INPUT
        assert str(exc.value) == "cannot read in.csv: line 4: field larger than field limit (4)"


@contextlib.contextmanager
def csv_field_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# Headers with every required column, in any order, and some extras.
HEADERS = st.lists(
    st.sampled_from(["pi", " pi ", "class", "note", "", " ll"]), max_size=3
).flatmap(lambda extra: st.permutations([*cli.REQUIRED_COLUMNS, *extra]))
# Cells ``float`` reads only once stripped (U+001C-U+001F), underscores,
# the non-finite words, and values whose six-value sum overflows.
PADDED = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " ", "\x1c", "\x1d", "\x1e", "\x1f"]),
    st.integers(0, 100).map(str) | st.sampled_from(["1_0", "nan", "inf", "-inf", "1.7e308"]),
    st.sampled_from(["", " ", "\x1c", "\x1f"]),
)
# Rows of any length, and blank lines.
LINES = st.lists(
    st.lists(st.text(max_size=5) | st.integers(0, 100).map(str) | PADDED, max_size=10),
    max_size=6,
)


def dict_reader_view(text):
    """The read columns of each record as ``csv.DictReader`` sees them, as a CSV text."""
    reader = csv.DictReader(io.StringIO(text))
    reader.fieldnames = [f.strip() for f in reader.fieldnames]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(cli.READ_COLUMNS)
    for record in reader:
        writer.writerow([record.get(col) or "" for col in cli.READ_COLUMNS])
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(HEADERS, LINES)
def test_rows_read_as_dict_reader_reads_them(header, lines):
    # The positional reader gives the rows and diagnostics that reading
    # each record by column name through ``csv.DictReader`` gives.
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(lines)
    text = out.getvalue()
    fields = [f.strip() for f in header]
    if any(fields.count(col) > 1 for col in cli.READ_COLUMNS):
        with pytest.raises(cli.CliError, match="duplicate column"):
            cli.read_samples(io.StringIO(text))
        return
    rows, table, problems, has_class = cli.read_samples(io.StringIO(text))
    assert has_class == ("class" in fields)
    view_rows, view_table, view_problems, _ = cli.read_samples(io.StringIO(dict_reader_view(text)))
    assert (rows, table, problems) == (view_rows, view_table, view_problems)
    # ``repr`` also tells -0.0 from 0.0.
    assert signed(rows, table, problems) == signed(*cell_by_cell(dict_reader_view(text)))


def signed(rows, table, problems):
    """The text of what ``read_samples`` read, columns in name order: it tells -0.0 from 0.0."""
    return repr((rows, sorted(table.items()), problems))


def cell_by_cell(text):
    """What ``read_samples`` reads, stripping and converting every cell on its own.

    Returns the row numbers, the table and the diagnostics.
    """
    reader = csv.DictReader(io.StringIO(text))
    rows, ids, samples, labels, problems = [], [], [], [], []
    for n, record in enumerate(reader, start=1):
        values, bad = [], False
        for col in ("p2mm", "p425", "p075", "ll", "pl", "pi"):
            cell = record[col].strip()
            if cell == "" and col == "pi":
                values.append(None)
            elif cell == "":
                problems.append((n, f"empty {col}"))
                bad = True
            else:
                try:
                    values.append(float(cell))
                except ValueError:
                    problems.append((n, f"non-numeric {col}: {cell!r}"))
                    bad = True
        if bad:
            continue
        try:
            sample = sf.SoilSample(*values)
        except sf.SampleError as exc:
            problems.append((n, str(exc)))
            continue
        rows.append(n)
        ids.append(record["id"].strip())
        samples.append(sample)
        labels.append(record["class"].strip() or None)
    return rows, sample_table(ids, samples, labels), problems


def good_cells(rng, has_pi, huge=False):
    """The numeric cells of a good row: some spaced, some -0, and with ``huge``,
    some whose six values sum past the float range."""
    p075, p425, p2mm = sorted(round(rng.uniform(0, 100), rng.choice([0, 1, 3])) for _ in range(3))
    ll = rng.choice([round(rng.uniform(0, 100), 1), 1.7e308 if huge else 50.0])
    pl = rng.choice([0.0, round(rng.uniform(0, min(ll, 100)), 1)])
    cells = [str(x) for x in (p2mm, p425, p075, ll, pl)]
    if p075 == 0 and rng.random() < 0.5:
        cells[2] = "-0"
    if rng.random() < 0.1:
        cells[0] = f" {cells[0]} "
    if has_pi:
        # An empty pi cell is ll - pl.
        cells.append(rng.choice(["", str(ll - pl)]))
    return cells


def bad_cells(rng, has_pi, kind):
    """The numeric cells of a row that ``read_samples`` reports, as ``kind`` makes it bad."""
    cells = good_cells(rng, has_pi)
    k = rng.randrange(len(cells))
    if kind == "empty":
        cells[rng.randrange(5)] = ""
    elif kind == "non-numeric":
        cells[k] = rng.choice(["x", "1.5.", "--1", "0x10"])
    elif kind == "non-finite":
        cells[k] = rng.choice(["nan", "inf", "-inf", "1e400"])
    elif kind == "pi-overflows":
        cells[3:] = ["1.7e308", "-1.7e308", ""][: len(cells) - 3]
    elif kind == "sieve" and rng.random() < 0.5:
        cells[:2] = ["10", "20"]
    elif kind == "sieve":
        cells[rng.randrange(3)] = rng.choice(["-1", "100.5", "-0.001"])
    elif kind == "negative-pi":
        if has_pi and rng.random() < 0.5:
            cells[5] = "-2"
        else:
            cells[3:5] = ["10", "20.5"]
            cells[5:] = [""] * (len(cells) - 5)
    elif kind == "short":
        cells = cells[: rng.randrange(5)]
    return cells


BAD_KINDS = ["empty", "non-numeric", "non-finite", "pi-overflows", "sieve", "negative-pi", "short"]


def assert_only_bad_rows_are_reread(has_pi, bad, seed, huge=False, n=None):
    """Read a file of ``n`` rows, a few hundred if not given, with ``bad`` rows (index: kind) among good ones.

    A chunk that holds a bad row fails the column checks, and only such
    chunks are read again, row by row, whole: each bad row gets today's
    diagnostics, in row order.  Good rows include long rows, spaced cells,
    -0, empty pi cells and, with ``huge``, six-value sums past the float
    range, which may send a chunk without a bad row through the row-by-row
    read too; blank lines are scattered among the rows.
    """
    rng = random.Random(seed)
    if n is None:
        n = rng.randrange(300, 400)
    lines = ["id,p2mm,p425,p075,ll,pl" + (",pi" if has_pi else "")]
    for i in range(n):
        lines += [""] * (rng.random() < 0.05)
        kind = bad.get(i)
        cells = bad_cells(rng, has_pi, kind) if kind else good_cells(rng, has_pi, huge)
        long = ["extra", "1"] if rng.random() < 0.05 and len(cells) >= 5 + has_pi else []
        lines.append(",".join([f"r{i}", *cells, *long]))
    text = "\n".join(lines) + "\n"

    with mock.patch.object(cli, "_read_row", wraps=cli._read_row) as read_row:
        rows, table, problems, _ = cli.read_samples(io.StringIO(text))
    reread = [call.args[0] for call in read_row.call_args_list]
    size = cli.CHUNK_ROWS
    chunks = sorted({(row - 1) // size for row in reread})
    assert reread == [
        row for chunk in chunks for row in range(chunk * size + 1, min(chunk * size + size, n) + 1)
    ]
    bad_chunks = {i // size for i in bad}
    assert bad_chunks <= set(chunks) if huge else bad_chunks == set(chunks)
    assert sorted({row for row, _ in problems}) == sorted(i + 1 for i in bad)
    assert len(rows) == n - len(bad)
    assert signed(rows, table, problems) == signed(*cell_by_cell(dict_reader_view(text)))


@settings(max_examples=40, deadline=None)
@given(
    st.booleans(),
    st.dictionaries(st.integers(0, 299), st.sampled_from(BAD_KINDS), min_size=1, max_size=15),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_bulk_checks_flag_exactly_the_bad_rows(has_pi, bad, seed, huge):
    assert_only_bad_rows_are_reread(has_pi, bad, seed, huge)


@pytest.mark.parametrize("kind", BAD_KINDS)
@pytest.mark.parametrize("has_pi", [False, True], ids=["no-pi", "pi"])
def test_each_check_alone_flags_its_row(kind, has_pi):
    # One bad row: no other row fails a check and sets off the row-by-row pass.
    for seed in range(20):
        assert_only_bad_rows_are_reread(has_pi, {150: kind}, seed)


# (rows, bad row): first or last in a chunk, or alone in a one-row final chunk.
BOUNDARIES = {
    "first": (cli.CHUNK_ROWS, 0),
    "last": (cli.CHUNK_ROWS, cli.CHUNK_ROWS - 1),
    "first-of-two": (cli.CHUNK_ROWS + 1, 0),
    "last-of-first": (cli.CHUNK_ROWS + 1, cli.CHUNK_ROWS - 1),
    "alone-in-last": (cli.CHUNK_ROWS + 1, cli.CHUNK_ROWS),
}


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("kind", BAD_KINDS)
def test_bad_row_at_a_chunk_boundary(kind, boundary):
    n, index = BOUNDARIES[boundary]
    for seed in range(4):
        assert_only_bad_rows_are_reread(seed % 2 == 1, {index: kind}, seed, n=n)


def test_blank_pi_cells_stay_on_the_bulk_path():
    # An empty pi cell among numeric ones is ll - pl, read with its column.
    text = "id,p2mm,p425,p075,ll,pl,pi\n" + "".join(
        f"r{i},100,50,10,30,{i % 20},{['', ' ', '5'][i % 3]}\n" for i in range(300)
    )
    with mock.patch.object(cli, "_read_row", wraps=cli._read_row) as read_row:
        rows, table, problems, _ = cli.read_samples(io.StringIO(text))
    assert read_row.call_count == 0
    assert table["pi"][:4] == [30.0, 29.0, 5.0, 27.0]
    assert signed(rows, table, problems) == signed(*cell_by_cell(dict_reader_view(text)))


def test_clean_file_builds_no_soil_sample(tmp_path, capsys, monkeypatch):
    # A clean file is read, checked and classified as columns; only the
    # rows of a chunk that a column check fails become ``SoilSample``s.
    built = []
    new = sf.SoilSample.__new__

    def counting_new(cls, *args, **kwargs):
        sample = new(cls, *args, **kwargs)
        built.append(sample)
        return sample

    monkeypatch.setattr(sf.SoilSample, "__new__", counting_new)
    text = golden_corpus_csv()
    rows, _, problems, _ = cli.read_samples(io.StringIO(text))
    assert (len(rows), problems) == (300, [])
    path = tmp_path / "clean.csv"
    path.write_text(text)
    for mode in (["classify"], ["classify", "--format", "json"], ["classify", "--crisp"]):
        code, out, _ = run([*mode, str(path)], capsys)
        assert code == 0 and out
    assert built == []
    # The counter does see a failed chunk: one cell ``float`` reads only
    # stripped sends each row of its chunk through ``SoilSample``.
    padded = text.replace("\nG007,", "\nG007,\x1c", 1)
    rows, _, problems, _ = cli.read_samples(io.StringIO(padded))
    assert (len(rows), problems, len(built)) == (300, [], cli.CHUNK_ROWS)


class TestClassifyCommand:
    def test_paper_preset_winners(self, fixture_csv, capsys):
        code, out, _ = run(["classify", fixture_csv], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert rows[0][:5] == ["id", "winner", "rating", "tie", "tied_with"]
        winners = [r[1] for r in rows[1:]]
        assert winners == ["A-2-6", "A-4", "A-7-6", "A-3", "A-6", "A-2-4"]

    def test_crisp_winners(self, fixture_csv, capsys):
        code, out, _ = run(["classify", "--crisp", fixture_csv], capsys)
        assert code == 0
        winners = [r[1] for r in csv_rows(out)[1:]]
        assert winners == ["A-2-6", "A-4", "A-7-6", "A-2-4", "A-6", "A-1-a"]

    def test_calibrated_winners(self, fixture_csv, capsys):
        code, out, _ = run(
            ["classify", "--preset", "calibrated", fixture_csv], capsys
        )
        winners = [r[1] for r in csv_rows(out)[1:]]
        assert winners == ["A-2-4", "A-4", "A-7-6", "A-2-4", "A-6", "A-1-a"]

    def test_winners_match_library(self, fixture_csv, capsys, fixtures, paper_preset):
        _, out, _ = run(["classify", fixture_csv], capsys)
        cli_winners = [r[1] for r in csv_rows(out)[1:]]
        lib_winners = [
            sf.classify_hrb(fx.sample, paper_preset).subgroup for fx in fixtures
        ]
        assert cli_winners == lib_winners

    def test_tie_and_a7_columns(self, fixture_csv, capsys):
        _, out, _ = run(["classify", fixture_csv], capsys)
        rows = csv_rows(out)
        header, first, third = rows[0], rows[1], rows[3]
        assert first[header.index("tie")] == "true"
        assert first[header.index("tied_with")] == "A-2-6|A-2-7"
        assert third[header.index("a7_ll")] == "65"
        assert third[header.index("a7_pi")] == "40"
        assert first[header.index("a7_ll")] == ""

    def test_json_output(self, fixture_csv, capsys):
        code, out, _ = run(["classify", "--format", "json", fixture_csv], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rules"] == "paper"
        assert payload["aggregator"] == "mean"
        results = payload["results"]
        assert [r["winner"] for r in results] == [
            "A-2-6", "A-4", "A-7-6", "A-3", "A-6", "A-2-4"
        ]
        assert results[0]["tie"] is True
        assert results[0]["tied"] == ["A-2-6", "A-2-7"]
        assert results[2]["a7"] == {"ll": 65.0, "pi": 40.0}
        assert results[2]["scores"]["A-7"] == 0.8

    def test_deterministic_bytes(self, fixture_csv, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code = cli.main(
                ["classify", "--format", "json", fixture_csv, "-o", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_csv(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\n")
        code, out, _ = run(["classify", str(path)], capsys)
        assert code == 0
        assert len(csv_rows(out)) == 1  # header only

    def test_unreadable_input(self, capsys):
        code, _, err = run(["classify", "/nonexistent/nope.csv"], capsys)
        assert code == cli.EXIT_INPUT
        assert "cannot read" in err

    def test_unwritable_output(self, fixture_csv, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "out.csv"
        code, out, err = run(["classify", fixture_csv, "-o", str(target)], capsys)
        assert code == cli.EXIT_INPUT and out == ""
        assert err.startswith(f"soilfuzz: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_unencodable_stdout_is_an_output_error(self, tmp_path, capsys, monkeypatch):
        # One row, and rows over 64 KiB whose one unencodable id lies past
        # the first WRITE_CHARS characters: stdout gets no byte of either.
        encodable = "n\u00e9,100,100,30,32,21\n" * (cli.WRITE_CHARS // 10)
        for rows in ["", encodable]:
            path = tmp_path / "ids.csv"
            path.write_text(
                f"id,p2mm,p425,p075,ll,pl\n{rows}n\u00e9\u2713,100,100,30,32,21\n", encoding="utf-8"
            )
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="latin-1")
            monkeypatch.setattr(sys, "stdout", stdout)
            code = cli.main(["classify", "--crisp", str(path)])
            err = capsys.readouterr().err
            assert code == cli.EXIT_INPUT
            assert err.startswith(
                "soilfuzz: cannot write <stdout>: 'latin-1' codec can't encode character '\\u2713'"
            )
            assert stdout.buffer.getvalue() == b""

    def test_failed_stdout_flush_is_an_output_error(self, fixture_csv, capsys, monkeypatch):
        # Output that fits the buffer fails only when it is flushed.  This
        # stdout has no file descriptor to point at the null device.
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class Full(io.RawIOBase):
            failing = True

            def writable(self):
                return True

            def write(self, data):
                if self.failing:
                    raise full
                return len(data)

        raw = Full()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(raw)))
        code = cli.main(["classify", fixture_csv])
        raw.failing = False  # so the wrapper's flush when it is collected succeeds
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"soilfuzz: cannot write <stdout>: {full}\n"

    @pytest.mark.parametrize("copies", [1, 300], ids=["fits-the-buffer", "over-64KiB"])
    def test_closed_stdout_pipe_is_one_line_of_stderr(self, tmp_path, capsys, copies):
        # Into a pipe nobody reads, from a buffered stdout: output that fits
        # the buffer fails at the flush, more than a pipe holds (64 KiB) at
        # the write.  The flush at exit must stay silent after either.
        path = tmp_path / "rows.csv"
        header, *rows = FIXTURE_CSV.splitlines(keepends=True)
        path.write_text(header + "".join(rows) * copies)
        code, out, _ = run(["classify", str(path)], capsys)
        assert code == 0 and (len(out.encode()) > 64 * 1024) == (copies > 1)
        package = str(Path(cli.__file__).resolve().parents[1])
        path_list = [package, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_list))}
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "soilfuzz.cli", "classify", str(path)],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert done.returncode == cli.EXIT_INPUT
        assert done.stderr.startswith("soilfuzz: cannot write <stdout>: ")
        assert done.stderr.count("\n") == 1

    def test_invalid_rule_file(self, fixture_csv, tmp_path, capsys):
        bad = tmp_path / "bad.frules"
        bad.write_text("RULE R1: p2mm IS {} => A-3\n")
        code, _, err = run(
            ["classify", "--rules", str(bad), fixture_csv], capsys
        )
        assert code == cli.EXIT_RULES
        assert "empty descriptor set" in err

    def test_class_named_twice_is_a_rule_file_error(self, fixture_csv, tmp_path, capsys):
        # Its scores would get two CSV columns, and every row one cell too few.
        rules = tmp_path / "twice.frules"
        rules.write_text(
            "CLASSES A-4, A-7, A-4\n"
            "RULE R1: p075 IS {VH} => A-4\n"
            "RULE R2: p075 IS {VVH, VVVH} => A-7\n"
        )
        code, out, err = run(["classify", "--rules", str(rules), fixture_csv], capsys)
        assert code == cli.EXIT_RULES and out == ""
        assert err == (
            f"{rules}:1:19: duplicate class A-4 in CLASSES header\n"
            f"soilfuzz: invalid rule file {rules}\n"
        )

    def test_bad_rows_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\na,50,60,10,30,20\n")
        code, _, err = run(["classify", str(path)], capsys)
        assert code == cli.EXIT_ROWS
        assert "row 1" in err

    def test_skip_bad_rows(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,p2mm,p425,p075,ll,pl\n"
            "a,50,60,10,30,20\n"
            "b,100,80,40,25,17\n"
        )
        code, out, err = run(["classify", "--skip-bad-rows", str(path)], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 2 and rows[1][0] == "b"

    @pytest.mark.parametrize("mode", [[], ["--crisp"]])
    def test_non_finite_cells_are_row_diagnostics(self, mode, tmp_path, capsys):
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            "id,p2mm,p425,p075,ll,pl\n"
            "a,100,100,92,nan,25\n"
            "b,100,100,92,inf,25\n"
            "c,100,100,92,65,25\n"
        )
        code, out, err = run(["classify", *mode, str(path)], capsys)
        assert code == cli.EXIT_ROWS and out == ""
        assert "row 1: non-finite ll nan" in err
        assert "row 2: non-finite ll inf" in err

        code, out, _ = run(
            ["classify", *mode, "--format", "json", "--skip-bad-rows", str(path)],
            capsys,
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert [r["id"] for r in payload["results"]] == ["c"]

    def test_rules_file_equivalent_to_preset(
        self, fixture_csv, tmp_path, capsys, variables, paper_preset
    ):
        exported = tmp_path / "export.frules"
        exported.write_text(sf.serialize(paper_preset.rulebase, variables))
        _, out_preset, _ = run(["classify", fixture_csv], capsys)
        _, out_rules, _ = run(
            ["classify", "--rules", str(exported), fixture_csv], capsys
        )
        assert out_preset == out_rules


# A-7-6 is never split, and X has no M145 rating.  p075 = 55 sits halfway
# between the VH and VVH centers, and at p075 = 40.0165 the X score is
# 0.99945, which ``round`` alone would print as 0.9994.
EDGE_RULES = """\
CLASSES A-7-6, X
RULE R1: p075 IS {VVH, VVVH} => A-7-6
RULE R2: p075 IS {VH} => X
"""


class TestClassifyCsvCells:
    @pytest.fixture
    def edge_rules(self, tmp_path):
        path = tmp_path / "edge.frules"
        path.write_text(EDGE_RULES)
        return str(path)

    def classify(self, rows, rules, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\n" + "".join(f"{r}\n" for r in rows))
        code, out, err = run(["classify", "--rules", rules, str(path)], capsys)
        assert code == 0 and err == ""
        header, *records = csv_rows(out)
        assert header == [
            "id", "winner", "rating", "tie", "tied_with", "A-7-6", "X", "a7_ll", "a7_pi"
        ]
        return records

    def test_a7_cells_follow_the_subgroup_name(self, edge_rules, tmp_path, capsys):
        records = self.classify(
            ["a,100,100,100,65,25", "b,100,100,40,30,20"], edge_rules, tmp_path, capsys
        )
        assert records == [
            ["a", "A-7-6", "fair to poor", "false", "", "1.0000", "0.0000", "65", "40"],
            ["b", "X", "", "false", "", "0.0000", "1.0000", "", ""],
        ]

    def test_tie_names_every_top_class(self, edge_rules, tmp_path, capsys):
        records = self.classify(["t,100,100,55,50,20"], edge_rules, tmp_path, capsys)
        assert records == [
            ["t", "A-7-6", "fair to poor", "true", "A-7-6|X", "0.5000", "0.5000", "50", "30"],
        ]

    def test_negative_zero_limit_prints_as_written(self, edge_rules, tmp_path, capsys):
        # -0.0 == 0.0, so a cell cache keyed on the value would print "0" twice.
        records = self.classify(
            ["o,100,100,100,0,0", "z,100,100,100,-0,0"], edge_rules, tmp_path, capsys
        )
        assert [r[-2:] for r in records] == [["0", "0"], ["-0", "-0"]]

    def test_scores_next_to_a_half_point_round_half_up(self, edge_rules, tmp_path, capsys):
        records = self.classify(
            ["x,100,100,40.0165,30,20", "y,100,100,40.0165,30,20"], edge_rules, tmp_path, capsys
        )
        sample = sf.SoilSample(100, 100, 40.0165, 30, 20)
        rb = sf.parse_rules(EDGE_RULES, sf.load_variables())
        score = sf.classify_hrb(sample, rb).report.scores["X"]
        assert abs(abs(score - round(score, 4)) - 5e-5) <= 1e-9
        assert f"{round(score, 4):.4f}" == "0.9994"
        assert [r[5:7] for r in records] == [["0.0006", "0.9995"]] * 2


class TestMembershipsCommand:
    EXPECTED_P075 = [
        ["0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0.2667", "0.7333"],
        ["0", "0.6", "0.4", "0", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0.7333", "0.2667"],
        ["0", "0", "0.8", "0.2", "0", "0", "0", "0", "0", "0", "0"],
    ]
    EXPECTED_PI_FROM_PL = [
        ["0", "0", "0.2667", "0.7333", "0", "0", "0"],
        ["0", "0", "0.5333", "0.4667", "0", "0", "0"],
        ["0", "0", "0", "1", "0", "0", "0"],
        ["0", "0", "0.6", "0.4", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0", "0"],
        ["0", "0", "0.4", "0.6", "0", "0", "0"],
    ]

    def test_p075_grid(self, fixture_csv, capsys):
        code, out, _ = run(
            ["memberships", "--variable", "p075", fixture_csv], capsys
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["variable", "id", "VVVL", "VVL", "VL", "L", "LM", "M",
                           "MH", "H", "VH", "VVH", "VVVH"]
        assert [r[2:] for r in rows[1:]] == self.EXPECTED_P075

    def test_pi_grid_from_plastic_limit(self, fixture_csv, capsys):
        code, out, _ = run(
            ["memberships", "--variable", "pi", "--pi-source", "pl", fixture_csv],
            capsys,
        )
        rows = csv_rows(out)
        assert [r[2:] for r in rows[1:]] == self.EXPECTED_PI_FROM_PL

    def test_all_variables_blocks(self, fixture_csv, capsys):
        _, out, _ = run(["memberships", fixture_csv], capsys)
        rows = csv_rows(out)
        headers = [r for r in rows if r[0] == "variable"]
        assert len(headers) == 5
        assert len(rows) == 5 * 7  # five blocks of header + six rows

    @pytest.mark.parametrize("name", ["foo", ""])
    def test_unknown_variable_exits_2(self, fixture_csv, capsys, name):
        # An empty name is a name like any other, not "every variable".
        code, out, err = run(["memberships", "--variable", name, fixture_csv], capsys)
        assert (code, out, err) == (cli.EXIT_INPUT, "", f"soilfuzz: unknown variable {name}\n")

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["csv", "json"])
    @pytest.mark.parametrize("ladders", ["", "foo; A, B; 0, 10; 0, 100\n"], ids=["empty", "foo"])
    def test_no_property_ladder_exits_2(self, fixture_csv, tmp_path, capsys, monkeypatch, fmt, ladders):
        # A variables file without one HRB-property ladder is an error, not an empty table.
        (tmp_path / "hrb-variables.txt").write_text(ladders)
        monkeypatch.setenv("SOILFUZZ_PRESET_DIR", str(tmp_path))
        code, out, err = run(["memberships", *fmt, fixture_csv], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == (
            f"soilfuzz: hrb-variables.txt in {tmp_path} has no ladder for any of "
            "p2mm, p425, p075, ll, pi\n"
        )

    @pytest.mark.parametrize("ladders", ["", "foo; A, B; 0, 10; 0, 100\n"], ids=["empty", "foo"])
    def test_induce_without_a_property_ladder_exits_2(
        self, labeled_csv, tmp_path, capsys, monkeypatch, ladders
    ):
        # induce makes memberships' check before it builds a rule.
        (tmp_path / "hrb-variables.txt").write_text(ladders)
        monkeypatch.setenv("SOILFUZZ_PRESET_DIR", str(tmp_path))
        code, out, err = run(["induce", "--seed", "1", "--iters", "3", labeled_csv], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == (
            f"soilfuzz: hrb-variables.txt in {tmp_path} has no ladder for any of "
            "p2mm, p425, p075, ll, pi\n"
        )

    def test_single_value_at_center(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\nz,25,20,10,30,20\n")
        _, out, _ = run(["memberships", "--variable", "p2mm", str(path)], capsys)
        rows = csv_rows(out)
        assert rows[1][2:] == ["0", "0", "1", "0", "0"]

    def test_json_format(self, fixture_csv, capsys):
        _, out, _ = run(
            ["memberships", "--variable", "p075", "--format", "json", fixture_csv],
            capsys,
        )
        payload = json.loads(out)
        table = payload["tables"][0]
        assert table["variable"] == "p075"
        assert table["rows"][2]["degrees"]["VVVH"] == 0.7333


class TestRulesCommand:
    def test_emits_canonical_preset(self, capsys, variables, paper_preset):
        code, out, _ = run(["rules", "--preset", "paper"], capsys)
        assert code == 0
        assert out == sf.serialize(paper_preset.rulebase, variables)

    def test_unwritable_output(self, tmp_path, capsys):
        code, out, err = run(["rules", "-o", str(tmp_path)], capsys)
        assert code == cli.EXIT_INPUT and out == ""
        assert err.startswith(f"soilfuzz: cannot write {tmp_path}: ")
        assert err.count("\n") == 1

    def test_round_trips_custom_file(self, tmp_path, capsys, variables):
        path = tmp_path / "tiny.frules"
        path.write_text("RULE R9: p2mm IS {VH,VL} => A-3\n")
        code, out, _ = run(["rules", "--rules", str(path)], capsys)
        assert code == 0
        assert out == "CLASSES A-3\nRULE R9: p2mm IS {VL, VH} => A-3\n"


class TestPresetDirOverride:
    def test_env_var_redirects_preset_loading(
        self, fixture_csv, tmp_path, capsys, monkeypatch
    ):
        from importlib import resources

        src = resources.files("soilfuzz").joinpath("presets")
        for name in ("hrb-variables.txt", "hrb-calibrated.frules"):
            (tmp_path / name).write_text(src.joinpath(name).read_text())
        (tmp_path / "hrb-paper.frules").write_text(
            "RULE R1: p2mm IS {VL, L, M, H, VH} => A-3\n"
        )
        monkeypatch.setenv("SOILFUZZ_PRESET_DIR", str(tmp_path))
        code, out, _ = run(["classify", fixture_csv], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert all(r[1] == "A-3" for r in rows[1:])

    COMMANDS = [
        ["classify"],
        ["memberships"],
        ["rules"],
        ["induce", "--seed", "1", "--iters", "2"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    @pytest.mark.parametrize("broken", ["missing", "not-utf8"])
    def test_unreadable_variables_file_exits_2(
        self, labeled_csv, tmp_path, capsys, monkeypatch, command, broken
    ):
        if broken == "not-utf8":
            (tmp_path / "hrb-variables.txt").write_bytes(b"p2mm; \xff; 0, 1; 0, 1\n")
        monkeypatch.setenv("SOILFUZZ_PRESET_DIR", str(tmp_path))
        args = command if command == ["rules"] else [*command, labeled_csv]
        code, out, err = run(args, capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith(f"soilfuzz: cannot read hrb-variables.txt in {tmp_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("broken", ["missing", "not-utf8"])
    def test_crisp_reads_no_variables_file(
        self, labeled_csv, tmp_path, capsys, monkeypatch, fmt, broken
    ):
        # The crisp oracle reads no ladder, so a broken variables file is no error.
        args = ["classify", "--crisp", "--format", fmt, labeled_csv]
        code, shipped, err = run(args, capsys)
        assert (code, err) == (0, "")
        presets = tmp_path / "presets"
        presets.mkdir()
        if broken == "not-utf8":
            (presets / "hrb-variables.txt").write_bytes(b"p2mm; \xff; 0, 1; 0, 1\n")
        monkeypatch.setenv("SOILFUZZ_PRESET_DIR", str(presets))
        assert run(args, capsys) == (0, shipped, "")

    @pytest.mark.parametrize("command", [["classify"], ["rules"]], ids=lambda command: command[0])
    def test_undecodable_preset_exits_3(self, labeled_csv, tmp_path, capsys, monkeypatch, command):
        self.use_ladders(tmp_path, monkeypatch, lambda lines: lines)
        (tmp_path / "hrb-paper.frules").write_bytes(b"RULE R1: p2mm IS {VL} => A-\xff\n")
        args = command if command == ["rules"] else [*command, labeled_csv]
        code, out, err = run(args, capsys)
        assert (code, out) == (cli.EXIT_RULES, "")
        assert err.startswith("soilfuzz: cannot load preset paper: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    @staticmethod
    def use_ladders(tmp_path, monkeypatch, edit):
        """Point the presets at a variables file whose lines ``edit`` rewrites."""
        from importlib import resources

        src = resources.files("soilfuzz").joinpath("presets", "hrb-variables.txt")
        lines = edit(src.read_text().splitlines())
        (tmp_path / "hrb-variables.txt").write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("SOILFUZZ_PRESET_DIR", str(tmp_path))

    def test_extra_ladder_is_not_a_column(self, labeled_csv, tmp_path, capsys, monkeypatch):
        self.use_ladders(tmp_path, monkeypatch, lambda lines: [*lines, "foo; A, B; 0, 10; 0, 100"])
        code, out, err = run(["memberships", "--variable", "foo", labeled_csv], capsys)
        assert (code, out, err) == (cli.EXIT_INPUT, "", "soilfuzz: unknown variable foo\n")
        code, out, _ = run(["memberships", labeled_csv], capsys)
        assert code == 0
        tables = dict.fromkeys(r[0] for r in csv_rows(out) if r[0] != "variable")
        assert list(tables) == list(sf.hrb.VARIABLE_NAMES)
        # Induced rules name only the properties a sample has.
        code, out, _ = run(["induce", "--seed", "1", "--iters", "20", labeled_csv], capsys)
        assert code == 0 and "RULE" in out and "foo" not in out

    def test_rule_on_a_ladder_that_is_not_a_column_exits_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # Rules may name only the HRB properties, whatever rows the input holds.
        self.use_ladders(tmp_path, monkeypatch, lambda lines: [*lines, "cbr; L, H; 0, 10; 0, 10"])
        rules = tmp_path / "cbr.frules"
        rules.write_text("# cbr is not a sample column\nRULE R1: cbr IS {L} => A-1-a\n")
        in_domain = tmp_path / "in-domain.csv"
        in_domain.write_text("id,p2mm,p425,p075,ll,pl\ns,100,100,30,32,21\n")
        out_of_domain = tmp_path / "out-of-domain.csv"
        out_of_domain.write_text("id,p2mm,p425,p075,ll,pl\ns,100,100,30,150,21\n")
        for args in (
            ["classify", "--rules", str(rules), str(in_domain)],
            ["classify", "--skip-bad-rows", "--rules", str(rules), str(out_of_domain)],
            ["rules", "--rules", str(rules)],
        ):
            code, out, err = run(args, capsys)
            assert (code, out) == (cli.EXIT_RULES, ""), args
            assert err == (
                f"{rules}:2:10: unknown variable cbr\nsoilfuzz: invalid rule file {rules}\n"
            )

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    @pytest.mark.parametrize(
        "edit, error",
        [
            (
                lambda lines: [*lines, "p2mm; A, B; 0, 100; 0, 100"],
                "variables file line 9: duplicate variable p2mm",
            ),
            (
                lambda lines: [
                    "pi; VL, L, LM, M, MH, H, VH; 0, 5, nan, 25, 40, 55, 70; 0, 100"
                    if ln.startswith("pi;") else ln
                    for ln in lines
                ],
                "pi: centers must be finite",
            ),
            (
                lambda lines: [
                    "p2mm; A, B; 0, 10; 0" if ln.startswith("p2mm;") else ln for ln in lines
                ],
                "variables file line 4: domain needs 2 bounds, got 1",
            ),
        ],
        ids=["duplicate", "nan-center", "one-bound"],
    )
    def test_bad_ladder_exits_2(
        self, labeled_csv, tmp_path, capsys, monkeypatch, command, edit, error
    ):
        self.use_ladders(tmp_path, monkeypatch, edit)
        args = command if command == ["rules"] else [*command, labeled_csv]
        code, out, err = run(args, capsys)
        assert (code, out, err) == (cli.EXIT_INPUT, "", f"soilfuzz: {error}\n")

    def test_missing_ladder_is_neither_checked_nor_fuzzified(
        self, tmp_path, capsys, monkeypatch
    ):
        self.use_ladders(
            tmp_path, monkeypatch, lambda lines: [ln for ln in lines if not ln.startswith("pi;")]
        )
        # Every pi is outside the shipped pi ladder's domain.
        path = tmp_path / "high-pi.csv"
        header, *lines = LABELED_CSV.splitlines()
        path.write_text("\n".join([f"{header},pi", *(f"{ln},150" for ln in lines)]) + "\n")
        code, out, err = run(["memberships", "--variable", "p075", str(path)], capsys)
        assert code == 0 and err == ""
        assert [r[2:] for r in csv_rows(out)[1:]] == TestMembershipsCommand.EXPECTED_P075
        code, out, _ = run(["memberships", "--format", "json", str(path)], capsys)
        assert code == 0
        assert [t["variable"] for t in json.loads(out)["tables"]] == ["p2mm", "p425", "p075", "ll"]
        code, out, err = run(["memberships", "--variable", "pi", str(path)], capsys)
        assert (code, out, err) == (cli.EXIT_INPUT, "", "soilfuzz: unknown variable pi\n")
        code, out, err = run(["induce", "--seed", "1", "--iters", "20", str(path)], capsys)
        assert code == 0 and err.startswith("training accuracy: ")
        assert "RULE" in out and " pi IS" not in out


    def test_mean_adds_matches_left_to_right(self, tmp_path, capsys, monkeypatch):
        # On these ladders B's degree at x is x / 100, so X's matches are 0.1,
        # 0.2 and 0.3 and its mean ((0.1 + 0.2) + 0.3) / 3 is one bit above
        # Y's 0.2; a compensated sum gives one bit below, and Y, first in
        # class order, would win.
        lines = [f"{name}; A, B; 0, 100; 0, 100" for name in sf.hrb.VARIABLE_NAMES]
        (tmp_path / "hrb-variables.txt").write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("SOILFUZZ_PRESET_DIR", str(tmp_path))
        rules = tmp_path / "order.frules"
        rules.write_text(
            "CLASSES Y, X\n"
            "RULE R1: p075 IS {B} AND p425 IS {B} AND p2mm IS {B} => X\n"
            "RULE R2: p425 IS {B} => Y\n"
        )
        # A batch of one row and a batch of three.
        for n in (1, 3):
            path = tmp_path / f"rows{n}.csv"
            path.write_text("id,p2mm,p425,p075,ll,pl\n" + "s,30,20,10,25,17\n" * n)
            code, out, err = run(["classify", "--rules", str(rules), str(path)], capsys)
            assert (code, err) == (0, "")
            assert [r[1:5] for r in csv_rows(out)[1:]] == [["X", "", "false", ""]] * n


class TestInduceCommand:
    def test_induces_and_reports_accuracy(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "induced.frules"
        code = cli.main(
            ["induce", "--seed", "42", "--iters", "2000", labeled_csv, "-o", str(out)]
        )
        _, err = capsys.readouterr()
        assert code == 0
        assert "training accuracy:" in err
        text = out.read_text()
        assert text.startswith("# induced: seed=42")
        reported = float(text.splitlines()[1].split(":")[1])
        assert reported >= 5 / 6

    def test_zero_iterations_smoke(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "initial.frules"
        code = cli.main(
            ["induce", "--seed", "9", "--iters", "0", labeled_csv, "-o", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert "# training accuracy:" in out.read_text()

    def test_output_parses_back(self, labeled_csv, tmp_path, capsys, variables):
        out = tmp_path / "induced.frules"
        cli.main(["induce", "--seed", "7", "--iters", "200", labeled_csv,
                  "-o", str(out)])
        capsys.readouterr()
        rb = sf.parse_rules(out.read_text(), variables)
        assert len(rb.rules) == 6

    def test_deterministic(self, labeled_csv, tmp_path, capsys):
        a, b = tmp_path / "a.frules", tmp_path / "b.frules"
        for out in (a, b):
            cli.main(["induce", "--seed", "5", "--iters", "150", labeled_csv,
                      "-o", str(out)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_exits_2(self, labeled_csv, capsys):
        # ``random.Random`` seeds with ``abs(seed)``, so ``--seed -5`` would
        # write seed 5's rules under a ``seed=-5`` header.
        code, out, err = run(["induce", "--seed", "-5", "--iters", "40", labeled_csv], capsys)
        assert (code, out, err) == (cli.EXIT_INPUT, "", "soilfuzz: seed must not be negative\n")

    def test_missing_class_column(self, fixture_csv, capsys):
        code, _, err = run(["induce", "--seed", "1", fixture_csv], capsys)
        assert code == cli.EXIT_ROWS
        assert "class" in err

    def test_unwritable_class_labels_are_row_diagnostics(self, tmp_path, capsys):
        # A rule file names classes with word tokens: these three labels
        # would give an induced file that ``classify --rules`` rejects.
        path = tmp_path / "labels.csv"
        path.write_text(
            "id,p2mm,p425,p075,ll,pl,class\n"
            "1,100,100,30,32,21,x y\n"
            "2,100,80,40,25,17,A-7\n"
            '3,100,100,92,65,25,"#1,\nA"\n'
            "4,100,76,7,19,16,A-3\n"
            "5,38,30,11,23,19,A-1-\u00e9\n",
            encoding="utf-8",
        )
        code, out, err = run(["induce", "--seed", "0", "--iters", "5", str(path)], capsys)
        assert code == cli.EXIT_ROWS and out == ""
        assert err.splitlines() == [
            "row 1: class 'x y' cannot be written to a rule file",
            "row 3: class '#1,\\nA' cannot be written to a rule file",
            "row 5: class 'A-1-\u00e9' cannot be written to a rule file",
            f"soilfuzz: 3 bad row(s) in {path}",
        ]
        flags = ["--skip-bad-rows", "--seed", "0", "--iters", "5"]
        code, out, _ = run(["induce", *flags, str(path)], capsys)
        assert code == 0
        assert out.splitlines()[2] == "CLASSES A-7, A-3"
        rules = tmp_path / "induced.frules"
        rules.write_text(out)
        code, out, _ = run(["classify", "--rules", str(rules), str(path)], capsys)
        assert code == 0 and len(csv_rows(out)) == 6


OUT_OF_DOMAIN_CSV = """\
id,p2mm,p425,p075,ll,pl,class
a,100,100,92,120,25,A-7
b,100,100,92,65,25,A-7
c,100,76,7,19,16,A-3
"""

OUT_OF_DOMAIN_MODES = [
    ["classify"],
    ["classify", "--format", "json"],
    ["memberships"],
    ["memberships", "--variable", "p075"],  # ll is checked though not listed
    ["induce", "--seed", "1", "--iters", "5"],
]


class TestOutOfDomainRows:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "ood.csv"
        path.write_text(OUT_OF_DOMAIN_CSV)
        return str(path)

    @pytest.mark.parametrize("mode", OUT_OF_DOMAIN_MODES, ids=" ".join)
    def test_row_diagnostic_exit_4(self, mode, path, capsys):
        code, out, err = run([*mode, path], capsys)
        assert code == cli.EXIT_ROWS and out == ""
        assert "row 1: ll: value 120.0 outside domain [0.0, 100.0]" in err
        assert "1 bad row(s)" in err

    @pytest.mark.parametrize("mode", OUT_OF_DOMAIN_MODES, ids=" ".join)
    def test_skip_bad_rows(self, mode, path, capsys):
        code, out, err = run([*mode, "--skip-bad-rows", path], capsys)
        assert code == 0
        assert "row 1: ll: value 120.0 outside domain" in err
        if mode[0] == "induce":
            assert sf.parse_rules(out, sf.load_variables()).rules
        elif mode[0] == "memberships":
            assert {r[1] for r in csv_rows(out) if r[0] != "variable"} == {"b", "c"}
        elif "json" in mode:
            assert [r["id"] for r in json.loads(out)["results"]] == ["b", "c"]
        else:
            assert [r[0] for r in csv_rows(out)[1:]] == ["b", "c"]

    @pytest.mark.parametrize("mode", OUT_OF_DOMAIN_MODES, ids=" ".join)
    def test_first_bad_value_named_once(self, mode, tmp_path, capsys):
        # ll and pi (250 - 20) are both outside [0, 100]; ll is checked first.
        path = tmp_path / "both.csv"
        path.write_text(
            "id,p2mm,p425,p075,ll,pl,class\n"
            "a,100,100,92,250,20,A-7\n"
            "c,100,76,7,19,16,A-3\n"
        )
        code, out, err = run([*mode, str(path)], capsys)
        assert code == cli.EXIT_ROWS and out == ""
        assert err.splitlines() == [
            "row 1: ll: value 250.0 outside domain [0.0, 100.0]",
            f"soilfuzz: 1 bad row(s) in {path}",
        ]

    def test_crisp_unchanged(self, path, capsys):
        code, out, err = run(["classify", "--crisp", path], capsys)
        assert code == 0 and err == ""
        assert csv_rows(out)[1:] == [
            ["a", "A-7-6", "fair to poor", "120", "95"],
            ["b", "A-7-6", "fair to poor", "65", "40"],
            ["c", "A-2-4", "excellent to good", "", ""],
        ]


MIXED_BAD_ROWS_CSV = """\
id,p2mm,p425,p075,ll,pl,class
a,100,100,92,nan,25,A-7
b,100,100,92,120,25,A-7
c,100,76,7,19,16,A-3
"""


class TestMixedBadRows:
    """A bad cell and an out-of-domain value are reported in one pass."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(MIXED_BAD_ROWS_CSV)
        return str(path)

    @pytest.mark.parametrize("mode", OUT_OF_DOMAIN_MODES, ids=" ".join)
    def test_both_rows_named_in_order(self, mode, path, capsys):
        code, out, err = run([*mode, path], capsys)
        assert code == cli.EXIT_ROWS and out == ""
        assert err.splitlines() == [
            "row 1: non-finite ll nan",
            "row 2: ll: value 120.0 outside domain [0.0, 100.0]",
            f"soilfuzz: 2 bad row(s) in {path}",
        ]

    @pytest.mark.parametrize("mode", OUT_OF_DOMAIN_MODES, ids=" ".join)
    def test_skip_bad_rows_keeps_row_3(self, mode, path, capsys):
        code, out, err = run([*mode, "--skip-bad-rows", path], capsys)
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("row ")] == [
            "row 1: non-finite ll nan",
            "row 2: ll: value 120.0 outside domain [0.0, 100.0]",
        ]
        if mode[0] == "induce":
            assert sf.parse_rules(out, sf.load_variables()).class_order == ("A-3",)
        elif mode[0] == "memberships":
            assert {r[1] for r in csv_rows(out) if r[0] != "variable"} == {"c"}
        elif "json" in mode:
            assert [r["id"] for r in json.loads(out)["results"]] == ["c"]
        else:
            assert [r[0] for r in csv_rows(out)[1:]] == ["c"]


@st.composite
def index_properties(draw):
    """(p2mm, p425, p075, ll, pl) with ordered sieves and 0 <= pl <= ll <= 300."""
    p075, p425, p2mm = sorted(
        draw(st.lists(st.floats(0, 100), min_size=3, max_size=3))
    )
    ll = draw(st.floats(0, 300))
    return p2mm, p425, p075, ll, draw(st.floats(0, ll))


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    """A new path per example: truncating one file is slow on some file systems."""
    base = tmp_path_factory.mktemp("property")
    return (base / f"rows{i}.csv" for i in itertools.count())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(index_properties(), max_size=8),
    st.sampled_from([[], ["--pi-source", "pl"], ["--crisp"]]),
    st.booleans(),
)
def test_classify_is_total_over_valid_rows(csv_paths, samples, mode, skip):
    path = next(csv_paths)
    lines = ["id,p2mm,p425,p075,ll,pl"]
    lines += [f"s{i}," + ",".join(map(repr, values)) for i, values in enumerate(samples)]
    path.write_text("\n".join(lines) + "\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    flags = ["--skip-bad-rows"] if skip else []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["classify", *mode, *flags, str(path)])
    assert code in (0, cli.EXIT_ROWS)
    diagnostics = [line for line in stderr.getvalue().splitlines() if line.startswith("row ")]
    if skip or code == 0:
        assert code == 0
        records = csv_rows(stdout.getvalue())[1:]
        assert len(records) + len(diagnostics) == len(samples)


def ladder_points(var):
    """Centers, domain bounds, values beyond the end centers, ±0.0 and anything between."""
    c = var.centers
    return (
        st.sampled_from((*c, var.domain_min, var.domain_max, 0.0, -0.0))
        | st.floats(var.domain_min, c[0])
        | st.floats(c[-1], var.domain_max)
        | st.floats(var.domain_min, var.domain_max)
    )


OUTSIDE = st.floats(100, 1e6, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["pi", "pl"]))
def test_fuzzy_batch_equals_rows_added_one_by_one(variables, data, pi_source):
    # Some rows have ll, pi or pl outside its domain: ll is checked after
    # three sieves that fuzzify, and pi or pl last.
    point = {name: ladder_points(var) for name, var in variables.items()}
    rows, samples = [], []
    for n in range(1, data.draw(st.integers(0, 8)) + 1):
        p075, p425, p2mm = sorted(data.draw(point[name]) for name in ("p075", "p425", "p2mm"))
        ll, pi, pl = data.draw(point["ll"]), data.draw(point["pi"]), data.draw(point["pi"])
        outside = data.draw(st.sampled_from([None, None, "ll", "pi", "pl"]))
        if outside == "ll":
            ll = data.draw(OUTSIDE)
        elif outside == "pi":
            pi = data.draw(OUTSIDE)
        elif outside == "pl":
            pl = data.draw(OUTSIDE | st.floats(-1e6, 0, exclude_max=True))
        rows.append(n)
        samples.append(sf.SoilSample(p2mm, p425, p075, ll=ll, pl=pl, pi=pi))
    ids = [f"r{n}" for n in rows]
    table = sample_table(ids, samples, [None] * len(rows))
    args = types.SimpleNamespace(pi_source=pi_source, skip_bad_rows=True, input="in.csv")
    with contextlib.redirect_stderr(io.StringIO()):
        good, columns = cli._property_columns(args, rows, table, [], variables)
    batch = sf.rules._column_batch(columns, variables)

    # ``active_descriptors`` keeps the 0.0 degree at a center, as
    # ``active_columns`` does; membership vectors drop it.
    added, kept = [], []
    ladders = sf.hrb.property_ladders(variables)
    for row_id, sample in zip(ids, samples):
        values = sf.hrb._property_values(sample, pi_source, variables)
        try:
            pairs = {
                name: sf.fuzzy.active_descriptors(variables[name], value)
                for name, value in values.items()
            }
        except sf.FuzzificationError:
            continue
        added.append((ladders, pairs))
        kept.append((row_id, sample))
    assert good == sample_table(
        [row_id for row_id, _ in kept], [sample for _, sample in kept], [None] * len(kept)
    )
    expected = batch_added_one_by_one(added)
    if not added:
        # A batch of no rows holds one empty entry per variable, and still its
        # one ladder set, which rules are checked against.
        expected = expected._replace(index={name: {} for name in columns})
    assert (batch.size, batch.ladders, batch.index) == (
        expected.size, [ladders], expected.index
    )

    def signed(index):
        # ``float.hex`` tells -0.0 from 0.0, which compare equal.
        return {
            (var, label): (samples, [degree.hex() for degree in degrees])
            for var, entries in index.items()
            for label, (samples, degrees) in entries.items()
        }

    assert signed(batch.index) == signed(expected.index)


# Whole numbers land on ladder centers, where ties occur.
NUMBERS = st.integers(0, 100).map(float) | st.floats(0, 100)


@st.composite
def in_domain_properties(draw):
    """(p2mm, p425, p075, ll, pl) with ordered sieves and 0 <= pl <= ll <= 100."""
    p075, p425, p2mm = sorted(draw(st.lists(NUMBERS, min_size=3, max_size=3)))
    ll = draw(NUMBERS)
    return p2mm, p425, p075, ll, draw(st.integers(0, int(ll)).map(float) | st.floats(0, ll))


# A-7-5 and A-7-6 are never split; X has no M145 rating.
PROPERTY_RULES = """\
CLASSES A-2-4, A-7-5, A-7-6, X
RULE P1: p075 IS {VVVL, VVL, VL, L, LM, M, MH} AND ll IS {VL, L} => A-2-4
RULE P2: p075 IS {VH, VVH, VVVH} AND ll IS {MH, H, VH, VVH} AND pi IS {VL, L, LM} => A-7-5
RULE P3: p075 IS {VH, VVH, VVVH} AND ll IS {MH, H, VH, VVH} AND pi IS {M, MH, H, VH} => A-7-6
RULE P4: p075 IS {H, VH} => X
"""


def library_rows(samples, mode, variables, rules_path):
    """The classify CSV rows the library gives: the oracle of bench/checks.py."""
    from soilfuzz.render import fmt_degree, fmt_score

    crisp = "--crisp" in mode
    if not crisp:
        if "--rules" in mode:
            rb = sf.parse_rules(rules_path.read_text(), variables)
        else:
            rb = sf.load_preset(mode[mode.index("--preset") + 1], variables=variables)
        agg = sf.Aggregator(mode[mode.index("--agg") + 1])
        pi_source = mode[mode.index("--pi-source") + 1]
    rows = []
    for i, values in enumerate(samples):
        sample = sf.SoilSample(*values)
        if crisp:
            subgroup = sf.crisp_classify(sample)
            cells = [subgroup, sf.hrb.SUBGRADE_RATINGS[subgroup]]
        else:
            res = sf.classify_hrb(sample, rb, agg, pi_source, variables)
            subgroup, tie = res.subgroup, res.report.tie
            cells = [
                subgroup,
                res.rating,
                "true" if tie else "false",
                "|".join(res.report.tied) if tie else "",
                *map(fmt_score, res.report.scores.values()),
            ]
        a7 = subgroup.startswith("A-7")
        cells += [fmt_degree(sample.ll), fmt_degree(sample.pi)] if a7 else ["", ""]
        rows.append([f"s{i}", *cells])
    return rows


CLASSIFY_MODES = [["--crisp"]] + [
    [*rules, "--agg", agg, "--pi-source", pi_source]
    for rules in (["--preset", "paper"], ["--preset", "calibrated"], ["--rules", "PROPERTY"])
    for agg in ("min", "product", "mean")
    for pi_source in ("pi", "pl")
]


@settings(max_examples=300, deadline=None)
@given(st.lists(in_domain_properties(), max_size=8), st.sampled_from(CLASSIFY_MODES))
def test_classify_csv_rows_match_library(csv_paths, variables, samples, mode):
    path = next(csv_paths)
    rules = path.with_suffix(".frules")
    rules.write_text(PROPERTY_RULES)
    mode = [str(rules) if arg == "PROPERTY" else arg for arg in mode]
    lines = ["id,p2mm,p425,p075,ll,pl"]
    lines += [f"s{i}," + ",".join(map(repr, values)) for i, values in enumerate(samples)]
    path.write_text("\n".join(lines) + "\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["classify", *mode, str(path)]) == 0
    assert csv_rows(stdout.getvalue())[1:] == library_rows(samples, mode, variables, rules)


# E has no rule, X has two, and Y's one rule is A-2-4's, so Y ties with A-2-4
# wherever it scores.
RANK_RULES = """\
CLASSES E, A-2-4, X, Y, A-7
RULE T1: p075 IS {VVVL, VVL, VL, L} => A-2-4
RULE T2: ll IS {M, MH} => X
RULE T3: p075 IS {VH, VVH, VVVH} AND pi IS {M, MH} => X
RULE T4: p075 IS {VVVL, VVL, VL, L} => Y
RULE T5: ll IS {H, VH, VVH} AND pi IS {M, MH, H, VH} => A-7
"""
ONE_CLASS_RULES = """\
CLASSES X
RULE O1: p075 IS {VH, VVH, VVVH} AND ll IS {MH, H} => X
"""


def rank_samples(n=120):
    """Seeded (p2mm, p425, p075, ll, pl), every other one in whole units.

    The first matches no ``RANK_RULES`` antecedent under any aggregator.
    """
    rng = random.Random(3)
    samples = [(100.0, 50.0, 27.0, 20.0, 15.0)]
    for i in range(n):
        def draw(hi):
            return float(rng.randint(0, int(hi))) if i % 2 else rng.uniform(0, hi)
        p2mm = draw(100)
        p425 = draw(p2mm)
        p075 = draw(p425)
        ll = draw(100)
        samples.append((p2mm, p425, p075, ll, draw(ll)))
    return samples


class TestRankEdgeCases:
    def classify(self, tmp_path, capsys, variables, rules_text, agg, samples):
        path, rules = tmp_path / "rows.csv", tmp_path / "rank.frules"
        rules.write_text(rules_text)
        lines = ["id,p2mm,p425,p075,ll,pl"]
        lines += [f"s{i}," + ",".join(map(repr, values)) for i, values in enumerate(samples)]
        path.write_text("\n".join(lines) + "\n")
        mode = ["--rules", str(rules), "--agg", agg, "--pi-source", "pi"]
        code, out, err = run(["classify", *mode, str(path)], capsys)
        assert code == 0 and err == ""
        return csv_rows(out), library_rows(samples, mode, variables, rules)

    @pytest.mark.parametrize("agg", ["min", "product", "mean"])
    def test_two_rules_for_a_class_and_a_class_without_one(
        self, tmp_path, capsys, variables, agg
    ):
        samples = rank_samples()
        rows, expected = self.classify(tmp_path, capsys, variables, RANK_RULES, agg, samples)
        assert rows[0][5:-2] == ["E", "A-2-4", "X", "Y", "A-7"]
        assert rows[1:] == expected
        # The corpus has the shapes: E wins where every class scores 0, Y
        # ties with A-2-4, and A-7 wins and is split.
        winners = {row[1] for row in rows[1:]}
        assert {"E", "X", "A-2-4"} <= winners and winners & {"A-7-5", "A-7-6"}
        assert any(row[4] == "E|A-2-4|X|Y|A-7" for row in rows[1:])
        assert any(row[4].startswith("A-2-4|") and "Y" in row[4] for row in rows[1:])

    @pytest.mark.parametrize("agg", ["min", "product", "mean"])
    def test_one_class(self, tmp_path, capsys, variables, agg):
        samples = rank_samples()
        rows, expected = self.classify(tmp_path, capsys, variables, ONE_CLASS_RULES, agg, samples)
        assert rows[0] == ["id", "winner", "rating", "tie", "tied_with", "X", "a7_ll", "a7_pi"]
        assert rows[1:] == expected
        assert {(row[1], row[3], row[4]) for row in rows[1:]} == {("X", "false", "")}
        assert len({row[5] for row in rows[1:]}) > 2

    @pytest.mark.parametrize("mode", [[], ["--crisp"], ["--rules", "RANK"]])
    @pytest.mark.parametrize("text", [
        "id,p2mm,p425,p075,ll,pl\n",
        "id,p2mm,p425,p075,ll,pl\na,100,80,x,25,17\nb,10,80,40,25,17\nc,100,80,40,25,30\n",
    ], ids=["header-only", "every-row-dropped"])
    def test_no_rows_left(self, tmp_path, capsys, mode, text):
        path, rules = tmp_path / "rows.csv", tmp_path / "rank.frules"
        path.write_text(text)
        rules.write_text(RANK_RULES)
        mode = [str(rules) if arg == "RANK" else arg for arg in mode]
        args = ["classify", *mode, "--skip-bad-rows", str(path)]
        code, out, err = run(args, capsys)
        assert code == 0
        assert err.count("\n") == text.count("\n") - 1
        header = ["id", "winner", "rating"]
        if "--crisp" not in mode:
            classes = ["E", "A-2-4", "X", "Y", "A-7"] if "--rules" in mode else list(sf.CLASS_ORDER)
            header += ["tie", "tied_with", *classes]
        assert out == ",".join([*header, "a7_ll", "a7_pi"]) + "\n"
        code, out, _ = run([*args, "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["results"] == []

    def test_every_class_at_zero_ties_them_all(self, tmp_path, capsys):
        # Past p2mm's top center and at pi's LM center, every paper rule
        # matches some antecedent 0, so under min every class scores 0.
        path = tmp_path / "rows.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\nz,100,100,30,32,22\nw,38,30,11,23,19\n")
        code, out, _ = run(["classify", "--preset", "paper", "--agg", "min", str(path)], capsys)
        assert code == 0
        zero, other = csv_rows(out)[1:]
        assert zero[1:5] == ["A-1-a", "excellent to good", "true", "|".join(sf.CLASS_ORDER)]
        assert zero[5:-2] == ["0.0000"] * 11
        assert other[3] == "false"


FORMAT_MODES = [["--crisp"]] + [
    [*rules, "--agg", agg]
    for rules in (["--preset", "paper"], ["--preset", "calibrated"], ["--rules", "RANK"])
    for agg in ("min", "product", "mean")
]


@settings(max_examples=150, deadline=None)
@given(st.lists(in_domain_properties(), max_size=8), st.sampled_from(FORMAT_MODES))
def test_csv_and_json_agree(csv_paths, samples, mode):
    path = next(csv_paths)
    rules = path.with_suffix(".frules")
    rules.write_text(RANK_RULES)
    mode = [str(rules) if arg == "RANK" else arg for arg in mode]
    lines = ["id,p2mm,p425,p075,ll,pl"]
    lines += [f"s{i}," + ",".join(map(repr, values)) for i, values in enumerate(samples)]
    path.write_text("\n".join(lines) + "\n")
    outputs = []
    for fmt in ("csv", "json"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["classify", *mode, "--format", fmt, str(path)]) == 0
        outputs.append(stdout.getvalue())
    header, *rows = csv_rows(outputs[0])
    records = json.loads(outputs[1])["results"]
    assert len(rows) == len(records) == len(samples)
    for row, record in zip(rows, records):
        assert row[:3] == [record["id"], record["winner"], record["rating"]]
        if "--crisp" not in mode:
            assert row[3:5] == ["true" if record["tie"] else "false", "|".join(record["tied"])]
            assert list(record["scores"]) == header[5:-2]
            assert row[5:-2] == [f"{score:.4f}" for score in record["scores"].values()]
        a7 = record["a7"]
        limits = ["", ""] if a7 is None else [sf.render.fmt_degree(a7[k]) for k in ("ll", "pi")]
        assert row[-2:] == limits


ARBITRARY_MODES = [
    ["classify"],
    ["classify", "--crisp"],
    ["memberships", "--format", "json"],
    ["induce", "--seed", "0", "--iters", "3"],
]
# Any text, plus numbers so that some rows get past validation.
CELLS = st.text() | st.integers(0, 100).map(str) | st.floats().map(repr)


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.lists(st.lists(CELLS, max_size=9), max_size=4),
    st.sampled_from(ARBITRARY_MODES),
    st.booleans(),
)
def test_cli_never_tracebacks_on_arbitrary_cells(csv_paths, header, cells, mode, skip):
    # Without the canonical header, the first row of cells is the header.
    path = next(csv_paths)
    with path.open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        if header:
            writer.writerow(cli.READ_COLUMNS)
        writer.writerows(cells)
    flags = ["--skip-bad-rows"] if skip else []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*mode, *flags, str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_ROWS)
    if mode[0] == "induce" and code == cli.EXIT_OK:
        # What induce writes, classify reads back.
        rules = path.with_suffix(".frules")
        rules.write_text(stdout.getvalue(), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["classify", "--skip-bad-rows", "--rules", str(rules), str(path)])
        assert code == cli.EXIT_OK


def golden_corpus_csv(n=300):
    """Seeded rows, half on whole units so ties and ladder centers occur."""
    rng = random.Random(0)
    lines = ["id,p2mm,p425,p075,ll,pl"]
    for i in range(n):
        scale = 1 if i % 2 else 10
        p2mm = rng.randint(0, 100 * scale)
        p425 = rng.randint(0, p2mm)
        p075 = rng.randint(0, p425)
        ll = rng.randint(10 * scale, 95 * scale)
        pi = rng.randint(0, min(ll, 70 * scale))
        cells = [v / scale for v in (p2mm, p425, p075, ll, ll - pi)]
        lines.append(f"G{i:03d}," + ",".join(f"{v:g}" for v in cells))
    return "\n".join(lines) + "\n"


def mixed_corpus_csv():
    """The golden corpus with out-of-domain rows and one invalid row mixed in."""
    header, *rows = golden_corpus_csv().splitlines()
    bad = {
        4: "X004,100,80,40,120,30",  # ll above its domain
        5: "X005,50,80,40,30,20",  # p425 > p2mm: a CSV diagnostic
        6: "X006,100,90,80,-5,-10",  # ll below its domain
        90: "X090,100,100,90,95,-20",  # pi = 115, above its domain
        91: "X091,100,90,80,150,10",  # ll and pi both out: ll is reported
        250: "X250,100,100,100,100,0",  # domain edges: a good row
    }
    for at in sorted(bad):
        rows.insert(at - 1, bad[at])
    return "\n".join([header, *rows]) + "\n"


# Names a subset of the variables, in non-canonical order; A-1-a has no
# rule and A-4 has two.
SUBSET_RULES = """\
CLASSES A-1-a, A-2-4, A-4, A-6, A-7
RULE S1: pi IS {VL, L} AND p075 IS {VVVL, VVL, VL, L, LM, M, MH} => A-2-4
RULE S2: ll IS {VVL, VL, L, LM} AND p075 IS {VH, VVH, VVVH} => A-4
RULE S3: pi IS {LM, M, MH} AND ll IS {VVL, VL, L, LM} => A-6
RULE S4: ll IS {M, MH, H, VH, VVH} AND pi IS {M, MH, H, VH} => A-7
RULE S5: p425 IS {MH, H, VH} AND pi IS {VL} => A-4
"""


def golden_args(mode, corpus):
    """The argv of a golden mode, reading the files the corpus fixture writes.

    ``--skip-bad-rows`` modes read the mixed corpus, the others the golden one.
    """
    if mode[0] == "rules":
        return list(mode)
    folder = Path(corpus).parent
    args = [str(folder / arg) if arg.endswith(".frules") else arg for arg in mode]
    return [*args, str(folder / "mixed.csv") if "--skip-bad-rows" in mode else corpus]


GOLDEN_SHA256 = {
    ("classify",): (
        "43d088c9fc22779a4e8a6dd495ef91c5ee6dec9d2741b46ada38f311c496adaa"
    ),
    ("classify", "--format", "json"): (
        "3e170f2b9bdfe6488aa80ba13deb8554cdcff0d56e28de7f7ef580d651148e59"
    ),
    ("classify", "--crisp"): (
        "fc50067e4a2777a11bac554a4ccd97f908e4c5a2c6efe76b8481cb28e910f958"
    ),
    ("classify", "--crisp", "--format", "json"): (
        "c5810483c26feca7cf280b9624ca085385fd6fd48f4ba2a74d3163f4af98e718"
    ),
    ("classify", "--preset", "calibrated", "--agg", "min"): (
        "1e315ca3130d8ed3cac2b3527f813966859df662178fe1dfee3607015394c7cc"
    ),
    ("classify", "--agg", "product", "--pi-source", "pl", "--format", "json"): (
        "77f6347c11ef05843cff2a5e4a31fae058f16aa94575607c8e801f45ff8dcc87"
    ),
    ("memberships",): (
        "9bcd423c247fd322430e3f64156681074b7b8e63ed0188e1e7deeb5adb030397"
    ),
    ("memberships", "--format", "json"): (
        "84e39c79cb729e1832a9358d7c291bf6e41437539bdac82d71859bc8add8aef6"
    ),
    ("memberships", "--variable", "pi", "--pi-source", "pl"): (
        "a6227ea154135acde9477043faeffd16a89167b3161e8c3ba38f4b85be8c9bf5"
    ),
    ("memberships", "--variable", "p075", "--format", "json", "--pi-source", "pl"): (
        "af864b114a96484cb6a085744d5d8a956969ae3dd3b7f0836c5c107569cabf1f"
    ),
    ("rules", "--preset", "calibrated"): (
        "147806ecc60efeeac4fbe0422cf56559b76fd42d355836e462e0ee09c72e0c49"
    ),
    ("classify", "--rules", "subset.frules", "--agg", "min"): (
        "d74924095a09b828c631059f342010d146d3f4fd02c15b6f9738c4a69f3590b6"
    ),
    ("classify", "--skip-bad-rows"): (
        "9ecbc56a13111bd253e8e5444e7e42733e7b56f1b1d83d3e591705ce4e93b7b9"
    ),
}

# Standard error of the golden modes that print diagnostics.
GOLDEN_STDERR = {
    ("classify", "--skip-bad-rows"): (
        "row 4: ll: value 120.0 outside domain [0.0, 100.0]\n"
        "row 5: sieve fractions must satisfy 0 <= p075 <= p425 <= p2mm <= 100 "
        "(got p2mm=50.0, p425=80.0, p075=40.0)\n"
        "row 6: ll: value -5.0 outside domain [0.0, 100.0]\n"
        "row 90: pi: value 115.0 outside domain [0.0, 100.0]\n"
        "row 91: ll: value 150.0 outside domain [0.0, 100.0]\n"
    ),
}


class TestGoldenBytes:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "corpus.csv"
        path.write_text(golden_corpus_csv())
        path.with_name("mixed.csv").write_text(mixed_corpus_csv())
        path.with_name("subset.frules").write_text(SUBSET_RULES)
        return str(path)

    def test_corpus_has_a7_wins_and_ties(self, corpus, capsys):
        for mode in (["classify"], ["classify", "--crisp"]):
            _, out, _ = run([*mode, corpus], capsys)
            winners = [r[1] for r in csv_rows(out)[1:]]
            assert len(winners) == 300
            assert {"A-7-5", "A-7-6"} <= set(winners)
        _, out, _ = run(["classify", corpus], capsys)
        assert sum(r[3] == "true" for r in csv_rows(out)[1:]) >= 5

    @pytest.mark.parametrize("mode", list(GOLDEN_SHA256), ids=" ".join)
    def test_output_bytes(self, mode, corpus, tmp_path, capsys):
        args = golden_args(mode, corpus)
        code, out, err = run(args, capsys)
        assert code == 0 and err == GOLDEN_STDERR.get(mode, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[mode]
        target = tmp_path / "out"
        assert cli.main([*args, "-o", str(target)]) == 0
        assert target.read_bytes() == out.encode()

    def test_classify_builds_no_membership_vectors(self, corpus, capsys, monkeypatch):
        # ``MembershipVector`` is the library's reporting view; fuzzy
        # classification and the membership tables both work on each value's
        # active descriptors instead.
        built = []
        new = sf.MembershipVector.__new__

        def counting_new(cls, *args, **kwargs):
            vector = new(cls, *args, **kwargs)
            built.append(vector)
            return vector

        monkeypatch.setattr(sf.MembershipVector, "__new__", counting_new)
        for mode in GOLDEN_SHA256:
            if mode[0] != "rules" and "--crisp" not in mode:
                code, _, _ = run(golden_args(mode, corpus), capsys)
                assert code == 0
        assert built == []
        # The counter does see the reporting view: 300 rows x 5 variables.
        _, table, _, _ = cli.read_samples(io.StringIO(golden_corpus_csv()))
        for values in as_samples(table):
            sf.fuzzify_sample(sf.SoilSample(*values))
        assert len(built) == 1500


def child_env():
    """The environment of a child process that imports this package."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def child_run(script, *args):
    """The standard output of ``python -c script args`` run on this package, split at spaces."""
    child = subprocess.run(
        [sys.executable, "-c", script, *args], env=child_env(), capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def test_cli_starts_without_unused_modules():
    # Every run is a new process, so each module ``soilfuzz.cli`` imports
    # costs every run.  None of these is used, or only on a rare path.
    added = child_run(
        "import sys; before = set(sys.modules); import soilfuzz.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    assert "soilfuzz.cli" in added
    unused = {"dataclasses", "inspect", "ast", "decimal", "json", "importlib.resources"}
    assert unused.isdisjoint(added)
    # The rule parser and engine load only in the commands that use them.
    assert {"soilfuzz.rules", "soilfuzz.dsl"}.isdisjoint(added)
    # The package alone loads none of its modules.
    added = child_run(
        "import sys; before = set(sys.modules); import soilfuzz; "
        "print(*sorted(set(sys.modules) - before))"
    )
    assert [name for name in added if name.startswith("soilfuzz")] == ["soilfuzz"]


@pytest.mark.parametrize("mode, rule_code", [
    (["memberships"], False),
    (["memberships", "--format", "json"], False),
    (["classify", "--crisp"], False),
    (["classify"], True),
    (["induce", "--seed", "1", "--iters", "5"], True),
], ids=["memberships-csv", "memberships-json", "classify-crisp", "classify", "induce"])
def test_each_command_loads_only_what_it_runs(mode, rule_code, labeled_csv, tmp_path):
    # A command that scores or parses no rule never loads the modules that do.
    out = tmp_path / "out.txt"
    loaded = child_run(
        "import sys; from soilfuzz import cli; code = cli.main(sys.argv[1:]); "
        "print(code, *sorted(name for name in sys.modules if name.startswith('soilfuzz')))",
        *mode, labeled_csv, "-o", str(out),
    )
    assert loaded[0] == "0" and out.stat().st_size > 0
    rule_modules = {"soilfuzz.rules", "soilfuzz.dsl"}
    assert rule_modules & set(loaded) == (rule_modules if rule_code else set())


def test_package_names_resolve_to_their_home_modules():
    # In a new interpreter, so that each name loads when it is first asked for.
    script = """
import sys
namespace = {}
exec("from soilfuzz import *", namespace)
import soilfuzz as sf
assert sorted(set(namespace) - {"__builtins__"}) == sorted(sf.__all__)
for name in sf.__all__:
    home = "soilfuzz." + sf._HOME[name]
    value = getattr(sf, name)
    assert namespace[name] is value is getattr(sys.modules[home], name), name
    assert getattr(value, "__module__", home) == home, name
for name in sf._SUBMODULES:
    assert getattr(sf, name) is sys.modules["soilfuzz." + name], name
try:
    sf.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("sf.no_such_name resolved")
# The tracer's names, and the aggregator each rule module shares.
assert sf.Aggregator is sf.fuzzy.Aggregator is sf.rules.Aggregator
assert sf.hrb.classify is sf.rules.classify
assert callable(sf.cli.search_rules)
print("ok")
"""
    assert child_run(script) == ["ok"]


def test_cli_reads_no_private_names():
    # ``cli.py`` imports no ``_``-prefixed name from another soilfuzz module
    # and reads none off one: ``classify`` scores through the public
    # ``classify_many``, ``induce`` hands ``search_rules`` value columns.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {"dsl", "errors", "fuzzy", "hrb", "render", "rules"}
    bound, private, rule_imports = set(), set(), set()
    for function in tree.body:
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {alias.asname or alias.name for alias in node.names}
                if node.module is None:
                    bound |= names & modules
                private |= {(node.module, name) for name in names if name.startswith("_")}
                if node.module == "rules" and isinstance(function, ast.FunctionDef):
                    rule_imports |= {(function.name, name) for name in names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound and node.attr.startswith("_"):
                private.add((node.value.id, node.attr))
    assert bound == {"hrb", "dsl"}
    assert private == set()
    assert rule_imports == {("cmd_classify", "classify_many"), ("search_rules", "search_rules")}


# Shapes the golden corpus lacks: no data rows at all (empty JSON lists), an
# id that JSON must escape (non-ASCII, quote, backslash, tab), ids that CSV
# must quote (a comma, a quote, a line feed) next to one of only spaces, read
# as the empty id, and -0 next to 0 in the same columns, a row repeated and an
# out-of-domain row (signed-zeros, run with --skip-bad-rows): a -0 value has
# -0 degrees, which print as such.
EDGE_CSV = {
    "header-only": "id,p2mm,p425,p075,ll,pl\n",
    "escaped-id": (
        "id,p2mm,p425,p075,ll,pl\n"
        '"n\u00e9 ""q"" back\\slash\ttab \u2713",100,80,40,25,17\n'
        "plain,38,30,11,23,19\n"
    ),
    "quoted-id": (
        "id,p2mm,p425,p075,ll,pl\n"
        '"comma, inside",100,80,40,25,17\n'
        '"say ""hi""",38,30,11,23,19\n'
        '"two\nlines",100,100,92,65,25\n'
        "   ,100,76,7,19,16\n"
        "\u00fcn\u00ef \u2713,100,100,78,34,10\n"
    ),
    "signed-zeros": (
        "id,p2mm,p425,p075,ll,pl,pi\n"
        "zero,100,0,0,0,0,0\n"
        "minus-zero,100,-0,-0,-0,-0,-0\n"
        "same-a,100,80,40,25,17,8\n"
        "ll-out,100,80,40,120,30,90\n"
        "same-b,100,80,40,25,17,8\n"
        "minus-zero-again,-0,-0,-0,25,-0,-0\n"
    ),
    # Bad rows among good ones (run with --skip-bad-rows): empty, non-numeric
    # and non-finite cells, a six-value sum past the float range, sieve order,
    # negative pi, a short row, and blank lines; good rows with an empty pi
    # cell, cells past the header, and cells ``float`` reads only stripped.
    "bad-rows": (
        "id,p2mm,p425,p075,ll,pl,pi\n"
        "good-a,100,80,40,25,17,8\n"
        "empty-ll,100,80,40,,17,8\n"
        "\n"
        "word,100,80,x,25,17,8\n"
        "empty-pi,100,76,7,19,16,\n"
        "nan-pl,100,80,40,25,nan,8\n"
        "inf-p2mm,inf,80,40,25,17,8\n"
        "sum-overflows,100,50,10,1.7e308,0,\n"
        "sieve,50,80,40,30,20,10\n"
        "negative-pi,100,80,40,25,30,\n"
        "negative-pi-cell,100,80,40,25,17,-1\n"
        "short,100,80,40\n"
        "long,38,30,11,23,19,4,extra,cells\n"
        "\n"
        "\n"
        "padded, 100 ,\x1c80, 40,25,17,\x1f8\n"
        "good-b,100,100,92,65,25,40\n"
        "ll-out,100,80,40,120,30,90\n"
        "good-c,38,30,11,23,19,4\n"
    ),
}

EDGE_SHA256 = {
    ("header-only", "classify"): (
        "5527376a0fef4b16895a592945f62521fe94f496a867dc1ad158d64b6b7dc500"
    ),
    ("header-only", "classify", "--crisp"): (
        "c721293300756b1b560e13418c33a9bb6173df5e88e2cfd6284799c891a90e09"
    ),
    ("header-only", "memberships"): (
        "3d276aa1efb0f3c230d5babe53653d3febe1ba0aab7377dc09d0512912859bc3"
    ),
    ("escaped-id", "classify"): (
        "750247eb077084909b1c28765f5e2c678b82172b39bfeef13bb55fd9f1daabc1"
    ),
    ("escaped-id", "classify", "--crisp"): (
        "1fd3963017f996c65972264e9392cd452d35c744506de270e3a6f49816b17968"
    ),
    ("escaped-id", "memberships"): (
        "984b03325878bd78a5cd2b0d8e39013011dfdfab57904bc5feeaefe6cf69b93b"
    ),
    ("quoted-id", "classify"): (
        "15977077e0bc903120939caacecf542cfe40b8597538f2fd6a4a14f27bd866bc"
    ),
    ("quoted-id", "classify", "--crisp"): (
        "1c9028241cc480a7072e60228a1f7e6e673511bde246d1ba8781e85b72af3b92"
    ),
    ("quoted-id", "memberships"): (
        "46cf22877c4b88dc41f96a259e128d8b96dfb217132da3d16f12f949e5e7d958"
    ),
    ("header-only", "classify", "--format", "json"): (
        "44a369d9019f03734e2f9337a42d91f205a5b1bb96214f39cab69b23d0b15f12"
    ),
    ("header-only", "memberships", "--format", "json"): (
        "ecc9254061a7080ec1d471094d5541c6e91290437bd5b19c083c37483c8d8b3c"
    ),
    ("escaped-id", "classify", "--format", "json"): (
        "d90b1ce422adbf98b1036d62446e8ead182fe5c3b429f96ff9fe08bce05899a4"
    ),
    ("escaped-id", "memberships", "--format", "json"): (
        "3779397f84443d07cc875b3d00e6db10359e477a9252e8016e36b88ad5ccee22"
    ),
    ("signed-zeros", "memberships", "--format", "json", "--skip-bad-rows"): (
        "fd43f48f4d14013550c7fc4bc30e553a48930b05c20b3168e54af1fd1a8289b5"
    ),
    ("signed-zeros", "memberships", "--skip-bad-rows"): (
        "6f0b58eba71a14f270a311388c96225e00e7c77b62e27544bec815ae8f060793"
    ),
    ("signed-zeros", "memberships", "--variable", "p075", "--pi-source", "pl",
     "--skip-bad-rows"): (
        "ef846a6df8d7e3f07577da884122e0fc8f57ff72f2468340562327f170702d58"
    ),
    ("bad-rows", "classify", "--skip-bad-rows"): (
        "79231dc682c8d94663809831dfdff6cc9b2187e2ac3690be27092ef6b8717891"
    ),
    ("bad-rows", "classify", "--format", "json", "--skip-bad-rows"): (
        "ee0ff9990b1cdf1d4a946e538e9b0aa5b6b648d05101ed9b30f4fe003ede2c6b"
    ),
    ("bad-rows", "memberships", "--skip-bad-rows"): (
        "d8e32c62348c295d79fe90a8967c206765a67ee8a073ad73c27a7f92ecbb7afd"
    ),
}

# Standard error of the edge cases that print diagnostics.
EDGE_STDERR = {
    "signed-zeros": "row 4: ll: value 120.0 outside domain [0.0, 100.0]\n",
    "bad-rows": (
        "row 2: empty ll\n"
        "row 3: non-numeric p075: 'x'\n"
        "row 5: non-finite pl nan\n"
        "row 6: non-finite p2mm inf\n"
        "row 7: ll: value 1.7e+308 outside domain [0.0, 100.0]\n"
        "row 8: sieve fractions must satisfy 0 <= p075 <= p425 <= p2mm <= 100 "
        "(got p2mm=50.0, p425=80.0, p075=40.0)\n"
        "row 9: negative plasticity index -5.0\n"
        "row 10: negative plasticity index -1.0\n"
        "row 11: empty ll\n"
        "row 11: empty pl\n"
        "row 15: ll: value 120.0 outside domain [0.0, 100.0]\n"
    ),
}


@pytest.mark.parametrize("case", list(EDGE_SHA256), ids=" ".join)
def test_edge_output_bytes(case, tmp_path, capsys):
    name, *mode = case
    path = tmp_path / "edge.csv"
    path.write_text(EDGE_CSV[name], encoding="utf-8")
    code, out, err = run([*mode, str(path)], capsys)
    assert code == 0 and err == EDGE_STDERR.get(name, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EDGE_SHA256[case]


# Few distinct values, so that values repeat within and across rows, and
# both signed zeros; ll - pl is -0.0 when ll is -0.0 and pl is 0.0.
REPEATED = st.sampled_from([0.0, -0.0, 12.5, 30.0, 47.3, 100.0]) | NUMBERS
# Ids JSON must escape; the reader strips spaces and reads \r\n as \n.
IDS = st.sampled_from(['né "q" back\\slash\ttab ✓', "\x7f\x1f", "\U0001f600", ""]) | (
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"), max_size=4)
)


@st.composite
def repeated_properties(draw):
    """(p2mm, p425, p075, ll, pl) from ``REPEATED``, in every domain."""
    p075, p425, p2mm = sorted(draw(st.lists(REPEATED, min_size=3, max_size=3)))
    ll, pl = sorted(draw(st.lists(REPEATED, min_size=2, max_size=2)), reverse=True)
    return p2mm, p425, p075, ll, pl


def memberships_payload(ids, samples, variable, pi_source, variables):
    """The ``memberships --format json`` payload as a plain tree, from the library."""
    from soilfuzz.render import round4

    names = [variable] if variable else list(sf.hrb.VARIABLE_NAMES)
    vectors = [sf.fuzzify_sample(sample, pi_source, variables) for sample in samples]
    return {
        "command": "memberships",
        "pi_source": pi_source,
        "tables": [
            {
                "variable": name,
                "labels": list(variables[name].labels),
                "rows": [
                    {
                        "id": row_id,
                        "degrees": {lab: round4(d) for lab, d in vector[name].entries.items()},
                    }
                    for row_id, vector in zip(ids, vectors)
                ],
            }
            for name in names
        ],
    }


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(IDS, repeated_properties()), max_size=6),
    st.sampled_from([None, *sf.hrb.VARIABLE_NAMES]),
    st.sampled_from(["pi", "pl"]),
)
def test_memberships_json_equals_the_plain_tree(csv_paths, variables, rows, variable, pi_source):
    path = next(csv_paths)
    with path.open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(cli.REQUIRED_COLUMNS)
        writer.writerows([row_id, *map(repr, values)] for row_id, values in rows)
    mode = ["--variable", variable] if variable else []
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["memberships", "--format", "json", "--pi-source", pi_source, *mode, str(path)])
    assert code == 0
    ids = [row_id.strip() for row_id, _ in rows]
    samples = [sf.SoilSample(*values) for _, values in rows]
    payload = memberships_payload(ids, samples, variable, pi_source, variables)
    assert stdout.getvalue() == json.dumps(payload, indent=2) + "\n"


def classify_payload(ids, samples, mode, variables, rules_path):
    """The ``classify --format json`` payload as a plain tree, from the library."""
    from soilfuzz.render import round4

    if "--crisp" in mode:
        head = {"command": "classify", "mode": "crisp"}
    else:
        if "--rules" in mode:
            name, rb = str(rules_path), sf.parse_rules(rules_path.read_text(), variables)
        else:
            name = mode[mode.index("--preset") + 1]
            rb = sf.load_preset(name, variables=variables)
        agg, pi_source = (mode[mode.index(flag) + 1] for flag in ("--agg", "--pi-source"))
        head = {"command": "classify", "rules": name, "aggregator": agg, "pi_source": pi_source}
    results = []
    for row_id, sample in zip(ids, samples):
        if "--crisp" in mode:
            subgroup = sf.crisp_classify(sample)
            record = {"id": row_id, "winner": subgroup, "rating": sf.hrb.SUBGRADE_RATINGS[subgroup]}
        else:
            res = sf.classify_hrb(sample, rb, sf.Aggregator(agg), pi_source, variables)
            subgroup, report = res.subgroup, res.report
            record = {
                "id": row_id,
                "winner": subgroup,
                "rating": res.rating,
                "tie": report.tie,
                "tied": list(report.tied) if report.tie else [],
                "scores": {cls: round4(score) for cls, score in report.scores.items()},
            }
        a7 = subgroup.startswith("A-7")
        record["a7"] = {"ll": round4(sample.ll), "pi": round4(sample.pi)} if a7 else None
        results.append(record)
    return {**head, "results": results}


# Every aggregator on both presets and on rules with classes of any rating;
# ``min`` on ``paper`` ties many rows at all-zero scores.
JSON_CLASSIFY_MODES = [["--crisp"]] + [
    [*rules, "--agg", agg, "--pi-source", pi_source]
    for rules in (["--preset", "paper"], ["--preset", "calibrated"], ["--rules", "RANK"])
    for agg in ("min", "product", "mean")
    for pi_source in ("pi", "pl")
]
# A-7 rows past every domain, which only --crisp classifies: round4 keeps
# 1e300 whole and rounds the other on its Decimal route.
HUGE_A7 = st.sampled_from([(100.0, 100.0, 90.0, 1e300, 10.0), (100.0, 90.0, 60.0, 9593418.50545, 0.0)])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(JSON_CLASSIFY_MODES))
def test_classify_json_equals_the_plain_tree(csv_paths, variables, data, mode):
    path = next(csv_paths)
    rules = path.with_suffix(".frules")
    rules.write_text(RANK_RULES)
    mode = [str(rules) if arg == "RANK" else arg for arg in mode]
    values = in_domain_properties() | HUGE_A7 if "--crisp" in mode else in_domain_properties()
    rows = data.draw(st.lists(st.tuples(IDS, values), max_size=6))
    with path.open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(cli.REQUIRED_COLUMNS)
        writer.writerows([row_id, *map(repr, values)] for row_id, values in rows)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["classify", *mode, "--format", "json", str(path)]) == 0
    ids = [row_id.strip() for row_id, _ in rows]
    samples = [sf.SoilSample(*values) for _, values in rows]
    payload = classify_payload(ids, samples, mode, variables, rules)
    assert stdout.getvalue() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("mode", [
    ["classify", "--format", "json"],
    ["classify", "--crisp", "--format", "json"],
    ["memberships", "--format", "json"],
])
def test_json_output_is_the_text_json_text_returns(fixture_csv, tmp_path, monkeypatch, mode):
    # The benchmark counts the bytes written where _json_text returns them.
    texts = []
    json_text = cli._json_text

    def recorded(*args):
        texts.append(json_text(*args))
        return texts[-1]

    monkeypatch.setattr(cli, "_json_text", recorded)
    out = tmp_path / "out.json"
    assert cli.main([*mode, fixture_csv, "-o", str(out)]) == 0
    assert len(texts) == 1 and out.read_text(encoding="utf-8") == texts[0]


@pytest.mark.parametrize("mode", [
    ["classify"],
    ["classify", "--crisp"],
    ["memberships"],
    ["memberships", "--variable", "ll"],
])
def test_csv_output_is_the_text_csv_text_returns(fixture_csv, tmp_path, monkeypatch, mode):
    # The benchmark counts the bytes written where _csv_text returns them.
    texts = []
    csv_text = cli._csv_text

    def recorded(*args):
        texts.append(csv_text(*args))
        return texts[-1]

    monkeypatch.setattr(cli, "_csv_text", recorded)
    out = tmp_path / "out.csv"
    assert cli.main([*mode, fixture_csv, "-o", str(out)]) == 0
    assert len(texts) == 1 and out.read_text(encoding="utf-8") == texts[0]


def test_output_file_is_written_in_slices_of_the_utf8_text(tmp_path, monkeypatch):
    # Ids of two- and three-byte characters, long enough that each slice
    # boundary falls inside one: the file must hold the text's UTF-8 bytes.
    texts = []
    csv_text = cli._csv_text

    def recorded(*args):
        texts.append(csv_text(*args))
        return texts[-1]

    monkeypatch.setattr(cli, "_csv_text", recorded)
    ids = [f"{k}-" + "\u00e9\u2713" * 150 for k in range(500)]
    path = tmp_path / "ids.csv"
    path.write_text(
        "id,p2mm,p425,p075,ll,pl\n" + "".join(f"{i},100,100,30,32,21\n" for i in ids),
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    assert cli.main(["classify", "--crisp", str(path), "-o", str(out)]) == 0
    [text] = texts
    bounds = range(cli.WRITE_CHARS, len(text), cli.WRITE_CHARS)
    assert len(bounds) > 1
    assert all(not text[k - 1].isascii() and not text[k].isascii() for k in bounds)
    assert out.read_bytes() == text.encode("utf-8")


def labeled_golden_corpus_csv():
    """The golden corpus plus a class column drawn from a seeded RNG.

    The labels do not come from either classifier, so a change to the crisp
    thresholds cannot move the induction pins below.
    """
    rng = random.Random(4)
    header, *rows = golden_corpus_csv().splitlines()
    lines = [header + ",class"]
    lines += [f"{row},{rng.choice(sf.hrb.CLASS_ORDER)}" for row in rows]
    return "\n".join(lines) + "\n"


INDUCE_SHA256 = {
    ("induce", "--seed", "7", "--iters", "300"): (
        "d59f7d110d498f1673b8185cff75d71cdd416f37ae9ff837c3a78122fb76c15f"
    ),
    ("induce", "--seed", "7", "--iters", "300", "--agg", "min",
     "--rules-per-class", "2"): (
        "6270431127bde136197e26aa7988ecb8b2208aa76ae52b2145a08b945e4b75bf"
    ),
    ("induce", "--seed", "7", "--iters", "300", "--agg", "product",
     "--pi-source", "pl"): (
        "d861cd6d44bd5918a4556d723e3037aa577a82c8b10a9df54fcb35bd22d1c85c"
    ),
}


class TestInduceGoldenBytes:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "labeled.csv"
        path.write_text(labeled_golden_corpus_csv())
        return str(path)

    @pytest.mark.parametrize("mode", list(INDUCE_SHA256), ids=" ".join)
    def test_output_bytes(self, mode, corpus, capsys):
        code, out, err = run([*mode, corpus], capsys)
        assert code == 0 and err.startswith("training accuracy: ")
        assert hashlib.sha256(out.encode()).hexdigest() == INDUCE_SHA256[mode]

    @pytest.mark.parametrize("mode", list(INDUCE_SHA256), ids=" ".join)
    def test_fuzzifies_columns_not_vectors(self, mode, corpus, capsys, monkeypatch):
        # ``induce`` fuzzifies its rows as columns, once, as ``classify``
        # does: it never builds a membership vector.
        def refuse(*args, **kwargs):
            raise AssertionError("induce built a membership vector")

        for target in ("hrb.fuzzify_sample", "hrb.fuzzify", "fuzzy.fuzzify"):
            monkeypatch.setattr(f"soilfuzz.{target}", refuse)
        code, out, _ = run([*mode, corpus], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == INDUCE_SHA256[mode]


def cli_child(argv, **kwargs):
    """``python -m soilfuzz.cli argv`` run on this package, its output as bytes."""
    env = child_env()
    # Buffered streams, so a failed write leaves its bytes for a later flush.
    env.pop("PYTHONUNBUFFERED", None)
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "soilfuzz.cli", *argv], env=env, timeout=60, **kwargs
    )


def closed_pipe_child(argv, **kwargs):
    """``cli_child`` with file descriptor 2 a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        return cli_child(argv, stderr=write, **kwargs)
    finally:
        os.close(write)


class TestEntryPoint:
    """The command ends its process once the output is flushed, with ``main``'s code."""

    @pytest.fixture
    def bad_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(FIXTURE_CSV + "7,x,60,10,30,20\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "{fixture}"],
            ["classify", "--format", "json", "{fixture}"],
            ["memberships", "{fixture}"],
            ["induce", "--seed", "3", "--iters", "40", "{labeled}"],
            ["classify", "{bad}"],
        ],
        ids=["classify-csv", "classify-json", "memberships", "induce", "bad-row"],
    )
    def test_child_equals_main(self, argv, fixture_csv, labeled_csv, bad_csv, capsys):
        argv = [a.format(fixture=fixture_csv, labeled=labeled_csv, bad=bad_csv) for a in argv]
        code, out, err = run(argv, capsys)
        child = cli_child(argv)
        assert (child.stdout, child.stderr.decode(), child.returncode) == (out.encode(), err, code)
        assert code == (cli.EXIT_ROWS if argv[-1] == bad_csv else cli.EXIT_OK)

    def test_usage_error_exits_2_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as raised:
            cli.main(["classify"])
        _, err = capsys.readouterr()
        child = cli_child(["classify"])
        assert raised.value.code == child.returncode == 2
        assert child.stdout == b"" and child.stderr.decode() == err
        assert "error: the following arguments are required: IN" in err

    def test_run_leaves_no_exit_work_undone(self, fixture_csv, labeled_csv, tmp_path):
        # ``os._exit`` skips ``atexit`` callbacks and does not wait for
        # threads, so a run must leave neither beyond a bare interpreter's.
        out = str(tmp_path / "out")
        script = (
            "import atexit, sys, threading\n"
            "from soilfuzz import cli\n"
            "codes = [cli.main(argv.split('|')) for argv in sys.argv[1:]]\n"
            "print(atexit._ncallbacks(), threading.active_count(), *codes)\n"
        )
        runs = [
            ["classify", "--format", "json", fixture_csv, "-o", out],
            ["classify", "--crisp", fixture_csv, "-o", out],
            ["memberships", "--format", "json", fixture_csv, "-o", out],
            ["rules", "--preset", "calibrated", "-o", out],
            ["induce", "--seed", "3", "--iters", "40", labeled_csv, "-o", out],
        ]
        (bare,) = child_run("import atexit; print(atexit._ncallbacks())")
        assert child_run(script, *map("|".join, runs)) == [bare, "1", *["0"] * len(runs)]

    @pytest.mark.parametrize("skip", [True, False], ids=["skip-bad-rows", "exit-4"])
    def test_run_flushes_then_exits_with_mains_code(self, bad_csv, monkeypatch, skip):
        # Block-buffered streams: only a flush puts stderr's lines in its sink.
        sinks = {name: io.BytesIO() for name in ("stdout", "stderr")}
        for name, sink in sinks.items():
            monkeypatch.setattr(sys, name, io.TextIOWrapper(io.BufferedWriter(sink), "utf-8"))
        ended = []

        def exit_now(code):
            ended.append((code, {name: sink.getvalue() for name, sink in sinks.items()}))
            raise SystemExit("os._exit")

        argv = ["soilfuzz", "classify", *["--skip-bad-rows"] * skip, bad_csv]
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.setattr(os, "_exit", exit_now)
        with pytest.raises(SystemExit, match="os._exit"):
            cli.run()
        [(code, written)] = ended
        diagnostic = b"row 7: non-numeric p2mm: 'x'\n"
        if skip:
            assert code == cli.EXIT_OK and written["stderr"] == diagnostic
            assert written["stdout"].startswith(b"id,winner,rating,")
            assert written["stdout"].count(b"\n") == 7
        else:
            assert code == cli.EXIT_ROWS and written["stdout"] == b""
            assert written["stderr"] == diagnostic + f"soilfuzz: 1 bad row(s) in {bad_csv}\n".encode()

    def test_failed_flush_exits_through_sys_exit(self, fixture_csv, monkeypatch):
        # The interpreter's teardown flushes again and reports the failure,
        # as it did before the command ended by ``os._exit``.
        class Unflushable(io.StringIO):
            def flush(self):
                raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "argv", ["soilfuzz", "classify", "-o", os.devnull, fixture_csv])
        monkeypatch.setattr(sys, "stdout", Unflushable())
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit after a failed flush"))
        with pytest.raises(SystemExit) as raised:
            cli.run()
        assert raised.value.code == cli.EXIT_OK

    def test_closed_stderr_keeps_induce_exit_code(self, labeled_csv, tmp_path, capsys):
        # The rule file is written before the accuracy line, which stderr
        # cannot take.
        argv = ["induce", "--seed", "1", "--iters", "3", labeled_csv, "-o"]
        code, _, _ = run([*argv, str(tmp_path / "want.frules")], capsys)
        child = closed_pipe_child([*argv, str(tmp_path / "got.frules")])
        assert child.returncode == code == cli.EXIT_OK
        assert (tmp_path / "got.frules").read_bytes() == (tmp_path / "want.frules").read_bytes()

    @pytest.mark.parametrize("skip", [True, False], ids=["skip-bad-rows", "exit-4"])
    def test_closed_stderr_keeps_bad_row_exit_code(self, bad_csv, capsys, skip):
        argv = ["classify", *["--skip-bad-rows"] * skip, bad_csv]
        code, out, _ = run(argv, capsys)
        child = closed_pipe_child(argv)
        assert (child.returncode, child.stdout) == (code, out.encode())
        assert code == (cli.EXIT_OK if skip else cli.EXIT_ROWS) and (out != "") == skip
