import csv
import io
import json
import math
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soilfuzz import cli, fuzzify, load_variables, make_partition
from soilfuzz.render import fmt_degree, fmt_score, round4


def reference_round4(x: float) -> float:
    """The ``Decimal`` rounding of ``repr(x)`` that :func:`round4` must equal."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.0001"), ROUND_HALF_UP))


def assert_same_float(got: float, want: float):
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(got) == repr(want)


def half_point_neighbourhoods(lo: int, hi: int):
    """Each 5-decimal half point in [lo, hi], with both float neighbours."""
    for k in range(lo * 10_000, hi * 10_000):
        h = (2 * k + 1) / 20_000
        yield math.nextafter(h, -math.inf)
        yield h
        yield math.nextafter(h, math.inf)


class TestRound4:
    def test_every_half_point_in_unit_interval(self):
        mismatches = [
            x for x in half_point_neighbourhoods(0, 1)
            if repr(round4(x)) != repr(reference_round4(x))
        ]
        assert mismatches == []

    @pytest.mark.parametrize("x, want", [
        (0.00005, 0.0001),
        (-0.00005, -0.0001),
        (0.03125, 0.0313),  # an exact binary half point: round() would give 0.0312
        (2.67e-05, 0.0),
        (-1e-05, -0.0),
        (9593418.50545, 9593418.5055),  # above the fast path's bound
    ])
    def test_half_up_cases(self, x, want):
        assert_same_float(round4(x), want)

    def test_non_finite(self):
        assert math.isnan(round4(math.nan))
        assert round4(math.inf) == math.inf and round4(-math.inf) == -math.inf

    @pytest.mark.parametrize("x", [2.0**52, 1e24, 1e30, -1.7976931348623157e308])
    def test_whole_floats_are_kept(self, x):
        # Quantizing these to 4 decimals overflows Decimal's 28 digits.
        assert_same_float(round4(x), x)

    @settings(max_examples=2000)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(5e-324)
    @example(-2.225073858507201e-308)
    @example(999999.99995)
    @example(1e6)
    @example(9593418.50545)
    @example(-9593418.50545)
    @example(1.7976931348623157e308)
    def test_matches_decimal_reference(self, x):
        try:
            want = reference_round4(x)
        except InvalidOperation:  # past Decimal's 28 digits, where x is whole
            want = x
        assert_same_float(round4(x), want)

    @settings(max_examples=500)
    @given(st.integers(-(10**7) * 20_000, 10**7 * 20_000), st.sampled_from([-1, 0, 1]))
    def test_matches_decimal_reference_near_half_points(self, k, step):
        x = (2 * k + 1) / 20_000
        if step:
            x = math.nextafter(x, step * math.inf)
        assert_same_float(round4(x), reference_round4(x))

    def test_crisp_a7_cells_round_half_up(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\nbig,100,100,90,9593418.50545,0\n")
        assert cli.main(["classify", "--crisp", str(path)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["a7_ll"] == cells["a7_pi"] == "9593418.5055"

    def test_crisp_a7_cells_of_whole_floats(self, tmp_path, capsys):
        # --crisp has no domains, so any finite ll reaches round4.
        path = tmp_path / "huge.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\nhuge,100,100,90,1e30,0\n")
        assert cli.main(["classify", "--crisp", "--format", "json", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)["results"][0]
        assert record["a7"] == {"ll": 1e30, "pi": 1e30}

    def test_fmt_degree_trims_zeros(self):
        assert [fmt_degree(x) for x in (0.0, 1.0, 0.96, 0.26666)] == ["0", "1", "0.96", "0.2667"]
        assert fmt_degree(0.00005) == "0.0001"


def reference_fmt_score(x: float) -> str:
    """The text :func:`fmt_score` must equal: :func:`round4`'s result to 4 places."""
    return f"{round4(x):.4f}"


def nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# 5-decimal points k / 20 000 (half points for odd k) up to 1e13 away from
# 0, each moved by up to 3 ulps; past 1e6 the fast path's tie test fails.
NEAR_HALF_POINTS = st.builds(
    lambda k, ulps: nudged(k / 20_000, ulps),
    st.integers(-40_000, 40_000) | st.integers(-(2 * 10**17), 2 * 10**17),
    st.integers(-3, 3),
)
SCORES = (
    st.floats()
    | NEAR_HALF_POINTS
    | st.floats(1e6, 2.0**53)
    | st.floats(-(2.0**53), -1e6)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e6, -1e6])
)


class TestFmtScore:
    @settings(max_examples=3000)
    @given(SCORES)
    @example(0.03125)  # an exact binary half point: "{:.4f}" would give 0.0312
    @example(0.00015)  # repr's half point, just below it in binary
    @example(999999.99995)
    @example(9593418.50545)
    @example(33554431.99995)
    def test_equals_the_rounded_text(self, x):
        assert fmt_score(x) == reference_fmt_score(x)

    def test_every_half_point_in_unit_interval(self):
        mismatches = [
            x for x in half_point_neighbourhoods(0, 1) if fmt_score(x) != reference_fmt_score(x)
        ]
        assert mismatches == []


def reference_fmt_degree(x: float) -> str:
    """The text :func:`fmt_degree` must equal: the trimmed text of :func:`round4`'s result."""
    text = f"{round4(x):.4f}".rstrip("0").rstrip(".")
    return text or "0"


class TestFmtDegree:
    @settings(max_examples=3000)
    @given(SCORES | st.floats(2.0**52, 1e300) | st.floats(-1e300, -(2.0**52)))
    @example(0.00005)
    @example(-0.00004)
    @example(0.03125)
    @example(9593418.50545)
    @example(2.0**52 + 1)
    def test_equals_the_trimmed_rounded_text(self, x):
        assert fmt_degree(x) == reference_fmt_degree(x)


FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 1e16, 1e-7]
)
INTS = st.integers() | st.integers(-(10**80), 10**80)
TEXT = st.text() | st.sampled_from(["", "\t\"\\", "né ✓", "\x00\x1f\x7f", "\U0001f600"])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=25,
)


def laid_out(value, depth):
    """``value``'s ``json.dumps`` text, laid out ``depth`` levels in."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


# The CLI's heads hold scalars and lists of labels.
HEADS = st.dictionaries(TEXT, SCALARS | st.lists(TEXT, max_size=5), max_size=5)


class TestJsonText:
    @settings(max_examples=300)
    @given(HEADS, TEXT, PAYLOADS)
    @example({}, "a", {})
    @example({}, "a", [])
    @example({"a": [], "b": {}, "c": [{}]}, "", [[]])
    def test_equals_json_dumps(self, head, key, value):
        head.pop(key, None)
        want = json.dumps({**head, key: value}, indent=2) + "\n"
        assert cli._json_text(head, key, [laid_out(value, 1)]) == want

    def test_fragment_is_indented_to_its_place(self):
        # Laid out for where it is put, an item of a member's list, 4 spaces
        # in, and written as it is.
        value = {"b": ["laid out", {"c": 1.5}]}
        pieces = ["[\n    ", laid_out(value, 2), ',\n    "x"\n  ]']
        assert cli._json_text({}, "a", pieces) == json.dumps({"a": [value, "x"]}, indent=2) + "\n"

    @settings(max_examples=300)
    @given(PAYLOADS, st.lists(st.tuples(HEADS, TEXT), min_size=1, max_size=6))
    @example([], [({}, "")])
    @example({"a": "line\nbreak"}, [({"k": None}, "k"), ({"}": "null\n}"}, "x")])
    def test_fragment_at_any_depth(self, value, path):
        # Each step of ``path`` nests the value one level deeper, as the last
        # member ``key`` of ``{**head, key: ...}``; the first step is the
        # document, the others are written by ``_json_head``.
        for head, key in path:
            head.pop(key, None)
        tree, text = value, laid_out(value, len(path))
        for depth in reversed(range(1, len(path))):
            head, key = path[depth]
            tree = {**head, key: tree}
            indent = "  " * depth
            text = cli._json_head(head, key, indent) + text + "\n" + indent + "}"
        head, key = path[0]
        want = json.dumps({**head, key: tree}, indent=2) + "\n"
        assert cli._json_text(head, key, [text]) == want

    @settings(max_examples=150)
    @given(st.data(), st.integers(0, 4), st.integers(1, 3))
    def test_objects_array_equals_json_dumps(self, data, n, width):
        # Each object has ``width`` members, written as ``width`` columns of
        # pieces, one piece per object.
        # The CLI's rows hold scalars, lists of names and objects of numbers.
        member = st.tuples(
            TEXT, SCALARS | st.lists(TEXT, max_size=3) | st.dictionaries(TEXT, FLOATS, max_size=3)
        )
        objects = data.draw(st.lists(
            st.lists(member, min_size=width, max_size=width, unique_by=lambda m: m[0]),
            min_size=n, max_size=n,
        ))
        columns = [
            [
                ("," if j else "") + f"\n      {encode_basestring_ascii(key)}: " + laid_out(item, 3)
                for key, item in (members[j] for members in objects)
            ]
            for j in range(width)
        ]
        pieces = cli._json_objects("    ", n, *columns)
        want = json.dumps({"a": [dict(members) for members in objects]}, indent=2) + "\n"
        assert cli._json_text({}, "a", pieces) == want


# Text as ids hold it, and the cells a CSV writer must quote.  No CR, which
# reading with universal newlines turns into LF, and no NUL, which the CSV
# reader and writer of Python 3.10 reject.
CELLS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r")) | (
    st.sampled_from(["", ",", '"', "\n", ' say "hi",\nthen ', "né ✓", "\U0001f600"])
)


class TestCsvText:
    @settings(max_examples=500)
    @given(st.lists(st.lists(CELLS, min_size=2, max_size=5), max_size=5))
    def test_equals_csv_writer(self, rows):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        lines = [",".join(map(cli._csv_cell, row)) for row in rows]
        assert cli._csv_text(lines) == out.getvalue()

    def test_a_cell_with_a_carriage_return_is_quoted(self):
        # csv.writer(lineterminator="\n") quotes a bare CR only from Python
        # 3.13 on; this writer always does.
        assert cli._csv_cell("a\rb") == '"a\rb"'


@st.composite
def random_ladders(draw):
    """A valid ladder of 2-8 labels with any text, inside a domain around its centers."""
    k = draw(st.integers(2, 8))
    centers = sorted(draw(st.lists(
        st.integers(-1000, 1000).map(float) | st.floats(-1e3, 1e3), min_size=k, max_size=k,
        unique=True,
    )))
    labels = draw(st.lists(
        st.sampled_from(["VL", "\x00", 'q"\\', "né ✓", "\n"]) | st.text(min_size=1, max_size=3),
        min_size=k, max_size=k, unique=True,
    ))
    lo = draw(st.sampled_from([centers[0]]) | st.floats(-2e3, centers[0]))
    hi = draw(st.sampled_from([centers[-1]]) | st.floats(centers[-1], 2e3))
    return make_partition("x", labels, centers, (lo, hi))


def in_domain_points(var):
    """Centers and the floats either side, domain bounds, ±0.0, holes and anything between.

    Every point lies in the domain, which ``_property_columns`` checks first.
    """
    lo, hi, c = var.domain_min, var.domain_max, var.centers
    near = [math.nextafter(x, side) for x in c for side in (-math.inf, math.inf)]
    fixed = [x for x in (*c, *near, lo, hi, 0.0, -0.0) if lo <= x <= hi]
    return (
        st.sampled_from(fixed)
        | st.floats(lo, c[0])
        | st.floats(c[-1], hi)
        | st.floats(lo, hi)
    )


SHIPPED = tuple(load_variables().values())


def reference_degrees(var, x):
    """``fuzzify``'s degrees of ``x``, rounded as the CLI prints them."""
    return {label: round4(d) for label, d in fuzzify(var, x).entries.items()}


class TestSegmentRenderer:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_fuzzify_reference(self, data):
        var = data.draw(st.sampled_from(SHIPPED) | random_ladders())
        values = data.draw(st.lists(in_domain_points(var), min_size=1, max_size=30))
        json_degrees, csv_cells = cli._Degrees(var, encode_basestring_ascii), cli._Degrees(var)
        for x in values:
            degrees = reference_degrees(var, x)
            # ``json.dumps`` prints each float with ``float.__repr__``; the
            # object sits 10 spaces in, as a row's member.
            want = json.dumps(degrees, indent=2).replace("\n", "\n" + " " * 10)
            assert json_degrees[x] == want, x
            assert csv_cells[x] == ",".join(map(fmt_degree, degrees.values())), x

    def test_every_half_point_on_a_unit_ladder(self):
        # On centers 0 and 1 the upper label's degree at x is x itself.
        var = make_partition("x", ["L", "H"], [0.0, 1.0], (0.0, 1.0))
        json_degrees, csv_cells = cli._Degrees(var, encode_basestring_ascii), cli._Degrees(var)
        mismatches = []
        for x in half_point_neighbourhoods(0, 1):
            degrees = reference_degrees(var, x)
            want = json.dumps(degrees, indent=2).replace("\n", "\n" + " " * 10)
            cells = ",".join(map(fmt_degree, degrees.values()))
            if json_degrees[x] != want or csv_cells[x] != cells:
                mismatches.append(x)
        assert mismatches == []

    @pytest.mark.parametrize("name", ["p2mm", "pi"])
    def test_holes_and_signed_zeros(self, name):
        # p2mm's last center is 50 and pi's 70, in 0..100 domains.  A -0.0
        # value has a -0.0 degree, so it must not be served 0.0's text.
        var = load_variables()[name]
        zeros = ",0" * (len(var.labels) - 2)
        cells = cli._Degrees(var)
        assert (cells[0.0], cells[-0.0]) == ("1,0" + zeros, "1,-0" + zeros)
        past_end = math.nextafter(var.centers[-1], math.inf)
        assert cells[past_end] == cells[100.0] == "0,0" + zeros
        text = cli._Degrees(var, encode_basestring_ascii)
        assert '"L": 0.0,' in text[0.0] and '"L": -0.0,' in text[-0.0]
