import contextlib
import csv
import hashlib
import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilfuzz as sf
from soilfuzz import cli

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


class TestReadSamples:
    def test_reference_table(self):
        rows, problems, has_class = cli.read_samples(io.StringIO(FIXTURE_CSV))
        assert not problems and not has_class
        assert len(rows) == 6
        assert rows[3].sample.pi == 3.0  # ll - pl
        assert rows[0].id == "1"

    def test_explicit_pi_column(self):
        text = "id,p2mm,p425,p075,ll,pl,pi\na,100,50,10,30,20,5\n"
        rows, problems, _ = cli.read_samples(io.StringIO(text))
        assert not problems
        assert rows[0].sample.pi == 5.0

    def test_row_diagnostics(self):
        text = (
            "id,p2mm,p425,p075,ll,pl\n"
            "a,50,60,10,30,20\n"       # p425 > p2mm
            "b,100,50,10,thirty,20\n"  # non-numeric
            "c,100,50,10,30,20\n"
        )
        rows, problems, _ = cli.read_samples(io.StringIO(text))
        assert len(rows) == 1 and rows[0].id == "c"
        assert len(problems) == 2
        assert problems[0].startswith("row 1:") and "sieve" in problems[0]
        assert problems[1].startswith("row 2:") and "non-numeric ll" in problems[1]

    def test_missing_column(self):
        with pytest.raises(cli.CliError) as exc:
            cli.read_samples(io.StringIO("id,p2mm,p425,p075,ll\n"))
        assert exc.value.code == cli.EXIT_ROWS
        assert "pl" in str(exc.value)


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

    def test_invalid_rule_file(self, fixture_csv, tmp_path, capsys):
        bad = tmp_path / "bad.frules"
        bad.write_text("RULE R1: p2mm IS {} => A-3\n")
        code, _, err = run(
            ["classify", "--rules", str(bad), fixture_csv], capsys
        )
        assert code == cli.EXIT_RULES
        assert "empty descriptor set" in err

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

    def test_missing_class_column(self, fixture_csv, capsys):
        code, _, err = run(["induce", "--seed", "1", fixture_csv], capsys)
        assert code == cli.EXIT_ROWS
        assert "class" in err


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


GOLDEN_SHA256 = {
    ("classify",): (
        "43d088c9fc22779a4e8a6dd495ef91c5ee6dec9d2741b46ada38f311c496adaa"
    ),
    ("classify", "--format", "json"): (
        "3e170f2b9bdfe6488aa80ba13deb8554cdcff0d56e28de7f7ef580d651148e59"
    ),
    ("classify", "--crisp"): (
        "dea04651778a6da08bdf44e93769e21798d4a6ee6a8cc4b4b4c7fa68f4e6e9fa"
    ),
    ("classify", "--crisp", "--format", "json"): (
        "64dc799d11393e68450bd72508a180df8da7c891d9ff84f5483105d8aed8b4ff"
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
    ("rules", "--preset", "calibrated"): (
        "147806ecc60efeeac4fbe0422cf56559b76fd42d355836e462e0ee09c72e0c49"
    ),
}


class TestGoldenBytes:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "corpus.csv"
        path.write_text(golden_corpus_csv())
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
        args = list(mode) if mode[0] == "rules" else [*mode, corpus]
        code, out, err = run(args, capsys)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[mode]
        target = tmp_path / "out"
        assert cli.main([*args, "-o", str(target)]) == 0
        assert target.read_bytes() == out.encode()

    def test_classify_builds_no_membership_vectors(self, corpus, capsys, monkeypatch):
        # ``MembershipVector`` is the reporting view; fuzzy classification
        # evaluates rules on each value's active descriptors instead.
        built = []
        init = sf.MembershipVector.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sf.MembershipVector, "__init__", counting_init)
        for mode in GOLDEN_SHA256:
            if mode[0] == "classify" and "--crisp" not in mode:
                code, _, _ = run([*mode, corpus], capsys)
                assert code == 0
        assert built == []
        # The counter does see the reporting path: 300 rows x 5 variables.
        assert run(["memberships", corpus], capsys)[0] == 0
        assert len(built) == 1500


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
