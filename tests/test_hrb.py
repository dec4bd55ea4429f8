import math
import shutil
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import soilfuzz as sf
from soilfuzz import SampleError, SoilSample, cli


class TestSoilSample:
    def test_pi_defaults_to_ll_minus_pl(self):
        s = SoilSample(100, 76, 7, ll=19, pl=16)
        assert s.pi == 3.0

    def test_explicit_pi_wins(self):
        s = SoilSample(100, 76, 7, ll=19, pl=16, pi=2)
        assert s.pi == 2.0

    def test_sieve_monotonicity(self):
        with pytest.raises(SampleError, match="sieve"):
            SoilSample(50, 60, 10, ll=30, pl=20)
        with pytest.raises(SampleError, match="sieve"):
            SoilSample(100, 40, 50, ll=30, pl=20)
        with pytest.raises(SampleError, match="sieve"):
            SoilSample(120, 40, 10, ll=30, pl=20)

    def test_negative_pi(self):
        with pytest.raises(SampleError, match="negative plasticity"):
            SoilSample(100, 50, 10, ll=20, pl=30)

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"p2mm": math.nan}, "p2mm"),
            ({"ll": math.nan}, "ll"),
            ({"ll": math.inf}, "ll"),
            ({"pl": -math.inf}, "pl"),
            ({"pi": math.nan}, "pi"),
            ({"ll": 1e308, "pl": -1e308}, "pi"),  # ll - pl overflows
        ],
    )
    def test_non_finite_rejected(self, overrides, name):
        values = {"p2mm": 100, "p425": 50, "p075": 10, "ll": 30, "pl": 20}
        with pytest.raises(SampleError, match=f"non-finite {name}"):
            SoilSample(**{**values, **overrides})


class TestSoilSampleRecord:
    """The record contract: repr, construction, immutability, equality, messages."""

    def test_repr(self):
        assert repr(SoilSample(100, 80, 40, 25, 17)) == (
            "SoilSample(p2mm=100.0, p425=80.0, p075=40.0, ll=25.0, pl=17.0, pi=8.0)"
        )

    def test_keyword_and_positional_construction(self):
        s = SoilSample(100, 80, 40, 25, 17)
        assert SoilSample(p2mm=100, p425=80, p075=40, ll=25, pl=17) == s
        assert SoilSample(100, 80, 40, 25, 17, 8) == s
        assert SoilSample(100, 80, 40, 25, 17, pi=None) == s
        assert SoilSample("100", 80, 40, 25, 17).p2mm == 100.0
        assert all(type(value) is float for value in (s.p2mm, s.p425, s.p075, s.ll, s.pl, s.pi))
        assert SoilSample(100, 80, 40, 25, 17, pi=5).pi == 5.0

    def test_fields_cannot_be_assigned(self):
        s = SoilSample(100, 80, 40, 25, 17)
        with pytest.raises(AttributeError):
            s.ll = 30.0
        assert s.ll == 25.0

    def test_equal_records_hash_equal(self):
        a, b = SoilSample(100, 80, 40, 25, 17), SoilSample(100.0, 80.0, 40.0, 25.0, 17.0, 8.0)
        assert a == b and hash(a) == hash(b)
        assert SoilSample(100, 80, 40, 25, 17, pi=5) != a

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 1, 1, 1, 1), "non-finite p2mm nan"),
            ((100, 1, 1, math.inf, 1), "non-finite ll inf"),
            ((100, 50, 10, 30, 20, -math.inf), "non-finite pi -inf"),
            (
                (50, 60, 10, 30, 20),
                "sieve fractions must satisfy 0 <= p075 <= p425 <= p2mm <= 100 "
                "(got p2mm=50.0, p425=60.0, p075=10.0)",
            ),
            ((100, 50, 10, 20, 30), "negative plasticity index -10.0"),
            ((100, 50, 10, 30, 20, -1), "negative plasticity index -1.0"),
        ],
    )
    def test_validation_messages(self, args, message):
        with pytest.raises(SampleError) as exc:
            SoilSample(*args)
        assert str(exc.value) == message

    def test_replace_is_validated(self):
        s = SoilSample(100, 80, 40, 25, 17)
        assert s._replace(ll=30) == SoilSample(100, 80, 40, 30, 17, 8)
        with pytest.raises(SampleError, match="sieve"):
            s._replace(p425=101)


class TestFuzzifySample:
    def test_specimen6_rows(self, fixtures):
        memberships = sf.fuzzify_sample(fixtures[5].sample, pi_source="pl")
        assert memberships["p2mm"].nonzero() == pytest.approx({"H": 0.96, "VH": 0.04})
        assert memberships["p425"].nonzero() == {"LM": 1.0}
        assert memberships["p075"].nonzero() == pytest.approx({"VL": 0.8, "L": 0.2})
        assert memberships["ll"].nonzero() == pytest.approx({"L": 0.7, "LM": 0.3})

    def test_plasticity_row_from_plastic_limit(self, fixtures):
        memberships = sf.fuzzify_sample(fixtures[1].sample, pi_source="pl")
        assert memberships["pi"].nonzero() == pytest.approx(
            {"LM": 0.5333, "M": 0.4667}, abs=1e-4
        )

    def test_plasticity_row_from_index(self, fixtures):
        memberships = sf.fuzzify_sample(fixtures[1].sample, pi_source="pi")
        assert memberships["pi"].nonzero() == pytest.approx({"L": 0.4, "LM": 0.6})

    def test_bad_pi_source(self, fixtures):
        with pytest.raises(ValueError, match="pi_source"):
            sf.fuzzify_sample(fixtures[0].sample, pi_source="nope")

    def test_only_properties_with_a_ladder(self, variables):
        # pi = 150 is outside the pi ladder's domain, which is left out here.
        sample = sf.SoilSample(100, 80, 40, 25, 17, pi=150)
        without_pi = {name: var for name, var in variables.items() if name != "pi"}
        memberships = sf.fuzzify_sample(sample, variables=without_pi)
        assert list(memberships) == ["p2mm", "p425", "p075", "ll"]
        with pytest.raises(sf.FuzzificationError, match="pi"):
            sf.fuzzify_sample(sample, variables=variables)


def solve_rising(p1, p2):
    """Recover (foot, center) of a rising edge from two (x, degree) points."""
    (x1, m1), (x2, m2) = p1, p2
    width = (x1 - x2) / (m1 - m2)
    lo = x1 - m1 * width
    return lo, lo + width


def solve_falling(p1, p2):
    """Recover (center, foot) of a falling edge from two (x, degree) points."""
    (x1, m1), (x2, m2) = p1, p2
    width = (x2 - x1) / (m1 - m2)
    hi = x1 + m1 * width
    return hi - width, hi


class TestCenterDerivation:
    """The non-obvious ladder centers are forced by pairs of grid cells.

    Each pair of degrees on one triangle edge pins down two adjacent centers
    by a two-point linear solve, independent of the fuzzifier.
    """

    def test_p425_top_centers(self, variables):
        lo, hi = solve_falling((80, 0.8), (76, 0.96))  # H edge, specimens 2/4
        assert lo == pytest.approx(75, abs=0.05)
        assert hi == pytest.approx(100, abs=0.05)
        lo, hi = solve_rising((80, 0.2), (76, 0.04))  # VH edge
        assert lo == pytest.approx(75, abs=0.05)
        assert hi == pytest.approx(100, abs=0.05)
        assert variables["p425"].centers[-2:] == (75.0, 100.0)

    def test_p075_top_centers(self, variables):
        lo, hi = solve_rising((92, 0.7333), (78, 0.2667))  # VVVH, specimens 3/5
        assert lo == pytest.approx(70, abs=0.05)
        assert hi == pytest.approx(100, abs=0.05)
        assert variables["p075"].centers[-2:] == (70.0, 100.0)

    def test_ll_low_centers(self, variables):
        lo, hi = solve_falling((25, 0.5), (23, 0.7))  # L edge, specimens 2/6
        assert (lo, hi) == (pytest.approx(20), pytest.approx(30))
        lo, hi = solve_falling((32, 0.8), (34, 0.6))  # LM edge, specimens 1/5
        assert (lo, hi) == (pytest.approx(30), pytest.approx(40))
        assert variables["ll"].centers[2:5] == (20.0, 30.0, 40.0)

    def test_ll_upper_crossover(self, variables):
        # Specimen 3's 0.3333/0.6667 pair at 65 only constrains the MH and H
        # centers jointly: 65 must sit 2/3 of the way from MH to H.
        mh, h = variables["ll"].centers[5:7]
        assert mh + 0.6667 * (h - mh) == pytest.approx(65, abs=0.05)
        assert (mh, h) == (55.0, 70.0)

    def test_plasticity_mid_centers(self, variables):
        lo, hi = solve_falling((21, 0.2667), (17, 0.5333))  # LM edge at pl values
        assert lo == pytest.approx(10, abs=0.05)
        assert hi == pytest.approx(25, abs=0.05)
        assert variables["pi"].centers[2:4] == (10.0, 25.0)


class TestA7Split:
    def test_examples(self):
        assert sf.a7_split(65, 40) == "A-7-6"
        assert sf.a7_split(60, 30) == "A-7-5"  # boundary pi == ll - 30
        assert sf.a7_split(50, 25) == "A-7-6"

    def test_partitions_every_point(self):
        for ll in range(0, 101, 5):
            for pi in range(0, 101, 5):
                assert sf.a7_split(ll, pi) in ("A-7-5", "A-7-6")

    def test_huge_ll_keeps_the_30(self, tmp_path, capsys):
        # pi == ll, so pi > ll - 30 however large ll is.
        assert sf.a7_split(1e30, 1e30) == "A-7-6"
        path = tmp_path / "huge.csv"
        path.write_text("id,p2mm,p425,p075,ll,pl\nhuge,100,100,90,1e30,0\n")
        assert cli.main(["classify", "--crisp", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("huge,A-7-6,")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def near_a7_boundary(draw):
    # Uniform pairs almost never land where pi is within a few ulps of
    # ll - 30, which is where a rounded comparison goes wrong.
    ll = draw(FINITE | st.floats(2.0**50, 2.0**60))
    pi = ll - 30.0
    for _ in range(draw(st.integers(0, 3))):
        pi = math.nextafter(pi, draw(st.sampled_from((-math.inf, math.inf))))
    assume(math.isfinite(pi))
    return ll, pi


@settings(max_examples=1000)
@given(st.tuples(FINITE, FINITE) | near_a7_boundary())
@example((1e30, 1e30))
@example((2.0**54, 2.0**54 - 30))
@example((-1.7976931348623157e308, 1.7976931348623157e308))
@example((1.7976931348623157e308, -1.7976931348623157e308))
def test_a7_split_is_exact(pair):
    ll, pi = pair
    want = "A-7-5" if Fraction(pi) <= Fraction(ll) - 30 else "A-7-6"
    assert sf.a7_split(ll, pi) == want


class TestCrispClassify:
    def test_reference_specimens(self, fixtures):
        got = tuple(sf.crisp_classify(fx.sample) for fx in fixtures)
        assert got == ("A-2-6", "A-4", "A-7-6", "A-2-4", "A-6", "A-1-a")

    def test_nonplastic_requirement_for_a3(self):
        plastic = SoilSample(100, 76, 7, ll=19, pl=16)  # pi = 3
        assert sf.crisp_classify(plastic) == "A-2-4"
        nonplastic = SoilSample(100, 76, 7, ll=19, pl=19)  # pi = 0
        assert sf.crisp_classify(nonplastic) == "A-3"

    def test_first_fit_priority(self):
        # Fits A-1-a, therefore not reported as the equally matching A-1-b.
        s = SoilSample(40, 25, 10, ll=20, pl=15)
        assert sf.crisp_classify(s) == "A-1-a"
        # Push one property over an A-1-a bound at a time.
        assert sf.crisp_classify(SoilSample(60, 25, 10, ll=20, pl=15)) == "A-1-b"
        assert sf.crisp_classify(SoilSample(40, 25, 10, ll=20, pl=13)) == "A-1-b"

    def test_silt_clay_rows(self):
        assert sf.crisp_classify(SoilSample(100, 60, 20, ll=45, pl=37)) == "A-2-5"
        assert sf.crisp_classify(SoilSample(100, 60, 20, ll=45, pl=25)) == "A-2-7"
        assert sf.crisp_classify(SoilSample(100, 80, 50, ll=30, pl=22)) == "A-4"
        assert sf.crisp_classify(SoilSample(100, 80, 50, ll=45, pl=37)) == "A-5"
        assert sf.crisp_classify(SoilSample(100, 80, 50, ll=30, pl=15)) == "A-6"
        assert sf.crisp_classify(SoilSample(100, 80, 60, ll=70, pl=35)) == "A-7-5"
        assert sf.crisp_classify(SoilSample(100, 80, 60, ll=50, pl=20)) == "A-7-6"

    def test_thresholds_meet_between_integers(self):
        # Each bound's two sides meet: ll 40.5 is above 40, pi 10.5 above 10
        # and p425 50.5 above 50, so none of these falls through to A-7.
        assert sf.crisp_classify(SoilSample(100, 60, 20, ll=40.5, pl=35.5)) == "A-2-5"
        assert sf.crisp_classify(SoilSample(100, 60, 20, ll=30, pl=19.5)) == "A-2-6"
        assert sf.crisp_classify(SoilSample(100, 50.5, 8, ll=20, pl=20)) == "A-3"


def _near(lo, hi, *bounds):
    # Uniform draws seldom land within a unit of a table bound, where the
    # two sides of the bound must meet.
    return st.one_of(st.floats(lo, hi), *(st.floats(b - 1, b + 1) for b in bounds))


@st.composite
def continuous_samples(draw):
    sieves = sorted((draw(_near(0, 100, 10, 35, 50)) for _ in range(3)), reverse=True)
    ll = draw(_near(0, 150, 40))
    pi = min(draw(_near(0, 100, 10)), ll)
    return SoilSample(*sieves, ll=ll, pl=ll - pi, pi=pi)


@settings(max_examples=300, deadline=None)
@given(continuous_samples())
def test_crisp_group_meets_its_own_thresholds(sample):
    group = sf.crisp_classify(sample)
    # The ll/pi quadrant: 4 low ll and pi, 5 high ll, 6 high pi, 7 both high.
    quadrant = "4567"[(sample.ll > 40) + 2 * (sample.pi > 10)]
    if group.startswith("A-2-"):
        assert sample.p075 <= 35 and group == "A-2-" + quadrant
    elif group.startswith(("A-4", "A-5", "A-6", "A-7")):
        assert sample.p075 > 35 and group.startswith("A-" + quadrant)
    else:
        assert sample.p075 <= 35


class TestClassifyHrb:
    def test_paper_preset_winners(self, fixtures, paper_preset):
        got = tuple(
            sf.classify_hrb(fx.sample, paper_preset).subgroup for fx in fixtures
        )
        # Specimen 6 lands in A-2-4 with this preset; the crisp table and the
        # calibrated preset both put it in A-1-a.
        assert got == ("A-2-6", "A-4", "A-7-6", "A-3", "A-6", "A-2-4")

    def test_specimen1_tie_provenance(self, fixtures, paper_preset):
        res = sf.classify_hrb(fixtures[0].sample, paper_preset)
        assert res.report.tie
        assert set(res.report.tied) == {"A-2-6", "A-2-7"}
        assert res.report.winner == "A-2-6"
        assert res.report.scores["A-2-6"] == res.report.scores["A-2-7"]

    def test_calibrated_preset_winners(self, fixtures, calibrated_preset):
        got = tuple(
            sf.classify_hrb(fx.sample, calibrated_preset).subgroup for fx in fixtures
        )
        # Specimen 1 sits one unit past the pi <= 10 bound, so the calibrated
        # rules prefer A-2-4 where the crisp table says A-2-6.
        assert got == ("A-2-4", "A-4", "A-7-6", "A-2-4", "A-6", "A-1-a")

    def test_a7_resolution_uses_plasticity_index(self, paper_preset):
        res = sf.classify_hrb(SoilSample(100, 90, 80, ll=70, pl=30), paper_preset)
        assert res.report.winner == "A-7"
        assert res.subgroup == "A-7-5"  # pi = 40 <= 70 - 30

    def test_ratings(self, fixtures, paper_preset):
        res4 = sf.classify_hrb(fixtures[3].sample, paper_preset)
        assert res4.rating == "excellent to good"
        res1 = sf.classify_hrb(fixtures[0].sample, paper_preset)
        assert res1.rating == "fair to poor"

    def test_default_variables_are_read_only(self):
        # Every caller shares the cached ladders, so none may change them.
        shared = sf.hrb._default_variables()
        with pytest.raises(TypeError):
            shared["ll"] = shared["pi"]
        with pytest.raises(TypeError):
            del shared["ll"]
        assert sf.hrb._default_variables() is shared
        assert shared == sf.load_variables()


class TestPresetFiles:
    def test_fixture_shape(self, fixtures):
        assert len(fixtures) == 6
        third = fixtures[2]
        assert (third.sample.p2mm, third.sample.p425, third.sample.p075,
                third.sample.ll, third.sample.pl) == (100, 100, 92, 65, 25)
        assert third.winner == "A-7-6"
        fifth = fixtures[4]
        assert (fifth.sample.p075, fifth.sample.ll, fifth.sample.pl) == (78, 34, 10)
        assert fifth.winner == "A-6"

    def test_variables_shape(self, variables):
        counts = {name: len(var.labels) for name, var in variables.items()}
        assert counts == {"p2mm": 5, "p425": 7, "p075": 11, "ll": 9, "pi": 7}

    def test_presets_have_eleven_rules(self, paper_preset, calibrated_preset):
        for preset in (paper_preset, calibrated_preset):
            assert len(preset.rulebase.rules) == 11
            assert preset.rulebase.class_order == sf.CLASS_ORDER
            assert preset.rulebase.rules[-1].consequent == "A-7"

    def test_load_from_directory(self, tmp_path, variables):
        from importlib import resources
        src = resources.files("soilfuzz").joinpath("presets")
        for name in ("hrb-paper.frules", "hrb-calibrated.frules", "hrb-variables.txt"):
            shutil.copy(str(src / name), tmp_path / name)
        preset = sf.load_preset("paper", directory=tmp_path)
        assert len(preset.rulebase.rules) == 11
        assert sf.load_variables(tmp_path) == variables

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            sf.load_preset("nope")
