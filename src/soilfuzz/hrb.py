"""Highway Research Board (AASHTO M145) classification presets.

Bundles the five calibrated index-property partitions, two eleven-rule
presets (``paper``: the hand-written linguistic rules; ``calibrated``: rules
whose descriptor sets mirror the crisp M145 thresholds), the A-7-5/A-7-6
disambiguation, a crisp first-fit M145 classifier that serves as the
reference oracle, and six bundled validation specimens.

The rule parser and the rule engine load in ``load_preset`` and
``classify_hrb``, the functions that use them, so fuzzifying a sample or
classifying it crisply loads neither.
"""

import functools
import math
import types
from pathlib import Path
from typing import TYPE_CHECKING, Literal, Mapping, NamedTuple

from .errors import PartitionError, SampleError
from .fuzzy import Aggregator, LinguisticVariable, MembershipVector, fuzzify, make_partition

if TYPE_CHECKING:
    from .rules import ClassificationReport, RuleBase


def __getattr__(name: str):
    # bench/tracing.py wraps ``hrb.classify``; the rule engine loads only then.
    if name == "classify":
        from .rules import classify

        return classify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


VARIABLE_NAMES = ("p2mm", "p425", "p075", "ll", "pi")

CLASS_ORDER = (
    "A-1-a", "A-1-b", "A-3", "A-2-4", "A-2-5", "A-2-6", "A-2-7",
    "A-4", "A-5", "A-6", "A-7",
)

# Granular groups make good subgrade; silt-clay groups (and the plastic
# A-2-6/A-2-7 borderline gravels) do not.
_EXCELLENT = "excellent to good"
_FAIR = "fair to poor"
SUBGRADE_RATINGS = {
    "A-1-a": _EXCELLENT, "A-1-b": _EXCELLENT, "A-3": _EXCELLENT,
    "A-2-4": _EXCELLENT, "A-2-5": _EXCELLENT,
    "A-2-6": _FAIR, "A-2-7": _FAIR,
    "A-4": _FAIR, "A-5": _FAIR, "A-6": _FAIR,
    "A-7": _FAIR, "A-7-5": _FAIR, "A-7-6": _FAIR,
}


class _SoilSampleFields(NamedTuple):
    p2mm: float
    p425: float
    p075: float
    ll: float
    pl: float
    pi: float | None = None


class SoilSample(_SoilSampleFields):
    """Index properties of one specimen.

    ``pi`` defaults to ``ll - pl``; pass it explicitly to record a measured
    plasticity index instead.  Every property is stored as a float.
    """

    __slots__ = ()

    def __new__(
        cls, p2mm: float, p425: float, p075: float, ll: float, pl: float,
        pi: float | None = None,
    ):
        if pi is None:
            pi = float(ll) - float(pl)
        # Field by field, so the first field that fails is the one named.
        values = []
        for name, value in zip(cls._fields, (p2mm, p425, p075, ll, pl, pi)):
            value = float(value)
            if not math.isfinite(value):
                raise SampleError(f"non-finite {name} {value}")
            values.append(value)
        p2mm, p425, p075, ll, pl, pi = values
        if not 0.0 <= p075 <= p425 <= p2mm <= 100.0:
            raise SampleError(
                "sieve fractions must satisfy 0 <= p075 <= p425 <= p2mm <= 100 "
                f"(got p2mm={p2mm}, p425={p425}, p075={p075})"
            )
        if pi < 0.0:
            raise SampleError(f"negative plasticity index {pi}")
        return super().__new__(cls, p2mm, p425, p075, ll, pl, pi)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, so it is checked too.
        return cls(*iterable)


class HrbPreset(NamedTuple):
    """A named rule base over the HRB variables."""

    kind: str
    rulebase: "RuleBase"


class HrbResult(NamedTuple):
    """Fuzzy classification outcome plus the resolved M145 subgroup."""

    report: "ClassificationReport"
    subgroup: str
    rating: str


def _read_preset_text(filename: str, directory: str | Path | None) -> str:
    if directory is None:
        # The shipped presets are data files inside the package.
        directory = Path(__file__).parent / "presets"
    return (Path(directory) / filename).read_text(encoding="utf-8")


def parse_variables(text: str) -> dict[str, LinguisticVariable]:
    """Parse the variables file: ``name; labels; centers; domain`` per line."""
    out: dict[str, LinguisticVariable] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 4:
            raise PartitionError(f"variables file line {lineno}: expected 4 fields")
        name = parts[0]
        if name in out:
            raise PartitionError(f"variables file line {lineno}: duplicate variable {name}")
        labels = [lab.strip() for lab in parts[1].split(",")]
        try:
            centers = [float(c) for c in parts[2].split(",")]
            bounds = tuple(float(b) for b in parts[3].split(","))
        except ValueError as exc:
            raise PartitionError(
                f"variables file line {lineno}: non-numeric field ({exc})"
            ) from None
        if len(bounds) != 2:
            raise PartitionError(
                f"variables file line {lineno}: domain needs 2 bounds, got {len(bounds)}"
            )
        out[name] = make_partition(name, labels, centers, bounds)
    return out


def load_variables(directory: str | Path | None = None) -> dict[str, LinguisticVariable]:
    """Load the five HRB linguistic variables from the shipped file."""
    return parse_variables(_read_preset_text("hrb-variables.txt", directory))


@functools.lru_cache(maxsize=1)
def _default_variables() -> Mapping[str, LinguisticVariable]:
    # Read-only: every caller shares this one cached mapping.
    return types.MappingProxyType(load_variables())


def load_preset(
    kind: Literal["paper", "calibrated"],
    directory: str | Path | None = None,
    variables: Mapping[str, LinguisticVariable] | None = None,
) -> HrbPreset:
    """Load one of the shipped rule presets (``paper`` or ``calibrated``)."""
    if kind not in ("paper", "calibrated"):
        raise ValueError(f"unknown preset {kind!r} (expected 'paper' or 'calibrated')")
    if variables is None:
        variables = load_variables(directory) if directory else _default_variables()
    text = _read_preset_text(f"hrb-{kind}.frules", directory)
    from . import dsl

    return HrbPreset(kind=kind, rulebase=dsl.parse_rules(text, variables))


def fuzzify_sample(
    sample: SoilSample,
    pi_source: Literal["pi", "pl"] = "pi",
    variables: Mapping[str, LinguisticVariable] | None = None,
) -> dict[str, MembershipVector]:
    """Fuzzify each index property of a sample that ``variables`` has a ladder for.

    ``pi_source`` selects the value fed to the plasticity partition: the
    plasticity index itself (default) or, for compatibility with data sets
    whose plasticity rows track the plastic limit, ``"pl"``.
    """
    if variables is None:
        variables = _default_variables()
    return {
        name: fuzzify(variables[name], value)
        for name, value in zip(VARIABLE_NAMES, _property_values(sample, pi_source))
        if name in variables
    }


def _property_values(sample: SoilSample, pi_source: str) -> tuple[float, ...]:
    """The values fuzzified for ``VARIABLE_NAMES``, in that order."""
    if pi_source not in ("pi", "pl"):
        raise ValueError(f"pi_source must be 'pi' or 'pl', got {pi_source!r}")
    pi = sample.pi if pi_source == "pi" else sample.pl
    return sample.p2mm, sample.p425, sample.p075, sample.ll, pi


def a7_split(ll: float, pi: float) -> str:
    """Resolve group A-7: A-7-5 when pi <= ll - 30, else A-7-6.

    The comparison is exact for finite inputs: ``ll - 30.0`` in floats
    drops the 30 once ``ll`` reaches about 2**54, so the sign of
    ``ll - pi - 30`` is taken from its correctly rounded sum instead.
    """
    try:
        a75 = math.fsum((ll, -pi, -30.0)) >= 0.0
    except OverflowError:
        # ll - pi is beyond the float range, where the 30 cannot flip its sign.
        a75 = ll > pi
    return "A-7-5" if a75 else "A-7-6"


def classify_hrb(
    sample: SoilSample,
    preset: "HrbPreset | RuleBase",
    agg: Aggregator = Aggregator.MEAN,
    pi_source: Literal["pi", "pl"] = "pi",
    variables: Mapping[str, LinguisticVariable] | None = None,
) -> HrbResult:
    """Classify a sample with a fuzzy rule preset.

    Scores the rules with ``classify`` on ``fuzzify_sample``'s vectors, then
    resolves a winning A-7 group into A-7-5 or A-7-6 and attaches the
    subgrade rating.
    """
    from . import rules

    rb = preset.rulebase if isinstance(preset, HrbPreset) else preset
    report = rules.classify(rb, fuzzify_sample(sample, pi_source, variables), agg)
    subgroup = report.winner
    if subgroup == "A-7":
        subgroup = a7_split(sample.ll, sample.pi)
    return HrbResult(
        report=report,
        subgroup=subgroup,
        rating=SUBGRADE_RATINGS.get(subgroup, ""),
    )


def _ladders(variables: Mapping[str, LinguisticVariable]) -> dict[str, tuple[str, ...]]:
    """The ladder of each HRB property that ``variables`` has."""
    return {name: variables[name].labels for name in VARIABLE_NAMES if name in variables}


def crisp_classify(sample: SoilSample) -> str:
    """Crisp M145 classification: left-to-right first fit over the table.

    This is the laboratory-style oracle the fuzzy presets are checked
    against.  A-3 requires a non-plastic sample (pi exactly 0).
    """
    s = sample
    if s.p2mm <= 50 and s.p425 <= 30 and s.p075 <= 15 and s.pi <= 6:
        return "A-1-a"
    if s.p425 <= 50 and s.p075 <= 25 and s.pi <= 10:
        return "A-1-b"
    if s.p425 > 50 and s.p075 <= 10 and s.pi == 0:
        return "A-3"
    if s.p075 <= 35 and s.ll <= 40 and s.pi <= 10:
        return "A-2-4"
    if s.p075 <= 35 and s.ll > 40 and s.pi <= 10:
        return "A-2-5"
    if s.p075 <= 35 and s.ll <= 40 and s.pi > 10:
        return "A-2-6"
    if s.p075 <= 35 and s.ll > 40 and s.pi > 10:
        return "A-2-7"
    if s.ll <= 40 and s.pi <= 10:
        return "A-4"
    if s.ll > 40 and s.pi <= 10:
        return "A-5"
    if s.ll <= 40 and s.pi > 10:
        return "A-6"
    return a7_split(s.ll, s.pi)


class ReferenceFixture(NamedTuple):
    """One bundled validation specimen.

    ``memberships`` lists the expected nonzero degrees per variable (absent
    labels are zero).  The ``pi`` row tracks the plastic limit, i.e. it is
    what ``fuzzify_sample(sample, pi_source="pl")`` should reproduce.
    """

    sample: SoilSample
    memberships: dict[str, dict[str, float]]
    winner: str
    rating: str


def reference_fixtures() -> tuple[ReferenceFixture, ...]:
    """The six reference specimens used by the validation suite."""
    rows = (
        (
            (100, 100, 30, 32, 21),
            {
                "p2mm": {},
                "p425": {"VH": 1.0},
                "p075": {"MH": 1.0},
                "ll": {"LM": 0.8, "M": 0.2},
                "pi": {"LM": 0.2667, "M": 0.7333},
            },
            "A-2-6",
        ),
        (
            (100, 80, 40, 25, 17),
            {
                "p2mm": {},
                "p425": {"H": 0.8, "VH": 0.2},
                "p075": {"VH": 1.0},
                "ll": {"L": 0.5, "LM": 0.5},
                "pi": {"LM": 0.5333, "M": 0.4667},
            },
            "A-4",
        ),
        (
            (100, 100, 92, 65, 25),
            {
                "p2mm": {},
                "p425": {"VH": 1.0},
                "p075": {"VVH": 0.2667, "VVVH": 0.7333},
                "ll": {"MH": 0.3333, "H": 0.6667},
                "pi": {"M": 1.0},
            },
            "A-7-6",
        ),
        (
            (100, 76, 7, 19, 16),
            {
                "p2mm": {},
                "p425": {"H": 0.96, "VH": 0.04},
                "p075": {"VVL": 0.6, "VL": 0.4},
                "ll": {"VL": 0.1, "L": 0.9},
                "pi": {"LM": 0.6, "M": 0.4},
            },
            "A-3",
        ),
        (
            (100, 100, 78, 34, 10),
            {
                "p2mm": {},
                "p425": {"VH": 1.0},
                "p075": {"VVH": 0.7333, "VVVH": 0.2667},
                "ll": {"LM": 0.6, "M": 0.4},
                "pi": {"LM": 1.0},
            },
            "A-6",
        ),
        (
            (38, 30, 11, 23, 19),
            {
                "p2mm": {"H": 0.96, "VH": 0.04},
                "p425": {"LM": 1.0},
                "p075": {"VL": 0.8, "L": 0.2},
                "ll": {"L": 0.7, "LM": 0.3},
                "pi": {"LM": 0.4, "M": 0.6},
            },
            "A-1-a",
        ),
    )
    return tuple(
        ReferenceFixture(
            sample=SoilSample(*props),
            memberships=memberships,
            winner=winner,
            rating=SUBGRADE_RATINGS[winner],
        )
        for props, memberships, winner in rows
    )
