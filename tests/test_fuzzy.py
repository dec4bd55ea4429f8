import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilfuzz import FuzzificationError, PartitionError, fuzzify, load_variables, make_partition
from soilfuzz.fuzzy import active_columns, active_descriptors


def five_range():
    return make_partition(
        "p2mm", ["VL", "L", "M", "H", "VH"], [0, 12.5, 25, 37.5, 50], (0, 100)
    )


class TestMakePartition:
    def test_valid(self):
        var = five_range()
        assert var.labels == ("VL", "L", "M", "H", "VH")
        assert var.centers == (0.0, 12.5, 25.0, 37.5, 50.0)

    def test_length_mismatch(self):
        with pytest.raises(PartitionError, match="labels but"):
            make_partition("x", ["A", "B", "C"], [0, 10], (0, 100))

    def test_non_increasing_centers(self):
        with pytest.raises(PartitionError, match="strictly increasing"):
            make_partition("x", ["A", "B"], [5, 5], (0, 100))

    def test_centers_outside_domain(self):
        with pytest.raises(PartitionError, match="exceed domain"):
            make_partition("x", ["A", "B"], [0, 120], (0, 100))

    def test_too_few_descriptors(self):
        with pytest.raises(PartitionError, match="at least 2"):
            make_partition("x", ["A"], [0], (0, 100))

    def test_duplicate_labels(self):
        with pytest.raises(PartitionError, match="duplicate"):
            make_partition("x", ["A", "A"], [0, 10], (0, 100))

    # Every comparison with NaN is false, so no ordering check catches it.
    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center(self, center):
        with pytest.raises(PartitionError, match="centers must be finite"):
            make_partition("x", ["A", "B", "C"], [0, center, 25], (0, 100))

    @pytest.mark.parametrize("domain", [(math.nan, 100), (0, math.nan)])
    def test_nan_domain_bound(self, domain):
        with pytest.raises(PartitionError, match="domain bounds must not be NaN"):
            make_partition("x", ["A", "B"], [0, 10], domain)

    def test_unbounded_domain(self):
        var = make_partition("x", ["A", "B"], [0, 10], (-math.inf, math.inf))
        assert (var.domain_min, var.domain_max) == (-math.inf, math.inf)
        assert fuzzify(var, 1e300).nonzero() == {}
        values = [-1e300, 5.0, 1e300]
        assert active_columns(var, values, range(len(values))) == {
            "A": ([1], [0.5]), "B": ([1], [0.5]),
        }


class TestFuzzify:
    def test_between_top_centers(self):
        mv = fuzzify(five_range(), 38)
        assert mv.nonzero() == pytest.approx({"H": 0.96, "VH": 0.04})

    def test_beyond_top_center_is_all_zero(self):
        mv = fuzzify(five_range(), 100)
        assert all(d == 0.0 for d in mv.entries.values())

    def test_at_center(self):
        assert fuzzify(five_range(), 25).nonzero() == {"M": 1.0}

    def test_eleven_range_cell(self, variables):
        mv = fuzzify(variables["p075"], 92)
        assert mv.nonzero() == pytest.approx({"VVH": 0.2667, "VVVH": 0.7333}, abs=1e-4)

    def test_outside_domain_names_variable(self):
        with pytest.raises(FuzzificationError, match="p2mm"):
            fuzzify(five_range(), 101)
        with pytest.raises(FuzzificationError, match="p2mm"):
            fuzzify(five_range(), -1)

    def test_nan_rejected(self):
        with pytest.raises(FuzzificationError, match="p2mm"):
            fuzzify(five_range(), math.nan)

    def test_below_first_center_is_all_zero(self):
        var = make_partition("x", ["A", "B"], [10, 20], (0, 30))
        assert all(d == 0.0 for d in fuzzify(var, 5).entries.values())
        assert fuzzify(var, 10).nonzero() == {"A": 1.0}


class TestPartitionProperties:
    def test_ruspini_sum(self, variables):
        rng = random.Random(7)
        for var in variables.values():
            lo, hi = var.centers[0], var.centers[-1]
            for _ in range(1000):
                x = lo + rng.random() * (hi - lo)
                total = sum(fuzzify(var, x).entries.values())
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_center_identity(self, variables):
        for var in variables.values():
            for i, c in enumerate(var.centers):
                mv = fuzzify(var, c)
                for j, lab in enumerate(var.labels):
                    assert mv.entries[lab] == (1.0 if i == j else 0.0)

    def test_locality_two_adjacent_nonzero(self, variables):
        rng = random.Random(11)
        for var in variables.values():
            for _ in range(500):
                x = var.domain_min + rng.random() * (var.domain_max - var.domain_min)
                active = [i for i, lab in enumerate(var.labels)
                          if fuzzify(var, x).entries[lab] > 0]
                assert len(active) <= 2
                if len(active) == 2:
                    assert active[1] - active[0] == 1

    def test_zero_beyond_support(self, variables):
        rng = random.Random(13)
        for var in variables.values():
            top = var.centers[-1]
            if top >= var.domain_max:
                continue
            for _ in range(100):
                x = top + rng.random() * (var.domain_max - top)
                if x == top:
                    continue
                assert all(d == 0.0 for d in fuzzify(var, x).entries.values())

    def test_piecewise_linear_between_centers(self, variables):
        # Three equally spaced points inside a center interval must be
        # collinear for every descriptor degree.
        for var in variables.values():
            for left, right in zip(var.centers, var.centers[1:]):
                xs = [left + (right - left) * f for f in (0.25, 0.5, 0.75)]
                vecs = [fuzzify(var, x) for x in xs]
                for lab in var.labels:
                    d0, d1, d2 = (v.entries[lab] for v in vecs)
                    assert d0 + d2 == pytest.approx(2 * d1, abs=1e-12)


def triangle_degrees(var, x):
    """Reference: every descriptor's own triangle, evaluated label by label."""
    c, last = var.centers, len(var.centers) - 1
    out = []
    for i in range(last + 1):
        if x < c[0] or x > c[last]:
            d = 0.0
        elif i == 0:
            d = (c[1] - x) / (c[1] - c[0]) if x <= c[1] else 0.0
        elif i == last:
            d = (x - c[last - 1]) / (c[last] - c[last - 1]) if x >= c[last - 1] else 0.0
        else:
            rise = (x - c[i - 1]) / (c[i] - c[i - 1])
            fall = (c[i + 1] - x) / (c[i + 1] - c[i])
            d = max(min(rise, fall), 0.0)
        out.append(d)
    return out


def test_two_neighbour_fuzzify_matches_triangles(variables):
    # Bit-for-bit, sign of zero included, on a 0.01 grid over each domain
    # plus both float neighbours of every center and domain bound.
    for var in variables.values():
        lo, hi = var.domain_min, var.domain_max
        xs = [lo + (hi - lo) * k / 10000 for k in range(10001)]
        for edge in (*var.centers, lo, hi):
            xs += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        for x in xs:
            if not lo <= x <= hi:
                continue
            got = list(fuzzify(var, x).entries.values())
            want = triangle_degrees(var, x)
            assert got == want, x
            assert [math.copysign(1, d) for d in got] == [
                math.copysign(1, d) for d in want
            ], x
        # The same points through the batch fuzzifier in one call, shuffled
        # so that positions are not in value order.
        inside = [x for x in xs if lo <= x <= hi]
        random.Random(19).shuffle(inside)
        got = active_columns(var, inside, range(len(inside)))
        assert hexed(got) == hexed(by_label(var, inside))


# The shipped ladders, one whose first center is above its domain's lower
# bound and one across zero.
LADDERS = (
    *load_variables().values(),
    make_partition("x", ["A", "B", "C"], [10, 20, 60], (0, 100)),
    make_partition("z", ["N", "P"], [-5, 5], (-10, 10)),
)


def ladder_points(var):
    """The first and every center, ±0.0, beyond the end centers, the domain ends."""
    c = var.centers
    return (
        st.sampled_from((*c, var.domain_min, var.domain_max, 0.0, -0.0))
        | st.floats(var.domain_min, c[0])
        | st.floats(c[-1], var.domain_max)
        | st.floats(var.domain_min, var.domain_max)
    )


def by_label(var, values):
    """``active_descriptors`` value by value, indexed as ``active_columns`` indexes it."""
    index = {}
    for position, x in enumerate(values):
        for label, degree in active_descriptors(var, x):
            entry = index.setdefault(label, ([], []))
            entry[0].append(position)
            entry[1].append(degree)
    return index


def hexed(index):
    # ``float.hex`` tells -0.0 from 0.0, which compare equal.
    return {label: (at, [d.hex() for d in degrees]) for label, (at, degrees) in index.items()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_active_columns_equal_active_descriptors(data):
    var = data.draw(st.sampled_from(LADDERS))
    values = data.draw(st.lists(ladder_points(var), max_size=40))
    got = active_columns(var, values, range(len(values)))
    assert hexed(got) == hexed(by_label(var, values))
    assert all(type(at) is list and type(d) is list for at, d in got.values())
    # Given a list of positions, the result holds those very ints.
    positions = list(range(len(values)))
    shared = active_columns(var, values, positions)
    assert hexed(shared) == hexed(got)
    held = {id(p) for at, _ in shared.values() for p in at}
    assert held <= {id(p) for p in positions}
