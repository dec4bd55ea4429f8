"""Linguistic variables as triangular Ruspini partitions.

A variable is described by an ordered ladder of descriptors (VL, L, M, ...)
with strictly increasing triangle centers.  Each descriptor's triangle has its
feet on the neighbouring centers, so inside [centers[0], centers[-1]] the
degrees of all descriptors sum to 1 and at most two adjacent descriptors are
active.  Outside that span every degree is 0: values above the top center do
not belong to the top descriptor at all.

:func:`active_descriptors` is the one fuzzifier: it checks the value against
the domain and returns only the active descriptors, as at most two
``(label, degree)`` pairs.  The rule evaluator works on these pairs directly;
:func:`fuzzify` spreads them over the whole ladder as a
:class:`MembershipVector`, the reporting view.

Variables and membership vectors are immutable; fuzzification is a pure
function, so everything here is safe to share between threads.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .errors import FuzzificationError, PartitionError


@dataclass(frozen=True)
class LinguisticVariable:
    """An ordered triangular partition over a bounded numeric domain.

    Use :func:`make_partition` instead of constructing this directly; the
    factory validates the geometry.
    """

    name: str
    labels: tuple[str, ...]
    centers: tuple[float, ...]
    domain_min: float
    domain_max: float


@dataclass(frozen=True)
class MembershipVector:
    """Degrees of one crisp value against every descriptor of a variable.

    ``entries`` keeps every label of the variable in ladder order, including
    zero degrees, so a full table row can be rendered from it directly.
    """

    variable: str
    entries: dict[str, float]

    def nonzero(self) -> dict[str, float]:
        return {lab: d for lab, d in self.entries.items() if d > 0.0}


def make_partition(
    name: str,
    labels: list[str] | tuple[str, ...],
    centers: list[float] | tuple[float, ...],
    domain: tuple[float, float],
) -> LinguisticVariable:
    """Build a validated linguistic variable.

    Args:
        name: variable identifier, e.g. ``"p075"``.
        labels: descriptor labels, ordered from low to high.
        centers: triangle centers, one per label, strictly increasing.
        domain: (min, max) bounds of admissible input values.

    Raises:
        PartitionError: on a length mismatch, non-increasing centers,
            centers outside the domain, or bad labels.
    """
    labels = tuple(str(lab) for lab in labels)
    centers = tuple(float(c) for c in centers)
    domain_min, domain_max = float(domain[0]), float(domain[1])

    if len(labels) != len(centers):
        raise PartitionError(
            f"{name}: {len(labels)} labels but {len(centers)} centers"
        )
    if len(labels) < 2:
        raise PartitionError(f"{name}: a partition needs at least 2 descriptors")
    if any(not lab for lab in labels):
        raise PartitionError(f"{name}: empty descriptor label")
    if len(set(labels)) != len(labels):
        raise PartitionError(f"{name}: duplicate descriptor labels")
    if any(b <= a for a, b in zip(centers, centers[1:])):
        raise PartitionError(f"{name}: centers must be strictly increasing")
    if centers[0] < domain_min or centers[-1] > domain_max:
        raise PartitionError(
            f"{name}: centers {centers[0]}..{centers[-1]} exceed domain "
            f"[{domain_min}, {domain_max}]"
        )
    return LinguisticVariable(name, labels, centers, domain_min, domain_max)


def active_descriptors(
    var: LinguisticVariable, x: float
) -> tuple[tuple[str, float], ...]:
    """The descriptors of ``var`` active at ``x``, as ``(label, degree)`` pairs.

    Inside ``[centers[0], centers[-1]]`` these are the two descriptors whose
    centers bracket ``x``, low first (one of the degrees is 0 at a center);
    beyond either end center there are none.

    Raises:
        FuzzificationError: if ``x`` is outside the variable's domain or NaN.
    """
    x = float(x)
    if not var.domain_min <= x <= var.domain_max:
        raise FuzzificationError(
            f"{var.name}: value {x} outside domain "
            f"[{var.domain_min}, {var.domain_max}]"
        )
    c = var.centers
    if not c[0] <= x <= c[-1]:
        return ()
    j = max(bisect_left(c, x), 1)
    w = c[j] - c[j - 1]
    return ((var.labels[j - 1], (c[j] - x) / w), (var.labels[j], (x - c[j - 1]) / w))


def fuzzify(var: LinguisticVariable, x: float) -> MembershipVector:
    """Evaluate every descriptor of ``var`` at the crisp value ``x``.

    The first descriptor has only its falling edge and the last only its
    rising edge; values beyond either end center get an all-zero vector.

    Raises:
        FuzzificationError: if ``x`` is outside the variable's domain or NaN.
    """
    degrees = dict.fromkeys(var.labels, 0.0)
    degrees.update(active_descriptors(var, x))
    return MembershipVector(variable=var.name, entries=degrees)
