"""Report-side number formatting.

Degrees are computed in full precision everywhere; only rendering rounds,
to 4 decimal places with half-up ties (so 0.00005 prints as 0.0001, not the
bankers' 0.0000 that ``round`` would give).
"""

from decimal import ROUND_HALF_UP, Decimal


def round4(x: float) -> float:
    """Half-up rounding to 4 decimal places."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.0001"), ROUND_HALF_UP))


def fmt_score(x: float) -> str:
    """Fixed 4-decimal rendering for report scores."""
    return f"{round4(x):.4f}"


def fmt_degree(x: float) -> str:
    """Table-cell rendering: 4 decimals with trailing zeros trimmed.

    Gives "0", "1", "0.96", "0.2667" rather than "0.0000"-style cells.
    """
    return degree_text(round4(x))


def degree_text(r: float) -> str:
    """:func:`fmt_degree` of a value that :func:`round4` has already rounded."""
    text = f"{r:.4f}".rstrip("0").rstrip(".")
    return text or "0"
