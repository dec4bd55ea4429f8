"""Report-side number formatting.

Degrees are computed in full precision everywhere; only rendering rounds,
to 4 decimal places with half-up ties (so 0.00005 prints as 0.0001, not the
bankers' 0.0000 that ``round`` would give).

The ties are those of the shortest decimal form of the float, ``repr(x)``,
rounded with :class:`decimal.Decimal`.  :func:`round4` takes that route only
when it can matter.  ``round(x, 4)`` rounds the exact binary value of ``x``
correctly, and ``repr(x)`` lies within half an ulp of it, so the two can
only disagree when ``x`` is that close to a 5-decimal half point.  For
``|x| < 1e6`` an ulp is below 1.2e-10, and ``x - round(x, 4)`` is exact, so
``round`` is kept unless ``x`` is within 1e-9 of a half point.  Larger
values always take the ``Decimal`` route, since near 1e7 an ulp passes 1e-9
and the guard would miss ties; from 2**52 up every float is a whole number
and is returned as it is, as are NaN and the infinities.
"""

_FAST_BOUND = 1e6
_TIE_TOL = 1e-9
_WHOLE = 2.0**52


def round4(x: float) -> float:
    """Half-up rounding to 4 decimal places."""
    x = float(x)
    if -_FAST_BOUND < x < _FAST_BOUND:
        r = round(x, 4)
        if abs(abs(x - r) - 5e-5) > _TIE_TOL:
            return r
    elif not -_WHOLE < x < _WHOLE:
        return x
    # Rare: imported here so that the CLI starts without ``decimal``.
    from decimal import ROUND_HALF_UP, Decimal

    return float(Decimal(repr(x)).quantize(Decimal("0.0001"), ROUND_HALF_UP))


def fmt_score(x: float) -> str:
    """Fixed 4-decimal rendering for report scores, ``f"{round4(x):.4f}"``."""
    # float(text) == round(x, 4) below 1e6, so off round4's ties this is its text.
    text = f"{x:.4f}"
    if -_FAST_BOUND < x < _FAST_BOUND and abs(abs(x - float(text)) - 5e-5) > _TIE_TOL:
        return text
    return f"{round4(x):.4f}"


def fmt_degree(x: float) -> str:
    """Table-cell rendering: :func:`fmt_score`'s text with trailing zeros and a bare point trimmed.

    Gives "0", "1", "0.96", "0.2667" rather than "0.0000"-style cells.
    """
    return fmt_score(x).rstrip("0").rstrip(".")
