"""Seeded synthetic sample corpora for the benchmark.

Rows are drawn as p2mm~U(0,100), p425~U(0,p2mm), p075~U(0,p425),
ll~U(10,95), pi~U(0,min(ll,70)), each rounded to 0.1, with pl = ll - pi.
Values are kept in integer tenths so rounding can never break the sieve
ordering p075 <= p425 <= p2mm or make pi negative.

Labels for the induction corpus come from a frozen copy of the M145
first-fit table below, not from ``soilfuzz.hrb.crisp_classify``, so the
benchmark input stays fixed when the library's oracle changes.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Row:
    """One generated specimen, every property in tenths of a unit."""

    id: str
    p2mm: int
    p425: int
    p075: int
    ll: int
    pl: int

    @property
    def pi(self) -> int:
        return self.ll - self.pl


def _tenths(rng: random.Random, lo: int, hi: int) -> int:
    return round(rng.uniform(lo, hi))


def generate(seed: int, n: int) -> list[Row]:
    """Draw ``n`` rows; the same seed always gives the same rows."""
    rng = random.Random(seed)
    rows = []
    for i in range(1, n + 1):
        p2mm = _tenths(rng, 0, 1000)
        p425 = _tenths(rng, 0, p2mm)
        p075 = _tenths(rng, 0, p425)
        ll = _tenths(rng, 100, 950)
        pi = _tenths(rng, 0, min(ll, 700))
        rows.append(Row(f"S{i:06d}", p2mm, p425, p075, ll, ll - pi))
    return rows


def m145_group(row: Row) -> str:
    """Frozen M145 first-fit table over whole-unit thresholds, A-7 unsplit."""
    p2mm, p425, p075 = row.p2mm / 10, row.p425 / 10, row.p075 / 10
    ll, pi = row.ll / 10, row.pi / 10
    if p2mm <= 50 and p425 <= 30 and p075 <= 15 and pi <= 6:
        return "A-1-a"
    if p425 <= 50 and p075 <= 25 and pi <= 10:
        return "A-1-b"
    if p425 >= 51 and p075 <= 10 and pi == 0:
        return "A-3"
    if p075 <= 35 and ll <= 40 and pi <= 10:
        return "A-2-4"
    if p075 <= 35 and ll >= 41 and pi <= 10:
        return "A-2-5"
    if p075 <= 35 and ll <= 40 and pi >= 11:
        return "A-2-6"
    if p075 <= 35 and ll >= 41 and pi >= 11:
        return "A-2-7"
    if ll <= 40 and pi <= 10:
        return "A-4"
    if ll >= 41 and pi <= 10:
        return "A-5"
    if ll <= 40 and pi >= 11:
        return "A-6"
    return "A-7"


def _cell(tenths: int) -> str:
    return f"{tenths // 10}.{tenths % 10}"


def values(row: Row) -> dict[str, float]:
    """The floats the CLI parses from this row's cells."""
    return {
        name: float(_cell(getattr(row, name)))
        for name in ("p2mm", "p425", "p075", "ll", "pl")
    }


def to_csv(rows: list[Row], labeled: bool = False) -> str:
    """Render rows as the CLI's input CSV, with a ``class`` column if asked."""
    header = "id,p2mm,p425,p075,ll,pl" + (",class" if labeled else "")
    lines = [header]
    for r in rows:
        cells = [r.id, *(_cell(v) for v in (r.p2mm, r.p425, r.p075, r.ll, r.pl))]
        if labeled:
            cells.append(m145_group(r))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
