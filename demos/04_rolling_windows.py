"""Rolling computations: sliding, tiling, and stretching windows.

The window machinery works on plain sequences, so it composes with
whatever does the arithmetic.  Here numpy supplies the arithmetic and the
cross-checks.
"""

import numpy as np

from temporaltable import (
    Window,
    build,
    render_summary,
    roll_by_key,
    slide,
    slide2,
    stretch,
    tile,
    timepoint as tp,
)

rng = np.random.default_rng(7)
prices = np.round(100 + rng.standard_normal(24).cumsum(), 2)

# slide: overlapping windows, one result per window end.
ma5 = slide(prices.tolist(), lambda w: float(np.mean(w)), Window(5))
assert len(ma5) == len(prices) - 4
assert np.allclose(ma5, np.convolve(prices, np.ones(5) / 5, mode="valid"))
print("last 5-step moving average:", round(ma5[-1], 4))

# partial=True warms up with the incomplete leading windows.
warm = slide(prices.tolist(), lambda w: float(np.mean(w)), Window(5, partial=True))
assert len(warm) == len(prices)
assert warm[0] == prices[0]

# tile: the same idea without overlap, one result per block.
blocks = tile(prices.tolist(), max, 6)
assert blocks == [max(prices[i : i + 6]) for i in range(0, 24, 6)]

# stretch: the window only grows.  Running extremes come out directly.
running_max = stretch(prices.tolist(), max)
assert running_max == np.maximum.accumulate(prices).tolist()

# slide2 pairs two sequences window by window.
volume = rng.integers(100, 900, size=24).tolist()
vwap = slide2(
    prices.tolist(),
    volume,
    lambda p, v: float(np.average(p, weights=v)),
    Window(5),
)
print("last 5-step volume-weighted price:", round(vwap[-1], 4))

# On a table, roll_by_key applies the window within each series and
# aligns results to the window-end rows.
days = [tp.day(2024, 3, d) for d in range(1, 13)]
t = build(
    {
        "ticker": ["AAA"] * 12 + ["BBB"] * 12,
        "day": days + days,
        "price": prices[:12].tolist() + prices[12:].tolist(),
    },
    index="day",
    key=("ticker",),
)
smooth = roll_by_key(
    t, "price", "slide", lambda w: round(float(np.mean(w)), 3), Window(3),
    as_name="price_ma3",
)
print()
print(render_summary(smooth, preview=4))

# The first size - 1 rows of each series have no complete window.
for kt, rows in ((("AAA",), range(0, 12)), (("BBB",), range(12, 24))):
    head = [smooth.row(r)["price_ma3"] for r in list(rows)[:2]]
    assert head == [None, None], kt

# An aggregate spec from summarize's vocabulary can stand in for the
# function; the running high here equals numpy's cumulative maximum.
high = roll_by_key(t, "price", "stretch", "max", 1, as_name="price_high")
for kt, rows in ((("AAA",), range(0, 12)), (("BBB",), range(12, 24))):
    got = [high.row(r)["price_high"] for r in rows]
    assert got == np.maximum.accumulate(prices[rows.start : rows.stop]).tolist(), kt
print("running high of each ticker:", [high.row(r)["price_high"] for r in (11, 23)])
