"""Hypothesis strategies shared by the cross-backend suites.

Bit-identical backends can only disagree where floats are special, so
the fuzzers draw those values on purpose: both signed zeros, the
smallest and largest subnormals and the smallest normal (products of
these underflow to a signed zero), and a short list of repeated values
so that depths tie exactly.
"""

from __future__ import annotations

from hypothesis import strategies as st

#: Smallest subnormal, largest subnormal and smallest normal float64.
TINY = (5e-324, 2.225073858507201e-308, 2.2250738585072014e-308)

#: Values that tell a careless batched kernel from the reference.
EDGE_FLOATS = (0.0, -0.0) + TINY + tuple(-x for x in TINY)


def edge_floats(min_value: float, max_value: float,
                ties=()) -> st.SearchStrategy:
    """Floats in ``[min_value, max_value]``, drawn often from the edge
    values in range, the bounds and ``ties`` (repeats make exact ties
    likely), otherwise from the whole range, subnormals included."""
    # Keyed by repr: a set would merge 0.0 and -0.0.
    specials = {repr(value): value
                for value in EDGE_FLOATS + tuple(ties) + (min_value,
                                                          max_value)
                if min_value <= value <= max_value}
    return st.one_of(
        st.sampled_from(sorted(specials.values(), key=repr)),
        st.floats(min_value=min_value, max_value=max_value,
                  allow_nan=False, allow_subnormal=True),
    )
