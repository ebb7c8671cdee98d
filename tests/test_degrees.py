"""The degree helpers against their plain zip-based definitions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktwist import degrees as dg

entries = st.integers(-6, 6)
degrees = st.lists(entries, max_size=4).map(tuple)
# two degrees of one length, drawn entry by entry
same_length_pairs = st.lists(st.tuples(entries, entries), max_size=4).map(lambda xy: tuple(zip(*xy)) or ((), ()))

REFERENCE = {
    dg.add: lambda a, b: tuple(x + y for x, y in zip(a, b, strict=True)),
    dg.sub: lambda a, b: tuple(x - y for x, y in zip(a, b, strict=True)),
    dg.join: lambda a, b: tuple(max(x, y) for x, y in zip(a, b, strict=True)),
}


@given(same_length_pairs)
def test_two_operand_helpers_match_the_zip_definitions(ab):
    a, b = ab
    for helper, reference in REFERENCE.items():
        got = helper(a, b)
        assert type(got) is tuple and got == reference(a, b)


@given(degrees, degrees)
def test_a_length_mismatch_still_raises(a, b):
    for helper, reference in REFERENCE.items():
        if len(a) == len(b):
            assert helper(a, b) == reference(a, b)
            continue
        with pytest.raises(ValueError):
            reference(a, b)
        with pytest.raises(ValueError, match="differ in length"):
            helper(a, b)


@given(degrees, st.integers(-3, 3))
def test_one_operand_helpers_match_the_generator_definitions(a, c):
    for got, want in (
        (dg.scale(c, a), tuple(c * x for x in a)),
        (dg.pos_part(a), tuple(max(x, 0) for x in a)),
        (dg.neg_part(a), tuple(max(-x, 0) for x in a)),
    ):
        assert type(got) is tuple and got == want
    assert dg.sub(dg.pos_part(a), dg.neg_part(a)) == a
