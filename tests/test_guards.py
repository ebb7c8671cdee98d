"""Guards on arguments that the program's own callers always pass right.

Input from files and the command line is checked where it is read (see
`tests/test_io.py`); the checks here stay as preconditions of library
calls, and each case trips one of them.
"""

import pytest

from ktwist import degrees as dg
from ktwist.cocycles import BicharacterTable, PullbackCocycle, cocycle_value, validate_cocycle
from ktwist.groupoid import InducedCocycle, compose_elements, element
from ktwist.io import cocycle_to_jsonable
from ktwist.kgraph import (ComposabilityError, Edge, EventuallyPeriodicPath, KGraph, builtin, canonical_tail,
                           product_base, rotation_walk)
from ktwist.lattices import KroneckerResult, LatticeBasis, hnf, integral_pairing_lattice, verify_kronecker
from ktwist.oracle import CoboundaryBx
from ktwist.phases import PhaseExponent

ZERO = PhaseExponent.zero()
T2 = builtin("T2")
C3 = builtin("C3")


def _disjoint2_element(mu, nu, tail):
    """An element on DISJOINT2, the graph of one loop at each of u and w."""
    g = builtin("DISJOINT2")
    return element(g.edge_path(mu), g.edge_path(nu), canonical_tail(g, tail))


def _disjoint2_elements():
    g = builtin("DISJOINT2")
    return [element(g.edge_path(e), g.edge_path(e), canonical_tail(g, v)) for e, v in (("lu", "u"), ("lw", "w"))]


def _c3_tail_on_an_edge():
    g = builtin("C3")
    return EventuallyPeriodicPath(g, g.vertex_path("v0"), g.edge_path("c0"))


def _coboundary_of_rank_1_on_t2():
    s = InducedCocycle(PullbackCocycle(((ZERO, ZERO), (ZERO, ZERO))))
    return CoboundaryBx(BicharacterTable.zero(1), s, canonical_tail(T2, "v"), ((1, 0), (0, 1)))


def _forged_dense_columns():
    cert = {"kind": "irrational_full_rank", "columns": [[0, "theta"], [0, "theta"]], "det": "1"}
    return verify_kronecker([(ZERO,)], 2, KroneckerResult(True, 2, LatticeBasis.trivial(2), cert))


# the call, what it raises, and the message
INTERNAL_GUARDS = {
    "unit colour 0": (lambda: dg.unit(2, 0), ValueError, "color 0 out of range 1..2"),
    "unit colour above k": (lambda: dg.unit(2, 3), ValueError, "color 3 out of range 1..2"),
    "lattice row length": (lambda: LatticeBasis.from_rows([(1, 0, 0)], 2), ValueError, "row length does not match dim"),
    "lattice member length": (lambda: LatticeBasis.from_rows([(1, 0)], 2).member((1, 0, 0)), ValueError,
                              "vector length does not match dim"),
    "ragged hnf": (lambda: hnf([(1, 0), (1, 2, 3)]), ValueError, "ragged matrix"),
    "pairing generator length": (lambda: integral_pairing_lattice([(ZERO,)], 2), ValueError,
                                 "generator 0 has length 1, expected 2"),
    "recheck generator length": (_forged_dense_columns, ValueError, "generator 0 has length 1, expected 2"),
    "element sides apart": (lambda: _disjoint2_element("lu", "lw", "u"), ValueError,
                            "pair must share a source vertex"),
    "element tail elsewhere": (lambda: _disjoint2_element("lu", "lu", "w"), ValueError,
                               "tail must begin at the pair's source vertex"),
    "elements not composable": (lambda: compose_elements(*_disjoint2_elements()), ValueError,
                                "elements are not composable"),
    "coboundary target rank": (_coboundary_of_rank_1_on_t2, ValueError,
                               "target rank does not match the generator count"),
    "cycle not a loop": (_c3_tail_on_an_edge, ValueError, "cycle must be a loop at the prefix source"),
    "prepend onto another vertex": (lambda: canonical_tail(C3, "v0").prepend(C3.edge_path("c1")), ComposabilityError,
                                    "cannot compose: source 'v2' != range 'v0'"),
    "unknown vertex": (lambda: T2.vertex_path("w"), ValueError, "unknown vertex 'w'"),
    "segment ends out of order": (lambda: T2.segment(T2.make_path("v", ["a", "b"]), (1, 0), (0, 1)), ValueError, "need (1, 0) <= (0, 1)"),
    "degree of the wrong length": (lambda: T2.paths_from("v", (1,)), ValueError, "bad degree (1,)"),
    "paths from an unknown vertex": (lambda: T2.paths_from("w", (1, 0)), ValueError, "unknown vertex 'w'"),
    "rotation walk into a source": (lambda: rotation_walk(KGraph(1, ("u", "w"), (Edge("e", 1, "u", "u"),), ()), "w"),
                                    ValueError, "vertex 'w' has no color-1 edge; graph has sources"),
    "product base of every colour": (lambda: product_base(T2, 2), ValueError,
                                     "cannot split 2 torus colors off a 2-color graph"),
    "bicharacter vector length": (lambda: BicharacterTable.zero(2).value((1,), (1, 0)), ValueError,
                                  "vector length does not match bicharacter rank"),
    "value of no cocycle": (lambda: cocycle_value("x", T2.edge_path("a"), T2.edge_path("b")), TypeError,
                            "unknown cocycle spec str"),
    "validate no cocycle": (lambda: validate_cocycle("x", T2, 2), TypeError, "unknown cocycle spec str"),
    "serialise no cocycle": (lambda: cocycle_to_jsonable("x"), TypeError, "unknown cocycle spec str"),
    "phase field assigned": (lambda: setattr(ZERO, "num", 1), AttributeError, "cannot assign to field 'num'"),
    "phase field deleted": (lambda: delattr(ZERO, "num"), AttributeError, "cannot delete field 'num'"),
}


@pytest.mark.parametrize("call, error, text", INTERNAL_GUARDS.values(), ids=list(INTERNAL_GUARDS))
def test_internal_guard_rejects_a_bad_argument(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == text
