"""Four families of twisted k-graph algebras whose simplicity is known in
closed form, drawn at random for a differential test of `decide_simplicity`.

Each value is a phase exponent written as (rational part, coefficient of
theta, coefficient of eta), theta and eta independent irrationals.  The
prediction of a draw is read off those numbers alone; nothing of
`lattices` or `decider` enters it.

- B_n x T1, n = 2..4, with a phi-omega cocycle: phi drawn on the n loops
  of B_n, 0 on the torus loop, and omega = 0.  The algebra is O_n crossed
  by Z through the quasifree action that multiplies s_e by
  exp(2 pi i phi(e)).  It is simple iff no nonzero power of that action is
  inner, that is iff some phi(e) is irrational (Kishimoto, "Outer
  automorphisms and reduced crossed products of simple C*-algebras",
  CMP 1981; Matsumoto-Tomiyama, "Outer automorphisms on Cuntz algebras",
  Bull. LMS 1993).
- B_n x T1, n = 2..4, with the pullback of a drawn 2 x 2 matrix Theta.
  The torus loop rotates every s_e by the same phase Theta_21 - Theta_12,
  so this is the previous family with phi(e) = Theta_21 - Theta_12 on
  every loop, and the same argument of Kishimoto and Matsumoto-Tomiyama
  applies: it is simple iff Theta_21 - Theta_12 is irrational.
- T2 with the pullback of a drawn 2 x 2 matrix Theta.  The algebra is the
  rotation algebra of Theta_21 - Theta_12, simple iff that difference is
  irrational (Slawny, "On factor representations and the C*-algebra of
  canonical commutation relations", CMP 1972).
- T_k, k = 3 or 4, with the pullback of a drawn k x k matrix Theta: a
  noncommutative torus, simple iff Theta - Theta^T is nondegenerate
  (Slawny, as above; Phillips, "Every simple higher dimensional
  noncommutative torus is an AT algebra", 2006).  See `nondegenerate`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ktwist.cocycles import BicharacterTable, OneCocyclePhi, PhiOmegaCocycle, PullbackCocycle
from ktwist.kgraph import builtin
from ktwist.phases import PhaseExponent

# 0, 1/2, 1/3, 2/5, theta, 1/2 + theta, 2 theta, eta, 1/3 + eta
VALUES = (
    (Fraction(0), 0, 0),
    (Fraction(1, 2), 0, 0),
    (Fraction(1, 3), 0, 0),
    (Fraction(2, 5), 0, 0),
    (Fraction(0), 1, 0),
    (Fraction(1, 2), 1, 0),
    (Fraction(0), 2, 0),
    (Fraction(0), 0, 1),
    (Fraction(1, 3), 0, 1),
)
DRAWS = 120


def phase(value) -> PhaseExponent:
    rat, theta, eta = value
    return PhaseExponent.of(rat, theta=theta, eta=eta)


def irrational(value) -> bool:
    return value[1] != 0 or value[2] != 0


def bn_t1_phi(seed: int = 19):
    """DRAWS triples (graph, cocycle, predicted simple) on B_n x T1."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        n = rng.randint(2, 4)
        g = builtin(f"B{n}xT1")
        values = {e.id: rng.choice(VALUES) for e in g.edges if e.color == 1}
        table = {e.id: (phase(values.get(e.id, VALUES[0])),) for e in g.edges}
        c = PhiOmegaCocycle(1, OneCocyclePhi(1, table), BicharacterTable.zero(1))
        yield g, c, any(irrational(v) for v in values.values())


def bn_t1_pullback(seed: int = 29):
    """DRAWS triples (graph, cocycle, predicted simple) on B_n x T1."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        n = rng.randint(2, 4)
        theta = [[rng.choice(VALUES) for _ in range(2)] for _ in range(2)]
        difference = tuple(a - b for a, b in zip(theta[1][0], theta[0][1]))
        c = PullbackCocycle(tuple(tuple(phase(v) for v in row) for row in theta))
        yield builtin(f"B{n}xT1"), c, irrational(difference)


def t2_pullback(seed: int = 19):
    """DRAWS triples (graph, cocycle, predicted simple) on T2."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        theta = [[rng.choice(VALUES) for _ in range(2)] for _ in range(2)]
        difference = tuple(a - b for a, b in zip(theta[1][0], theta[0][1]))
        c = PullbackCocycle(tuple(tuple(phase(v) for v in row) for row in theta))
        yield builtin("T2"), c, irrational(difference)


def nondegenerate(difference) -> bool:
    """Whether A = Theta - Theta^T, k x k values, has no nonzero integer n
    with A n in Z^k, that is no nonzero central period.

    A n is integral only if its theta and eta parts vanish, since theta,
    eta and 1 are independent over Q.  So the answer is yes iff the theta-
    and eta-coefficient matrices of A, stacked, have rational rank k: a
    nonzero rational kernel vector n, times the denominators of n and of
    the rational part of A n, is a nonzero central period.
    """
    k = len(difference)
    rows = [[Fraction(x[part]) for x in row] for part in (1, 2) for row in difference]
    rank = 0
    for col in range(k):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            scale = rows[i][col] / rows[rank][col]
            rows[i] = [a - scale * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == k


def tk_pullback(seed: int = 23):
    """DRAWS triples (graph, cocycle, predicted simple) on T3 and T4."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        k = rng.choice((3, 4))
        theta = [[rng.choice(VALUES) for _ in range(k)] for _ in range(k)]
        difference = [[tuple(a - b for a, b in zip(theta[i][j], theta[j][i])) for j in range(k)]
                      for i in range(k)]
        c = PullbackCocycle(tuple(tuple(phase(v) for v in row) for row in theta))
        yield builtin(f"T{k}"), c, nondegenerate(difference)


FAMILIES = {
    "B_n x T1 phi-omega": bn_t1_phi,
    "B_n x T1 pullback": bn_t1_pullback,
    "T2 pullback": t2_pullback,
    "T3 and T4 pullback": tk_pullback,
}
