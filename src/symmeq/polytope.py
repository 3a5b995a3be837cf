"""Correlated-equilibrium polytopes: constraint systems and exact vertex
enumeration.

Vertex enumeration is a double-description-style incremental method seeded
from the 0/1 bounding box (all systems handled here live in probability
coordinates), with vertex adjacency decided combinatorially from the rows
tight at each vertex (Fukuda & Prodon, "Double description method
revisited", 1996).  It runs on integer rows in homogeneous coordinates;
Fractions appear only in the vertices it returns.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exactlin import ZERO, ONE, _integer_row, _reduced, rank
from .simplex import LinearSystem, bound_rows

# the largest number of variables enumerate_vertices accepts
MAX_BOX_DIM = 14


class UnboundedPolytopeError(ValueError):
    """The input was not confined to the unit box, so the enumeration cannot
    certify the vertex list."""


@dataclass(frozen=True)
class SymCEIndex:
    """Bijection between upper-triangle matrix coordinates (i <= j) and the
    flat variables of the symmetric-CE system."""

    m: int

    @property
    def pairs(self):
        return [(i, j) for i in range(self.m) for j in range(i, self.m)]

    @property
    def size(self):
        return self.m * (self.m + 1) // 2

    def idx(self, i, j):
        if i > j:
            i, j = j, i
        return i * self.m - i * (i - 1) // 2 + (j - i)

    def pair(self, k):
        return self.pairs[k]

    def multiplicity(self, k):
        i, j = self.pair(k)
        return 1 if i == j else 2

    def vec_to_matrix(self, v):
        P = [[ZERO] * self.m for _ in range(self.m)]
        for k, (i, j) in enumerate(self.pairs):
            P[i][j] = v[k]
            P[j][i] = v[k]
        return tuple(tuple(row) for row in P)

    def matrix_to_vec(self, P):
        return tuple(P[i][j] for (i, j) in self.pairs)


def ce_system(game, symmetric_only=False):
    """Linear system cutting out ce(game), or ce_sym(game) in
    upper-triangle coordinates when symmetric_only is set.

    Incentive rows say that switching every recommendation s to t cannot
    help; for the symmetric system only the row player's rows are emitted
    (the column player's are redundant by symmetry of the matrix variable).
    """
    m = game.m
    A = game.A
    if symmetric_only:
        index = SymCEIndex(m)
        n = index.size
        ineqs = []
        for s in range(m):
            for t in range(m):
                if s == t:
                    continue
                coeffs = [ZERO] * n
                for j in range(m):
                    coeffs[index.idx(s, j)] += A[t][j] - A[s][j]
                ineqs.append((coeffs, ZERO))
        ineqs += bound_rows(n, range(n))
        norm = [Fraction(index.multiplicity(k)) for k in range(n)]
        return LinearSystem(
            num_vars=n, inequalities=ineqs, equalities=[(norm, ONE)]
        )

    n = m * m
    flat = lambda i, j: i * m + j
    ineqs = []
    for s in range(m):
        for t in range(m):
            if s == t:
                continue
            # row player: recommendation s, deviation t
            coeffs = [ZERO] * n
            for j in range(m):
                coeffs[flat(s, j)] += A[t][j] - A[s][j]
            ineqs.append((coeffs, ZERO))
            # column player (payoffs A^T): recommendation s, deviation t
            coeffs = [ZERO] * n
            for i in range(m):
                coeffs[flat(i, s)] += A[t][i] - A[s][i]
            ineqs.append((coeffs, ZERO))
    ineqs += bound_rows(n, range(n))
    return LinearSystem(
        num_vars=n,
        inequalities=ineqs,
        equalities=[([ONE] * n, ONE)],
    )


def enumerate_vertices(system):
    """All vertices of the (bounded) polyhedron of `system`, exact and
    lexicographically sorted.

    The variables must live inside the unit box [0, 1]^n, with n at most
    MAX_BOX_DIM; a vertex whose determination relies on the box rather
    than the system raises UnboundedPolytopeError.

    Each vertex keeps the complete set of rows tight at it: a point cut
    from edge [u, w] is tight exactly on the rows common to u and w plus
    the cutting row.  So u and w are adjacent iff they share at least
    n - 1 tight rows and no third vertex is tight on all of them.
    """
    n = system.num_vars
    if n > MAX_BOX_DIM:
        raise ValueError(f"dimension {n} exceeds enumeration budget")

    # integer rows h = (a, -b) scaled: h . (x, d) has the sign of a.v - b
    # at v = x / d when d > 0; the first 2n are the bounding box
    rows = []
    for j in range(n):
        e = [0] * (n + 1)
        e[j], e[n] = 1, -1
        rows.append(e)                     # v_j <= 1
        e = [0] * (n + 1)
        e[j] = -1
        rows.append(e)                     # -v_j <= 0
    n_box = len(rows)
    for a, b in system.equalities:
        h = _integer_row(a + (-b,))[0]
        rows += [h, [-x for x in h]]
    rows += [_integer_row(a + (-b,))[0] for a, b in system.inequalities]

    # seed: box vertices with their tight box facets; a vertex is the
    # primitive integer tuple (x_1, ..., x_n, d) with d > 0
    verts = {}
    for bits in itertools.product((0, 1), repeat=n):
        verts[bits + (1,)] = {2 * j + 1 - bits[j] for j in range(n)}

    def adjacent(tu, tw):
        # every vertex owns its tight set, so identity tells u and w apart
        common = tu & tw
        return len(common) >= n - 1 and not any(
            common <= t for t in verts.values() if t is not tu and t is not tw
        )

    for idx in range(n_box, len(rows)):
        h = rows[idx]
        vals = {pt: sum(map(mul, h, pt)) for pt in verts}
        drop = [pt for pt, v in vals.items() if v > 0]
        keep = [pt for pt, v in vals.items() if v < 0]
        # each edge from drop to keep is cut at a new vertex, which lies
        # inside the edge and so is none of the current ones
        new_pts = {}
        for u in drop:
            vu, tu = vals[u], verts[u]
            for w in keep:
                vw, tw = vals[w], verts[w]
                if adjacent(tu, tw):
                    # vu > 0 > vw: a positive combination, tight on h
                    z = _reduced([vu * y - vw * x for x, y in zip(u, w)], 0)[0]
                    z = tuple(z)
                    new_pts.setdefault(z, {idx}).update(tu & tw)
        for pt, v in vals.items():
            if v > 0:
                del verts[pt]
            elif v == 0:
                verts[pt].add(idx)
        verts.update(new_pts)

    for tight in verts.values():
        if rank([rows[i][:n] for i in tight if i >= n_box]) < n:
            raise UnboundedPolytopeError(
                "vertex pinned by the bounding box; polyhedron may be "
                "unbounded or exceed the unit box"
            )
    return sorted(tuple(Fraction(x, pt[n]) for x in pt[:n]) for pt in verts)
