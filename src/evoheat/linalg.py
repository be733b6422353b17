"""SPD operators M + h*S and the two deterministic solvers behind ``spd_solve``.

M is a positive diagonal (vertex weights), S the conductance Laplacian of an edge
list: (S u)_i = sum_{j ~ i} c_ij (u_i - u_j).  Constants are in the kernel of S,
so A applied to a constant vector returns M times it.

Which solver runs is decided by the graph, never by the caller.  The vertices are
put in reverse Cuthill-McKee order (Cuthill & McKee 1969), which the edge set alone
determines, so a graph computes it once for all times.  When the bandwidth b of A
in that order is at most DIRECT_MAX_BANDWIDTH (cycles have b = 2, paths b = 1),
A is factored as L D L^T in band form with plain scalar loops, n*b^2 work, and the
factors serve every right-hand side of the step.  Wider graphs (a k x k torus has
b ~ 2k) use conjugate gradients with Jacobi preconditioning on an assembled
stencil: the graph's half-edges are laid out once as a (K, n) neighbour table,
K the least degree, plus a coordinate list for the rest (Bell & Garland's HYB
layout), and each step's A is assembled on it once for all right-hand sides, so
a mat-vec is one gather, one product and one column sum.  Both solvers are
written out by hand so the operation order is fixed and runs are
bit-reproducible, and both keep one residual contract: the true residual
||A x - b||_2 must reach rel_tol * ||b||_2 or SolverError is raised.  A dense
direct path is provided as an internal oracle for small systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["SpdOperator", "SolverError", "BandOrdering", "StencilLayout", "StencilOperator",
           "DIRECT_MAX_BANDWIDTH", "stiffness_apply", "rcm_ordering", "half_edge_layout",
           "spd_solve", "banded_solve", "cg_solve", "dense_solve"]

# Widest band the direct path takes.  One solve, factorization or stencil
# assembly included, against Jacobi-CG at rel_tol 1e-10, in ms (best of 3 x 40 on
# a 2-CPU VM, Python 3.11, numpy 2.4; step operators at h = 0.1 of conformal_circle
# and product_torus, the ring grid scaled like a 2 x k torus):
#   b = 2   cycle n=64 0.17 vs 0.51, n=1024 1.8 vs 9.6
#   b = 5   2 x 32 ring grid 0.34 vs 0.39, 2 x 512 3.8 vs 10.7
#   b = 8   3 x 64 torus 1.1 vs 0.70, 3 x 342 6.4 vs 6.5
#   b = 10  4 x 256 torus 8.1 vs 5.1;  b = 95 (48 x 48 torus) 843 vs 2.3
# The factorization costs n*b^2 and CG about n per iteration, so the band wins
# everywhere up to b = 5 and ties or loses from b = 8 on.
DIRECT_MAX_BANDWIDTH = 5

# Refinement sweeps the direct path may spend on a residual that misses rel_tol.
_REFINEMENTS = 3


class SolverError(RuntimeError):
    """A solve that could not meet its residual tolerance."""

    def __init__(self, message: str, relative_residual: float):
        super().__init__(message)
        self.relative_residual = relative_residual


def stiffness_apply(edges: np.ndarray, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the conductance Laplacian of (edges, coeffs) to x."""
    n = len(x)
    if len(edges) == 0:
        return np.zeros(n)
    d = coeffs * (x[edges[:, 0]] - x[edges[:, 1]])
    return (np.bincount(edges[:, 0], weights=d, minlength=n)
            - np.bincount(edges[:, 1], weights=d, minlength=n))


@dataclass(frozen=True)
class SpdOperator:
    """A = diag(mass) + h * S with S the Laplacian of (edges, coeffs).

    mass must be entrywise positive, coeffs entrywise nonnegative and h >= 0,
    which makes A symmetric positive definite.
    """

    mass: np.ndarray
    edges: np.ndarray
    coeffs: np.ndarray
    h: float

    @property
    def n(self) -> int:
        return len(self.mass)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        return self.mass * x + self.h * stiffness_apply(self.edges, self.coeffs, x)

    def diagonal(self) -> np.ndarray:
        d = self.mass.astype(float).copy()
        if len(self.edges):
            d += self.h * (np.bincount(self.edges[:, 0], weights=self.coeffs, minlength=self.n)
                           + np.bincount(self.edges[:, 1], weights=self.coeffs, minlength=self.n))
        return d

    def dense(self) -> np.ndarray:
        """Assemble A as a dense array (oracle path; meant for small n)."""
        A = np.diag(self.mass.astype(float))
        for (i, j), c in zip(self.edges, self.coeffs):
            A[i, i] += self.h * c
            A[j, j] += self.h * c
            A[i, j] -= self.h * c
            A[j, i] -= self.h * c
        return A


class BandOrdering(NamedTuple):
    """A vertex order and where each edge's matrix entry falls in band storage.

    perm[p] is the vertex at band position p.  Edge e contributes the entry in
    band row edge_rows[e] (the later of its endpoints' positions) and column slot
    edge_slots[e] = bandwidth - (row - earlier position); slot k of row p holds
    column p - bandwidth + k.  A NamedTuple because a frozen dataclass costs
    about 1.5 ms more to create at import.
    """

    perm: np.ndarray
    bandwidth: int
    edge_rows: np.ndarray
    edge_slots: np.ndarray

    @property
    def direct(self) -> bool:
        """Whether ``spd_solve`` factors operators on this order (else CG)."""
        return self.bandwidth <= DIRECT_MAX_BANDWIDTH


def rcm_ordering(n: int, edges: np.ndarray) -> BandOrdering:
    """Reverse Cuthill-McKee order of a graph with n vertices.

    Breadth-first search from a vertex of least degree, neighbours visited by
    increasing degree (ties by index), one component after another; the visit
    order reversed.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(a) for a in adj]
    for a in adj:
        a.sort(key=lambda v: (degree[v], v))
    seen = [False] * n
    order: list[int] = []
    for start in sorted(range(n), key=lambda v: (degree[v], v)):
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            for w in adj[order[head]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    perm = np.array(order[::-1], dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n)
    p = pos[edges]
    rows, cols = p.max(axis=1), p.min(axis=1)
    bandwidth = int((rows - cols).max(initial=0))
    return BandOrdering(perm, bandwidth, rows, bandwidth - (rows - cols))


def _band_ldl(diag: list, band: list, b: int) -> list:
    """L D L^T of a banded SPD matrix, in place: band[p] becomes row p of L.

    ``band[p][k]`` holds A[p, p - b + k], zero left of column 0; returns D.
    Plain scalar loops, which beat any numpy call for small b.
    """
    rows = [[0.0] * b] * b + band  # rows[p + b] is row p; the zero rows pad columns < 0
    D = [1.0] * b
    for p, row in enumerate(band):
        # w_k = L[p, c_k] * D[c_k] for the columns c_k = p - b + k, left to right
        for k in range(1, b):
            above = rows[p + k]
            shift = b - k
            s = row[k]
            for c in range(k):
                s -= row[c] * above[c + shift]
            row[k] = s
        d = diag[p]
        for k, w in enumerate(row):
            row[k] = w / D[p + k]
            d -= w * row[k]
        if not d > 0.0:
            raise SolverError(
                f"banded_solve: pivot {d:.3e} at position {p}; "
                "operator not positive definite?", float("nan"))
        D.append(d)
    return D[b:]


def _band_substitute(L: list, D: list, b: int, rhs: list) -> list:
    """Solve L D L^T x = rhs on the band factors."""
    y = [0.0] * b + rhs  # y[p + b] is entry p
    for p, row in enumerate(L):
        s = y[p + b]
        for k, lk in enumerate(row, p):
            s -= lk * y[k]
        y[p + b] = s
    y[b:] = [z / d for z, d in zip(y[b:], D)]
    for p in range(len(D) - 1, -1, -1):
        xp = y[p + b]
        for k, lk in enumerate(L[p], p):
            y[k] -= lk * xp
    return y[b:]


def banded_solve(A: SpdOperator, rhs: Sequence[np.ndarray], rel_tol: float = 1e-10,
                 ordering: Optional[BandOrdering] = None) -> list[np.ndarray]:
    """Solve A x = b for each b in rhs with one band L D L^T factorization.

    A is assembled in the band storage of ``ordering`` (reverse Cuthill-McKee of
    A's edges when None) and factored once.  Each solution's true residual is
    then held to ||A x - b||_2 <= rel_tol * ||b||_2; a miss is refined with the
    same factors up to _REFINEMENTS times before SolverError is raised.  Every
    column goes through the same scalar operations whatever the others are, so
    a column solved alongside others is bitwise the column solved alone.
    """
    if ordering is None:
        ordering = rcm_ordering(A.n, A.edges)
    bw, perm = ordering.bandwidth, ordering.perm
    band = np.zeros((A.n, bw))
    band[ordering.edge_rows, ordering.edge_slots] = -A.h * A.coeffs
    L = band.tolist()
    D = _band_ldl(A.diagonal()[perm].tolist(), L, bw)

    def solve(v: np.ndarray) -> np.ndarray:
        x = np.empty(A.n)
        x[perm] = _band_substitute(L, D, bw, v[perm].tolist())
        return x

    out = []
    for b in rhs:
        b = np.asarray(b, dtype=float)
        if b.shape != (A.n,):
            raise ValueError(f"b has shape {b.shape}, expected ({A.n},)")
        b_norm = float(np.linalg.norm(b))
        x = solve(b)
        for sweep in range(_REFINEMENTS + 1):
            r = b - A.apply(x)
            r_norm = float(np.linalg.norm(r))
            if r_norm <= rel_tol * b_norm:
                break
            if sweep == _REFINEMENTS:
                raise SolverError(
                    f"banded_solve: relative residual {r_norm / b_norm:.3e} after "
                    f"{_REFINEMENTS} refinements (target {rel_tol:.3e})",
                    r_norm / b_norm)
            x = x + solve(r)
        out.append(x)
    return out


class StencilLayout(NamedTuple):
    """The half-edges of a graph as a (K, n) neighbour table plus an overflow list.

    Column i of the table holds the first K = min degree half-edges out of
    vertex i: slot k leads to vertex nbr[k, i] along edge slot_edge[k, i].  A
    vertex's half-edges past the K-th are listed in coordinate form, from
    over_rows to over_cols along over_edges.  This is the ELL + COO ("HYB")
    layout of Bell & Garland (SC 2009): the overflow is empty on regular graphs
    such as tori and keeps storage at O(E) on skewed ones such as stars.
    """

    nbr: np.ndarray
    slot_edge: np.ndarray
    over_rows: np.ndarray
    over_cols: np.ndarray
    over_edges: np.ndarray


def half_edge_layout(n: int, edges: np.ndarray) -> StencilLayout:
    """The ``StencilLayout`` of a graph with n vertices, half-edges in edge order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    cols = np.concatenate([edges[:, 1], edges[:, 0]])[order]
    eids = np.tile(np.arange(len(edges)), 2)[order]
    degree = np.bincount(rows, minlength=n)
    K = int(degree.min()) if n else 0
    rank = np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows]
    table = rank < K
    nbr = np.empty((K, n), dtype=np.int64)
    slot_edge = np.empty((K, n), dtype=np.int64)
    nbr[rank[table], rows[table]] = cols[table]
    slot_edge[rank[table], rows[table]] = eids[table]
    over = ~table
    return StencilLayout(nbr, slot_edge, rows[over], cols[over], eids[over])


class StencilOperator:
    """An ``SpdOperator`` assembled on a ``StencilLayout`` for repeated mat-vecs.

    off[k, i] = h * c along the half-edge in slot k of vertex i, diag = mass +
    h * (row sums of c), so A x = diag * x - sum_k off[k] * x[nbr[k]] minus the
    overflow half-edges.  Assembled once per operator and shared by every
    right-hand side; ``apply`` works in scratch space the operator owns.
    """

    __slots__ = ("n", "diag", "inv_diag", "off", "nbr", "over_rows", "over_cols",
                 "over_off", "_gathered", "_sums")

    def __init__(self, A: SpdOperator, layout: StencilLayout):
        c = np.asarray(A.coeffs, dtype=float)
        table = c[layout.slot_edge]
        rowsum = table.sum(axis=0)
        if len(layout.over_rows):
            rowsum += np.bincount(layout.over_rows, weights=c[layout.over_edges],
                                  minlength=A.n)
        table *= A.h
        self.n = A.n
        self.nbr = layout.nbr
        self.off = table
        self.over_rows = layout.over_rows
        self.over_cols = layout.over_cols
        self.over_off = A.h * c[layout.over_edges]
        self.diag = A.mass + A.h * rowsum
        self.inv_diag = 1.0 / self.diag
        self._gathered = np.empty(table.shape)
        self._sums = np.empty(A.n)

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A x, written to ``out``."""
        # the indices are in range by construction; mode="raise" would buffer the copy
        gathered = x.take(self.nbr, out=self._gathered, mode="clip")
        gathered *= self.off
        sums = np.add.reduce(gathered, axis=0, out=self._sums)
        np.multiply(self.diag, x, out=out)
        out -= sums
        if len(self.over_rows):
            out -= np.bincount(self.over_rows, weights=self.over_off * x[self.over_cols],
                               minlength=self.n)
        return out


def spd_solve(A: SpdOperator, rhs: Sequence[np.ndarray], rel_tol: float = 1e-10,
              ordering: Optional[BandOrdering] = None,
              layout: Optional[StencilLayout] = None) -> list[np.ndarray]:
    """Solve A x = b for each b in rhs, to ||A x - b||_2 <= rel_tol * ||b||_2.

    The single solve entry point.  ``ordering`` is the reverse Cuthill-McKee
    order of A's edges and ``layout`` their half-edge layout (each computed
    here when None; graphs cache theirs).  Narrow bands factor A once for all
    of rhs (``banded_solve``); wide ones assemble A once on the layout and run
    ``cg_solve`` per column with its default iteration cap.  Raises SolverError
    when the residual target is missed.
    """
    if ordering is None:
        ordering = rcm_ordering(A.n, A.edges)
    if ordering.direct:
        return banded_solve(A, rhs, rel_tol=rel_tol, ordering=ordering)
    if layout is None:
        layout = half_edge_layout(A.n, A.edges)
    stencil = StencilOperator(A, layout)
    return [cg_solve(stencil, b, rel_tol=rel_tol) for b in rhs]


def cg_solve(A: SpdOperator | StencilOperator, b: np.ndarray, rel_tol: float = 1e-10,
             max_iter: int | None = None) -> np.ndarray:
    """Solve A x = b to ||A x - b||_2 <= rel_tol * ||b||_2.

    Jacobi-preconditioned CG from x = 0 with a fixed iteration order, run in
    place on buffers allocated once per solve.  A is a ``StencilOperator``
    (``spd_solve`` assembles one per step for all right-hand sides) or an
    ``SpdOperator``, assembled here.  When the recurrence residual meets the
    target, the true residual is recomputed; if drift has spoiled it the
    iteration restarts from the current iterate.  Raises SolverError (reporting
    the relative residual achieved) if max_iter (default 50 n) is exhausted or
    the search direction vanishes first (p.Ap = 0, as once the residual underflows).
    """
    if isinstance(A, SpdOperator):
        A = StencilOperator(A, half_edge_layout(A.n, A.edges))
    b = np.asarray(b, dtype=float)
    n = A.n
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    b_norm = math.sqrt(float(np.dot(b, b)))
    if b_norm == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = 50 * n
    target = rel_tol * b_norm

    inv_diag = A.inv_diag
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    Ap = np.empty(n)
    step = np.empty(n)
    rz = float(np.dot(r, z))
    r_norm = math.sqrt(float(np.dot(r, r)))

    def true_residual() -> float:
        """||b - A x||_2, leaving b - A x in Ap."""
        np.subtract(b, A.apply(x, out=Ap), out=Ap)
        return math.sqrt(float(np.dot(Ap, Ap)))

    for _ in range(max_iter):
        if r_norm <= target:
            true_norm = true_residual()
            if true_norm <= target:
                return x
            # recurrence drifted: restart from the true residual
            r, Ap = Ap, r
            np.multiply(inv_diag, r, out=z)
            p[:] = z
            rz = float(np.dot(r, z))
            r_norm = true_norm
        A.apply(p, out=Ap)
        pAp = float(np.dot(p, Ap))
        if pAp < 0.0:
            raise SolverError(
                f"cg_solve: breakdown (p.Ap = {pAp:.3e}); operator not positive definite?",
                r_norm / b_norm)
        if pAp == 0.0:  # p underflowed with the residual: say how far the solve got
            raise SolverError(
                f"cg_solve: search direction vanished (p.Ap = 0) at relative residual "
                f"{r_norm / b_norm:.3e} (target {rel_tol:.3e})", r_norm / b_norm)
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=step)
        r_norm = math.sqrt(float(np.dot(r, r)))
        np.multiply(inv_diag, r, out=z)
        rz_next = float(np.dot(r, z))
        p *= rz_next / rz
        p += z
        rz = rz_next

    if r_norm <= target and true_residual() <= target:
        return x
    raise SolverError(
        f"cg_solve: no convergence in {max_iter} iterations "
        f"(relative residual {r_norm / b_norm:.3e}, target {rel_tol:.3e})",
        r_norm / b_norm)


def dense_solve(A: SpdOperator, b: np.ndarray) -> np.ndarray:
    """Direct solve through the dense assembly (the small-system oracle)."""
    return np.linalg.solve(A.dense(), np.asarray(b, dtype=float))
