"""SPD operators M + h*S and the two deterministic solvers behind ``spd_solve``.

M is a positive diagonal (vertex weights), S the conductance Laplacian of an edge
list: (S u)_i = sum_{j ~ i} c_ij (u_i - u_j).  Constants are in the kernel of S,
so A applied to a constant vector returns M times it.

Which solver runs is decided by the graph, never by the caller, and only here.
``solve_plan`` walks the edge set once: a breadth-first search gives the reverse
Cuthill-McKee order (Cuthill & McKee 1969) and counts the components.  A graph
caches the plan for all times, and ``spd_solve`` takes it with a round: T
operators on that graph and k right-hand sides for each.  When the bandwidth b
of A in that order is at most DIRECT_MAX_BANDWIDTH (cycles have b = 2, paths
b = 1), the plan keeps the order; the band is cut into b x b blocks, which makes
A block tridiagonal, and all T operators are factored together by block cyclic
reduction (Heller 1976; stable for block diagonally dominant matrices such as
M + h*S): each of the ceil(log2(n/b)) levels eliminates every other block with a
few batched numpy calls, and every column of the round is then solved in one
pass over the levels.  For wider graphs (a k x k torus has b ~ 2k) the plan
holds the half-edge layout instead: a (K, n) neighbour table, K the least
degree, plus a coordinate list for the rest (Bell & Garland's HYB layout).
Each operator is assembled on it once for all its right-hand sides, so a
Jacobi-preconditioned CG mat-vec is one gather, one product and one column sum.
Both solvers fix the order of every floating-point operation, so runs are
bit-reproducible and a column solved alongside others is bitwise the column
solved alone, and both keep one residual contract: the true residual
||A x - b||_2 must reach rel_tol * ||b||_2 or SolverError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["SpdOperator", "SolverError", "BandOrdering", "StencilLayout", "StencilOperator",
           "SolvePlan", "DIRECT_MAX_BANDWIDTH", "stiffness_apply", "rcm_ordering",
           "half_edge_layout", "solve_plan", "spd_solve", "cg_solve"]

# Widest band the direct path takes.  One solve, factorization or stencil
# assembly included, block cyclic reduction against Jacobi-CG at rel_tol 1e-10,
# in ms (best of 3 x 40, best of three such runs, on a 2-CPU VM, Python 3.11,
# numpy 2.4; step operators at h = 0.1 of conformal_circle and product_torus,
# the ring grid scaled like a 2 x k torus):
#   b = 2   cycle n=64 0.52 vs 0.41, n=1024 1.25 vs 10.5
#   b = 5   2 x 32 ring grid 0.92 vs 0.40, 2 x 512 2.42 vs 12.0
#   b = 8   3 x 64 torus 2.30 vs 1.40, 3 x 342 5.56 vs 11.2
#   b = 10  4 x 256 torus 6.06 vs 7.56;  b = 95 (48 x 48 torus) 580 vs 2.7
# A lone solve pays about 0.1 ms per reduction level whatever n, so CG wins it
# on small graphs at every b, and the band wins from n ~ 1000 up to b = 8,
# about ties at b = 10 and loses far beyond.  Lone solves no longer separate
# b <= 5 from b = 8, so the table gives no reason to move the cutoff, which
# stays at 5 until a graph with 5 < b <= 10 is measured end to end.  A round of
# 4 operators x 3 columns, as ``run_families`` solves it, favours the band at
# every b up to 10: 1.2 vs 5.2 ms at n=64, b = 2; 16 vs 109 ms at b = 10.
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
    """A vertex order and where each entry of A falls in block tridiagonal storage.

    perm[p] is the vertex at band position p.  Positions are cut into blocks of
    s = ``block_size`` = max(bandwidth, 1), the last one padded to s with unit
    diagonal rows, so that A is block tridiagonal.  An operator's diagonal blocks
    and the blocks left of them are stored as one (2, blocks, s, s) array: flat
    index entry_index[k] receives the entry -h*c of edge entry_edges[k] (an edge
    inside a block fills both of its symmetric entries, one across blocks only
    the one below the diagonal) and diag_index[p] the diagonal at position p.
    A NamedTuple because a frozen dataclass costs about 1.5 ms more to create
    at import.
    """

    perm: np.ndarray
    bandwidth: int
    block_size: int
    entry_index: np.ndarray
    entry_edges: np.ndarray
    diag_index: np.ndarray


def rcm_ordering(n: int, edges: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Reverse Cuthill-McKee order of a graph with n vertices.

    Breadth-first search from a vertex of least degree, neighbours visited by
    increasing degree (ties by index), one component after another.  Returns
    perm, the visit order reversed, its bandwidth and the component count.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(a) for a in adj]
    for a in adj:
        a.sort(key=lambda v: (degree[v], v))
    visit = [-1] * n  # each vertex's place in the search, -1 until it is reached
    order: list[int] = []
    components = 0
    for start in sorted(range(n), key=lambda v: (degree[v], v)):
        if visit[start] >= 0:
            continue
        visit[start] = len(order)
        components += 1
        head = len(order)
        order.append(start)
        while head < len(order):
            for w in adj[order[head]]:
                if visit[w] < 0:
                    visit[w] = len(order)
                    order.append(w)
            head += 1
    p = np.array(visit, dtype=np.int64)[edges]
    bandwidth = int(np.abs(p[:, 0] - p[:, 1]).max(initial=0))
    return np.array(order[::-1], dtype=np.int64), bandwidth, components


def _band_ordering(edges: np.ndarray, perm: np.ndarray, bandwidth: int) -> BandOrdering:
    """The ``BandOrdering`` of a graph's edges in the order perm, of that bandwidth."""
    pos = np.empty(len(perm), dtype=np.int64)
    pos[perm] = np.arange(len(perm))
    p = pos[np.asarray(edges, dtype=np.int64).reshape(-1, 2)]
    rows, cols = p.max(axis=1), p.min(axis=1)
    # entry (r, c), c in r's block or the one before, sits at r*s + c mod s in
    # the diagonal blocks or the same offset in the blocks left of them
    s = max(bandwidth, 1)
    padded = -(-len(perm) // s) * s
    same_block = rows // s == cols // s
    inside = np.flatnonzero(same_block)
    lower = rows * s + cols % s + np.where(same_block, 0, padded * s)
    entry_index = np.concatenate([lower, cols[inside] * s + rows[inside] % s])
    entry_edges = np.concatenate([np.arange(len(p)), inside])
    slots = np.arange(padded)  # band positions, padding included
    return BandOrdering(perm, bandwidth, s, entry_index, entry_edges, slots * s + slots % s)


# Block storage puts the two block-entry axes first and the block index last:
# matrices are (s, s, T, 1, blocks) and block vectors (s, T, k, blocks) for T
# operators and k columns, so each block entry is one contiguous slab and every
# block operation below is a few elementwise calls over all blocks, operators
# and columns at once.

def _t(X: np.ndarray) -> np.ndarray:
    """The blocks of X transposed (a view)."""
    return X.swapaxes(0, 1)


def _block_mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Blockwise X @ Y: one elementwise product per inner index, added in order."""
    out = X[:, 0, None] * Y[None, 0]
    for j in range(1, len(Y)):
        out += X[:, j, None] * Y[None, j]
    return out


def _block_apply(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Blockwise X v for block vectors v, as in ``_block_mul``."""
    out = X[:, 0] * v[0]
    for j in range(1, len(v)):
        out += X[:, j] * v[j]
    return out


def _gauss_jordan(aug: np.ndarray) -> None:
    """Reduce the leading (s, s) blocks of aug (s, w, ...) to I in place, without pivoting.

    The pivots are those of L D L^T, so an operator that is not positive
    definite shows a nonpositive one at some level of the reduction.
    """
    for j in range(len(aug)):
        pivot = aug[j, j]
        if not (pivot > 0.0).all():
            raise SolverError(
                f"banded_solve: pivot {pivot.min():.3e} in block elimination; "
                "operator not positive definite?", float("nan"))
        row = aug[j] / pivot
        aug -= aug[:, j, None] * row[None]
        aug[j] = row


def _band_blocks(ops: Sequence[SpdOperator], ordering: BandOrdering):
    """Each operator's diagonal blocks D and the blocks B left of them.

    Both are (s, s, T, 1, blocks); B[..., 0] is zero, and the axis of length 1
    broadcasts over columns.
    """
    s = ordering.block_size
    padded = len(ordering.diag_index)
    store = np.zeros((len(ops), 2 * padded * s))
    diag = np.ones((len(ops), padded))
    diag[:, :ordering.perm.size] = [A.diagonal()[ordering.perm] for A in ops]
    store[:, ordering.diag_index] = diag
    store[:, ordering.entry_index] = [(-A.h * A.coeffs)[ordering.entry_edges] for A in ops]
    store = store.reshape(len(ops), 2, padded // s, s, s).transpose(1, 3, 4, 0, 2)
    store = np.ascontiguousarray(store)[:, :, :, :, None, :]
    return store[0], store[1]


def _bcr_factor(D: np.ndarray, B: np.ndarray):
    """Block cyclic reduction of the block tridiagonal SPD matrices with blocks (D, B).

    Each level eliminates the odd blocks: Dinv inverts them, P = Dinv B_odd and
    Q = Dinv C_odd (C the blocks right of the diagonal, B's transposes) couple
    them to their even neighbours, whose Schur complement, again block
    tridiagonal, is the next level's matrix.  ceil(log2(blocks)) levels leave
    one block; returns the levels' (Dinv, P, Q) and that block's inverse.
    """
    s = len(D)
    eye = np.eye(s)[:, :, None, None, None]
    levels = []
    while D.shape[-1] > 1:
        n_even, n_odd = (D.shape[-1] + 1) // 2, D.shape[-1] // 2
        B_even, B_odd = B[..., 0::2], B[..., 1::2]
        aug = np.zeros((s, 4 * s) + D.shape[2:-1] + (n_odd,))
        aug[:, :s] = D[..., 1::2]
        aug[:, s:2 * s] = eye
        aug[:, 2 * s:3 * s] = B_odd
        # the block right of odd block q is B_{2q+2}^T; the last one may have none
        aug[:, 3 * s:, ..., :n_even - 1] = _t(B_even[..., 1:])
        _gauss_jordan(aug)
        Dinv, P, Q = aug[:, s:2 * s], aug[:, 2 * s:3 * s], aug[:, 3 * s:, ..., :n_even - 1]
        D = D[..., 0::2].copy()
        D[..., :n_odd] -= _block_mul(_t(B_odd), P)
        D[..., 1:] -= _block_mul(B_even[..., 1:], Q)
        B = np.zeros_like(D)
        B[..., 1:] = -_block_mul(B_even[..., 1:], P[..., :n_even - 1])
        levels.append((Dinv, P, Q))
    aug = np.zeros((s, 2 * s) + D.shape[2:])
    aug[:, :s] = D
    aug[:, s:] = eye
    _gauss_jordan(aug)
    return levels, aug[:, s:]


def _bcr_solve(factors, f: np.ndarray) -> np.ndarray:
    """Solve on ``_bcr_factor``'s factors for the block vectors f."""
    levels, top = factors
    odd_rhs = []
    for Dinv, P, Q in levels:
        f_odd = f[..., 1::2]
        f_even = f[..., 0::2].copy()
        f_even[..., :f_odd.shape[-1]] -= _block_apply(_t(P), f_odd)
        f_even[..., 1:] -= _block_apply(_t(Q), f_odd[..., :Q.shape[-1]])
        odd_rhs.append(f_odd)
        f = f_even
    x = _block_apply(top, f)
    for (Dinv, P, Q), f_odd in zip(reversed(levels), reversed(odd_rhs)):
        x_odd = _block_apply(Dinv, f_odd)
        x_odd -= _block_apply(P, x[..., :f_odd.shape[-1]])
        x_odd[..., :Q.shape[-1]] -= _block_apply(Q, x[..., 1:])
        full = np.empty(x_odd.shape[:-1] + (x.shape[-1] + f_odd.shape[-1],))
        full[..., 0::2] = x
        full[..., 1::2] = x_odd
        x = full
    return x


def _block_residual(D: np.ndarray, B: np.ndarray, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f - A x on the assembled blocks."""
    r = f - _block_apply(D, x)
    r[..., 1:] -= _block_apply(B[..., 1:], x[..., :-1])
    r[..., :-1] -= _block_apply(_t(B[..., 1:]), x[..., 1:])
    return r


def _column_norms(v: np.ndarray) -> np.ndarray:
    """2-norm of each column of the block vectors v, summed along its own contiguous row."""
    sq = np.moveaxis(np.square(v), 0, -1)
    return np.sqrt(np.add.reduce(sq.reshape(sq.shape[:-2] + (-1,)), axis=-1))


def _banded_solve(ops: Sequence[SpdOperator], rhs: np.ndarray, rel_tol: float,
                  ordering: BandOrdering) -> np.ndarray:
    """Solve ops[t] x = rhs[t, c] for each of T operators on one graph and k columns.

    The operators are assembled as block tridiagonal matrices on ``ordering``,
    their graph's reverse Cuthill-McKee order, and factored together by block
    cyclic reduction; every column is solved on its operator's factors
    in one pass.  Each solution's true residual, computed on the assembled
    blocks, is then held to ||A x - b||_2 <= rel_tol * ||b||_2; the columns
    that miss are refined with the same factors up to _REFINEMENTS times
    before SolverError is raised.  Every operation is elementwise in a fixed
    order, and each norm is summed along its own column, so a column (and an
    operator) solved alongside others is bitwise the one solved alone.
    """
    T, k, n = rhs.shape
    s, padded = ordering.block_size, len(ordering.diag_index)
    D, B = _band_blocks(ops, ordering)
    f = np.zeros((T, k, padded))
    f[..., :n] = rhs[..., ordering.perm]
    f = np.ascontiguousarray(f.reshape(T, k, padded // s, s).transpose(3, 0, 1, 2))
    factors = _bcr_factor(D, B)
    x = _bcr_solve(factors, f)
    r = _block_residual(D, B, f, x)
    b_norm = _column_norms(f)
    r_norm = _column_norms(r)
    for _ in range(_REFINEMENTS):
        t, c = np.nonzero(~(r_norm <= rel_tol * b_norm))  # a NaN residual misses too
        if not len(t):
            break
        # only the columns that miss, each on its own operator's factors
        sub = ([tuple(a[:, :, t] for a in level) for level in factors[0]], factors[1][:, :, t])
        x[:, t, c] += _bcr_solve(sub, r[:, t, c, None])[:, :, 0]
        r[:, t, c] = _block_residual(D[:, :, t], B[:, :, t], f[:, t, c, None],
                                     x[:, t, c, None])[:, :, 0]
        r_norm[t, c] = _column_norms(r[:, t, c])
    miss = ~(r_norm <= rel_tol * b_norm)
    if miss.any():
        worst = float((r_norm[miss] / b_norm[miss]).max())
        raise SolverError(
            f"banded_solve: relative residual {worst:.3e} after "
            f"{_REFINEMENTS} refinements (target {rel_tol:.3e})", worst)
    out = np.empty((T, k, n))
    out[..., ordering.perm] = x.transpose(1, 2, 3, 0).reshape(T, k, padded)[..., :n]
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


class SolvePlan(NamedTuple):
    """How ``spd_solve`` solves every operator on one graph.

    ``ordering`` is the band order when the direct path takes the graph, else
    None and ``layout`` holds the half-edge layout for CG; ``components``
    counts the graph's connected components.
    """

    components: int
    ordering: Optional[BandOrdering]
    layout: Optional[StencilLayout]


def solve_plan(n: int, edges: np.ndarray) -> SolvePlan:
    """The ``SolvePlan`` of a graph with n vertices, from one ``rcm_ordering`` search.

    When the bandwidth is at most DIRECT_MAX_BANDWIDTH, the block storage of
    the order is built; otherwise only the half-edge layout is.
    """
    perm, bandwidth, components = rcm_ordering(n, edges)
    if bandwidth <= DIRECT_MAX_BANDWIDTH:
        return SolvePlan(components, _band_ordering(edges, perm, bandwidth), None)
    return SolvePlan(components, None, half_edge_layout(n, edges))


def spd_solve(ops: Sequence[SpdOperator], rhs, rel_tol: float,
              plan: SolvePlan) -> np.ndarray:
    """Solve ops[t] x = rhs[t, c] to ||A x - b||_2 <= rel_tol * ||b||_2 for every column.

    The single solve entry point, for a round of T operators on one graph and
    a (T, k, n) array of right-hand sides; returns the (T, k, n) solutions.
    ``plan`` is the graph's ``solve_plan`` (graphs cache theirs).  Narrow
    bands factor all T operators at once and solve every column in one pass;
    wide ones assemble each operator once on the layout and run ``cg_solve``
    per column.  Raises SolverError when a residual target is missed.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not ops or rhs.ndim != 3 or rhs.shape[0] != len(ops) or rhs.shape[2] != ops[0].n:
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({len(ops)}, k, "
                         f"{ops[0].n if ops else 'n'})")
    if plan.ordering is not None:
        return _banded_solve(ops, rhs, rel_tol, plan.ordering)
    out = np.empty_like(rhs)
    for A, columns, xs in zip(ops, rhs, out):
        stencil = StencilOperator(A, plan.layout)
        for b, x in zip(columns, xs):
            x[:] = cg_solve(stencil, b, rel_tol=rel_tol)
    return out


def cg_solve(A: StencilOperator, b: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Solve A x = b to ||A x - b||_2 <= rel_tol * ||b||_2.

    Jacobi-preconditioned CG from x = 0 with a fixed iteration order, run in
    place on buffers allocated once per solve, on the ``StencilOperator`` that
    ``spd_solve`` assembles once for all its right-hand sides.  When the
    recurrence residual meets the target, the true residual is recomputed; if
    drift has spoiled it the iteration restarts from the current iterate.
    Raises SolverError (reporting the relative residual achieved) if the
    target is missed after 50 n iterations, or the search direction vanishes
    first (p.Ap = 0, as once the residual underflows).
    """
    b = np.asarray(b, dtype=float)
    n = A.n
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    b_norm = math.sqrt(float(np.dot(b, b)))
    if b_norm == 0.0:
        return np.zeros(n)
    cap = 50 * n
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

    for _ in range(cap):
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
        f"cg_solve: no convergence in {cap} iterations "
        f"(relative residual {r_norm / b_norm:.3e}, target {rel_tol:.3e})",
        r_norm / b_norm)

