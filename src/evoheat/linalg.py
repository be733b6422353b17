"""SPD step operators M + h*S, in batches given as tables, and their two deterministic solvers.

M is a positive diagonal (vertex weights), S the conductance Laplacian of an edge
list: (S u)_i = sum_{j ~ i} c_ij (u_i - u_j).  Constants are in the kernel of S,
so A applied to a constant vector returns M times it.

The solvers take a batch of T operators on one graph as tables: a (T, n) table
of weights, a (T, E) table of conductances, one column per edge of the graph's
plan, and the T step lengths.  Operator t is diag(mass[t]) + h[t] * S with S
built on the conductances coeffs[t]; ``SpdOperator`` is that one operator as
an object, with a mat-vec and a dense assembly to check solves against.

Which solver runs is decided by the graph, never by the caller, and only here.
``solve_plan`` walks the edge set once: a breadth-first search gives the reverse
Cuthill-McKee order (Cuthill & McKee 1969) and counts the components.  A graph
caches the plan for all times.  Solving comes in two parts.  ``spd_prepare``
takes a batch of operators on the graph and does all the work that does not
depend on the data; ``spd_solve_prepared`` then solves any contiguous slice of
that batch against a (T, k, n) array, k right-hand sides per operator, and may
be called once per round of a run on one preparation.
When the bandwidth b of A in the plan's order is at most
DIRECT_MAX_BANDWIDTH (cycles have b = 2, paths b = 1), the plan keeps the
order; the band is cut into b x b blocks, which makes A block tridiagonal, and
preparing factors all the operators together by block cyclic reduction
(Heller 1976; stable for block diagonally dominant matrices such as M + h*S):
each of the ceil(log2(n/b)) levels eliminates every other block with a few
batched numpy calls, and every column of a slice is then solved in one pass
over the levels.  For wider graphs (a k x k torus has b ~ 2k) the plan holds
the half-edge layout instead: a (K, n) neighbour table, K the least degree,
plus a coordinate list for the rest (Bell & Garland's HYB layout).  Preparing
assembles each operator on it once for all its right-hand sides, so a CG
mat-vec is one gather, one product and one column sum.  CG is preconditioned
by the inverse diagonal (Jacobi), except on a graph its builder declares to be
the periodic nx x ny lattice: there the plan also records each edge's axis,
and the preconditioner is the inverse of mean(M) + h*(mean x conductance * L_x
+ mean y conductance * L_y), which the 2-d DFT diagonalises (circulant
preconditioning, T. Chan 1988).  With weights and per-axis conductances
uniform in space, as on ``product_torus``, it is the exact inverse of A.
A prepared operator holds ``prepared_floats(plan)`` floats; callers that
prepare ahead keep to PREPARE_BUDGET floats at once, and ``rounds_ahead``
says how many rounds of operators fit (always at least one).  Callers that
read coefficient tables for many times keep each block to the same budget,
``rows_within_budget`` rows at once.
Both solvers fix the order of every floating-point operation, so runs are
bit-reproducible and a column solved alongside others, or on any slice of a
preparation, is bitwise the column solved alone, and both keep one residual
contract: the true residual ||A x - b||_2 must reach rel_tol * ||b||_2 or
SolverError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["SpdOperator", "SolverError", "BandOrdering", "StencilLayout", "Lattice",
           "StencilOperator", "SolvePlan", "DIRECT_MAX_BANDWIDTH", "stiffness_apply",
           "PREPARE_BUDGET", "PreparedOperators", "rcm_ordering", "half_edge_layout",
           "solve_plan", "prepared_floats", "rounds_ahead", "rows_within_budget", "spd_prepare",
           "spd_solve_prepared", "cg_solve"]

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
# stays at 5 until a graph with 5 < b <= 10 is measured end to end.  Runs solve
# rounds of 4 operators x 3 columns and factor as many rounds at once as
# ``rounds_ahead`` allows, which spreads the per-level cost over the chunk.
# Per round, factoring included, band (one round factored alone) vs Jacobi-CG,
# best of 5, same VM: cycle n=64, 21 rounds a chunk, 0.29 (0.54) vs 3.4;
# n=1024, 1 a chunk, 1.6 vs 89; 3 x 64 torus (b = 8), 1 a chunk, 2.4 vs 9.2;
# 4 x 256 torus (b = 10), 1 a chunk, 8.7 to 9.3 vs 59.  Rounds favour the band
# at every b up to 10.
DIRECT_MAX_BANDWIDTH = 5

# Floats of prepared operators a caller holds at once (512 KiB of float64), the
# bound on how far ``rounds_ahead`` lets a run prepare ahead.  Peak RSS of one
# in-process command of a perfbench config, one round per factorization ->
# this budget -> twice it (2-CPU VM, Python 3.11, numpy 2.4):
#   l2limit_cauchy64 (760 floats an operator, 8 factorizations for 600
#     operators instead of 150)       38.6 -> 39.8 -> 40.9 MB
#   converge_oracle128 (1528 floats)   39.7 -> 40.4 -> 41.8 MB
#   verify_circle1024 (12280 floats, one round of 4 a chunk) 38.6 -> 38.8 -> 39.7 MB
# and verify_torus48 (26544 floats) prepares one round at a time at either.
# The l2-limit call took the same time at both budgets (median of 30).
PREPARE_BUDGET = 1 << 16

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

    def dense(self) -> np.ndarray:
        """Assemble A as a dense array, the reference for small n."""
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


def _band_blocks(ordering: BandOrdering, edges: np.ndarray, mass: np.ndarray,
                 coeffs: np.ndarray, h: np.ndarray):
    """Each operator's diagonal blocks D and the blocks B left of them, for the
    batch (mass, coeffs, h) on the graph's edges.

    Both are (s, s, T, 1, blocks); B[..., 0] is zero, and the axis of length 1
    broadcasts over columns.
    """
    T, n = mass.shape
    s = ordering.block_size
    padded = len(ordering.diag_index)
    # every operator's degrees in one bincount per edge end: operator t's
    # vertices are offset by t * n, and each vertex sums its edges in edge order
    offsets = n * np.arange(T)[:, None]
    degree = [np.bincount((edges[:, end] + offsets).ravel(), weights=coeffs.ravel(),
                          minlength=T * n).reshape(T, n) for end in (0, 1)]
    store = np.zeros((T, 2 * padded * s))
    diag = np.ones((T, padded))
    diag[:, :n] = (mass + h[:, None] * (degree[0] + degree[1]))[:, ordering.perm]
    store[:, ordering.diag_index] = diag
    store[:, ordering.entry_index] = (-h[:, None] * coeffs)[:, ordering.entry_edges]
    store = store.reshape(T, 2, padded // s, s, s).transpose(1, 3, 4, 0, 2)
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


def _take(factors, index):
    """The ``_bcr_factor`` factors of the operators at ``index`` (a slice or indices)."""
    levels, top = factors
    return [tuple(a[:, :, index] for a in level) for level in levels], top[:, :, index]


def _banded_solve(D: np.ndarray, B: np.ndarray, factors, rhs: np.ndarray, rel_tol: float,
                  ordering: BandOrdering) -> np.ndarray:
    """Solve on T factored operators, blocks (D, B), for their (T, k, n) right-hand sides.

    Every column is solved on its operator's factors in one pass.  Each
    solution's true residual, computed on the assembled blocks, is then held to
    ||A x - b||_2 <= rel_tol * ||b||_2; the columns that miss are refined with
    the same factors up to _REFINEMENTS times before SolverError is raised.
    Every operation is elementwise in a fixed order, and each norm is summed
    along its own column, so a column (and an operator) solved alongside others
    is bitwise the one solved alone.
    """
    T, k, n = rhs.shape
    s, padded = ordering.block_size, len(ordering.diag_index)
    f = np.zeros((T, k, padded))
    f[..., :n] = rhs[..., ordering.perm]
    f = np.ascontiguousarray(f.reshape(T, k, padded // s, s).transpose(3, 0, 1, 2))
    x = _bcr_solve(factors, f)
    r = _block_residual(D, B, f, x)
    b_norm = _column_norms(f)
    r_norm = _column_norms(r)
    for _ in range(_REFINEMENTS):
        t, c = np.nonzero(~(r_norm <= rel_tol * b_norm))  # a NaN residual misses too
        if not len(t):
            break
        # only the columns that miss, each on its own operator's factors
        x[:, t, c] += _bcr_solve(_take(factors, t), r[:, t, c, None])[:, :, 0]
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


class Lattice(NamedTuple):
    """A graph's edges read as the periodic nx x ny lattice, vertex ix * ny + iy.

    axis[e] is 0 when edge e joins (ix, iy) to (ix + 1 mod nx, iy) and 1 when
    it joins (ix, iy) to (ix, iy + 1 mod ny).  eig_x, shape (nx, 1), and eig_y,
    shape (ny // 2 + 1,), hold 2 - 2 cos(theta) at the frequencies theta of
    ``np.fft.rfft2`` on an (nx, ny) array: the eigenvalues of the unit-conductance
    cycle Laplacian along each axis.
    """

    shape: tuple[int, int]
    axis: np.ndarray
    eig_x: np.ndarray
    eig_y: np.ndarray


def _lattice(n: int, edges: np.ndarray, shape) -> Lattice:
    """The ``Lattice`` of a graph declared to be the periodic ``shape`` lattice.

    Raises ValueError unless the edge set is exactly that lattice's, each edge
    once in either orientation; both sides need at least 3 vertices, so that the
    two neighbours of a vertex along an axis differ.
    """
    nx, ny = (int(k) for k in shape)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if nx < 3 or ny < 3 or nx * ny != n or len(edges) != 2 * n:
        raise ValueError(f"lattice {nx}x{ny} does not match a graph with {n} vertices "
                         f"and {len(edges)} edges")
    ix, iy = np.divmod(edges, ny)
    step_x = (ix[:, 1] - ix[:, 0]) % nx
    step_y = (iy[:, 1] - iy[:, 0]) % ny
    along_x = (iy[:, 0] == iy[:, 1]) & ((step_x == 1) | (step_x == nx - 1))
    along_y = (ix[:, 0] == ix[:, 1]) & ((step_y == 1) | (step_y == ny - 1))
    # the vertex an edge leaves in the + direction of its axis: every vertex
    # must leave exactly one edge along each axis
    tail_x = np.where(step_x == 1, edges[:, 0], edges[:, 1])[along_x]
    tail_y = np.where(step_y == 1, edges[:, 0], edges[:, 1])[along_y]
    if not ((along_x | along_y).all()
            and (np.bincount(tail_x, minlength=n) == 1).all()
            and (np.bincount(tail_y, minlength=n) == 1).all()):
        raise ValueError(f"lattice {nx}x{ny}: the edges are not the periodic "
                         f"{nx}x{ny} lattice's (vertex ix*{ny} + iy)")
    eig_x = 2.0 - 2.0 * np.cos(2.0 * math.pi * np.arange(nx) / nx)
    eig_y = 2.0 - 2.0 * np.cos(2.0 * math.pi * np.arange(ny // 2 + 1) / ny)
    return Lattice((nx, ny), along_y.astype(np.int64), eig_x[:, None], eig_y)


class StencilOperator:
    """One operator of a batch, the row (mass, coeffs, h) of its tables, assembled
    on a ``StencilLayout`` for repeated mat-vecs.

    off[k, i] = h * c along the half-edge in slot k of vertex i, diag = mass +
    h * (row sums of c), so A x = diag * x - sum_k off[k] * x[nbr[k]] minus the
    overflow half-edges.  Assembled once per operator and shared by every
    right-hand side; ``apply`` works in scratch space the operator owns.

    ``precondition`` applies CG's preconditioner.  Given the graph's
    ``Lattice``, that is the inverse of the lattice operator with
    ``symbol`` = mean(mass) + h * (cx * eig_x + cy * eig_y) on the rfft2 grid,
    cx and cy the mean conductances along each axis; otherwise ``symbol`` is
    None and it multiplies by ``inv_diag``, the inverse diagonal (Jacobi).
    """

    __slots__ = ("n", "diag", "inv_diag", "off", "nbr", "over_rows", "over_cols",
                 "over_off", "shape", "symbol", "_gathered", "_sums")

    def __init__(self, mass: np.ndarray, coeffs: np.ndarray, h: float, layout: StencilLayout,
                 lattice: Optional[Lattice] = None):
        n = len(mass)
        c = np.asarray(coeffs, dtype=float)
        table = c[layout.slot_edge]
        rowsum = table.sum(axis=0)
        if len(layout.over_rows):
            rowsum += np.bincount(layout.over_rows, weights=c[layout.over_edges], minlength=n)
        table *= h
        self.n = n
        self.nbr = layout.nbr
        self.off = table
        self.over_rows = layout.over_rows
        self.over_cols = layout.over_cols
        self.over_off = h * c[layout.over_edges]
        self.diag = mass + h * rowsum
        self.inv_diag = 1.0 / self.diag
        self._gathered = np.empty(table.shape)
        self._sums = np.empty(n)
        self.shape = self.symbol = None
        if lattice is not None:
            cx, cy = np.bincount(lattice.axis, weights=c, minlength=2) / n
            self.shape = lattice.shape
            self.symbol = float(np.mean(mass)) + h * (cx * lattice.eig_x + cy * lattice.eig_y)

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

    def precondition(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The preconditioner applied to r, written to ``out`` (contiguous)."""
        if self.symbol is None:
            return np.multiply(self.inv_diag, r, out=out)
        fft = np.fft  # attribute access: graphs without a lattice never load numpy.fft
        spectrum = fft.rfft2(r.reshape(self.shape))
        spectrum /= self.symbol
        out.reshape(self.shape)[...] = fft.irfft2(spectrum, s=self.shape)
        return out


class SolvePlan(NamedTuple):
    """How ``spd_prepare`` and ``spd_solve_prepared`` solve every operator on one graph.

    ``edges`` are the graph's edges, whose order the conductance tables keep;
    ``ordering`` is the band order when the direct path takes the graph, else
    None and ``layout`` holds the half-edge layout for CG; ``lattice`` is the
    graph's ``Lattice`` when its builder declared one and CG takes it, else
    None (Jacobi CG).  ``components`` counts the graph's connected components.
    """

    edges: np.ndarray
    components: int
    ordering: Optional[BandOrdering]
    layout: Optional[StencilLayout]
    lattice: Optional[Lattice] = None


def solve_plan(n: int, edges: np.ndarray,
               lattice: Optional[tuple[int, int]] = None) -> SolvePlan:
    """The ``SolvePlan`` of a graph with n vertices, from one ``rcm_ordering`` search.

    When the bandwidth is at most DIRECT_MAX_BANDWIDTH, the block storage of
    the order is built; otherwise only the half-edge layout is, together with
    the ``Lattice`` when ``lattice`` gives the shape (nx, ny) of a periodic
    lattice.  A shape that does not match the edges raises ValueError, on
    either path.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    grid = None if lattice is None else _lattice(n, edges, lattice)
    perm, bandwidth, components = rcm_ordering(n, edges)
    if bandwidth <= DIRECT_MAX_BANDWIDTH:
        return SolvePlan(edges, components, _band_ordering(edges, perm, bandwidth), None)
    return SolvePlan(edges, components, None, half_edge_layout(n, edges), grid)


def prepared_floats(plan: SolvePlan) -> int:
    """The floats one operator prepared on ``plan`` holds (see ``spd_prepare``).

    On the band path: its blocks D and B, 2 s^2 per block of the band, the
    Gauss-Jordan array of each reduction level, 4 s^2 per block that level
    eliminates, and 2 s^2 for the block left at the top.  On the CG path: its
    ``StencilOperator``, two (K, n) tables, three vertex vectors, one entry per
    overflow half-edge and, on a lattice, the preconditioner's symbol.
    """
    if plan.ordering is not None:
        s = plan.ordering.block_size
        blocks = len(plan.ordering.diag_index) // s
        floats = 2 * blocks + 2
        while blocks > 1:
            floats += 4 * (blocks // 2)
            blocks = (blocks + 1) // 2
        return floats * s * s
    K, n = plan.layout.nbr.shape
    symbol = 0 if plan.lattice is None else plan.lattice.eig_x.size * plan.lattice.eig_y.size
    return (2 * K + 3) * n + len(plan.layout.over_rows) + symbol


def rounds_ahead(sizes: Sequence[int], plan: SolvePlan) -> int:
    """How many of the leading rounds, of sizes[i] operators each, to prepare at once.

    As many as keep their ``prepared_floats`` within PREPARE_BUDGET, and at
    least one.
    """
    per_operator = prepared_floats(plan)
    used = count = 0
    for size in sizes:
        used += size * per_operator
        if count and used > PREPARE_BUDGET:
            break
        count += 1
    return count


def rows_within_budget(floats_per_row: int) -> int:
    """How many rows of ``floats_per_row`` floats a caller reads at once: as
    many as PREPARE_BUDGET holds, and at least one."""
    return max(1, PREPARE_BUDGET // max(1, floats_per_row))


class PreparedOperators(NamedTuple):
    """Operators on one graph made ready to solve, by ``spd_prepare``.

    On the band path (``ordering`` set) D and B hold the operators' blocks and
    ``factors`` their block cyclic reduction, operator t at index t of the
    operator axis; on the CG path ``stencils`` holds one ``StencilOperator``
    per operator.
    """

    ordering: Optional[BandOrdering]
    count: int
    n: int
    D: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    factors: Optional[tuple] = None
    stencils: Optional[list] = None


def spd_prepare(plan: SolvePlan, mass, coeffs, h) -> PreparedOperators:
    """Prepare a batch of operators on the graph of ``plan`` for ``spd_solve_prepared``.

    Operator t is diag(mass[t]) + h[t] * S(coeffs[t]), from the (T, n) weight
    table mass, the (T, E) conductance table coeffs, in the order of
    ``plan.edges``, and the T step lengths h.  Narrow bands assemble and factor
    all of them at once; wide ones assemble each on the layout (and the plan's
    lattice).  The result holds ``prepared_floats(plan)`` floats per operator.
    Raises SolverError when a factorization meets a pivot that is not positive.
    """
    mass, coeffs, h = (np.asarray(a, dtype=float) for a in (mass, coeffs, h))
    T = len(h) if h.ndim == 1 else 0
    if not T or mass.ndim != 2 or len(mass) != T or coeffs.shape != (T, len(plan.edges)):
        raise ValueError(f"expected (T, n) weights, (T, {len(plan.edges)}) conductances and "
                         f"T >= 1 step lengths, got shapes {mass.shape}, {coeffs.shape} "
                         f"and {h.shape}")
    if plan.ordering is not None:
        D, B = _band_blocks(plan.ordering, plan.edges, mass, coeffs, h)
        return PreparedOperators(plan.ordering, T, mass.shape[1], D, B, _bcr_factor(D, B))
    return PreparedOperators(None, T, mass.shape[1], stencils=[
        StencilOperator(w, c, step, plan.layout, plan.lattice)
        for w, c, step in zip(mass, coeffs, h)])


def spd_solve_prepared(prepared: PreparedOperators, rhs, rel_tol: float,
                       start: int = 0) -> np.ndarray:
    """Solve prepared operators start, ..., start + T - 1 for (T, k, n) right-hand sides.

    Row t of rhs holds the k columns of operator start + t; returns the
    (T, k, n) solutions, each to ||A x - b||_2 <= rel_tol * ||b||_2 or
    SolverError.  Factored operators solve every column in one pass (refining
    the columns that miss); assembled ones run ``cg_solve`` per column.
    """
    rhs = np.asarray(rhs, dtype=float)
    if (rhs.ndim != 3 or rhs.shape[2] != prepared.n
            or not 0 <= start < start + len(rhs) <= prepared.count):
        raise ValueError(f"rhs has shape {rhs.shape}, expected (T, k, {prepared.n}) "
                         f"for operators from {start} of {prepared.count}")
    span = slice(start, start + len(rhs))
    if prepared.ordering is not None:
        return _banded_solve(prepared.D[:, :, span], prepared.B[:, :, span],
                             _take(prepared.factors, span), rhs, rel_tol, prepared.ordering)
    out = np.empty_like(rhs)
    for A, columns, xs in zip(prepared.stencils[span], rhs, out):
        for b, x in zip(columns, xs):
            x[:] = cg_solve(A, b, rel_tol=rel_tol)
    return out


def cg_solve(A: StencilOperator, b: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Solve A x = b to ||A x - b||_2 <= rel_tol * ||b||_2.

    Preconditioned CG from x = 0 with a fixed iteration order, run in place on
    buffers allocated once per solve, on the ``StencilOperator`` that
    ``spd_prepare`` assembles once for all its right-hand sides; the operator's
    ``precondition`` is Jacobi or, on a lattice, the spectral inverse, which
    on ``product_torus`` is exact and so ends the solve after one iteration.
    When the recurrence residual meets the target, the true residual of A is
    recomputed; if drift has spoiled it the iteration restarts from the
    current iterate.
    Raises SolverError (reporting the relative residual achieved, the true
    one when the recurrence met the target) if the target is missed after
    50 n iterations, or the search direction vanishes first (p.Ap = 0, as
    once the residual underflows).
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

    x = np.zeros(n)
    r = b.copy()
    z = np.empty(n)
    p = np.empty(n)
    Ap = np.empty(n)
    step = np.empty(n)
    rz = 0.0
    r_norm = math.sqrt(float(np.dot(r, r)))
    restart = True  # p starts (again) from the preconditioned residual

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
            r_norm = true_norm
            restart = True
        # preconditioned only once the residual has missed the target, so the
        # iteration that meets it pays no preconditioner
        A.precondition(r, out=z)
        rz_next = float(np.dot(r, z))
        if restart:
            p[:] = z
            restart = False
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
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

    if r_norm <= target:  # met by the recurrence: the true residual decides, and is reported
        r_norm = true_residual()
        if r_norm <= target:
            return x
    raise SolverError(
        f"cg_solve: no convergence in {cap} iterations "
        f"(relative residual {r_norm / b_norm:.3e}, target {rel_tol:.3e})",
        r_norm / b_norm)

