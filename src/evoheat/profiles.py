"""Initial-data profiles: named vertex functions built from a small config dict.

Profiles with a spatial shape (harmonic, bump) read the first coordinate column
of the graph; graphs without coordinates fall back to Laplacian eigenvectors at
time 0 for ``harmonic`` and reject ``bump``.  Random profiles are seeded and
deterministic.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import TimeWeightedGraph, edge_conductances, vertex_weights
from .linalg import SpdOperator

__all__ = ["make_initial_data", "PROFILES"]

PROFILES = ("constant", "harmonic", "bump", "random", "file")


def _harmonic(G: TimeWeightedGraph, k: int) -> np.ndarray:
    if G.coords is not None:
        return np.cos(k * G.coords[:, 0])
    # no coordinates: k-th eigenvector of the weight-normalized Laplacian at t=0
    w = vertex_weights(G, 0.0)
    S = SpdOperator(np.zeros(G.n_vertices), G.edges, edge_conductances(G, 0.0), 1.0).dense()
    d = 1.0 / np.sqrt(w)
    _, vecs = np.linalg.eigh(d[:, None] * S * d[None, :])
    if not 0 <= k < G.n_vertices:
        raise ValueError(f"harmonic index k={k} out of range for {G.n_vertices} vertices")
    v = d * vecs[:, k]
    return v / np.max(np.abs(v))


def _bump(G: TimeWeightedGraph, center: float, width: float) -> np.ndarray:
    if G.coords is None:
        raise ValueError("bump profile needs vertex coordinates")
    if width <= 0:
        raise ValueError(f"bump width must be positive, got {width}")
    # periodic distance on the first coordinate (circle/torus convention)
    d = np.abs(G.coords[:, 0] - center)
    d = np.minimum(d, 2.0 * np.pi - d)
    return np.exp(-0.5 * (d / width) ** 2)


def make_initial_data(G: TimeWeightedGraph, spec: dict, default_seed: int = 0) -> np.ndarray:
    """Initial data, one float per vertex, from a spec like {"profile": "harmonic", "k": 1}.

    Profiles:
      constant: {"value": c}                      all entries c (default 1.0)
      harmonic: {"k": int}                        cos(k x) on the first coordinate
      bump:     {"center": x0, "width": s}        periodic Gaussian bump in [0, 1]
      random:   {"seed": int, "dist": "normal"|"cauchy", "scale": s}
      file:     {"path": p}                       JSON list of n finite values
    """
    spec = dict(spec)
    profile = spec.pop("profile", None)
    if profile == "constant":
        values = np.full(G.n_vertices, float(spec.pop("value", 1.0)))
    elif profile == "harmonic":
        values = _harmonic(G, int(spec.pop("k", 1)))
    elif profile == "bump":
        values = _bump(G, float(spec.pop("center", np.pi)), float(spec.pop("width", 0.5)))
    elif profile == "random":
        seed = int(spec.pop("seed", default_seed))
        dist = spec.pop("dist", "normal")
        scale = float(spec.pop("scale", 1.0))
        rng = np.random.default_rng(seed)
        if dist == "normal":
            values = scale * rng.standard_normal(G.n_vertices)
        elif dist == "cauchy":
            values = scale * rng.standard_cauchy(G.n_vertices)
        else:
            raise ValueError(f"random profile: unknown dist {dist!r}")
    elif profile == "file":
        with open(spec.pop("path")) as f:
            raw = json.load(f)
        values = np.asarray(raw, dtype=float)
        if values.shape != (G.n_vertices,):
            raise ValueError(f"file profile: expected {G.n_vertices} values, "
                             f"got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("file profile: values must be finite")
    else:
        raise ValueError(f"unknown initial-data profile {profile!r}, "
                         f"expected one of {', '.join(PROFILES)}")
    if spec:
        raise ValueError(f"initial-data profile {profile}: unknown keys {sorted(spec)}")
    return values
