"""Initial-data profiles: named vertex functions built from a small config dict.

Profiles with a spatial shape (harmonic, bump) read the first coordinate column
of the graph; graphs without coordinates fall back to Laplacian eigenvectors at
time 0 for ``harmonic`` and reject ``bump``.  Random profiles are seeded and
deterministic.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .geometry import (TimeWeightedGraph, edge_conductances, typed_array, typed_params,
                       vertex_weights)
from .linalg import SpdOperator

__all__ = ["make_initial_data", "PROFILES"]


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


def _random(G: TimeWeightedGraph, seed: int, dist: str, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    draw = {"normal": rng.standard_normal, "cauchy": rng.standard_cauchy}.get(dist)
    if draw is None:
        raise ValueError(f"random profile: unknown dist {dist!r}")
    return scale * draw(G.n_vertices)


def _file(G: TimeWeightedGraph, path: str) -> np.ndarray:
    if not path:
        raise ValueError("path: the file profile needs a path")
    with open(path) as f:
        values = typed_array("file profile", json.load(f), 0.0)
    if values.shape != (G.n_vertices,):
        raise ValueError(f"file profile: expected {G.n_vertices} values, "
                         f"got shape {values.shape}")
    return values


# Each profile's keys with their typed defaults, and the builder that takes the
# graph and every key by name.  A profile's seed defaults to the run's.
_PROFILES = {
    "constant": ({"value": 1.0}, lambda G, value: np.full(G.n_vertices, value, dtype=float)),
    "harmonic": ({"k": 1}, _harmonic),
    "bump": ({"center": math.pi, "width": 0.5}, _bump),
    "random": ({"seed": 0, "dist": "normal", "scale": 1.0}, _random),
    "file": ({"path": ""}, _file),
}
PROFILES = tuple(_PROFILES)


def make_initial_data(G: TimeWeightedGraph, spec: dict, default_seed: int = 0) -> np.ndarray:
    """Initial data, one float per vertex, from a spec like {"profile": "harmonic", "k": 1}.

    Profiles:
      constant: {"value": c}                      all entries c (default 1.0)
      harmonic: {"k": int}                        cos(k x) on the first coordinate
      bump:     {"center": x0, "width": s}        periodic Gaussian bump in [0, 1]
      random:   {"seed": int, "dist": "normal"|"cauchy", "scale": s}
      file:     {"path": p}                       JSON list of n finite values

    Each value must have the JSON type of its default (see ``geometry.typed_params``).
    """
    spec = dict(spec)
    profile = spec.pop("profile", None)
    if profile not in PROFILES:
        raise ValueError(f"unknown initial-data profile {profile!r}, "
                         f"expected one of {', '.join(PROFILES)}")
    defaults, make = _PROFILES[profile]
    if "seed" in defaults:
        spec.setdefault("seed", default_seed)
    return make(G, **typed_params(f"initial-data profile {profile}", defaults, spec))
