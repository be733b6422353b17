"""Deterministic artifact files.

Identical runs write byte-identical files: floats are written with shortest
round-trip formatting, and every file is written to a temporary file next to
its target and moved into place whole, with the mode ``open`` would have given
it (0644 under umask 022).

``write_samples`` writes samples.csv, the largest artifact, from a finished
chain family, formatted in-process one sample at a time like every other file
goes out: a write that fails partway leaves neither samples.csv nor its
temporary file behind.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .scheme import ChainFamily

__all__ = ["write_json", "write_csv", "write_samples"]


def _move_into_place(tmp: str, path: str) -> None:
    """Move a finished temporary file into place with the mode open() would give it."""
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates files 0600
    os.replace(tmp, path)


def _write_chunks(path: str, chunks) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            for chunk in chunks:
                f.write(chunk)
        _move_into_place(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    _write_chunks(path, [json.dumps(obj, indent=2) + "\n"])


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_chunks(path, ["\n".join(lines) + "\n"])


_SAMPLES_HEADER = "t,vertex,value\n"


def _format_sample(t: float, row: np.ndarray, vertex: list[str]) -> str:
    """One sample of samples.csv: a ``t,vertex,value`` line per entry of ``row``."""
    t = repr(t)
    return "".join([f"{t}{i}{v!r}\n" for i, v in zip(vertex, row.tolist())])


def _sample_rows(chain: ChainFamily):
    """samples.csv of ``chain``, one sample per chunk."""
    yield _SAMPLES_HEADER
    vertex = [f",{i}," for i in range(chain.values.shape[1])]
    for t, row in zip(chain.times().tolist(), chain.values):
        yield _format_sample(t, row, vertex)


def write_samples(path: str, chain: ChainFamily) -> None:
    """samples.csv of ``chain``: the header, then one ``t,vertex,value`` line per entry."""
    _write_chunks(path, _sample_rows(chain))
