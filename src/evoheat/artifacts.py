"""Deterministic artifact files.

Identical runs write byte-identical files: floats are written with shortest
round-trip formatting, and every file is written to a temporary file next to
its target and moved into place whole, with the mode ``open`` would have given
it (0644 under umask 022).

``SamplesWriter`` writes samples.csv, the largest artifact.  Where ``os.fork``
exists, a child forked before the run formats each sample row as the run
produces it, so the formatting overlaps the solves; elsewhere the finished
family is formatted in-process.  Both paths use one formatter, so the bytes do
not depend on which ran.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import traceback

import numpy as np

from .scheme import ChainFamily

__all__ = ["write_json", "write_csv", "SamplesWriter"]


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


def _vertex_labels(n: int) -> list[str]:
    return [f",{i}," for i in range(n)]


def _sample_rows(chain: ChainFamily):
    """samples.csv in one process, one sample per chunk."""
    yield _SAMPLES_HEADER
    vertex = _vertex_labels(chain.values.shape[1])
    for t, row in zip(chain.times().tolist(), chain.values):
        yield _format_sample(t, row, vertex)


def _can_stream() -> bool:
    """Stream wherever the platform can fork, with one CPU or more.

    On a second CPU the child's formatting is free; pinned to one CPU it costs
    a few per cent over formatting in-process (CHANGES.md, "Writer follow-up":
    ``verify_torus48`` median wall 1.634 s streamed, 1.563 s in-process).
    """
    return hasattr(os, "fork")


# Sent by ``publish`` after the last row; shorter than a row (8 bytes per vertex).
_END_OF_ROWS = b"end\n"


def _format_stream(rows_fd: int, out_fd: int, n: int, delta: float) -> bool:
    """The writer child's work: raw float64 rows from ``rows_fd`` to samples.csv text.

    False if the pipe closed without ``_END_OF_ROWS``: the parent stopped
    before ``publish`` (it failed or was killed), so the file is not wanted.
    """
    vertex = _vertex_labels(n)
    size = 8 * n
    with os.fdopen(rows_fd, "rb") as rows, os.fdopen(out_fd, "w") as out:
        out.write(_SAMPLES_HEADER)
        j = 0
        while len(data := rows.read(size)) == size:
            # j * delta is ChainFamily.times()'s float64(j) * delta
            out.write(_format_sample(j * delta, np.frombuffer(data, np.float64), vertex))
            j += 1
    return data == _END_OF_ROWS


def _widen_pipe(fd: int) -> None:
    """Let the parent run up to 1 MiB of rows ahead of the child (Linux only)."""
    import fcntl
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):  # not Linux, or above the system's pipe-max-size
        pass


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


class SamplesWriter:
    """samples.csv for one run family, formatted while the family is computed.

    Where ``_can_stream`` holds, a child forked before the run formats each row
    that ``on_row`` sends down a pipe into a temporary file next to the target,
    while the parent goes on solving; ``publish`` then ends the rows, waits for
    the child and moves the file into place only if the child exited 0.
    Elsewhere ``on_row`` is None and ``publish`` formats the finished family
    in-process.  Both paths format through ``_format_sample``, so the bytes are
    the same.  Used as a context manager: leaving it without ``publish`` (any
    exception, the KeyboardInterrupt included) closes the pipe, reaps the child
    and removes the temporary file, and the output directory too if the writer
    created it.  A child that fails removes its temporary file itself, so a
    parent killed before ``publish`` leaves no partial file behind either (only
    the directory the writer made, empty).

    The fork may happen in a multi-threaded process: evoheat starts no threads,
    but numpy's BLAS may keep a pool of worker threads (Python 3.12+ then emits
    a DeprecationWarning at ``os.fork``).  The child is still safe.  The fork
    runs on the main thread between BLAS calls, so the pool's threads are idle,
    and the child never calls into BLAS: it uses only ``frombuffer``,
    ``tolist``, ``repr`` and file writes, and glibc's ``malloc`` resets its locks
    in a forked child.
    """

    def __init__(self, path: str, n: int, delta: float):
        self.path, self.delta = path, delta
        self.on_row = None
        self._pid = self._fd = self._tmp = self._made_dir = None
        self._sent = 0
        if not _can_stream():
            return
        d = os.path.dirname(path) or "."
        if not os.path.isdir(d):
            os.makedirs(d)
            self._made_dir = d
        try:
            self._start(d, n)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.on_row = self._send

    def _start(self, d: str, n: int) -> None:
        rows_fd, self._fd = os.pipe()
        try:
            _widen_pipe(self._fd)
            out_fd, self._tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
            try:
                self._pid = os.fork()
                if self._pid == 0:  # the child: its body never returns into the caller
                    status = 1
                    try:
                        os.close(self._fd)
                        if _format_stream(rows_fd, out_fd, n, self.delta):
                            status = 0
                        else:  # the parent stopped early; it reports why, if it can
                            os.unlink(self._tmp)
                    except BaseException:  # the child's boundary: report, clean up, exit 1
                        traceback.print_exc()
                        sys.stderr.flush()
                        os.unlink(self._tmp)
                    finally:
                        os._exit(status)
            finally:
                os.close(out_fd)
        finally:
            os.close(rows_fd)

    def _write(self, data) -> None:
        try:
            _write_all(self._fd, data)
        except BrokenPipeError:  # the child died; report how
            self._reap()
            raise

    def _send(self, row: np.ndarray) -> None:
        self._write(row)
        self._sent += 1

    def _reap(self) -> None:
        """Close the pipe and wait for the child; raise unless it exited 0."""
        os.close(self._fd)
        self._fd = None
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(f"samples.csv writer failed (exit status {code})")

    def publish(self, chain: ChainFamily) -> None:
        """Write samples.csv of ``chain``, the family whose rows went to ``on_row``."""
        if self._pid is None:
            _write_chunks(self.path, _sample_rows(chain))
            return
        if self._sent != len(chain.values) or self.delta != chain.delta:
            raise RuntimeError("samples.csv writer was not sent this family")
        self._write(_END_OF_ROWS)
        self._reap()
        _move_into_place(self._tmp, self.path)
        self._tmp = self._made_dir = None

    def __enter__(self) -> "SamplesWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)
        if self._pid is not None:
            os.waitpid(self._pid, 0)
        if self._tmp is not None and os.path.exists(self._tmp):
            os.unlink(self._tmp)
        if self._made_dir is not None:
            try:
                os.rmdir(self._made_dir)
            except OSError:  # something else was written there meanwhile
                pass
