"""Opening the text files that the readers and writers accept by path or handle,
writing strict JSON, their number rule, and splitting the rows of a large file
over the usable CPUs."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import warnings
from typing import Callable, Iterable, Iterator


@contextlib.contextmanager
def open_text(path: str | os.PathLike | io.TextIOBase, mode: str) -> Iterator[io.TextIOBase]:
    """Yield a text handle for ``path``.

    A ``str`` or path-like is opened in ``mode`` as UTF-8, whatever the
    locale, with ``newline=""`` (so the csv module sees line ends as written)
    and closed on exit.  Anything else is taken to be a handle the caller
    opened; it is yielded as is and left open.
    """
    if isinstance(path, (str, os.PathLike)):
        with open(path, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield path


def write_json(payload, path: str | os.PathLike | io.TextIOBase) -> None:
    """Write ``payload`` as strict JSON (a ``NaN`` raises ``ValueError``),
    indented by 2 and ended by ``\n``, to a path or a handle as :func:`open_text` takes."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open_text(path, "w") as fh:
        fh.write(text + "\n")


def ascii_number(field: str, kind: Callable[[str], float]) -> float:
    """``kind`` of the stripped field, which must be ASCII with no ``_``, as
    ``np.loadtxt`` reads it: ``int`` and ``float`` also take ``"1_0"`` and ``"٣"``."""
    field = field.strip()
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return kind(field)


def usable_cpus() -> int:
    """The CPUs this process may run on, where ``os.sched_getaffinity``
    tells; elsewhere 1, so platforms without it never fork here."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def row_ranges(n: int, chunk: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into one contiguous ``(start, stop)`` per usable CPU.

    There are no more ranges than chunks of ``chunk`` rows, so fewer than two
    chunks, or one usable CPU, give the single range ``(0, n)``.
    """
    parts = min(usable_cpus(), -(-n // chunk))
    if parts < 2:
        return [(0, n)]
    bounds = [n * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


# The start of the warning Python 3.12 and later give on os.fork() in a
# process with other threads
_FORK_WITH_THREADS = r"This process .*is multi-threaded, use of fork\(\)"


def forked_map(fn: Callable[[int, int], Iterable], ranges: list[tuple[int, int]]) -> Iterator:
    """Yield every item of ``fn(start, stop)`` for each range, in range order.

    The first range runs in this process, lazily.  Each other range runs in
    an ``os.fork()`` child, which collects its items, then pickles them one
    by one (or the exception ``fn`` raised) to a pipe and leaves by
    ``os._exit``, so it never returns into the caller's stack.  A child's
    exception is raised here.  Every child is reaped before this generator
    ends, also when the caller's own range, or its use of the items, raises.

    ``fn`` must only parse, format and pickle, and never call BLAS: a forked
    child has none of its parent's threads, and a loaded OpenBLAS keeps a
    pool of them.  Python 3.12 and later warn (``DeprecationWarning``) on
    every fork of a process with other threads; since the children never
    touch those threads' state, that one warning is silenced here.
    """
    children: list[tuple[int, int]] = []  # (read end of the pipe, pid)
    try:
        for start, stop in ranges[1:]:
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", _FORK_WITH_THREADS, DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    for fd in (read_fd, *(fd for fd, _ in children)):
                        os.close(fd)
                    with open(write_fd, "wb") as pipe:
                        try:
                            messages = [(True, item) for item in fn(start, stop)]
                            messages.append((False, None))
                        except BaseException as exc:
                            messages = [(False, exc)]
                        for message in messages:
                            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((read_fd, pid))
        yield from fn(*ranges[0])
        for read_fd, pid in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                while True:
                    try:
                        more, value = pickle.load(pipe)
                    except EOFError:
                        raise ChildProcessError(f"worker {pid} ended without a result") from None
                    if not more:
                        break
                    yield value
            if value is not None:  # the exception the child's range raised
                raise value
    finally:
        for read_fd, pid in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
