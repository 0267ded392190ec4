"""Opening the text files that the readers and writers accept by path or handle."""

from __future__ import annotations

import contextlib
import io
import os
from typing import Iterator


@contextlib.contextmanager
def open_text(path: str | os.PathLike | io.TextIOBase, mode: str) -> Iterator[io.TextIOBase]:
    """Yield a text handle for ``path``.

    A ``str`` or path-like is opened in ``mode`` with ``newline=""`` (so the
    csv module sees line ends as written) and closed on exit.  Anything else
    is taken to be a handle the caller opened; it is yielded as is and left
    open.
    """
    if isinstance(path, (str, os.PathLike)):
        with open(path, mode, newline="") as fh:
            yield fh
    else:
        yield path
