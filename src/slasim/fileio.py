"""Atomic replacement of output files.

A report or transaction log is written to a temporary file in the target's
directory and then renamed onto the target with ``os.replace``, so a reader
sees either the previous file or the complete new one, never a partial
write.  The rename guards against the writing process failing; it does not
fsync, so it makes no promise about a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, newline=None):
    """Yield a text file that replaces ``path`` when the block completes.

    If the block raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    path = Path(path)
    # a process writes one file at a time, so its pid keeps writers apart
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "w", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
