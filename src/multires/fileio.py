"""Crash-safe file replacement shared by every binary writer."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_write(path: str):
    """Yield a binary file whose bytes replace ``path`` only once all are written.

    The bytes go to a uniquely named temp file in the target directory,
    which is flushed, fsynced and renamed over ``path``. On any error the
    temp file is removed and a previous file at ``path`` is left as it was.
    Exclusive creation ("xb") keeps concurrent writers apart and gives the
    file the same umask-derived mode as ``open(path, "wb")``.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
