"""File helpers shared by the readers and writers of every file format."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager

from multires.errors import FormatError, ParseError


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


def read_exact(fh, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes; a short read raises FormatError naming ``what``."""
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file: expected {count} bytes for {what}")
    return data


def key_value_lines(fh):
    """Yield (line number, key, value) per ``key=value`` line; ``#`` starts a comment."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()
