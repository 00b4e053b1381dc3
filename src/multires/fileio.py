"""File helpers shared by the readers and writers of every file format.

Every binary file is one frame, little-endian:
    4-byte magic | u16 version | body | u32 CRC32 of every preceding byte
Each format has one version, the one its writer emits, and a file of any
other version is refused. Each format parses only its body.

``read_frame`` maps the file read-only instead of copying it, so arrays
built on a body are read-only views of the file's pages. That is safe
because no writer changes a file in place: every writer here goes
through ``atomic_write``, which renames a new file over the old one, so
a mapped file is never truncated or rewritten under a reader.

Both ``frame`` and ``read_frame`` checksum through ``crc32``, so the
writer and the reader share one checksum path. A view of 16 MiB
(``SPLIT_BYTES``) or more is checksummed in slices, one per usable core
and each of at least 8 MiB (``SLICE_BYTES``), at once on parallel's
pool (``zlib.crc32`` releases the GIL), and the slice CRCs are folded in
order by ``crc32_combine``, zlib's exact combine. The CRC, and so every
file's bytes, is the one ``zlib.crc32`` gives over the whole view, and
every byte is still checked; a smaller view is one ``zlib.crc32`` call.

Every reader is decorated with ``names_file``, so a FormatError, from the
frame or from a format's body checks, starts with the path of the file.
"""

from __future__ import annotations

import functools
import mmap
import os
import secrets
import struct
import zlib
from contextlib import contextmanager

from multires import parallel
from multires.errors import FormatError, ParseError

_HEAD = struct.Struct("<4sH")
_CRC = struct.Struct("<I")

# A view of SPLIT_BYTES or more is checksummed in slices of at least
# SLICE_BYTES. At about 4 GB/s a slice then takes 2 ms or more, some 40
# times what an empty two-item run on parallel's pool costs.
SPLIT_BYTES = 16 << 20
SLICE_BYTES = 8 << 20

_POLY = 0xEDB88320  # the CRC-32 polynomial, bit-reflected as zlib keeps it


def _multmodp(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial, in zlib's reflected order; ``a`` is nonzero."""
    m, p = 1 << 31, 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


_X2N = [1 << 30]  # _X2N[k] = x^(2^k) modulo the polynomial, from x^1
while len(_X2N) < 32:
    _X2N.append(_multmodp(_X2N[-1], _X2N[-1]))


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC32 of a + b from crc1 = CRC32(a), crc2 = CRC32(b) and len2 = len(b), as zlib's.

    Multiplies crc1 by x^(8 len2) modulo the polynomial, one factor
    x^(2^k) per set bit of 8 len2, and adds crc2.
    """
    p, k = 1 << 31, 3  # x^0; the factors start at x^(2^3) = x^8, one byte
    while len2:
        if len2 & 1:
            p = _multmodp(_X2N[k & 31], p)
        len2 >>= 1
        k += 1
    return _multmodp(p, crc1) ^ crc2


def crc32(view, crc: int = 0) -> int:
    """``zlib.crc32(view, crc)``; a view of ``SPLIT_BYTES`` or more runs in slices at once.

    A large view is cut, with no copy, into near-equal slices of at least
    ``SLICE_BYTES``, at most one per usable core; this thread runs the
    first slice and parallel's pool the others. The split never nests:
    inside a run (``parallel.inside_split``) the view is checksummed in
    one call.
    """
    data = memoryview(view)
    size = data.nbytes
    n = min(parallel.usable_cores(), size // SLICE_BYTES) if size >= SPLIT_BYTES else 1
    if n < 2 or parallel.inside_split():
        return zlib.crc32(data, crc)
    data = data.cast("B")
    cuts = [i * size // n for i in range(n + 1)]
    crcs = [crc] + [0] * (n - 1)

    def one_slice(i: int) -> None:
        crcs[i] = zlib.crc32(data[cuts[i] : cuts[i + 1]], crcs[i])

    parallel.run(one_slice, range(n))
    crc = crcs[0]
    for i in range(1, n):
        crc = crc32_combine(crc, crcs[i], cuts[i + 1] - cuts[i])
    return crc


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


@contextmanager
def open_text(path: str):
    """Open a UTF-8 text input; a byte sequence that is not UTF-8 raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:  # its position counts from a decode chunk, not the file
        raise ParseError(f"{path} is not valid UTF-8 ({exc.reason})") from None


def frame(magic: bytes, version: int, body):
    """Yield the frame of ``body``, an iterable of byte chunks, chunk by chunk."""
    head = _HEAD.pack(magic, version)
    crc = crc32(head)
    yield head
    for chunk in body:
        crc = crc32(chunk, crc)
        yield chunk
    yield _CRC.pack(crc)


def read_frame(
    path: str, magic: bytes, version: int, header: struct.Struct
) -> tuple[tuple, memoryview]:
    """Map ``path`` read-only; return (``header`` fields, body).

    Checks, in order: the magic; the version, which must be ``version``;
    the length and the CRC32 over every byte before the trailer. Arrays
    built on the body are read-only views of the map, which stays open
    while any of them lives.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEAD.size:  # mmap cannot map an empty file
            raise FormatError(f"truncated file: {size} bytes, no frame head")
        buf = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
    if buf[:4] != magic:
        raise FormatError(f"bad magic {bytes(buf[:4])!r}, expected {magic!r}")
    found = _HEAD.unpack_from(buf)[1]
    if found != version:
        raise FormatError(f"unsupported version {found} (expected {version})")
    end = len(buf) - _CRC.size
    if end < _HEAD.size or crc32(buf[:end]) != _CRC.unpack_from(buf, end)[0]:
        raise FormatError("bad checksum: file truncated or corrupted")
    body = buf[_HEAD.size : end]
    if len(body) < header.size:
        raise FormatError(f"truncated file: expected a {header.size}-byte header")
    return header.unpack_from(body), body


def names_file(read):
    """Decorate a reader whose first argument is a path: its FormatErrors name that path."""

    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None

    return reader


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
