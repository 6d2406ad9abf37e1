"""Canonical binary encoding.

Ledger entries are hashed over — and size-accounted by — a canonical byte
encoding.  The scheme is deliberately simple (fixed-width integers and
length-prefixed byte strings, all big-endian) but it is *injective* for a
fixed schema: two distinct field tuples never encode to the same bytes,
which is the property hashing requires; and every structure's
``serialize()`` output has a well-defined length, which is the property
Section V's ledger-size accounting requires.
"""

from __future__ import annotations

import struct
from typing import Iterable, List


def encode_uint(value: int, width: int = 8) -> bytes:
    """Encode a non-negative integer big-endian in ``width`` bytes."""
    if value < 0:
        raise ValueError(f"cannot encode negative integer {value}")
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
        raise ValueError(f"{value} does not fit in {width} bytes") from exc


def decode_uint(data: bytes) -> int:
    return int.from_bytes(data, "big")


def encode_uint32(value: int) -> bytes:
    return encode_uint(value, 4)


def encode_uint64(value: int) -> bytes:
    return encode_uint(value, 8)


def encode_uint128(value: int) -> bytes:
    """Nano balances are 128-bit raw amounts."""
    return encode_uint(value, 16)


def encode_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string (4-byte big-endian length)."""
    return struct.pack(">I", len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode("utf-8"))


def encode_bool(flag: bool) -> bytes:
    return b"\x01" if flag else b"\x00"


def encode_list(items: Iterable[bytes]) -> bytes:
    """Length-prefixed list of pre-encoded items."""
    materialized = list(items)
    out = [struct.pack(">I", len(materialized))]
    out.extend(encode_bytes(item) for item in materialized)
    return b"".join(out)


class Encoder:
    """Append-only builder over one ``bytearray``.

    Hot serialization paths (transaction/block/header bodies) build their
    canonical form through this instead of concatenating per-field
    ``bytes`` objects: each field is appended in place with
    ``int.to_bytes`` — no ``struct.pack``, no intermediate allocations —
    and :meth:`getvalue` materializes the final ``bytes`` once.  The
    encoding produced is identical to composing the module-level
    ``encode_*`` helpers.

    >>> e = Encoder()
    >>> e.uint(7).bytes(b"ab").getvalue() == encode_uint64(7) + encode_bytes(b"ab")
    True
    """

    __slots__ = ("_buf", "_shared")

    #: Process-wide scratch buffer for :meth:`shared` — grown once, then
    #: reused by every top-level serialization instead of allocating a
    #: fresh ``bytearray`` per call (the zero-copy canonical-encoding
    #: path).
    _SCRATCH = bytearray()
    _SCRATCH_BUSY = False

    def __init__(self, buffer: "bytearray | None" = None) -> None:
        self._buf = bytearray() if buffer is None else buffer
        self._shared = False

    @classmethod
    def shared(cls) -> "Encoder":
        """An encoder over the process-wide scratch buffer.

        The scratch is handed out to one encoder at a time; nested or
        concurrent use (a ``serialize()`` that recursively serializes
        sub-structures) transparently falls back to a private buffer, so
        callers never need to care which one they got.  The buffer is
        released — and its storage kept for reuse — by :meth:`getvalue`.
        """
        if cls._SCRATCH_BUSY:
            return cls()
        cls._SCRATCH_BUSY = True
        scratch = cls._SCRATCH
        del scratch[:]
        encoder = cls(scratch)
        encoder._shared = True
        return encoder

    def raw(self, data: bytes) -> "Encoder":
        """Append pre-encoded bytes verbatim."""
        self._buf += data
        return self

    def uint(self, value: int, width: int = 8) -> "Encoder":
        if value < 0:
            raise ValueError(f"cannot encode negative integer {value}")
        try:
            self._buf += value.to_bytes(width, "big")
        except OverflowError as exc:
            raise ValueError(f"{value} does not fit in {width} bytes") from exc
        return self

    def bytes(self, data: bytes) -> "Encoder":
        """Length-prefixed byte string (4-byte big-endian length)."""
        buf = self._buf
        buf += len(data).to_bytes(4, "big")
        buf += data
        return self

    def str(self, text: str) -> "Encoder":
        return self.bytes(text.encode("utf-8"))

    def bool(self, flag: bool) -> "Encoder":
        self._buf += b"\x01" if flag else b"\x00"
        return self

    def list(self, items: Iterable[bytes]) -> "Encoder":
        """Length-prefixed list of pre-encoded items."""
        materialized = list(items)
        buf = self._buf
        buf += len(materialized).to_bytes(4, "big")
        for item in materialized:
            buf += len(item).to_bytes(4, "big")
            buf += item
        return self

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        value = bytes(self._buf)
        if self._shared:
            self._shared = False
            Encoder._SCRATCH_BUSY = False
        return value


class Decoder:
    """Sequential reader over a canonical encoding.

    >>> data = encode_uint64(7) + encode_bytes(b"ab")
    >>> d = Decoder(data)
    >>> d.read_uint(8), d.read_bytes()
    (7, b'ab')
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, n: int) -> bytes:
        if self.remaining < n:
            raise ValueError(f"decoder underrun: need {n} bytes, have {self.remaining}")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def read_uint(self, width: int = 8) -> int:
        return decode_uint(self._take(width))

    def read_bytes(self) -> bytes:
        length = self.read_uint(4)
        return self._take(length)

    def read_str(self) -> str:
        return self.read_bytes().decode("utf-8")

    def read_bool(self) -> bool:
        return self._take(1) == b"\x01"

    def read_list(self) -> List[bytes]:
        count = self.read_uint(4)
        return [self.read_bytes() for _ in range(count)]

    def finished(self) -> bool:
        return self.remaining == 0
