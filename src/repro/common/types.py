"""Typed identifiers shared across the blockchain and DAG subsystems.

The paper compares two ledger paradigms that both identify entries by
cryptographic hash and owners by address.  Using small typed classes
(instead of raw ``bytes``) makes APIs self-documenting, fixes each id's
length at construction, and gives every id a stable hex rendering for
logs and tables.
"""

from __future__ import annotations

HASH_SIZE = 32
ADDRESS_SIZE = 20


class _FixedBytes(bytes):
    """An immutable byte string of one fixed length, rendered as hex.

    Ids key the hottest dicts and sets in every ledger (block index,
    pending table, cemented set, flood records), so they *are* ``bytes``:
    hashing and equality run in C with the hash cached on the object,
    and ``hash(Hash(b)) == hash(b)`` — which is what keeps dict and set
    iteration order, and with it every fingerprint, where it was.

    The price is one loosening: an id compares equal to the raw bytes it
    wraps (``Hash(b) == b``), and orders against any ``bytes``.  A
    ``Hash`` still never equals an ``Address`` — their lengths differ.
    """

    __slots__ = ()
    SIZE = 0

    def __new__(cls, value: bytes):
        if not isinstance(value, bytes) or len(value) != cls.SIZE:
            raise ValueError(
                f"{cls.__name__} must be {cls.SIZE} bytes, got {value!r}")
        return bytes.__new__(cls, value)

    @classmethod
    def zero(cls):
        """The all-zero id (for a hash: the genesis predecessor)."""
        return cls._ZERO

    @property
    def value(self) -> bytes:
        """The wrapped bytes as a plain ``bytes`` object."""
        return bytes(self)

    @property
    def hex(self) -> str:  # type: ignore[override]
        return bytes.hex(self)

    def short(self, n: int = 8) -> str:
        """First ``n`` hex chars — convenient for log lines and diagrams."""
        return bytes.hex(self)[:n]

    def is_zero(self) -> bool:
        return self == self._ZERO

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.short()}…)"

    # ``bytes.__str__`` would otherwise leak ``b'\\x..'`` into f-strings
    # and the JSONL trace dump.
    __str__ = __repr__


class Hash(_FixedBytes):
    """A 32-byte cryptographic digest identifying a block, node or tx."""

    __slots__ = ()
    SIZE = HASH_SIZE


Hash._ZERO = Hash(bytes(HASH_SIZE))

# A transaction id is a hash; the alias documents intent at call sites.
TxId = Hash
BlockId = Hash


class Address(_FixedBytes):
    """A 20-byte account address derived from a public key."""

    __slots__ = ()
    SIZE = ADDRESS_SIZE


Address._ZERO = Address(bytes(ADDRESS_SIZE))
