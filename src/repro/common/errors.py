"""Exception hierarchy for the whole framework.

Every error raised by the library derives from :class:`ReproError` so
callers can catch framework failures with a single ``except`` clause while
still distinguishing the common failure modes that the paper discusses
(double spends, forks, invalid proofs-of-work, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ReproError):
    """An entry (block, transaction, vote ...) failed validation rules."""


class DoubleSpendError(ValidationError):
    """A transaction attempts to spend an already-spent input or balance."""


class InsufficientFundsError(ValidationError):
    """A transaction spends more value than the sender controls."""


class ForkDetectedError(ReproError):
    """Two entries claim the same predecessor (Section IV of the paper)."""


class UnknownParentError(ReproError):
    """A block/node references a predecessor that is not in the ledger."""


class InvalidProofOfWorkError(ValidationError):
    """A proof-of-work solution does not meet the required target."""


class GenesisMismatchError(ReproError):
    """A joining replica's genesis state is unseeded or differs from its
    peer's, so nothing the peer serves could ever connect."""


class PrunedHistoryError(ReproError):
    """Requested historical data was discarded by pruning (Section V)."""


class ChannelError(ReproError):
    """Payment-channel protocol violation (Section VI, Lightning/Raiden)."""


class FraudProofError(ReproError):
    """A Plasma fraud proof was rejected or malformed (Section VI)."""


class ShardingError(ReproError):
    """Cross-shard routing or shard-assignment failure (Section VI)."""


class CementedBlockError(ReproError):
    """An operation attempted to roll back a cemented (final) block."""
