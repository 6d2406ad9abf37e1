"""Network messages.

A message wraps an application payload with a kind tag, a stable id used
for gossip duplicate suppression, and a byte size used for bandwidth
modelling and traffic accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.types import Hash

_MESSAGE_COUNTER = itertools.count()

#: Fixed protocol overhead per message (framing, headers), in bytes.
MESSAGE_OVERHEAD_BYTES = 24


@dataclass(frozen=True, slots=True)
class Message:
    """An application payload in flight.

    Slotted: gossip floods create one Message and many per-hop closures
    over it, so the per-instance dict is pure overhead.
    """

    kind: str
    payload: Any
    size_bytes: int
    dedup_key: Optional[Hash] = None
    msg_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))
    #: Bytes on the wire including protocol overhead.
    wire_size: int = field(init=False, repr=False, compare=False)
    _gossip_key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Both are read once per hop and never change: computed here, not
        # per access.
        object.__setattr__(self, "wire_size",
                           self.size_bytes + MESSAGE_OVERHEAD_BYTES)
        object.__setattr__(self, "_gossip_key", (
            self.kind,
            self.dedup_key if self.dedup_key is not None else self.msg_id))

    def gossip_key(self) -> object:
        """Identity used for duplicate suppression while flooding."""
        return self._gossip_key
