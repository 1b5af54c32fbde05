"""The unified invocation result type: one **frozen** :class:`Outcome`,
returned by both the AXML resolver path (:mod:`repro.axml.materialize`)
and the RPC reply (:mod:`repro.p2p.messages`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.p2p.chain import PeerChain


@dataclass(frozen=True)
class Outcome:
    """What a service invocation returned — the one result shape.

    ``fragments`` are serialized XML results (possibly containing further
    ``axml:sc`` elements — nested invocation).  ``compensations`` carries
    ``(provider_peer, plan_xml)`` compensating-service definitions under
    peer-independent compensation (§3.2); ``chain`` snapshots the
    provider's final active-peer chain view (§3.3), ``None`` if off.

    Instances are frozen: a result is a value, not a mutable message —
    construct a new one instead of editing in place.
    """

    #: Kept so metrics/trace naming for the RPC reply stays ``result``.
    KIND: ClassVar[str] = "result"

    fragments: Sequence[str] = field(default_factory=tuple)
    provider_peer: str = ""
    compensations: Sequence[Tuple[str, str]] = field(default_factory=tuple)
    nodes_affected: int = 0
    chain: Optional["PeerChain"] = field(default=None, compare=False)
