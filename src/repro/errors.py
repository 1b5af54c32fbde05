"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# XML substrate
# ---------------------------------------------------------------------------

class XmlError(ReproError):
    """Base class for XML storage/parsing errors."""


class XmlParseError(XmlError):
    """Raised when an XML document cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class XmlStructureError(XmlError):
    """Raised on illegal tree manipulation (e.g. detaching the root)."""


class NodeNotFound(XmlError):
    """Raised when a node id or path resolves to no node."""


# ---------------------------------------------------------------------------
# Query/update language
# ---------------------------------------------------------------------------

class QueryError(ReproError):
    """Base class for query-language errors."""


class QuerySyntaxError(QueryError):
    """Raised when a Select/action expression fails to parse."""

    def __init__(self, message: str, position: int = -1):
        suffix = f" at position {position}" if position >= 0 else ""
        super().__init__(f"{message}{suffix}")
        self.position = position


class QueryEvaluationError(QueryError):
    """Raised when a syntactically valid query cannot be evaluated."""


class UpdateError(QueryError):
    """Raised when an update action cannot be applied."""


# ---------------------------------------------------------------------------
# AXML engine
# ---------------------------------------------------------------------------

class AxmlError(ReproError):
    """Base class for ActiveXML engine errors."""


class ServiceCallError(AxmlError):
    """Raised when an embedded service call is malformed or unresolvable."""


class MaterializationError(AxmlError):
    """Raised when materialization of an embedded service call fails."""


# ---------------------------------------------------------------------------
# Web-service layer
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for service-layer errors."""


class ServiceNotFound(ServiceError):
    """Raised when a service name does not resolve in a registry."""


class ServiceFault(ServiceError):
    """A fault raised by a service during execution.

    ``fault_name`` matches against ``axml:catch`` handlers (paper §3.2).
    """

    def __init__(self, fault_name: str, message: str = ""):
        super().__init__(message or fault_name)
        self.fault_name = fault_name


# ---------------------------------------------------------------------------
# P2P layer
# ---------------------------------------------------------------------------

class P2PError(ReproError):
    """Base class for P2P network errors."""


class PeerDisconnected(P2PError):
    """Raised when a message targets a peer that has left the network."""

    def __init__(self, peer_id: str):
        super().__init__(f"peer {peer_id!r} is disconnected")
        self.peer_id = peer_id


class UnknownPeer(P2PError):
    """Raised when a peer id does not exist in the network."""


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

class TransactionError(ReproError):
    """Base class for transactional errors."""


class TransactionStateError(TransactionError):
    """Raised on an illegal transaction state transition."""


class CompensationError(TransactionError):
    """Raised when a compensating operation cannot be constructed/applied."""
