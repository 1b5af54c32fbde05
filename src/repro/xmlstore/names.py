"""Qualified names and the ``axml:`` namespace.

The paper embeds service calls as ``<axml:sc …>`` elements.  We model tag
names as :class:`QName` values with an optional prefix; the ``axml`` prefix
is reserved and recognized by the AXML engine (:mod:`repro.axml`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Namespace URI used for ActiveXML constructs.
AXML_NS = "http://activexml.net/ns"

#: The reserved prefix for AXML constructs.
AXML_PREFIX = "axml"

_NAME_START = set("_:") | set(chr(c) for c in range(ord("a"), ord("z") + 1))
_NAME_START |= set(chr(c) for c in range(ord("A"), ord("Z") + 1))
_NAME_CHARS = _NAME_START | set("-.0123456789")


def is_valid_name(name: str) -> bool:
    """Return ``True`` if *name* is a well-formed XML name.

    This intentionally implements the ASCII subset of the XML Name
    production — enough for the paper's documents and for our workload
    generators, while staying dependency-free.
    """
    if not name:
        return False
    if name[0] not in _NAME_START:
        return False
    return all(ch in _NAME_CHARS for ch in name[1:])


@dataclass(frozen=True)
class QName:
    """A qualified XML name: an optional prefix plus a local name.

    ``QName.parse("axml:sc")`` → ``QName(prefix="axml", local="sc")``.
    Instances are immutable and hashable so they can key dictionaries.
    """

    local: str
    prefix: str = ""

    @classmethod
    def parse(cls, text: str) -> "QName":
        """Parse ``prefix:local`` or plain ``local`` into a QName."""
        if ":" in text:
            prefix, _, local = text.partition(":")
            if not prefix or not local:
                raise ValueError(f"malformed qualified name: {text!r}")
            return cls(local=local, prefix=prefix)
        return cls(local=text)

    @property
    def text(self) -> str:
        """The serialized form (``prefix:local`` or ``local``)."""
        if self.prefix:
            return f"{self.prefix}:{self.local}"
        return self.local

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


#: QName of the embedded service-call element (paper §1).
SC_NAME = QName("sc", AXML_PREFIX)
#: QName of the parameter-list element.
PARAMS_NAME = QName("params", AXML_PREFIX)
#: QName of a single parameter.
PARAM_NAME = QName("param", AXML_PREFIX)
#: QName of a parameter value.
VALUE_NAME = QName("value", AXML_PREFIX)
#: QName of a fault handler (paper §3.2).
CATCH_NAME = QName("catch", AXML_PREFIX)
#: QName of the catch-all fault handler.
CATCHALL_NAME = QName("catchAll", AXML_PREFIX)
#: QName of the retry construct.
RETRY_NAME = QName("retry", AXML_PREFIX)

#: Local names of the AXML machinery elements that are call *metadata*
#: (params, fault handlers) rather than document content.  Query
#: evaluation and the structural index both prune these subtrees, so the
#: predicate lives here where every layer can share it.
AXML_META_LOCALS = frozenset({"params", "catch", "catchAll", "retry"})


def is_sc_name(name: QName) -> bool:
    """True for ``axml:sc``, the embedded service-call container."""
    return name.prefix == AXML_PREFIX and name.local == "sc"


def is_axml_meta_name(name: QName) -> bool:
    """True for the call-metadata elements (never document content)."""
    return name.prefix == AXML_PREFIX and name.local in AXML_META_LOCALS
