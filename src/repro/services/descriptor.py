"""Service descriptors.

Every AXML service "is also exposed as a regular Web service (with a
WSDL description file)" (§1).  The descriptor keeps of that WSDL what
the program reads: the operation's name, the parameters it requires and
the document it operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ServiceError


@dataclass(frozen=True)
class ServiceDescriptor:
    """Description of one service operation.

    ``params`` names the required parameters; ``target_document`` is the
    hosted document the service runs on (empty: the one its action's
    location names).
    """

    method_name: str
    params: Sequence[str] = ()
    target_document: str = ""

    def validate_params(self, provided: dict) -> None:
        """Raise :class:`ServiceError` if required parameters are missing."""
        missing = [name for name in self.params if name not in provided]
        if missing:
            raise ServiceError(
                f"service {self.method_name!r} is missing required parameters: "
                f"{', '.join(missing)}"
            )
