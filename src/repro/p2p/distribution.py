"""Distributed storage of AXML document fragments (§1).

"The distributed aspect follows from … 2) distributed storage of parts
of an AXML document across multiple peers [2].  In case of distributed
storage, if a query Q on peer AP1 is interested in part of an AXML
document stored on peer AP2 then there are two options: a) the query Q
is decomposed and the relevant sub-query sent to the peer AP2 for
evaluation, or b) the required fragment of the AXML document is copied
to the peer AP1 and the query Q evaluated locally.  Both the above
options require invoking a service on the remote peer and as such are
similar in functionality to (1)."

The paper's own observation — that both options reduce to a service
invocation — is exactly how we implement them:

* :func:`distribute_fragment` moves a subtree from the host document to
  a fresh document on another peer and replaces it with an embedded
  service call to a generated ``getFragment_*`` query service there.
* Option (b), fragment copying, is then ordinary lazy materialization:
  a query touching the fragment's names pulls it over the network and
  evaluates locally.  Transactionally this is the interesting path —
  the copy is a tree change with change records, so aborting the query
  un-copies the fragment (dynamic query compensation, §3.1).
* Option (a), sub-query shipping, is :func:`remote_subquery`: the
  relevant Select is sent to the fragment's host and evaluated there;
  the local document is never touched, so nothing needs compensation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.axml.document import AXMLDocument
from repro.axml.service_call import install_service_call
from repro.errors import P2PError
from repro.p2p.peer import AXMLPeer
from repro.query.ast import SelectQuery
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import QueryService, SubqueryService
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.path import parse_path
from repro.xmlstore.serializer import serialize

@dataclass
class FragmentPlacement:
    """Where a distributed fragment lives and how to reach it."""

    host_document: str
    fragment_document: str
    fragment_peer: str
    method_name: str
    root_name: str


def distribute_fragment(
    owner: AXMLPeer,
    document_name: str,
    fragment_path: str,
    target: AXMLPeer,
) -> FragmentPlacement:
    """Move the subtree at *fragment_path* to *target*, leaving a call.

    The subtree (exactly one match required) becomes a standalone
    document ``<doc>_frag<N>`` hosted by *target*, exposed through a
    generated ``getFragment_<N>`` query service.  The owner's document
    gets an ``axml:sc`` in its place whose ``resultName`` is the
    fragment root's name — so lazy evaluation fetches the fragment only
    for queries that actually need it.
    """
    axml_document = owner.get_axml_document(document_name)
    matches = [
        node
        for node in parse_path(fragment_path).evaluate(axml_document.document)
        if isinstance(node, Element)
    ]
    if len(matches) != 1:
        raise P2PError(
            f"fragment path {fragment_path!r} must match exactly one element, "
            f"matched {len(matches)}"
        )
    subtree = matches[0]
    if subtree.parent is None:
        raise P2PError("cannot distribute the document root")
    parent = subtree.parent
    index = subtree.index_in_parent()
    # Run-scoped serial (the network owns it): a module-global
    # itertools.count here survived across sweep cells in one process
    # while forked parallel workers started fresh, threatening
    # serial↔parallel summary byte-identity.
    serial = owner.network.next_fragment_serial()
    fragment_doc_name = f"{document_name}_frag{serial}"
    method_name = f"getFragment_{serial}"

    # Build the fragment document on the target peer.
    fragment_document = Document(fragment_doc_name)
    fragment_document.root = subtree.clone_into(fragment_document, preserve_ids=False)
    target.host_document(AXMLDocument(fragment_document, name=fragment_doc_name))
    target.host_service(
        QueryService(
            ServiceDescriptor(method_name, target_document=fragment_doc_name),
            # The fragment document is addressed by its document name (its
            # root element keeps the subtree's original name).
            f"Select f from f in {fragment_doc_name};",
        )
    )
    owner.network.replication.register_primary(fragment_doc_name, target.peer_id)
    owner.network.replication.register_service(method_name, target.peer_id)

    # Replace the subtree with an embedded call to the fragment service.
    # The placeholder declares *every* element name inside the fragment,
    # so lazy evaluation fetches it for any query that needs fragment
    # content — not just the fragment's root name.
    contained_names = sorted({e.name.local for e in subtree.iter_elements()})
    subtree.detach()
    placeholder_parent = parent
    call = install_service_call(
        placeholder_parent,
        method_name=method_name,
        service_url=f"axml://{target.peer_id}",
        mode="replace",
        result_name=subtree.name.local,
    )
    call.element.attributes["resultNames"] = " ".join(contained_names)
    # The placeholder is storage, not a dynamic service: once fetched,
    # the copy is authoritative for the rest of the transaction.
    call.element.attributes["fetchOnce"] = "true"
    # Move the sc element to the subtree's original position.
    call.element.detach()
    placeholder_parent.insert_at(index, call.element)
    return FragmentPlacement(
        host_document=document_name,
        fragment_document=fragment_doc_name,
        fragment_peer=target.peer_id,
        method_name=method_name,
        root_name=subtree.name.local,
    )


def remote_subquery(
    requester: AXMLPeer,
    txn_id: str,
    placement: FragmentPlacement,
    subquery: SelectQuery,
) -> List[str]:
    """Option (a): ship a sub-query to the fragment's host peer.

    The sub-query must range over the fragment document.  Returns the
    serialized result fragments.  Because evaluation happens remotely
    and the local document is untouched, the requester logs nothing —
    only the remote peer's own materializations (if any) enter *its*
    log.
    """
    if subquery.document_name != placement.fragment_document:
        raise P2PError(
            f"sub-query ranges over {subquery.document_name!r}, expected "
            f"{placement.fragment_document!r}"
        )
    method = f"query_{placement.fragment_document}"
    host = requester.network.get_peer(placement.fragment_peer)
    if not host.registry.has(method):
        host.host_service(SubqueryService(
            ServiceDescriptor(method, params=("q",), target_document=placement.fragment_document)
        ))
    return requester.invoke(
        txn_id, placement.fragment_peer, method, {"q": str(subquery)}
    )
