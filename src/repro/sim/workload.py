"""Workload generators for the experiments.

All generators are deterministic under a :class:`SeededRng`, so every
experiment row is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.axml.document import AXMLDocument
from repro.axml.service_call import install_service_call
from repro.query.ast import ActionType, UpdateAction
from repro.query.parser import parse_action
from repro.sim.rng import SeededRng
from repro.xmlstore.nodes import Document, Element

#: Element names the generated catalogue documents draw from.
_CATEGORY_NAMES = ("book", "article", "report", "thesis", "manual")
_FIELD_NAMES = ("title", "author", "year", "price", "publisher")
_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)


def generate_catalogue(
    rng: SeededRng,
    item_count: int,
    name: str = "Catalogue",
    call_density: float = 0.0,
) -> AXMLDocument:
    """A catalogue document with *item_count* items.

    Each item gets 2–4 text fields; with probability *call_density* an
    item additionally embeds a local service call (``getStock``-style)
    whose declared result name is ``stock``.
    """
    document = Document(name)
    root = document.create_root(name)
    for index in range(item_count):
        category = rng.choice(_CATEGORY_NAMES)
        item = root.new_element(category, {"id": str(index)})
        # Every item carries a unique <sku> so selective operations can
        # address exactly one item through the query language.
        item.new_element("sku").new_text(str(index))
        for field_name in rng.sample(_FIELD_NAMES, rng.randint(2, 4)):
            value = (
                str(rng.randint(1990, 2007))
                if field_name == "year"
                else rng.choice(_WORDS)
            )
            item.new_element(field_name).new_text(value)
        if call_density > 0 and rng.coin(call_density):
            install_service_call(
                item,
                method_name="getStock",
                mode="replace",
                params={"item": str(index)},
                initial_result_xml=(f"<stock>{rng.randint(0, 99)}</stock>",),
                result_name="stock",
            )
    return AXMLDocument(document)


@dataclass
class OperationMix:
    """Relative weights of the operation kinds in a generated workload."""

    insert: float = 0.3
    delete: float = 0.2
    replace: float = 0.3
    query: float = 0.2

    def pick(self, rng: SeededRng) -> ActionType:
        total = self.insert + self.delete + self.replace + self.query
        roll = rng.random() * total
        if roll < self.insert:
            return ActionType.INSERT
        roll -= self.insert
        if roll < self.delete:
            return ActionType.DELETE
        roll -= self.delete
        if roll < self.replace:
            return ActionType.REPLACE
        return ActionType.QUERY


def generate_operation(
    rng: SeededRng,
    document: AXMLDocument,
    mix: Optional[OperationMix] = None,
    selective: bool = False,
) -> UpdateAction:
    """One random operation valid against the document's current state.

    With ``selective=True`` the operation targets exactly one item (via
    its unique ``<sku>``), so the touched-data volume is independent of
    document size — the shape experiment E3 needs.
    """
    mix = mix or OperationMix()
    kind = mix.pick(rng)
    doc_name = document.name
    # Target only categories/fields the document actually contains, so
    # generated inserts/replaces always locate a target.  The scan uses
    # path evaluation, which sees through axml:sc containers — so
    # call-backed fields (e.g. <stock> results) are fair game, making
    # generated queries exercise lazy materialization.
    from repro.xmlstore.path import parse_path

    targetable = set(_FIELD_NAMES) | {"stock"}
    root = document.document.root
    items: List[Tuple[str, Optional[str], List[str]]] = []
    if root is not None:
        for item in root.child_elements():
            fields = [
                c.name.local
                for c in parse_path("*").evaluate(item)
                if c.name.local in targetable
            ]
            if not fields:
                continue
            sku_el = item.first_child("sku")
            sku = sku_el.text_content() if sku_el is not None else None
            items.append((item.name.local, sku, fields))
    if not items:
        category, field_name, where = "book", "title", ""
    elif selective:
        category, sku, fields = rng.choice(items)
        field_name = rng.choice(sorted(set(fields)))
        where = f" where i/sku = {sku}" if sku is not None else ""
    else:
        category = rng.choice(sorted({c for c, _, _ in items}))
        all_fields = sorted(
            {f for c, _, fields in items if c == category for f in fields}
        )
        field_name = rng.choice(all_fields)
        where = ""
    if kind is ActionType.QUERY:
        return parse_action(
            f'<action type="query"><location>Select i/{field_name} from i in '
            f"{doc_name}//{category}{where};</location></action>"
        )
    if kind is ActionType.INSERT:
        word = rng.choice(_WORDS)
        return parse_action(
            f'<action type="insert"><data><note>{word}</note></data>'
            f"<location>Select i from i in {doc_name}//{category}{where};"
            f"</location></action>"
        )
    if kind is ActionType.DELETE:
        return parse_action(
            f'<action type="delete"><location>Select i/{field_name} from i in '
            f"{doc_name}//{category}{where};</location></action>"
        )
    word = rng.choice(_WORDS)
    return parse_action(
        f'<action type="replace"><data><{field_name}>{word}</{field_name}></data>'
        f"<location>Select i/{field_name} from i in {doc_name}//{category}{where};"
        f"</location></action>"
    )


# ---------------------------------------------------------------------------
# load generation for the throughput experiments (T1)
# ---------------------------------------------------------------------------

def poisson_arrival_times(
    rng: SeededRng, rate: float, count: int, start: float = 0.0
) -> List[float]:
    """*count* absolute arrival times of a Poisson process at *rate*.

    Inter-arrival gaps are exponential; the whole sequence is a pure
    function of the rng stream, so open-loop load is reproducible.
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be > 0, got {rate}")
    times: List[float] = []
    t = start
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


def hot_spot_action(document: AXMLDocument) -> UpdateAction:
    """A write that every contending transaction aims at the same node.

    Inserts a ``<hit/>`` marker under item 0: the write set includes the
    *parent* item node, so every pair of concurrent hot writers overlaps
    for OCC validation — the contention knob.  An insert (rather than a
    replace) is deliberate: its compensation deletes exactly the
    inserted node id, so aborted attempts leave the hot item unchanged
    even when other transactions touched it in between (a replace chain
    under interleaving can re-insert stale snapshots and snowball).
    """
    root = document.document.root
    category = "book"
    if root is not None:
        for item in root.child_elements():
            sku_el = item.first_child("sku")
            if sku_el is not None and sku_el.text_content() == "0":
                category = item.name.local
                break
    return parse_action(
        f'<action type="insert"><data><hit/></data>'
        f"<location>Select i from i in {document.name}//{category}"
        f" where i/sku = 0;</location></action>"
    )


def generate_contended_transaction(
    rng: SeededRng,
    document: AXMLDocument,
    length: int,
    hot_fraction: float = 0.0,
    mix: Optional[OperationMix] = None,
) -> List[UpdateAction]:
    """A transaction whose operations hit a shared hot spot with
    probability *hot_fraction* — the contention knob of the throughput
    sweep.  Cold operations are selective (single-item), so contention
    comes from the hot spot, not incidental overlap.
    """
    operations: List[UpdateAction] = []
    for _ in range(length):
        if hot_fraction > 0 and rng.coin(hot_fraction):
            operations.append(hot_spot_action(document))
        else:
            operations.append(generate_operation(rng, document, mix, selective=True))
    return operations


# ---------------------------------------------------------------------------
# invocation-tree topologies (experiment E5)
# ---------------------------------------------------------------------------

def generate_invocation_tree(
    rng: SeededRng,
    depth: int,
    fanout: int,
    fanout_jitter: bool = True,
) -> Dict[str, List[Tuple[str, str]]]:
    """A random invocation topology of the scenario-builder shape.

    Peers are named ``AP1..APn`` breadth-first from the root ``AP1``;
    each internal peer invokes 1..*fanout* children down to *depth*
    levels.  The result plugs directly into
    :meth:`repro.api.Cluster.from_topology`.
    """
    topology: Dict[str, List[Tuple[str, str]]] = {}
    counter = [1]

    def grow(parent: str, level: int) -> None:
        if level >= depth:
            return
        width = rng.randint(1, fanout) if fanout_jitter else fanout
        children: List[Tuple[str, str]] = []
        for _ in range(width):
            counter[0] += 1
            child = f"AP{counter[0]}"
            children.append((child, f"S{counter[0]}"))
        topology[parent] = children
        for child, _ in children:
            grow(child, level + 1)

    grow("AP1", 0)
    return topology


def tree_peers(topology: Dict[str, List[Tuple[str, str]]]) -> List[str]:
    """All peers of a generated topology, root first."""
    out: List[str] = []
    for parent, children in topology.items():
        if parent not in out:
            out.append(parent)
        for child, _ in children:
            if child not in out:
                out.append(child)
    return out


def generate_participant_sets(
    rng: SeededRng,
    peer_pool: Sequence[str],
    transactions: int,
) -> List[List[str]]:
    """Participant sets of 2-6 random peers for the spheres experiment (E6)."""
    out: List[List[str]] = []
    for _ in range(transactions):
        size = rng.randint(2, min(6, len(peer_pool)))
        out.append(rng.sample(list(peer_pool), size))
    return out
