"""P1 — hot-path performance: structural indexes, parallel sweeps, parsing.

Eight measurements, all gated (a regression makes this script exit 1,
and CI runs it with ``--smoke`` on every push):

* **Part A — indexed vs. walk-based query evaluation.**  Builds one
  deep, wide document (depth 6, fanout 8; node-budgeted) and evaluates
  descendant Select queries from the structural index and then by the
  reference walk (``path._indexed_descendants`` patched to decline).
  Results and traversal-meter charges must be identical; wall time must
  not be (gate: indexed strictly faster in smoke, >= 2x in full runs).
* **Part B — serial vs. parallel C1 chaos sweep.**  Runs the same sweep
  with ``workers=1`` and ``workers=N`` (``--workers``; the default 0 is
  every available core) and requires the rendered table
  and its JSON payload to be **byte-identical** — the determinism
  contract of :mod:`repro.sim.parallel` — plus a wall-time reduction
  whenever this machine can deliver one for a sweep of that size: the
  script pushes the serial leg's CPU time through the same pool as
  pure busy-work (``pool_floor_time``: spawn + dispatch + the cores'
  real scaling) and asks the sweep to beat serial only when that floor
  does.
* **Part C — parser scan cost.**  Parses one seeded catalogue twice,
  the second time with every text run and attribute value ten times
  longer, under ``sys.setprofile``: the number of Python- and C-level
  calls must be **equal** — the scanner's cost is per token, not per
  character.  The count repeats exactly on every machine, so a
  reintroduced per-character loop fails on a count, not on wall time.
* **Part D — a location costs what it touches.**  The protocol's inner
  loop (§3.1: ``<location>`` query, then touch the node it returned) as
  an insert located by ``D//items``, on a ``<D><items>…</items></D>``
  document holding N markers and 100·N (smoke: 10·N).  The ``//items``
  step has one candidate whatever the document holds, so the time per
  operation must not grow with it (gate: large <= 3x small; an ordering
  that re-ranks the document after every write measures ~76x).
* **Part E — a service parses its definition once.**  1 000 executions
  of the chaos marker service (``<chaos txn="$tag" step="$step"/>`` into
  ``D1//items``) under ``sys.setprofile``: they must enter
  ``parse_document``, ``scan_select``, ``parse_path`` and
  ``UpdateAction.to_xml`` and ``parse_fragment`` **0** times (the bound
  ``<data>`` becomes nodes by cloning the template's prototype).  Counts,
  so exact on every machine.

* **Part F — a where-clause filters its candidates before they are
  ordered.**  One ``Select i/price from i in C//book where i/sku = X``
  over a seeded 600-item catalogue (~100 ``book`` candidates) under
  ``sys.setprofile``: the Python-level calls per candidate must stay
  under ``PLAN_CALLS_PER_CANDIDATE``, and ``StructuralIndex.order_ranks``
  must be handed at most the Select's survivors (here: never, since one
  survives).  Re-entering the generic path walker once per candidate
  measured 36.4 per candidate; the compiled plan that ordered all
  candidates first 4.5; filtering first, with the sku test compiled into
  the child loop, 0.62; starting from the value hits 0.46 (Python 3.11).
  That cold count includes building the ``sku`` value postings, so the
  build makes no Python call per element.  A second evaluation of the same Select on the unchanged
  catalogue runs under ``sys.settrace``: its line events per candidate
  must stay under ``WARM_LINES_PER_CANDIDATE`` (the child loop per
  candidate measured 71.6; the value-postings lookup 10.7; starting the
  ``//book`` step from the sku's value hits, with the meter charged
  from the index's kept total, 1.78).  Counts, so exact on every machine.

* **Part G — an action text parses in one pass.**  1 000 action texts
  of ``catalogue_occ``'s shape (60 % sku-selective queries, 25 %
  replaces, 15 % inserts) over a seeded catalogue are parsed with
  ``parse_action`` and run, under ``sys.setprofile``: each parse must
  create exactly as many ``Element``s as its ``<data>`` payload holds (0
  for a query: the envelope is scanned, not built), and ``path._compile``
  may run at most once per distinct path text (a path text parses to one
  shared, compiled ``PathExpr``).  A ``Document`` per envelope measured
  2.41 elements beyond the payload per action, and a fresh ``PathExpr``
  per parse 2.86 compiles per action for 12 distinct texts (seed 7,
  smoke).  Counts, so exact on every machine.

* **Part H — a Select parses in one pass.**  The ``<location>`` texts
  of Part G's 1 000 actions are parsed with ``parse_select`` under
  ``sys.setprofile`` (every path text compiled beforehand): the
  Python-level calls per parse must stay under ``SELECT_CALLS_PER_PARSE``
  (16.861: one ``finditer`` scan into plain tuples, walked by index).
  The token-stream parser it replaced made 72.861 (seed 7).  A count,
  so exact on every machine.

Run:  python benchmarks/bench_p1_hot_paths.py [--smoke] [--seed N]
                                              [--workers N]

The artifact (``benchmarks/results/BENCH_P1.json``, schema
``repro-bench-perf/1``) is documented in docs/PERF.md.  Speedups and
byte-identity are machine-independent claims; raw wall times are this
machine's and are informational only.
"""

import gc
import sys
import time
from unittest import mock

from repro.axml.document import AXMLDocument
from repro.chaos import ChaosConfig, chaos_sweep
from repro.chaos.runner import _chaos_service
from repro.obs import stable_json
from repro.obs.prof import PROF
from repro.query.ast import ActionType, UpdateAction
from repro.query.evaluate import evaluate_select
from repro.query.lexer import scan_select
from repro.query.parser import iter_comparisons, parse_action, parse_select
from repro.query.update import apply_action
from repro.sim.metrics import MetricsCollector
from repro.sim.parallel import available_cores, parallel_map, resolve_workers
from repro.sim.rng import SeededRng
from repro.xmlstore import path as path_module
from repro.xmlstore.index import StructuralIndex
from repro.xmlstore.names import QName
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.parser import parse_document, parse_fragment
from repro.xmlstore.path import PathExpr, TraversalMeter, parse_path

from _util import perf_record, run_perf_bench

#: Queries of Part A: a bare descendant step and a filtered one (the
#: paper's ``<location>`` queries are exactly this shape, §3.1).
QUERIES = (
    "Select n from n in Bench//needle;",
    "Select n from n in Bench//needle where n/@rank = 3;",
)


def walk_only():
    """The reference walk: inside the block every descendant step's index
    lookup declines, so ``_logical_descendants`` answers it."""
    return mock.patch.object(path_module, "_indexed_descendants", lambda *args: None)


def build_bench_document(depth: int, fanout: int, budget: int, seed: int) -> Document:
    """A seeded document: full (depth x fanout) tree under a node budget,
    with sparse ``<needle rank=.../>`` leaves the queries hunt for."""
    rng = SeededRng(seed)
    doc = Document("Bench")
    root = doc.create_root(QName("Bench"))
    frontier = [root]
    built = 1
    for level in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                if built >= budget:
                    return doc
                if level >= 2 and rng.random() < 0.03:
                    child = Element(doc, "needle", {"rank": str(rng.randint(1, 5))})
                else:
                    child = Element(doc, rng.choice(["a", "b", "c", "d"]))
                parent.append(child)
                next_frontier.append(child)
                built += 1
        frontier = next_frontier
    return doc


def bench_queries(args) -> dict:
    depth, fanout = (6, 8)
    budget = 4_000 if args.smoke else 40_000
    reps = 10 if args.smoke else 40
    doc = build_bench_document(depth, fanout, budget, args.seed)
    queries = [parse_select(text) for text in QUERIES]

    # Correctness first: identical bindings and identical meter charges,
    # query by query (the meter is the paper's cost measure — the index
    # must not change what a run *reports*, only how long it takes).
    for query in queries:
        fast_meter, slow_meter = TraversalMeter(), TraversalMeter()
        fast = evaluate_select(query, doc, fast_meter)
        with walk_only():
            slow = evaluate_select(query, doc, slow_meter)
        fast_ids = [n.node_id for b in fast.bindings for n in b.nodes()]
        slow_ids = [n.node_id for b in slow.bindings for n in b.nodes()]
        assert fast_ids == slow_ids, f"result divergence on {query}"
        assert fast_meter.nodes_traversed == slow_meter.nodes_traversed, (
            f"meter divergence on {query}: "
            f"{fast_meter.nodes_traversed} != {slow_meter.nodes_traversed}"
        )

    before = PROF.snapshot()
    start = time.perf_counter()
    matched = 0
    for _ in range(reps):
        for query in queries:
            matched += len(evaluate_select(query, doc))
    indexed_time = time.perf_counter() - start
    delta = PROF.delta_since(before)
    hits = delta.get("query_index_hits", 0)
    walks = delta.get("query_tree_walks", 0)
    hit_rate = hits / (hits + walks) if hits + walks else 0.0

    start = time.perf_counter()
    with walk_only():
        for _ in range(reps):
            for query in queries:
                evaluate_select(query, doc)
    walk_time = time.perf_counter() - start

    speedup = walk_time / indexed_time if indexed_time > 0 else float("inf")
    print(
        f"P1/A query eval: {doc.size()} nodes, {reps}x{len(queries)} queries, "
        f"{matched} matches -> indexed {indexed_time:.4f}s vs walk "
        f"{walk_time:.4f}s ({speedup:.1f}x, hit rate {hit_rate:.2%})"
    )
    return perf_record(
        "query_indexed_vs_walk",
        args.seed,
        indexed_time,
        speedup,
        index_hit_rate=hit_rate,
        depth=depth,
        fanout=fanout,
        nodes=doc.size(),
        reps=reps,
        queries=len(QUERIES),
        walk_wall_time=round(walk_time, 6),
    )


def _burn(cpu_seconds: float) -> None:
    """Consume *cpu_seconds* of this process's CPU time."""
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        pass


def bench_sweep(args) -> dict:
    base = ChaosConfig(seed=args.seed, txns=8 if args.smoke else 20, providers=4)
    seeds = range(4) if args.smoke else range(10)
    kwargs = dict(seeds=seeds, concurrencies=(2, 4), fault_rates=(0.2,))
    runs = len(seeds) * 2
    workers = resolve_workers(args.workers, runs)

    start = time.perf_counter()
    serial_table, serial_failures = chaos_sweep(
        base, metrics=MetricsCollector(), workers=1, **kwargs
    )
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    parallel_table, parallel_failures = chaos_sweep(
        base, metrics=MetricsCollector(), workers=workers, **kwargs
    )
    parallel_time = time.perf_counter() - start

    assert serial_table.render() == parallel_table.render(), (
        "parallel sweep rendered table diverged from serial"
    )
    assert stable_json(serial_table.to_dict()) == stable_json(
        parallel_table.to_dict()
    ), "parallel sweep JSON payload diverged from serial"
    assert len(serial_failures) == len(parallel_failures)

    # What the pool costs here for this much work: the serial leg's
    # CPU time as perfectly parallel busy-work, through the same pool.
    start = time.perf_counter()
    parallel_map(_burn, [serial_time / runs] * runs, workers=workers)
    pool_floor = time.perf_counter() - start

    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    cores = available_cores()
    print(
        f"P1/B C1 sweep: {runs} runs -> serial "
        f"{serial_time:.3f}s vs {workers} workers {parallel_time:.3f}s "
        f"({speedup:.2f}x on {cores} core(s), pool floor {pool_floor:.3f}s); "
        "output byte-identical"
    )
    return perf_record(
        "c1_sweep_serial_vs_parallel",
        args.seed,
        parallel_time,
        speedup,
        workers=workers,
        cores=cores,
        runs=runs,
        byte_identical=True,
        serial_wall_time=round(serial_time, 6),
        pool_floor_time=round(pool_floor, 6),
    )


def build_scan_document(items: int, scale: int, seed: int) -> str:
    """A seeded catalogue whose text runs and attribute values are *scale*
    times longer; its tokens (tags, attributes, references) are not."""
    rng = SeededRng(seed)
    out = ['<?xml version="1.0"?>\n<catalogue>']
    for sku in range(items):
        word = rng.choice(["lorem ", "ipsum ", "dolor "]) * (rng.randint(1, 4) * scale)
        out.append(
            f'<item sku="{sku}" note="{word}&amp;{word}"><name>{word}</name>'
            f"<!-- {word} --><price>{word}&lt;{word}</price><![CDATA[{word}]]></item>\n"
        )
    out.append("</catalogue>")
    return "".join(out)


def _calls_while_parsing(text: str) -> int:
    """Python- and C-level calls made by one ``parse_document(text)``
    (collector off: a finalizer run mid-parse would be counted too)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        parse_document(text)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def bench_parser_scan(args) -> dict:
    items = 200 if args.smoke else 2_000
    small = build_scan_document(items, 1, args.seed)
    large = build_scan_document(items, 10, args.seed)
    nodes = sum(1 for _ in parse_document(small).iter())
    calls_1x, calls_10x = _calls_while_parsing(small), _calls_while_parsing(large)

    start = time.perf_counter()
    parse_document(large)
    wall_time = time.perf_counter() - start

    # Per-character call cost at 1x over the same at 10x: the input
    # growth itself when the counts are equal, ~1 for a per-character loop.
    ratio = (len(large) / len(small)) / (calls_10x / calls_1x)
    print(
        f"P1/C parser scan: {nodes} nodes, {len(small)} -> {len(large)} chars, "
        f"{calls_1x} -> {calls_10x} calls ({calls_1x / nodes:.1f} per node)"
    )
    return perf_record(
        "parser_scan_calls",
        args.seed,
        wall_time,
        ratio,
        nodes=nodes,
        chars_1x=len(small),
        chars_10x=len(large),
        calls_1x=calls_1x,
        calls_10x=calls_10x,
        calls_per_node=round(calls_1x / nodes, 2),
        call_counts_equal=calls_1x == calls_10x,
    )


#: Part D's operation: the shape every BENCH_E2E ladder rung issues.
LOCATE_INSERT = (
    '<action type="insert"><data><m/></data>'
    "<location>Select i from i in D//items;</location></action>"
)


def _insert_locate_per_op(markers: int, ops: int) -> float:
    """Seconds per insert+locate (best of 3 documents) on a document that
    holds *markers* markers when the timing starts."""
    action = parse_action(LOCATE_INSERT)
    best = float("inf")
    for _ in range(3):
        doc = Document("D")
        items = doc.create_root(QName("D")).new_element("items")
        for _ in range(markers):
            items.new_element("m")
        start = time.perf_counter()
        for _ in range(ops):
            result = apply_action(doc, action)
        best = min(best, (time.perf_counter() - start) / ops)
        assert len(items.children) == markers + ops
        assert result.records[0].index == markers + ops - 1
    return best


def bench_locate_insert(args) -> dict:
    small = 500
    large = small * (10 if args.smoke else 100)
    ops = 200 if args.smoke else 400
    before = PROF.snapshot()
    small_per_op = _insert_locate_per_op(small, ops)
    large_per_op = _insert_locate_per_op(large, ops)
    delta = PROF.delta_since(before)
    hits = delta.get("query_index_hits", 0)
    walks = delta.get("query_tree_walks", 0)
    ratio = large_per_op / small_per_op
    print(
        f"P1/D insert+locate: {small_per_op * 1e6:.0f} us/op under {small} "
        f"markers vs {large_per_op * 1e6:.0f} us/op under {large} ({ratio:.2f}x)"
    )
    return perf_record(
        "insert_locate_scaling",
        args.seed,
        large_per_op * ops,
        small_per_op / large_per_op,
        index_hit_rate=hits / (hits + walks) if hits + walks else 0.0,
        markers_small=small,
        markers_large=large,
        ops=ops,
        per_op_us_small=round(small_per_op * 1e6, 1),
        per_op_us_large=round(large_per_op * 1e6, 1),
        per_op_ratio=round(ratio, 4),
    )


class _MarkerHost:
    """The ServiceHost Part E's service runs against: one document, and
    a log that keeps the action text it is handed."""

    def __init__(self) -> None:
        self.document = AXMLDocument.from_xml("<D1><items/></D1>", name="D1")
        self.logged = []

    def get_axml_document(self, name):
        return self.document

    def record_changes(self, records, document_name, action_xml, action):
        self.logged.append(action_xml)


#: Part E: what an execution may not enter.
TEXT_ROUND_TRIP = (parse_document, scan_select, parse_path, UpdateAction.to_xml, parse_fragment)


def bench_service_template(args) -> dict:
    executions = 1_000
    service = _chaos_service(1, providers=1)  # no children: no delegation
    host = _MarkerHost()
    entered = {function.__code__: 0 for function in TEXT_ROUND_TRIP}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in entered:
            entered[frame.f_code] += 1

    before = PROF.snapshot()
    sys.setprofile(count)
    try:
        start = time.perf_counter()
        for i in range(executions):
            service.execute({"tag": f"T{i:03d}", "step": f"s{i % 4}"}, host)
        wall_time = time.perf_counter() - start
    finally:
        sys.setprofile(None)
    delta = PROF.delta_since(before)
    calls = {function.__qualname__: entered[function.__code__] for function in TEXT_ROUND_TRIP}
    assert len(host.document.document.root.first_child("items").children) == executions
    assert host.logged[-1] == parse_action(host.logged[-1]).to_xml()
    print(
        f"P1/E service template: {executions} marker executions -> "
        + ", ".join(f"{name} {n}" for name, n in calls.items())
    )
    return perf_record(
        "service_template_calls",
        args.seed,
        wall_time,
        executions / (executions + sum(calls.values())),  # 1.0; less when an execution re-parses
        executions=executions,
        calls=calls,
        bound=delta.get("service_template_bound", 0),
        text=delta.get("service_template_text", 0),
    )


#: Part F's catalogue: item categories and the fields beside ``sku``.
CATEGORIES = ("book", "cd", "dvd", "game", "map", "toy")
FIELDS = ("title", "author", "year", "price", "publisher")
#: Part F's gate: Python-level calls per candidate of one sku-selective
#: Select (starting from the value hits makes 0.46; filter before order
#: 0.62; ordering every candidate first 4.5; a per-candidate walker 36.4).  Under 1.0, a Python call
#: per candidate fails it.
PLAN_CALLS_PER_CANDIDATE = 1.0
#: Part F's warm gate: line events per candidate of the same Select run
#: again (a child loop per candidate measured 71.6, the value-postings
#: lookup 10.7, the step started from the value hits 1.78).
WARM_LINES_PER_CANDIDATE = 2.0


def build_catalogue(items: int, seed: int) -> Document:
    """``<C>`` holding *items* seeded items, each ``<sku>`` plus fields."""
    rng = SeededRng(seed)
    doc = Document("C")
    root = doc.create_root(QName("C"))
    for sku in range(items):
        item = root.new_element(rng.choice(CATEGORIES))
        item.new_element("sku").new_text(str(sku))
        for name in FIELDS:
            item.new_element(name).new_text(f"{name}{rng.randint(1, 99)}")
    return doc


def bench_select_plan(args) -> dict:
    doc = build_catalogue(600, args.seed)
    books = [item for item in doc.root.child_elements() if item.name.local == "book"]
    sku = books[len(books) // 2].first_child("sku").text_content()
    text = f"Select i/price from i in C//book where i/sku = {sku};"
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    query = parse_select(text)  # fresh: the count includes compiling its plan
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = evaluate_select(query, doc)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert [b.context for b in result.bindings] == [books[len(books) // 2]]
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        warm = evaluate_select(query, doc)  # plans compiled, value postings built
    finally:
        sys.settrace(None)
        gc.enable()
    assert [b.context for b in warm.bindings] == [books[len(books) // 2]]
    ordered: list = []  # how many candidates each order_ranks call got
    real_order_ranks = StructuralIndex.order_ranks

    def order_ranks(index, candidates, under):
        ordered.append(len(candidates))
        return real_order_ranks(index, candidates, under)

    with mock.patch.object(StructuralIndex, "order_ranks", order_ranks):
        evaluate_select(parse_select(text), doc)

    start = time.perf_counter()
    for _ in range(200):
        evaluate_select(parse_select(text), doc)
    wall_time = (time.perf_counter() - start) / 200
    per_candidate = calls / len(books)
    warm_per_candidate = lines / len(books)
    print(
        f"P1/F select plan: {len(books)} candidates -> {calls} Python calls "
        f"({per_candidate:.2f} per candidate, gate {PLAN_CALLS_PER_CANDIDATE}); "
        f"warm: {lines} line events ({warm_per_candidate:.2f} per candidate, "
        f"gate {WARM_LINES_PER_CANDIDATE}); "
        f"order_ranks handed {ordered} for {len(result.bindings)} survivor(s); "
        f"{wall_time * 1e6:.0f} us per parse + evaluate"
    )
    return perf_record(
        "select_plan_calls",
        args.seed,
        wall_time,
        PLAN_CALLS_PER_CANDIDATE / per_candidate,  # > 1 while the gate holds
        items=600,
        candidates=len(books),
        calls=calls,
        calls_per_candidate=round(per_candidate, 3),
        bound=PLAN_CALLS_PER_CANDIDATE,
        warm_lines=lines,
        warm_lines_per_candidate=round(warm_per_candidate, 3),
        warm_bound=WARM_LINES_PER_CANDIDATE,
        ordered=ordered,
        survivors=len(result.bindings),
    )


#: Part G's payload words, as ``catalogue_occ`` draws them.
WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


def catalogue_actions(doc: Document, count: int, seed: int) -> list:
    """*count* sku-selective action texts against *doc*'s items."""
    rng = SeededRng(seed)
    items = [(item.name.local, item.first_child("sku").text_content())
             for item in doc.root.child_elements()]
    texts = []
    for k in range(count):
        category, sku = rng.choice(items)
        field = rng.choice(FIELDS)
        where = f"{doc.name}//{category} where i/sku = {sku};</location></action>"
        roll = rng.random()
        if roll < 0.60:
            texts.append(f'<action type="query"><location>Select i/{field} from i in {where}')
        elif roll < 0.85:
            texts.append(
                f'<action type="replace"><data><{field}>{rng.choice(WORDS)}</{field}></data>'
                f"<location>Select i/{field} from i in {where}"
            )
        else:
            texts.append(
                f'<action type="insert"><data><note by="g{k}">{rng.choice(WORDS)}</note></data>'
                f"<location>Select i from i in {where}"
            )
    return texts


def _path_texts(query) -> set:
    paths = [query.source, *(vp.path for vp in query.select_paths),
             *(comparison.left.path for comparison in iter_comparisons(query.where))]
    return {str(path) for path in paths if isinstance(path, PathExpr) and path.steps}


def bench_submit_edge(args) -> dict:
    doc = build_catalogue(60 if args.smoke else 600, args.seed)
    texts = catalogue_actions(doc, 1_000, args.seed)
    watched = {Element.__init__.__code__: 0, path_module._compile.__code__: 1}
    counts = [0, 0]  # Element.__init__, path._compile

    def count(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            counts[watched[frame.f_code]] += 1

    actions, built = [], []
    sys.setprofile(count)
    try:
        for text in texts:
            before = counts[0]
            action = parse_action(text)
            built.append(counts[0] - before)
            actions.append(action)
            if action.action_type is ActionType.QUERY:
                evaluate_select(action.location, doc)
            else:
                apply_action(doc, action)
    finally:
        sys.setprofile(None)
    payload = [sum(len(list(fragment[0].iter_elements())) for fragment in action._prototypes[0])
               for action in actions]
    distinct = set().union(*(_path_texts(action.location) for action in actions))
    start = time.perf_counter()
    for text in texts:
        parse_action(text)
    wall_time = (time.perf_counter() - start) / len(texts)
    extra = sum(built) - sum(payload)
    print(
        f"P1/G submit edge: {len(texts)} actions -> {sum(built)} elements built for "
        f"{sum(payload)} in payloads ({extra / len(texts):.2f} extra per action), "
        f"{counts[1]} path compiles for {len(distinct)} distinct path texts "
        f"({counts[1] / len(texts):.2f} per action); {wall_time * 1e6:.0f} us per parse"
    )
    return perf_record(
        "submit_edge_calls",
        args.seed,
        wall_time,
        len(distinct) / max(counts[1], 1),  # >= 1 while the gate holds
        actions=len(texts),
        elements_built=sum(built),
        payload_elements=sum(payload),
        actions_beyond_payload=sum(b != p for b, p in zip(built, payload)),
        compiles=counts[1],
        distinct_paths=len(distinct),
    )


#: Part H's gate: Python-level calls per ``parse_select`` of a
#: ``catalogue_occ``-shaped location (1 000 of them, seed 7), with every
#: path text already compiled.  The one-pass scan walked by index makes
#: 16.861; the token-stream parser it replaced made 72.861 (a
#: ``peek``/``next`` call and a frozen ``Token`` per token).  A count,
#: exact on any box.
SELECT_CALLS_PER_PARSE = 16.861
PARENT_SELECT_CALLS_PER_PARSE = 72.861


def bench_select_parse(args) -> dict:
    doc = build_catalogue(60, args.seed)
    texts = [text[text.index("<location>") + 10:text.index("</location>")]
             for text in catalogue_actions(doc, 1_000, args.seed)]
    for text in texts:  # compile every path text first: the count is the parse's
        parse_select(text)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for text in texts:
            parse_select(text)
    finally:
        sys.setprofile(None)
    start = time.perf_counter()
    for text in texts:
        parse_select(text)
    wall_time = (time.perf_counter() - start) / len(texts)
    per_parse = calls / len(texts)
    print(
        f"P1/H select parse: {len(texts)} locations -> {calls} Python calls "
        f"({per_parse:.2f} per parse, gate {SELECT_CALLS_PER_PARSE}, token stream "
        f"{PARENT_SELECT_CALLS_PER_PARSE}); {wall_time * 1e6:.1f} us per parse"
    )
    return perf_record(
        "select_parse_calls",
        args.seed,
        wall_time,
        PARENT_SELECT_CALLS_PER_PARSE / per_parse,  # the call count's fall
        parses=len(texts),
        calls=calls,
        calls_per_parse=round(per_parse, 3),
        bound=SELECT_CALLS_PER_PARSE,
        parent_calls_per_parse=PARENT_SELECT_CALLS_PER_PARSE,
    )


def gates(args, query_rec, sweep_rec, scan_rec, locate_rec, template_rec, plan_rec, submit_rec,
          parse_rec):
    """Reasons this run fails its gate.  Speedup ratios; wall time only
    where the measured pool floor says the machine can deliver one."""
    required = 1.0 if args.smoke else 2.0
    if query_rec["speedup"] <= required:
        yield (
            f"indexed query eval speedup {query_rec['speedup']}x <= {required}x"
        )
    # Byte-identity was asserted above; wall-time reduction is only a
    # fair ask when this machine's pool beats the serial leg on ideal
    # busy-work of the same size (it cannot with one core, nor when the
    # sweep is too short to amortise process start-up).
    if (
        sweep_rec["pool_floor_time"] < sweep_rec["serial_wall_time"]
        and sweep_rec["speedup"] <= 1.0
    ):
        yield (
            f"parallel sweep speedup {sweep_rec['speedup']}x <= 1x though the "
            f"pool floor {sweep_rec['pool_floor_time']}s beats serial "
            f"{sweep_rec['serial_wall_time']}s on {available_cores()} cores"
        )
    if not scan_rec["call_counts_equal"]:
        yield (
            f"parser made {scan_rec['calls_10x']} calls on the 10x-longer input vs "
            f"{scan_rec['calls_1x']} on the 1x one: scan cost is per character again"
        )
    if locate_rec["per_op_ratio"] > 3.0:
        yield (
            f"insert+locate costs {locate_rec['per_op_ratio']}x more per op under "
            f"{locate_rec['markers_large']} markers than under "
            f"{locate_rec['markers_small']}: a location pays for the document again"
        )
    expected = {name: 0 for name in template_rec["calls"]}
    if template_rec["calls"] != expected or template_rec["text"]:
        yield (
            f"{template_rec['executions']} marker executions entered {template_rec['calls']} "
            f"({template_rec['text']} through the text path), expected {expected}: "
            "a service re-parses its definition again"
        )
    if plan_rec["calls_per_candidate"] > PLAN_CALLS_PER_CANDIDATE:
        yield (
            f"one sku-selective Select made {plan_rec['calls_per_candidate']} Python calls "
            f"per candidate (bound {PLAN_CALLS_PER_CANDIDATE}): the where-clause "
            "walks each candidate through the generic path evaluator again"
        )
    if plan_rec["warm_lines_per_candidate"] > WARM_LINES_PER_CANDIDATE:
        yield (
            f"the same Select run again made {plan_rec['warm_lines_per_candidate']} line "
            f"events per candidate (bound {WARM_LINES_PER_CANDIDATE}): the where-clause "
            "loops over each candidate's children again"
        )
    if any(count > plan_rec["survivors"] for count in plan_rec["ordered"]):
        yield (
            f"order_ranks was handed {plan_rec['ordered']} candidates for "
            f"{plan_rec['survivors']} survivor(s): the Select orders before it filters"
        )


    if submit_rec["actions_beyond_payload"]:
        yield (
            f"{submit_rec['actions_beyond_payload']} of {submit_rec['actions']} action parses "
            f"built {submit_rec['elements_built']} elements for {submit_rec['payload_elements']} "
            "in their payloads: the <action> envelope is built as a Document again"
        )
    if submit_rec["compiles"] > submit_rec["distinct_paths"]:
        yield (
            f"{submit_rec['actions']} actions compiled paths {submit_rec['compiles']} times "
            f"for {submit_rec['distinct_paths']} distinct path texts: a path text compiles "
            "per parse again"
        )
    if parse_rec["calls_per_parse"] > SELECT_CALLS_PER_PARSE:
        yield (
            f"a catalogue Select parse made {parse_rec['calls_per_parse']} Python calls "
            f"(bound {SELECT_CALLS_PER_PARSE}): the parser calls per token again"
        )


def _configure(parser) -> None:
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for Part B's parallel leg "
                             "(default 0: all available cores)")


def main() -> int:
    return run_perf_bench(
        "P1", __doc__,
        [bench_queries, bench_sweep, bench_parser_scan, bench_locate_insert,
         bench_service_template, bench_select_plan, bench_submit_edge, bench_select_parse],
        gates,
        configure=_configure,
    )


if __name__ == "__main__":
    sys.exit(main())
