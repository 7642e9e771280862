"""Timing wrappers the benchmark installs around ``src/repro`` at run time.

Nothing under ``src/`` knows about the benchmark: layers are measured from
outside by replacing class attributes (and ``from x import f`` bindings at
the importing module) with wrappers.  Two kinds are installed:

* :class:`EndToEndProbe` — always on.  Times every ``SharingGateway.submit``
  and the moment each response turns terminal; these are the end-to-end
  samples.  Its bind targets are *load-bearing*: a missing one is a hard
  :class:`BindingError` naming the symbol.
* :class:`SpanRecorder` + :func:`install_layer_wrappers` — only in a traced
  run.  Each wrapped call records one span (name, start, end, parent, note)
  in memory.  A missing layer target is tolerated: it lands in ``unbound``,
  is reported on stderr, and its metrics read ``null``.

Forked fleet workers inherit every wrapper; ``segment.py`` wraps
``run_worker_slice`` so each worker returns its samples and span table inside
its slice result.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter


class BindingError(RuntimeError):
    """An end-to-end symbol the benchmark drives is gone from ``src/repro``."""


# ------------------------------------------------------------------ resolving


def resolve(dotted: str) -> Tuple[Any, str, Any]:
    """``'pkg.mod.Class.attr'`` → ``(owner, 'attr', raw attribute)``.

    The longest importable prefix is the module; the rest is an attribute
    chain.  Raises ``LookupError`` naming ``dotted`` when any link is gone.
    """
    parts = dotted.split(".")
    owner = None
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name and (module_name == exc.name
                             or module_name.startswith(exc.name + ".")):
                continue  # that prefix is a class path, not a module
            raise
        break
    if owner is None:
        raise LookupError(dotted)
    try:
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        raw = inspect.getattr_static(owner, parts[-1])
    except AttributeError:
        raise LookupError(dotted) from None
    return owner, parts[-1], raw


def _rebind(owner: Any, attr: str, raw: Any,
            make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` with ``make(function)``, keeping its descriptor kind."""
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif inspect.isfunction(raw):
        setattr(owner, attr, make(raw))
    else:
        raise LookupError(f"{owner!r}.{attr} is a {type(raw).__name__}, not a function")


# ------------------------------------------------------------------- spans

# A span is a list: [name, parent index in its thread (-1: none), start, end, note].
NAME, PARENT, START, END, NOTE = range(5)


class _ThreadSpans:
    def __init__(self, tid: int):
        self.tid = tid
        self.spans: List[list] = []
        self.stack: List[int] = []


class SpanRecorder:
    """In-memory span store: one append-only list and one open-span stack per
    thread (cascade middles run on executor threads), merged at export."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []

    def _mine(self) -> _ThreadSpans:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._threads.append(buffer)
            return buffer

    def wrap(self, function: Callable, name: str,
             rename: Optional[Callable[[tuple], str]] = None,
             note: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        """A wrapper recording one span per call of ``function``.

        ``rename(args)`` picks the span name per call (reads vs writes through
        one ``submit``); ``note(args, result)`` attaches a value the call
        carries — a request id, a byte count — to the finished span.
        """
        mine = self._mine

        def wrapper(*args, **kwargs):
            buffer = mine()
            spans, stack = buffer.spans, buffer.stack
            span = [rename(args) if rename else name,
                    stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = _now()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = _now()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def threads(self) -> List[_ThreadSpans]:
        with self._lock:
            return list(self._threads)

    def span_count(self) -> int:
        return sum(len(buffer.spans) for buffer in self.threads())

    def write_jsonl(self, path) -> int:
        """One JSON line per span; ``id``/``parent`` are ``<tid>:<index>``."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for buffer in self.threads():
                for index, span in enumerate(buffer.spans):
                    parent = span[PARENT]
                    handle.write(json.dumps({
                        "id": f"{buffer.tid}:{index}",
                        "parent": f"{buffer.tid}:{parent}" if parent >= 0 else None,
                        "name": span[NAME], "start": span[START], "end": span[END],
                        "thread": buffer.tid, "note": span[NOTE],
                    }) + "\n")
                    written += 1
        return written


def span_table(recorder: SpanRecorder, window: Tuple[float, float],
               driver_tid: int,
               any_phase: Iterable[str] = ()) -> Dict[str, Dict[str, Any]]:
    """Aggregate spans per name: ``count``, ``busy_ms``, ``self_ms``, ``notes``.

    Only spans starting inside ``window`` count (names in ``any_phase`` count
    wherever they start: set-up and check-phase layers).  ``busy`` is
    inclusive wall of *outermost* spans of a name — a lens calling a child
    lens is one ``bx.get`` — and ``count`` counts those; ``self`` is a span's
    duration minus its direct children.  ``driver_self_ms`` restricts self
    time to the driving thread (the coverage numerator).
    """
    any_phase = set(any_phase)
    lo, hi = window
    table: Dict[str, Dict[str, Any]] = {}
    for buffer in recorder.threads():
        spans = buffer.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(spans):
            name = span[NAME]
            if name not in any_phase and not lo <= span[START] <= hi:
                continue
            row = table.setdefault(name, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0,
                                          "driver_self_ms": 0.0, "notes": []})
            duration = span[END] - span[START]
            own = (duration - child_time[index]) * 1e3
            row["self_ms"] += own
            if buffer.tid == driver_tid and name not in any_phase:
                row["driver_self_ms"] += own
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:  # outermost of its name
                row["count"] += 1
                row["busy_ms"] += duration * 1e3
            if span[NOTE] is not None:
                row["notes"].append(span[NOTE])
    return table


# ----------------------------------------------------------- layer wrappers


def _submit_name(args: tuple) -> str:
    return "gateway.submit_write" if args[2].is_write else "gateway.submit_read"


def _bytes_out(_args: tuple, result: Any) -> int:
    return len(result)


#: (span name, dotted bind target, rename hook, note hook).  README.md lists
#: these as the ``src/`` symbols a refactor should know are measured.
LAYER_TARGETS: List[Tuple[str, str, Optional[Callable], Optional[Callable]]] = [
    ("gateway.submit", "repro.gateway.gateway.SharingGateway.submit",
     _submit_name, lambda args, result: result.request_id),
    ("gateway.authorize", "repro.gateway.session.GatewaySession.authorize", None, None),
    ("gateway.commit_once", "repro.gateway.gateway.SharingGateway.commit_once", None, None),
    ("gateway.journal.record", "repro.gateway.gateway.ResponseJournal.record", None,
     lambda args, result: args[1].request_id),
    ("core.commit_entry_batch",
     "repro.core.workflow.UpdateCoordinator.commit_entry_batch", None, None),
    ("core.reflect_delta",
     "repro.core.manager.DatabaseManager.reflect_shared_table_delta", None, None),
    ("core.reflect_delta",
     "repro.core.manager.DatabaseManager.refresh_shared_table_delta", None, None),
    ("core.changed_dependents_delta",
     "repro.core.manager.DatabaseManager.changed_dependents_delta", None, None),
    ("contracts.execute", "repro.contracts.runtime.ContractRuntime.execute", None,
     lambda args, result: args[1].kind),
    ("contracts.static_call", "repro.contracts.runtime.ContractRuntime.static_call",
     None, None),
    ("contracts.storage_snapshot", "repro.contracts.base.Contract.storage_snapshot",
     None, None),
    ("ledger.append_block", "repro.ledger.chain.Blockchain.append_block", None, None),
    ("ledger.validate_block", "repro.ledger.chain.Blockchain.validate_block", None, None),
    ("ledger.mine_block", "repro.ledger.miner.Miner.mine_block", None,
     lambda args, result: None if result is None else len(result.transactions)),
    ("ledger.consensus_round", "repro.network.simulator.NetworkSimulator.mine", None, None),
    ("crypto.verify", "repro.ledger.transaction.Transaction.verify_signature", None, None),
    # ``from repro.crypto.signatures import verify``: patched where it is used.
    ("crypto.verify", "repro.contracts.sharing_contract.verify", None, None),
    ("crypto.sign", "repro.ledger.transaction.Transaction.signed_by", None, None),
    ("network.flush", "repro.network.transport.SimTransport.flush", None, None),
    ("relational.apply_diff", "repro.relational.table.Table.apply_diff", None, None),
    ("relational.fingerprint", "repro.relational.table.Table.fingerprint", None, None),
    ("relational.wal.append", "repro.relational.durability.JsonlWalBackend.append", None,
     lambda args, result: result[2]),
    ("relational.wal.sync", "repro.relational.durability.JsonlWalBackend.sync", None, None),
    ("relational.checkpoint", "repro.gateway.gateway.checkpoint_database", None, None),
    ("relational.recover", "repro.relational.durability.recover", None, None),
    ("relational.replication.ship",
     "repro.relational.replication.SegmentShipper.ship", None,
     lambda args, result: result),
    ("relational.replication.route",
     "repro.relational.replication.ReplicaRouter.route", None,
     lambda args, result: None if result is None else result.staleness),
    ("runtime.codec.encode", "repro.runtime.codec.BinaryCodec.encode", None, _bytes_out),
    ("runtime.codec.encode", "repro.runtime.codec.CanonicalJsonCodec.encode",
     None, _bytes_out),
    ("runtime.codec.decode", "repro.runtime.codec.BinaryCodec.decode", None, None),
    ("runtime.codec.decode", "repro.runtime.codec.CanonicalJsonCodec.decode", None, None),
    ("workloads.open_loop", "repro.workloads.traffic.TrafficGenerator.open_loop",
     None, None),
]

#: Every concrete ``Lens`` subclass's own definition of these is wrapped.
LENS_BASE = "repro.bx.lens.Lens"
LENS_METHODS = ("get", "put", "get_delta", "put_delta")

#: Span names whose metrics are taken over the whole process, not the run window.
ANY_PHASE = ("workloads.open_loop", "relational.recover")


def _all_subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def install_layer_wrappers(recorder: SpanRecorder,
                           extra_targets: Iterable[Tuple[str, str]] = ()
                           ) -> Dict[str, List[str]]:
    """Wrap every layer target.  Returns what could not be bound, as
    ``{dotted target: [span names left without a wrapper]}``."""
    unbound: Dict[str, List[str]] = {}
    targets = list(LAYER_TARGETS) + [(name, dotted, None, None)
                                     for name, dotted in extra_targets]
    for name, dotted, rename, note in targets:
        try:
            owner, attr, raw = resolve(dotted)
            _rebind(owner, attr, raw,
                    lambda fn: recorder.wrap(fn, name, rename, note))
        except LookupError:
            unbound[dotted] = [name]
    try:
        importlib.import_module("repro.bx")  # defines every concrete lens
        lens_base, _attr, _raw = resolve(LENS_BASE + ".get")
        own_methods = [(sub, method, vars(sub)[method])
                       for sub in _all_subclasses(lens_base)
                       for method in LENS_METHODS
                       if inspect.isfunction(vars(sub).get(method))]
        if not own_methods:
            raise LookupError(LENS_BASE)
        for sub, method, raw in own_methods:
            setattr(sub, method, recorder.wrap(raw, f"bx.{method}"))
    except (LookupError, ImportError):
        unbound[LENS_BASE] = [f"bx.{method}" for method in LENS_METHODS]
    for dotted in unbound:
        print(f"perf: layer target {dotted} is unbound; its metrics read null",
              file=sys.stderr)
    return unbound


# -------------------------------------------------------------- end to end

GATEWAY = "repro.gateway.gateway.SharingGateway"

#: Symbols the benchmark drives; each must resolve or the run is refused.
END_TO_END_SYMBOLS = (
    GATEWAY + ".__init__",
    GATEWAY + ".submit",
    GATEWAY + ".commit_once",
    GATEWAY + ".subscribe_terminal",
    "repro.workloads.topology.build_topology_system",
    "repro.workloads.topology.build_join_topology_system",
    "repro.workloads.traffic.TrafficGenerator",
    "repro.cli.run_gateway_fleet",
    "repro.runtime.fleet.run_worker_slice",
)


def require_end_to_end_symbols() -> None:
    for dotted in END_TO_END_SYMBOLS:
        try:
            resolve(dotted)
        except LookupError:
            raise BindingError(
                f"end-to-end symbol {dotted} is missing from src/repro; the "
                f"benchmark cannot drive the system without it") from None


def fingerprint_digest(fingerprints: Any) -> str:
    """sha256 of the canonical JSON of a ``state_fingerprints()`` mapping."""
    canonical = json.dumps(fingerprints, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class EndToEndProbe:
    """Per-request wall-clock samples, taken around ``SharingGateway.submit``.

    A write's latency runs from the start of its ``submit`` to its response
    turning terminal (``subscribe_terminal``); a read's is the wall time of
    its ``submit`` (reads answer synchronously).  One process drives one
    gateway: the segment itself, or each forked fleet worker.
    """

    def __init__(self, on_first_submit: Optional[Callable[[Any], None]] = None):
        self.on_first_submit = on_first_submit
        self.gateway: Any = None
        self.first_submit_at: Optional[float] = None
        self.sim_start: float = 0.0
        self.submitted: Dict[str, Tuple[float, float, bool]] = {}
        self.terminal_at: Dict[str, float] = {}
        self.responses: List[Any] = []

    def install(self) -> None:
        require_end_to_end_symbols()
        probe = self
        gateway_class, _attr, original_init = resolve(GATEWAY + ".__init__")
        original_submit = gateway_class.submit

        def __init__(gateway, *args, **kwargs):
            original_init(gateway, *args, **kwargs)
            probe.gateway = gateway
            gateway.subscribe_terminal(probe._on_terminal)

        def submit(gateway, session, request):
            if probe.first_submit_at is None:
                if probe.on_first_submit is not None:
                    probe.on_first_submit(gateway)
                probe.sim_start = gateway.system.simulator.clock.now()
                probe.first_submit_at = _now()
            started = _now()
            response = original_submit(gateway, session, request)
            probe.submitted[response.request_id] = (started, _now(), request.is_write)
            probe.responses.append(response)
            return response

        gateway_class.__init__ = __init__
        gateway_class.submit = submit

    def _on_terminal(self, response: Any) -> None:
        # Runs under the gateway's admission lock: one dict store, nothing more.
        self.terminal_at[response.request_id] = _now()

    def export(self) -> Dict[str, Any]:
        """Samples and counts of everything submitted so far (JSON-able)."""
        write_ms, read_us, sim_write_s = [], [], []
        failed = 0
        last_terminal = self.first_submit_at
        for response in self.responses:
            started, returned, is_write = self.submitted[response.request_id]
            done = self.terminal_at.get(response.request_id)
            if done is None or not response.ok:
                failed += 1  # rejected, shed, throttled, error or never terminal
                continue
            last_terminal = max(last_terminal, done)
            if is_write:
                write_ms.append((done - started) * 1e3)
                sim_write_s.append(response.latency)
            else:
                read_us.append((returned - started) * 1e6)
        return {
            "first_submit_at": self.first_submit_at,
            "last_terminal_at": last_terminal,
            "attempted": len(self.responses),
            "failed": failed,
            "not_terminal": sum(1 for response in self.responses
                                if not response.terminal),
            "write_ms": write_ms,
            "read_us": read_us,
            "sim_write_s": sim_write_s,
            "sim_elapsed_s": (self.gateway.system.simulator.clock.now()
                              - self.sim_start),
        }


def system_checks(system: Any) -> Dict[str, Any]:
    """The output checks every workload runs on its final system state."""
    fingerprints = system.state_fingerprints()
    return {
        "checks": {
            "shared_tables_consistent": bool(system.all_shared_tables_consistent()),
            "views_consistent_with_sources": bool(system.views_consistent_with_sources()),
            "contract_specification": bool(system.check_contract_specification().passed),
        },
        "fingerprints": fingerprints,
    }
