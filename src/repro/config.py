"""System-wide configuration objects.

The reproduction is fully deterministic: anything that could depend on time or
randomness is parameterised here and driven either by a seed or by the
simulated clock (:class:`repro.ledger.clock.SimClock`).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

#: Valid WAL fsync policies (mirrors :mod:`repro.relational.durability`).
_FSYNC_POLICIES = ("always", "batch", "never")


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of the on-disk durability subsystem.

    Attributes
    ----------
    state_dir:
        Directory where the gateway journals terminal responses (and where
        peers may checkpoint their databases).  ``None`` (the default) keeps
        everything in memory — the seed behaviour.
    fsync_policy:
        ``"always"`` fsyncs the WAL per append, ``"batch"`` fsyncs at commit
        boundaries (the default — one fsync per committed batch), ``"never"``
        flushes to the OS and lets it schedule the write.
    segment_max_bytes:
        WAL segment rotation threshold; smaller segments mean finer-grained
        truncation at checkpoints, at the cost of more files.
    response_retention:
        Cap on terminal responses the gateway keeps in memory; journaled
        responses evicted under the cap remain answerable from the WAL.
        ``None`` disables eviction.
    checkpoint_wal_bytes:
        Background-checkpoint trigger: when a durable peer's WAL exceeds
        this many bytes at a commit boundary, the gateway checkpoints that
        peer's database (snapshot + WAL truncation) inline with the commit.
        ``None`` (the default) disables the size trigger.
    checkpoint_interval:
        Background-checkpoint trigger in *simulated* seconds: durable peers
        are checkpointed at the first commit boundary at least this long
        after their previous checkpoint.  ``None`` disables the time trigger.
    journal_compact_bytes:
        Response-journal compaction trigger: when the journal's segment
        bytes exceed this threshold at a commit boundary, the journal is
        rewritten as the newest response per request id — at most the
        gateway's response cap (``response_retention``, or its
        ``max_responses`` override) of them when one is set — into one
        fresh segment that atomically replaces every old one
        (``JsonlWalBackend.replace_segments``).  ``None`` disables
        compaction.
    """

    state_dir: Optional[str] = None
    fsync_policy: str = "batch"
    segment_max_bytes: int = 1_000_000
    response_retention: Optional[int] = None
    checkpoint_wal_bytes: Optional[int] = None
    checkpoint_interval: Optional[float] = None
    journal_compact_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fsync_policy not in _FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync_policy!r}; "
                f"use one of {_FSYNC_POLICIES}")
        if self.segment_max_bytes <= 0:
            raise ValueError("segment_max_bytes must be positive")
        if self.response_retention is not None and self.response_retention < 1:
            raise ValueError("response_retention must be at least 1 (or None)")
        if self.checkpoint_wal_bytes is not None and self.checkpoint_wal_bytes <= 0:
            raise ValueError("checkpoint_wal_bytes must be positive (or None)")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive (or None)")
        if self.journal_compact_bytes is not None and self.journal_compact_bytes <= 0:
            raise ValueError("journal_compact_bytes must be positive (or None)")


@dataclass(frozen=True)
class ConsensusConfig:
    """Configuration of the ledger consensus engine.

    Attributes
    ----------
    kind:
        ``"poa"`` (proof-of-authority, the private-chain deployment the paper
        recommends in §IV.3) or ``"pow"`` (a public-chain stand-in).
    block_interval:
        Target seconds of simulated time between blocks.  The paper quotes
        ~12 s for public Ethereum (§IV.1).
    pow_difficulty:
        Number of leading zero hex digits required of a PoW block hash.
    authorities:
        Addresses allowed to seal blocks under PoA.  Empty means "any node".
    """

    kind: str = "poa"
    block_interval: float = 12.0
    pow_difficulty: int = 3
    authorities: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("poa", "pow"):
            raise ValueError(f"unknown consensus kind: {self.kind!r}")
        if self.block_interval <= 0:
            raise ValueError("block_interval must be positive")
        if self.pow_difficulty < 0:
            raise ValueError("pow_difficulty must be non-negative")


@dataclass(frozen=True)
class LedgerConfig:
    """Configuration of the simulated blockchain.

    Attributes
    ----------
    consensus_shards:
        Number of independent consensus *lanes* the ledger pipeline is
        sharded into.  Shared tables are routed to lanes by a stable hash of
        their metadata id; every lane has its own mempool lane and block
        budget, and lanes with pending work each seal a block in the same
        simulated block interval.  ``1`` (the default) is the one-lane case
        of the same pipeline: one block per interval, on one chain.
    """

    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    max_transactions_per_block: int = 64
    gas_limit_per_block: int = 8_000_000
    gas_per_transaction: int = 21_000
    gas_per_payload_byte: int = 16
    chain_id: int = 2019
    consensus_shards: int = 1

    def __post_init__(self) -> None:
        if self.max_transactions_per_block <= 0:
            raise ValueError("max_transactions_per_block must be positive")
        if self.gas_limit_per_block <= 0:
            raise ValueError("gas_limit_per_block must be positive")
        if self.consensus_shards < 1:
            raise ValueError("consensus_shards must be at least 1")


@dataclass(frozen=True)
class NetworkConfig:
    """Configuration of the simulated peer-to-peer network."""

    base_latency: float = 0.05
    latency_jitter: float = 0.02
    drop_rate: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.latency_jitter < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")


@dataclass(frozen=True)
class ResilienceConfig:
    """Configuration of the self-healing policies (retries, breakers,
    latency-aware admission, degraded reads).

    Attributes
    ----------
    retry_max_attempts / retry_base_delay / retry_multiplier / retry_max_delay /
    retry_jitter:
        The exponential-backoff :class:`~repro.chaos.RetryPolicy` applied to
        consensus rounds, gossip retransmissions and WAL appends when chaos
        wiring is attached.  Jitter is a deterministic fraction drawn from a
        seeded RNG, all delays are simulated seconds.
    breaker_failure_threshold / breaker_reset_timeout:
        Per-peer / per-lane circuit breakers: consecutive *infrastructure*
        failures (commit blow-ups, not contract rejections) before a breaker
        opens, and the simulated seconds before an open breaker admits a
        half-open probe.
    latency_target_p99:
        Commit-latency admission target in simulated seconds.  When set, the
        gateway sheds writes while the sliding-window p99 — or the predicted
        queueing delay at the current depth — exceeds the target.  ``None``
        (default) keeps queue-depth-only shedding.
    degraded_reads / max_staleness:
        When degraded reads are enabled and the commit path is unhealthy
        (commit breaker open, or p99 over target), ``ReadViewRequest``s are
        answered from the ``ViewCache`` without materialising a view,
        marked ``degraded`` with their staleness; entries older than
        ``max_staleness`` simulated seconds are never served degraded.
    """

    retry_max_attempts: int = 4
    retry_base_delay: float = 0.05
    retry_multiplier: float = 2.0
    retry_max_delay: float = 2.0
    retry_jitter: float = 0.5
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 10.0
    latency_target_p99: Optional[float] = None
    degraded_reads: bool = False
    max_staleness: float = 30.0

    def __post_init__(self) -> None:
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be at least 1")
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ValueError("retry delays must be non-negative")
        if self.retry_multiplier < 1.0:
            raise ValueError("retry_multiplier must be >= 1")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be at least 1")
        if self.breaker_reset_timeout <= 0:
            raise ValueError("breaker_reset_timeout must be positive")
        if self.latency_target_p99 is not None and self.latency_target_p99 <= 0:
            raise ValueError("latency_target_p99 must be positive (or None)")
        if self.max_staleness <= 0:
            raise ValueError("max_staleness must be positive")


@dataclass(frozen=True)
class ReplicationConfig:
    """Configuration of WAL-shipping read replicas.

    Attributes
    ----------
    replicas:
        Number of read-only follower replicas fed from the primary peers'
        JSONL WAL segments.  ``0`` (the default) disables replication and
        keeps the single-writer behaviour byte-identical to the seed.
        Requires ``durability.state_dir`` — replicas bootstrap from the
        checkpoint manifest and replay the shipped WAL tail.
    ship_interval:
        Simulated seconds between WAL shipments.  Shipping happens at commit
        boundaries, but a shipment is only published once the interval has
        elapsed since the previous one — this is the knob that creates
        (measurable) replica staleness.  ``0.0`` ships every commit.
    max_lag:
        Bounded-staleness routing cutoff in simulated seconds: a replica
        whose replayed-through timestamp trails the primary's last commit by
        more than this is skipped and the read falls back to the primary.
    read_service_time:
        Simulated seconds a replica spends serving one read (its service
        lane models a single-threaded follower), used to spread read load
        deterministically across the fleet.

    Each commit's ``TableDiff`` always pre-warms the replicas' view caches
    during replay, so a freshly replayed commit is servable without a
    read-through miss.
    """

    replicas: int = 0
    ship_interval: float = 0.0
    max_lag: float = 30.0
    read_service_time: float = 0.002

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")
        if self.ship_interval < 0:
            raise ValueError("ship_interval must be non-negative")
        if self.max_lag <= 0:
            raise ValueError("max_lag must be positive")
        if self.read_service_time < 0:
            raise ValueError("read_service_time must be non-negative")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration assembling every subsystem (Fig. 2).

    Attributes
    ----------
    delta_propagation:
        When true (the default) the update workflow pushes row-level
        ``TableDiff``s through lenses, indexes and caches (O(changed rows)
        per propagation leg) and only falls back to full ``get``/``put``
        recomputation where no delta translation exists.  When false, every
        leg recomputes whole tables (the seed behaviour).
    delta_verify_interval:
        Sampled correctness oracle of the delta path: every Nth delta
        application (the first included) is checked against a full
        recomputation via ``Table.fingerprint()``.  ``0`` disables checking.
    parallel_cascades:
        When true (the default) a Fig. 5 cascade of two or more legs runs
        through the one phase loop as a unit, on any lane count: its legs
        share one request and one acknowledgement round, their
        counterpart-side work runs lane group by lane group, and the trace
        steps merge in leg order.  A failing leg is dropped and the others
        finish.  When false, the loop runs one leg at a time: the oracle.

    Lens laws are not configurable: every full ``put`` is checked against
    PutGet on the concrete data before the new source is installed.
    """

    ledger: LedgerConfig = field(default_factory=LedgerConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    delta_propagation: bool = True
    delta_verify_interval: int = 16
    parallel_cascades: bool = True

    @property
    def consensus_shards(self) -> int:
        """Number of consensus lanes (see :attr:`LedgerConfig.consensus_shards`)."""
        return self.ledger.consensus_shards

    @staticmethod
    def private_chain(block_interval: float = 2.0,
                      consensus_shards: int = 1) -> "SystemConfig":
        """A convenient PoA configuration (the paper's recommended deployment)."""
        return SystemConfig(
            ledger=LedgerConfig(
                consensus=ConsensusConfig(kind="poa", block_interval=block_interval),
                consensus_shards=consensus_shards,
            )
        )

    @staticmethod
    def public_chain(block_interval: float = 12.0, difficulty: int = 3) -> "SystemConfig":
        """A public-Ethereum-like PoW configuration (§IV.1 / §IV.3)."""
        return SystemConfig(
            ledger=LedgerConfig(
                consensus=ConsensusConfig(
                    kind="pow",
                    block_interval=block_interval,
                    pow_difficulty=difficulty,
                )
            )
        )


def _option(default: Any, help: str, choices: Optional[Sequence[str]] = None,
            metavar: Optional[str] = None, path: bool = False) -> Any:
    """A :class:`LoadtestSpec` field that is also a ``--flag``: the CLI
    generates the option (name, type, default, choices, help) from it.
    ``path`` marks a filesystem location each fleet worker gets its own
    sub-path of."""
    return field(default=default, metadata={
        "help": help, "choices": choices, "metavar": metavar, "path": path})


@dataclass(frozen=True)
class LoadtestSpec:
    """One gateway load-test run, declared once.

    Every parameter of a run — tenants and traffic, the serving front end,
    durability, replicas, faults, tracing, process placement — is a field
    here and nowhere else: ``repro gateway-loadtest`` / ``trace`` /
    ``metrics`` generate their options from the field metadata (a field
    built with :func:`_option` is a ``--flag`` of the same name),
    :func:`repro.cli.run_gateway_loadtest` runs a spec, and a fleet worker
    receives its slice of one (:meth:`for_worker`) over the wire, so a fleet
    honours every option a single process does.  A spec is validated on
    construction and is JSON-able (:meth:`to_dict` / :meth:`from_dict`
    round-trip through every wire codec).

    Two fields are library-only (no flag): ``registry`` adds the gateway's
    unified :meth:`MetricsRegistry.snapshot` to the result under
    ``registry`` (what ``repro metrics`` prints), and
    ``include_fingerprints`` adds the system's per-peer per-table state
    fingerprints — the oracle the fleet tests use to prove that placement
    never changes what a slice computes.
    """

    tenants: int = _option(8, "number of patient tenants")
    duration: float = _option(30.0, "traffic duration in simulated seconds")
    rate: float = _option(1.0, "per-tenant requests per simulated second")
    read_fraction: float = _option(
        0.5, "fraction of requests that are view reads")
    interval: float = _option(2.0, "block interval in simulated seconds")
    batch_size: int = _option(16, "max write requests folded into one batch")
    seed: int = _option(23, "seed of the topology and the traffic")
    rate_limit: float = _option(
        0.0, "per-tenant token-bucket rate (0 disables throttling)")
    transport: str = _option(
        "sync", "serving front end: synchronous driver (commits when the "
                "queue is deep, draining between arrivals) or the asyncio "
                "commit-pump transport (arrivals admitted open-loop)",
        choices=("sync", "async"))
    max_delay: float = _option(
        1.0, "async transport: seal a batch once its oldest write waited "
             "this many simulated seconds")
    max_queue_depth: Optional[int] = _option(
        None, "shed writes (typed 'shed' response) while the queue holds "
              "this many (default: no shedding)")
    state_dir: Optional[str] = _option(
        None, "journal terminal responses to an on-disk WAL under this "
              "directory (default: in-memory only; each fleet worker "
              "uses its own sub-directory, named after the worker)",
        path=True)
    fsync_policy: Optional[str] = _option(
        None, "WAL fsync policy: per append, per committed batch (default), "
              "or never", choices=_FSYNC_POLICIES)
    max_responses: Optional[int] = _option(
        None, "cap the in-memory response store; journaled responses are "
              "evicted, not lost")
    trace: bool = _option(
        False, "trace the pipeline and report per-stage self-time with the "
               "results (a `trace` section in the result)")
    trace_out: Optional[str] = _option(
        None, "export the recorded spans as WAL-envelope JSONL to PATH "
              "(implies tracing; a fleet worker writes PATH/WORKER-NAME)",
        metavar="PATH", path=True)
    latency_target: Optional[float] = _option(
        None, "shed writes while the committed-write p99 (or predicted "
              "queueing delay) exceeds this many simulated seconds")
    chaos: Optional[Any] = _option(
        None, "attach a seeded fault plan (path to its JSON; the library "
              "also takes a FaultPlan or its dict form) plus the configured "
              "retry policy; the result gains a `chaos` section",
        metavar="PLAN")
    chaos_events_out: Optional[str] = _option(
        None, "export the injected fault events as JSONL (a fleet worker "
              "writes PATH/WORKER-NAME)", metavar="PATH", path=True)
    replicas: int = _option(
        0, "attach this many WAL-shipping read replicas and fan view reads "
           "across them at bounded staleness (0 disables replication; "
           "replicas need durable peers, so without --state-dir a "
           "temporary one backs the run)")
    replica_ship_interval: float = _option(
        0.0, "simulated seconds between WAL shipments (0 ships every "
             "commit; larger values create measurable replica staleness)",
        metavar="SECONDS")
    replica_max_lag: float = _option(
        30.0, "bounded-staleness routing cutoff: replicas lagging more than "
              "this fall back to the primary", metavar="SECONDS")
    processes: int = _option(
        1, "run as a worker fleet: partition the tenants across this many "
           "worker processes, each a full gateway pipeline behind the "
           "runtime message boundary, worker i seeded with seed + i "
           "(1 = classic single-process run)")
    fleet_mode: str = _option(
        "multiprocess", "fleet placement: forked worker processes (parallel "
                        "commits) or in-process loopback, one worker after "
                        "another (deterministic rehearsal of the same "
                        "protocol)",
        choices=("multiprocess", "loopback"))
    wire_codec: Optional[str] = _option(
        None, "wire codec for the runtime boundary: fleet framing and the "
              "gossip transport's encode/decode rehearsal (default: no "
              "re-encoding)", choices=("canonical-json", "binary"))
    registry: bool = False
    include_fingerprints: bool = False

    def __post_init__(self) -> None:
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            # Store the JSON-able form: a path as a string, a FaultPlan as
            # its dict.
            if isinstance(value, os.PathLike):
                object.__setattr__(self, spec_field.name, os.fspath(value))
            elif hasattr(value, "to_dict"):
                object.__setattr__(self, spec_field.name, value.to_dict())
            choices = spec_field.metadata.get("choices")
            if choices and value is not None and value not in choices:
                raise ValueError(f"unknown {spec_field.name} {value!r}: "
                                 f"use one of {tuple(choices)}")
        if self.tenants < 1:
            raise ValueError("a load test needs at least one tenant")
        if self.processes < 1:
            raise ValueError("a load test needs at least one worker process")
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoadtestSpec":
        return cls(**data)

    def for_worker(self, index: int, name: str) -> "LoadtestSpec":
        """The slice fleet worker ``index`` (of ``processes``) runs.

        Tenants are dealt round-robin so worker loads differ by at most
        one, the seed is ``seed + index`` (distinct, deterministic traffic
        per slice), and every path-valued field points at the worker's own
        ``<path>/<name>`` so workers never share a file or a WAL.
        """
        base, extra = divmod(self.tenants, self.processes)
        paths = {spec_field.name: os.path.join(getattr(self, spec_field.name), name)
                 for spec_field in dataclasses.fields(self)
                 if spec_field.metadata.get("path")
                 and getattr(self, spec_field.name) is not None}
        return dataclasses.replace(
            self, tenants=base + (1 if index < extra else 0),
            seed=self.seed + index, processes=1, **paths)
