"""Shared exception hierarchy for the reproduction library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
applications embedding the library can catch a single base class, while tests
can assert on precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------

class RelationalError(ReproError):
    """Base class for errors raised by :mod:`repro.relational`."""


class SchemaError(RelationalError):
    """A schema definition or schema compatibility constraint was violated."""


class ConstraintViolation(RelationalError):
    """A table constraint (primary key, not-null, type) was violated."""


class UnknownColumnError(RelationalError):
    """A query or update referenced a column that does not exist."""


class UnknownTableError(RelationalError):
    """A database operation referenced a table that does not exist."""


class DuplicateTableError(RelationalError):
    """A table with the same name already exists in the database."""


class RowNotFoundError(RelationalError):
    """A keyed lookup did not match any row."""


class TransactionError(RelationalError):
    """A transaction was used incorrectly (double commit, no active txn, ...)."""


class DiffConflictError(RelationalError):
    """A :class:`~repro.relational.diff.TableDiff` cannot be applied to a table.

    Raised when a diff disagrees with the table it is applied to: an insert
    for a key that already exists, an update/delete for a key that does not,
    or an update change whose ``after`` image lacks one of its
    ``changed_columns``.
    """


class WalTruncatedError(RelationalError):
    """A WAL read asked for entries below the recorded checkpoint sequence.

    After :meth:`~repro.relational.wal.WriteAheadLog.truncate` the discarded
    prefix is only recoverable from the checkpoint snapshot; silently
    returning an incomplete tail would make "replay from empty" look complete
    when it is not.
    """


class WalCorruptionError(RelationalError):
    """An on-disk WAL segment is damaged beyond the torn tail a crash can
    legitimately leave (undecodable or out-of-order entries mid-stream)."""


class RecoveryError(RelationalError):
    """A durable-state directory could not be recovered (missing snapshot,
    unreplayable entry, manifest/WAL disagreement)."""


# ---------------------------------------------------------------------------
# Bidirectional transformations
# ---------------------------------------------------------------------------

class BXError(ReproError):
    """Base class for errors raised by :mod:`repro.bx`."""


class LensLawViolation(BXError):
    """A lens failed the GetPut or PutGet round-tripping law on given data."""


class PutConflictError(BXError):
    """A ``put`` could not embed the view into the source unambiguously."""


class ViewShapeError(BXError):
    """A view passed to ``put`` is incompatible with the lens' view schema."""


class UnknownLensError(BXError):
    """A BX registry lookup failed."""


class DeltaUnsupported(BXError):
    """A diff cannot be translated incrementally through a transformation.

    Raised by ``get_delta``/``put_delta`` when no sound row-level translation
    exists (e.g. functional projections whose support counts change, join
    multiplicity, selection predicates over hidden columns).  Callers fall
    back to the full ``get``/``put`` recomputation.
    """


# ---------------------------------------------------------------------------
# Ledger / blockchain
# ---------------------------------------------------------------------------

class LedgerError(ReproError):
    """Base class for errors raised by :mod:`repro.ledger`."""


class InvalidBlockError(LedgerError):
    """A block failed validation (hash linkage, Merkle root, consensus seal)."""


class InvalidTransactionError(LedgerError):
    """A transaction failed validation (signature, nonce, payload)."""


class ForkError(LedgerError):
    """A chain reorganisation could not be applied."""


class ConsensusError(LedgerError):
    """A consensus engine rejected a block or could not produce one."""


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

class ContractError(ReproError):
    """Base class for errors raised by :mod:`repro.contracts`."""


class ContractNotFoundError(ContractError):
    """A call referenced a contract address with no deployed contract."""


class ContractRevert(ContractError):
    """A contract aborted execution; state changes of the call are discarded."""


class PermissionDenied(ContractRevert):
    """The caller lacks the permission required by the sharing contract."""


class ContractSpecViolation(ContractError):
    """An executable specification check of a contract failed (§IV.2)."""


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for errors raised by :mod:`repro.network`."""


class UnknownPeerError(NetworkError):
    """A message was addressed to a peer not registered in the transport."""


class ChannelClosedError(NetworkError):
    """A data channel between two peers was used after being closed."""


# ---------------------------------------------------------------------------
# Core sharing architecture
# ---------------------------------------------------------------------------

class SharingError(ReproError):
    """Base class for errors raised by :mod:`repro.core`."""


class AgreementError(SharingError):
    """A sharing agreement is malformed or inconsistent with local schemas."""


class UpdateRejected(SharingError):
    """An update on shared data was rejected (permission, conflict, stale)."""


class SynchronizationError(SharingError):
    """Source/view synchronisation failed or produced inconsistent data."""


class WorkflowError(SharingError):
    """The multi-step update workflow could not be completed."""


# ---------------------------------------------------------------------------
# Gateway (the multi-tenant serving layer)
# ---------------------------------------------------------------------------

class GatewayError(ReproError):
    """Base class for errors raised by :mod:`repro.gateway`."""


class SessionError(GatewayError):
    """A gateway session is invalid, closed, or not authorised for a request."""


class CircuitOpenError(GatewayError):
    """A circuit breaker refused the request without attempting the work."""


# ---------------------------------------------------------------------------
# Runtime (message-passing boundary, wire codecs, process fleet)
# ---------------------------------------------------------------------------

class RuntimeBoundaryError(ReproError):
    """Base class for errors raised by :mod:`repro.runtime`."""


class CodecError(RuntimeBoundaryError):
    """A wire codec could not encode or decode a payload.

    Raised for values outside the deterministic wire model (unsupported
    types, non-string mapping keys) and for malformed byte streams
    (unknown tags, truncated frames, trailing garbage).
    """


class EnvelopeError(RuntimeBoundaryError):
    """An envelope violated the message discipline (bad kind, missing
    sequence, wrong schema version)."""


class FleetError(RuntimeBoundaryError):
    """Base class for multi-process fleet failures."""


class FleetProtocolError(FleetError):
    """A worker and the coordinator disagreed on the request/reply protocol
    (out-of-sequence reply, unexpected kind, undecodable frame)."""


class ReceiveTimeout(FleetProtocolError):
    """Nothing arrived within a receive's timeout.  No byte of a frame was
    consumed, so the stream is intact and the receive may be retried."""


class WorkerCrashError(FleetError):
    """A worker process died before delivering its reply.

    Carries enough context (worker name, exit code) for the coordinator to
    decide between failing the run and recovering the worker's durable
    state through the WAL path.
    """

    def __init__(self, worker: str, exitcode: "int | None" = None,
                 message: "str | None" = None) -> None:
        self.worker = worker
        self.exitcode = exitcode
        detail = message or (
            f"worker {worker!r} exited with code {exitcode!r} "
            "before replying"
        )
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Chaos (deterministic fault injection)
# ---------------------------------------------------------------------------

class ChaosError(ReproError):
    """Base class for errors raised by :mod:`repro.chaos` itself (a malformed
    fault plan, an unknown fault kind, ...)."""


class InjectedFault(ReproError):
    """A fault deliberately raised by a :class:`~repro.chaos.FaultInjector`.

    Terminal by default: retry machinery treats it like any other
    :class:`ReproError` unless it is one of the retryable subclasses below.
    """


class TransientFault(InjectedFault):
    """An injected fault that models a *transient* condition (a consensus
    round that would succeed if retried).  Retryable under the default
    :class:`~repro.chaos.RetryPolicy`."""


class InjectedDiskError(InjectedFault, OSError):
    """An injected storage-layer ``OSError`` (WAL append or fsync failure).

    Inherits :class:`OSError` so code that guards real disk failures treats
    it identically, and :class:`InjectedFault` (hence :class:`ReproError`)
    so the pipeline's existing error boundaries contain it.
    """
