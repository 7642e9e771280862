"""The multi-tenant request-serving layer (the gateway).

The paper's protocols run one operation at a time; this package puts a
serving tier in front of :class:`~repro.core.system.MedicalDataSharingSystem`
so many tenants can read and write shared data concurrently:

* :mod:`repro.gateway.session` — authenticated, rate-limited tenant sessions;
* :mod:`repro.gateway.requests` — the typed request/response wire model;
* :mod:`repro.gateway.scheduler` — FIFO write queue, batch planning and
  conflict serialisation;
* :mod:`repro.gateway.cache` — a read-through shared-view cache invalidated
  by the Fig. 5 propagation workflow;
* :mod:`repro.gateway.admission` — latency-aware admission control: the
  sliding-window p99 / predicted-delay :class:`LatencyShedder` and the
  per-tenant fair-queueing check;
* :mod:`repro.gateway.aio` — the asyncio transport: awaitable responses and
  a commit pump sealing batches on queue-depth/deadline triggers, so
  open-loop arrivals are admitted at the consensus-round boundaries of an
  in-flight commit;
* :mod:`repro.gateway.gateway` — the facade wiring it all together.
"""

from repro._exports import lazy_exports
from repro.gateway.admission import LatencyShedder, fair_share_exceeded
from repro.gateway.cache import ViewCache
from repro.gateway.gateway import ResponseJournal, SharingGateway
from repro.gateway.requests import (
    AuditQueryRequest,
    DeleteEntryRequest,
    GatewayRequest,
    GatewayResponse,
    InsertEntryRequest,
    ReadViewRequest,
    UpdateEntryRequest,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_QUEUED,
    STATUS_REJECTED,
    STATUS_SHED,
    STATUS_THROTTLED,
    TERMINAL_STATUSES,
)
from repro.gateway.scheduler import BatchPlan, PendingWrite, WriteScheduler
from repro.gateway.session import GatewaySession, TokenBucket

# The asyncio transport loads on first use: importing ``asyncio`` is a
# noticeable share of start-up for a run that never drives it.
__getattr__, __dir__ = lazy_exports(__name__, {"aio": ("AsyncSharingGateway",)})


__all__ = [
    "AsyncSharingGateway",
    "AuditQueryRequest",
    "BatchPlan",
    "DeleteEntryRequest",
    "GatewayRequest",
    "GatewayResponse",
    "GatewaySession",
    "InsertEntryRequest",
    "LatencyShedder",
    "PendingWrite",
    "ReadViewRequest",
    "ResponseJournal",
    "SharingGateway",
    "TokenBucket",
    "UpdateEntryRequest",
    "ViewCache",
    "WriteScheduler",
    "fair_share_exceeded",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_QUEUED",
    "STATUS_REJECTED",
    "STATUS_SHED",
    "STATUS_THROTTLED",
    "TERMINAL_STATUSES",
]
