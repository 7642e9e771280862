"""Per-client gateway sessions: identity, authorisation, rate limiting.

A tenant opens one :class:`GatewaySession` per connection.  The session binds
the client to a peer identity, authorises each request against the sharing
contract (membership of the agreement, per-attribute write permission) and
applies a token-bucket rate limit over the simulated clock so a bursty tenant
is throttled instead of starving the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.system import MedicalDataSharingSystem
from repro.errors import AgreementError, SessionError
from repro.gateway.requests import (
    DeleteEntryRequest,
    GatewayRequest,
    InsertEntryRequest,
    UpdateEntryRequest,
)
from repro.ledger.clock import SimClock

_session_counter = itertools.count(1)

#: Token-bucket capacity of a session opened without an explicit ``burst``.
DEFAULT_BURST = 8.0


@dataclass
class TokenBucket:
    """A token bucket over simulated time.

    ``rate`` tokens per simulated second refill up to ``burst`` capacity;
    each request spends one token.  ``rate <= 0`` disables limiting.
    """

    rate: float
    burst: float
    clock: SimClock
    _tokens: float = field(init=False)
    _refilled_at: float = field(init=False)

    def __post_init__(self) -> None:
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        self._tokens = self.burst
        self._refilled_at = self.clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        if now > self._refilled_at:
            self._tokens = min(self.burst, self._tokens + (now - self._refilled_at) * self.rate)
            self._refilled_at = now

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; False means the caller is throttled.

        The comparison tolerates float error from clock arithmetic so a
        tenant that waited exactly ``1/rate`` seconds is admitted.
        """
        if self.rate <= 0:
            return True
        self._refill()
        if self._tokens + 1e-9 < tokens:
            return False
        self._tokens = max(0.0, self._tokens - tokens)
        return True


class GatewaySession:
    """One authenticated tenant connection to the gateway."""

    def __init__(self, system: MedicalDataSharingSystem, peer_name: str,
                 rate: float = 0.0, burst: float = DEFAULT_BURST):
        # Opening a session authenticates the tenant: the peer must exist and
        # hold a key pair (raises SharingError otherwise).
        self.peer = system.peer(peer_name)
        self._system = system
        self._app = system.server_app(peer_name)
        self.session_id = f"sess-{next(_session_counter)}-{peer_name}"
        self.limiter = TokenBucket(rate=rate, burst=burst,
                                   clock=system.simulator.clock)
        self.opened_at = system.simulator.clock.now()
        self.closed = False
        #: Request counters by terminal status, maintained by the gateway.
        self.counters: Dict[str, int] = {}

    @property
    def peer_name(self) -> str:
        return self.peer.name

    @property
    def role(self) -> str:
        return self.peer.role

    def close(self) -> None:
        self.closed = True

    def count(self, status: str) -> None:
        self.counters[status] = self.counters.get(status, 0) + 1

    def statistics(self) -> Dict[str, object]:
        """A snapshot of this session's serving state: per-status request
        counters, the remaining rate-limit budget and lifecycle fields.
        Surfaced per tenant by load tests and the admission-control tests."""
        return {
            "session_id": self.session_id,
            "tenant": self.peer_name,
            "role": self.role,
            "opened_at": self.opened_at,
            "closed": self.closed,
            "counters": dict(self.counters),
            "rate": self.limiter.rate,
            "burst": self.limiter.burst,
            "tokens_available": self.limiter.available,
        }

    # ------------------------------------------------------------ authorisation

    def authorize(self, request: GatewayRequest) -> None:
        """Check this session may issue ``request``; raises :class:`SessionError`.

        Reads require membership of the agreement; writes additionally require
        the sharing contract to grant this peer write permission on every
        attribute the request touches (the Fig. 3 permission matrix, probed
        through the peer's own node replica).
        """
        if self.closed:
            raise SessionError(f"session {self.session_id!r} is closed")
        metadata_id = getattr(request, "metadata_id", None)
        if metadata_id is None:
            return  # audit queries are served from the public chain replica
        try:
            agreement = self.peer.agreement(metadata_id)
        except AgreementError as exc:
            raise SessionError(
                f"peer {self.peer_name!r} is not a party of agreement {metadata_id!r}"
            ) from exc
        attributes: Tuple[str, ...] = ()
        if isinstance(request, UpdateEntryRequest):
            attributes = tuple(request.updates)
        elif isinstance(request, (InsertEntryRequest, DeleteEntryRequest)):
            # Row-level create/delete touches every shared attribute.
            attributes = agreement.shared_columns
        if not attributes:
            return  # a read checks membership only
        shared = set(agreement.shared_columns)
        for attribute in attributes:
            if attribute not in shared:
                raise SessionError(
                    f"attribute {attribute!r} is not part of shared table {metadata_id!r}"
                )
            if not self._app.can_write(metadata_id, attribute):
                raise SessionError(
                    f"peer {self.peer_name!r} (role {self.role!r}) may not write "
                    f"attribute {attribute!r} of {metadata_id!r}"
                )

    def try_admit(self) -> bool:
        """Spend one rate-limit token; False means the request is throttled."""
        return self.limiter.try_acquire()
