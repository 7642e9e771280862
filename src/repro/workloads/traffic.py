"""Multi-tenant open-loop traffic for the gateway.

An open-loop generator models tenants that submit requests on their own
schedule regardless of how fast the system answers — the arrival process a
serving layer actually faces.  Each :class:`TenantProfile` describes one
tenant's rate and read/write mix; :class:`TrafficGenerator` turns a set of
profiles into a deterministic, time-ordered stream of
:class:`TimedRequest`'s that a load test replays against the gateway.

:meth:`~repro.gateway.aio.AsyncSharingGateway.replay` replays such a trace
through the *async* transport: every arrival is admitted at its simulated
arrival time without awaiting the response, and a commit in flight admits
the arrivals due at its consensus-round boundaries — the open-loop
behaviour a synchronous driver cannot produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.system import MedicalDataSharingSystem
from repro.gateway.requests import GatewayRequest, ReadViewRequest, UpdateEntryRequest
from repro.workloads.updates import UpdateStreamGenerator


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic shape.

    ``request_rate`` is in requests per simulated second (open loop);
    ``read_fraction`` is the probability a request is a view read rather than
    an entry update; ``metadata_ids`` restricts the tenant to some of its
    agreements (default: all the peer participates in).
    """

    peer: str
    request_rate: float = 1.0
    read_fraction: float = 0.5
    metadata_ids: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        object.__setattr__(self, "metadata_ids", tuple(self.metadata_ids))


@dataclass(frozen=True)
class TimedRequest:
    """One request with its open-loop arrival time (simulated seconds)."""

    arrival_time: float
    tenant: str
    request: GatewayRequest

    def to_dict(self) -> dict:
        return {"arrival_time": self.arrival_time, "tenant": self.tenant,
                "request": self.request.to_dict()}


class TrafficGenerator:
    """Deterministic open-loop request streams over a sharing system."""

    def __init__(self, system: MedicalDataSharingSystem, seed: int = 23):
        self.system = system
        self.seed = seed
        self._updates = UpdateStreamGenerator(system, seed=seed)

    def _tenant_tables(self, profile: TenantProfile) -> Tuple[str, ...]:
        tables = profile.metadata_ids or self.system.peer(profile.peer).agreement_ids
        if not tables:
            raise ValueError(f"tenant {profile.peer!r} participates in no agreement")
        return tuple(tables)

    def open_loop(self, tenants: Sequence[TenantProfile], duration: float,
                  start_time: float = 0.0) -> List[TimedRequest]:
        """Generate every tenant's arrivals over ``duration`` simulated seconds.

        Inter-arrival times are exponential (Poisson arrivals) from a
        per-tenant seeded stream, so the merged trace is bursty and
        deterministic.  The result is sorted by arrival time — replay it in
        order, advancing the simulated clock to each arrival.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        arrivals: List[TimedRequest] = []
        for profile in tenants:
            # A string seed hashes deterministically (unlike tuples under
            # per-process hash randomisation), keeping traces reproducible.
            rng = random.Random(f"{self.seed}:{profile.peer}")
            tables = self._tenant_tables(profile)
            now = start_time
            while True:
                now += rng.expovariate(profile.request_rate)
                if now >= start_time + duration:
                    break
                metadata_id = tables[rng.randrange(len(tables))]
                if rng.random() < profile.read_fraction:
                    request: GatewayRequest = ReadViewRequest(metadata_id)
                else:
                    event = self._updates.event_for(metadata_id, peer=profile.peer)
                    request = UpdateEntryRequest(metadata_id=metadata_id,
                                                 key=event.key, updates=event.updates)
                arrivals.append(TimedRequest(arrival_time=now, tenant=profile.peer,
                                             request=request))
        arrivals.sort(key=lambda item: (item.arrival_time, item.tenant))
        return arrivals


def default_tenant_profiles(system: MedicalDataSharingSystem,
                            request_rate: float = 1.0,
                            read_fraction: float = 0.5,
                            roles: Tuple[str, ...] = ("Patient",)) -> List[TenantProfile]:
    """One profile per peer of the given roles (the typical loadtest shape:
    every patient is a tenant hammering its own shared table)."""
    profiles = []
    for peer in system.peers:
        if peer.role in roles and peer.agreement_ids:
            profiles.append(TenantProfile(peer=peer.name, request_rate=request_rate,
                                          read_fraction=read_fraction))
    return profiles
