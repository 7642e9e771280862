"""Top-level assembly of the sharing architecture (Fig. 2).

:class:`MedicalDataSharingSystem` wires everything together:

* one simulated network with a blockchain node per peer (the first node added
  is the block producer);
* one :class:`~repro.contracts.sharing_contract.SharedDataContract` and one
  :class:`~repro.contracts.registry_contract.SharingRegistryContract`
  deployed on-chain;
* a :class:`~repro.core.peer.Peer` + :class:`~repro.core.server_app.ServerApp`
  pair per stakeholder;
* pairwise data channels created lazily when agreements are established;
* an :class:`~repro.core.workflow.UpdateCoordinator` running the protocols.

Typical use::

    system = MedicalDataSharingSystem()
    doctor = system.add_peer("doctor", "Doctor")
    patient = system.add_peer("patient", "Patient")
    ... create local tables ...
    system.deploy_contracts("doctor")
    system.establish_sharing(agreement)
    trace = system.coordinator.update_shared_entry("doctor", "D13&D31", (188,),
                                                   {"dosage": "two tablets every 6h"})
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.config import SystemConfig
from repro.contracts.registry_contract import SharingRegistryContract
from repro.contracts.sharing_contract import SharedDataContract
from repro.contracts.verification import ContractSpecChecker, SpecCheckResult
from repro.errors import AgreementError, SharingError
from repro.core.audit import AuditTrail
from repro.core.peer import Peer
from repro.core.server_app import ServerApp
from repro.core.sharing import SharingAgreement
from repro.core.workflow import UpdateCoordinator
from repro.chaos import NULL_INJECTOR
from repro.network.simulator import NetworkSimulator
from repro.obs.tracer import NULL_TRACER
from repro.relational.table import Table


class MedicalDataSharingSystem:
    """The whole decentralized sharing architecture in one object."""

    def __init__(self, config: SystemConfig = SystemConfig()):
        self.config = config
        self.simulator = NetworkSimulator(
            ledger_config=config.ledger,
            network_config=config.network,
            contract_classes=(SharedDataContract, SharingRegistryContract),
        )
        self._peers: Dict[str, Peer] = {}
        self._apps: Dict[str, ServerApp] = {}
        self._agreements: Dict[str, SharingAgreement] = {}
        self.contract_address: Optional[str] = None
        self.registry_address: Optional[str] = None
        self.coordinator = UpdateCoordinator(self)
        self.tracer = NULL_TRACER
        self.injector = NULL_INJECTOR
        self.retry_policy = None

    # ----------------------------------------------------------- observability

    def attach_tracer(self, tracer) -> None:
        """Thread one tracer through the whole pipeline: the coordinator's
        consensus/delta spans, every miner's lane spans and every durable
        peer database's WAL spans."""
        self.tracer = tracer
        self.coordinator.tracer = tracer
        for node in self.simulator.nodes:
            if node.miner is not None:
                node.miner.tracer = tracer
        for peer in self._peers.values():
            backend = peer.database.wal.backend
            if backend is not None:
                backend.tracer = tracer

    # ------------------------------------------------------------------- chaos

    def attach_chaos(self, injector, retry_policy=None,
                     registry=None) -> None:
        """Thread one fault injector (and optionally a retry policy) through
        the pipeline: the transport's drop/delay/crash probes, the
        coordinator's commit/consensus/contract probes, and every durable
        peer WAL's append/fsync probes.

        Transport fault targets are node addresses (``node-<peer>``); WAL
        fault targets are peer names.  With a retry policy, consensus rounds,
        dropped gossip messages and WAL appends/fsyncs self-heal with
        deterministic backoff (each wired retrier gets its own seed derived
        from the injector's, so retry jitter is replayable).
        """
        from repro.chaos import Retrier
        self.injector = injector
        self.retry_policy = retry_policy
        clock = self.simulator.clock
        self.simulator.transport.configure_chaos(injector=injector,
                                                 retry_policy=retry_policy)
        self.coordinator.injector = injector
        if retry_policy is not None:
            self.coordinator.retrier = Retrier(
                retry_policy, clock, seed=injector.seed + 101,
                name="consensus", tracer=self.tracer, registry=registry)
        for index, name in enumerate(sorted(self._peers)):
            self._wire_peer_chaos(name, index, registry)

    def _wire_peer_chaos(self, name: str, index: int, registry=None) -> None:
        backend = self._peers[name].database.wal.backend
        if backend is None:
            return
        backend.injector = self.injector
        backend.fault_target = name
        if self.retry_policy is not None:
            from repro.chaos import Retrier
            backend.retrier = Retrier(
                self.retry_policy, self.simulator.clock,
                seed=self.injector.seed + 211 + index,
                name=f"wal:{name}", tracer=self.tracer, registry=registry)

    # -------------------------------------------------------------------- peers

    def _open_peer_database(self, name: str):
        """Create-or-recover ``name``'s durable database under the configured
        ``durability.state_dir`` (None when durability is off)."""
        durability = self.config.durability
        if durability.state_dir is None:
            return None
        from repro.relational.durability import open_durable_database
        peer_dir = pathlib.Path(durability.state_dir) / "peers" / name
        with self.tracer.span("durability.recover", peer=name) as span:
            database = open_durable_database(
                f"{name}_db", peer_dir,
                fsync_policy=durability.fsync_policy,
                segment_max_bytes=durability.segment_max_bytes)
            span.annotate(tables=len(database.table_names))
        backend = database.wal.backend
        if backend is not None:
            backend.tracer = self.tracer
        return database

    def add_peer(self, name: str, role: str, is_miner: Optional[bool] = None) -> Peer:
        """Create a peer, its blockchain node and its server app.

        With ``config.durability.state_dir`` set, the peer's database is
        durable automatically: created under ``<state_dir>/peers/<name>`` on
        first use and recovered from its checkpoint + WAL on later runs.
        """
        if name in self._peers:
            raise SharingError(f"peer {name!r} already exists")
        if is_miner is None:
            is_miner = not self._peers  # the first peer's node produces blocks
        peer = Peer(name=name, role=role, database=self._open_peer_database(name))
        node = self.simulator.add_node(f"node-{name}", is_miner=is_miner)
        if node.miner is not None:
            node.miner.tracer = self.tracer
        app = ServerApp(peer, node, self.simulator.channels,
                        check_lens_laws=self.config.check_lens_laws,
                        delta_verify_interval=self.config.delta_verify_interval)
        if self.contract_address is not None:
            app.contract_address = self.contract_address
            app.registry_address = self.registry_address
        self._peers[name] = peer
        self._apps[name] = app
        if self.injector is not NULL_INJECTOR:
            self._wire_peer_chaos(name, len(self._peers) - 1)
        return peer

    def sync_durability(self) -> int:
        """Fsync every durable peer database's WAL (a commit boundary for the
        ``batch`` policy); returns how many databases were synced."""
        synced = 0
        for peer in self._peers.values():
            if peer.database.wal.durable:
                peer.database.wal.sync()
                synced += 1
        return synced

    def close(self) -> None:
        """Sync and close every durable peer database's WAL segment handle
        (a later append reopens it, so closing twice or early is harmless)."""
        for peer in self._peers.values():
            if peer.database.wal.durable:
                peer.database.wal.backend.close()

    def peer(self, name: str) -> Peer:
        if name not in self._peers:
            raise SharingError(f"unknown peer {name!r}")
        return self._peers[name]

    def server_app(self, name: str) -> ServerApp:
        if name not in self._apps:
            raise SharingError(f"unknown peer {name!r}")
        return self._apps[name]

    @property
    def peer_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._peers))

    @property
    def peers(self) -> Tuple[Peer, ...]:
        return tuple(self._peers[name] for name in sorted(self._peers))

    # ---------------------------------------------------------------- contracts

    def deploy_contracts(self, deployer: str) -> Tuple[str, str]:
        """Deploy the sharing contract and the registry contract.

        Returns ``(sharing_contract_address, registry_contract_address)``.
        """
        if self.contract_address is not None:
            raise SharingError("contracts are already deployed")
        app = self.server_app(deployer)
        sharing_tx = app.build_deploy("SharedDataContract")
        self.simulator.submit_transaction(app.node.name, sharing_tx)
        self.simulator.mine()
        sharing_receipt = app.node.chain.receipt(sharing_tx.tx_hash)
        if not sharing_receipt.success or not sharing_receipt.contract_address:
            raise SharingError(f"sharing contract deployment failed: {sharing_receipt.error}")
        registry_tx = app.build_deploy("SharingRegistryContract")
        self.simulator.submit_transaction(app.node.name, registry_tx)
        self.simulator.mine()
        registry_receipt = app.node.chain.receipt(registry_tx.tx_hash)
        if not registry_receipt.success or not registry_receipt.contract_address:
            raise SharingError(f"registry contract deployment failed: {registry_receipt.error}")
        self.contract_address = sharing_receipt.contract_address
        self.registry_address = registry_receipt.contract_address
        for app in self._apps.values():
            app.contract_address = self.contract_address
            app.registry_address = self.registry_address
        return self.contract_address, self.registry_address

    # --------------------------------------------------------------- agreements

    def establish_sharing(self, agreement: SharingAgreement) -> str:
        """Register a sharing agreement on-chain and set both peers up locally.

        Steps:

        1. both peers adopt the agreement (register the BX program, materialise
           the shared table from their own base table);
        2. the initiator registers the Fig. 3 metadata entry on the sharing
           contract and the agreement id on the registry contract;
        3. a pairwise data channel between the two peers is created.

        Returns the metadata id.
        """
        if self.contract_address is None:
            raise SharingError("deploy_contracts must be called before establishing sharing")
        if agreement.metadata_id in self._agreements:
            raise AgreementError(f"agreement {agreement.metadata_id!r} already established")
        for peer_name in agreement.peers:
            if peer_name not in self._peers:
                raise AgreementError(f"agreement references unknown peer {peer_name!r}")

        for peer_name in agreement.peers:
            self.peer(peer_name).join_agreement(agreement)

        initiator_app = self.server_app(agreement.initiator)
        sharing_peers = {
            self.peer(name).address: agreement.role_of(name) for name in agreement.peers
        }
        register_tx = initiator_app.build_contract_call(
            "register_shared_table",
            {
                "metadata_id": agreement.metadata_id,
                "sharing_peers": sharing_peers,
                "write_permission": {k: list(v) for k, v in agreement.write_permission.items()},
                "authority_role": agreement.authority_role,
                "view_spec": agreement.to_dict(),
            },
        )
        self.simulator.submit_transaction(initiator_app.node.name, register_tx)
        self.simulator.mine()
        receipt = initiator_app.node.chain.receipt(register_tx.tx_hash)
        if not receipt.success:
            raise AgreementError(
                f"on-chain registration of {agreement.metadata_id!r} failed: {receipt.error}"
            )

        registry_tx = initiator_app.build_contract_call(
            "register_agreement",
            {"metadata_id": agreement.metadata_id,
             "contract_address": self.contract_address,
             "description": f"shared table {agreement.metadata_id} between "
                            f"{' and '.join(agreement.peers)}"},
            contract_address=self.registry_address,
        )
        self.simulator.submit_transaction(initiator_app.node.name, registry_tx)
        self.simulator.mine()

        self.simulator.channels.channel_between(*agreement.peers)
        self._agreements[agreement.metadata_id] = agreement
        return agreement.metadata_id

    def agreement(self, metadata_id: str) -> SharingAgreement:
        if metadata_id not in self._agreements:
            raise AgreementError(f"unknown agreement {metadata_id!r}")
        return self._agreements[metadata_id]

    @property
    def agreement_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._agreements))

    # ------------------------------------------------------------- consistency

    @staticmethod
    def _normalised_rows(table: Table) -> Dict[tuple, dict]:
        key_columns = table.schema.primary_key or table.schema.column_names
        return {row.key(key_columns): dict(sorted(row.to_dict().items())) for row in table}

    def shared_tables_consistent(self, metadata_id: str) -> bool:
        """True when both peers' stored copies of the shared table hold the same data."""
        agreement = self.agreement(metadata_id)
        peer_a, peer_b = agreement.peers
        table_a = self.peer(peer_a).shared_table(metadata_id)
        table_b = self.peer(peer_b).shared_table(metadata_id)
        if set(table_a.schema.column_names) != set(table_b.schema.column_names):
            return False
        return self._normalised_rows(table_a) == self._normalised_rows(table_b)

    def all_shared_tables_consistent(self) -> bool:
        return all(self.shared_tables_consistent(mid) for mid in self._agreements)

    def state_fingerprints(self) -> Dict[str, Dict[str, str]]:
        """Content fingerprints of every peer's every table, sorted.

        The chaos-soak convergence check: a faulted run (drops, fsync
        errors, crashes, slow rounds) must end with *exactly* these
        fingerprints matching a fault-free oracle's — retries and
        retransmissions may change timings, never data.  Deliberately
        excludes block/transaction timestamps (injected delays stretch the
        sim clock), so the comparison is over the relational outcome the
        paper's protocols guarantee.
        """
        return {
            name: {table: peer.database.table(table).fingerprint()
                   for table in sorted(peer.database.table_names)}
            for name, peer in sorted(self._peers.items())
        }

    def views_consistent_with_sources(self) -> bool:
        """True when every stored shared table equals a fresh ``get`` of its source."""
        for name, app in self._apps.items():
            for metadata_id in self.peer(name).agreement_ids:
                if not app.manager.pending_view_diff(metadata_id).is_empty:
                    return False
        return True

    # ----------------------------------------------------------------- services

    def audit_trail(self, via_peer: Optional[str] = None) -> AuditTrail:
        """Build the audit trail from one peer's node replica."""
        if self.contract_address is None:
            raise SharingError("contracts are not deployed")
        name = via_peer or self.peer_names[0]
        return AuditTrail(self.server_app(name).node, self.contract_address)

    def check_contract_specification(self, via_peer: Optional[str] = None) -> SpecCheckResult:
        """Run the executable §IV.2 specification checks on the deployed contract."""
        if self.contract_address is None:
            raise SharingError("contracts are not deployed")
        name = via_peer or self.peer_names[0]
        node = self.server_app(name).node
        contract = node.contract_at(self.contract_address)
        checker = ContractSpecChecker(contract, node.chain)
        return checker.check_all()

    def statistics(self) -> Dict[str, object]:
        """System-wide counters used by the benchmark harness."""
        stats = dict(self.simulator.statistics())
        stats.update(
            {
                "peers": len(self._peers),
                "agreements": len(self._agreements),
                "bx_invocations": {
                    name: app.manager.statistics for name, app in sorted(self._apps.items())
                },
                "peer_storage_bytes": {
                    name: peer.storage_bytes() for name, peer in sorted(self._peers.items())
                },
            }
        )
        return stats
