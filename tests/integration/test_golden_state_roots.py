"""Golden state root, block hashes and receipts of a small seeded run.

The hex values were first captured before contract storage became
undo-journaled: tracked containers, positional ack lookup, rollback by
journal and copied receipts must not move a single byte of what a replica
commits to.  They were re-captured once, deliberately, when the hub
topology's patients became light peers: a light peer takes a header and one
proof per own operation instead of every block and transaction flood, so
fewer deliveries advance the simulated clock, and block and transaction
timestamps — hence the state root, block hashes and receipts — moved.  The
receipt count, the reverts and every table fingerprint did not.
"""

from repro.config import SystemConfig
from repro.crypto.hashing import hash_payload
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.workloads.topology import TopologySpec, build_topology_system

GOLDEN_STATE_ROOT = "7c58a1d1ddacf776610d84b62a65c41057abaa6af8dc31ee5fdb968a1c767cf6"
GOLDEN_BLOCKS = 23
GOLDEN_HEAD_HASH = "790ef608af91457d5e283e10722d3710e6bbc4282a9557c9f93993fbc587b007"
GOLDEN_RECEIPTS = (34, 6, "a5eeff85fa102994f4e2552484fbed6dd9b3b262285cdcbca809afb9ce571a22")


def _run(prepare=None):
    system = build_topology_system(TopologySpec(patients=3, researchers=1, seed=7),
                                   SystemConfig.private_chain(1.0))
    if prepare is not None:
        prepare(system)  # e.g. attach a fault plan or a wire codec before traffic
    gateway = SharingGateway(system)
    tables = {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids
              if mid.split(":")[1].isdigit()}
    for round_ in range(3):
        for peer, metadata_id in sorted(tables.items()):
            session = gateway.open_session(peer)
            gateway.submit(session, UpdateEntryRequest(
                metadata_id=metadata_id, key=(int(metadata_id.split(":")[1]),),
                updates={"clinical_data": f"round-{round_}"}))
        gateway.drain()
        # Two transactions the contract reverts: an ack of an unknown update
        # and a permission change by a peer without the authority.
        peer, metadata_id = sorted(tables.items())[round_]
        app = system.server_app(peer)
        for method, args in (
                ("acknowledge_update", {"metadata_id": metadata_id, "update_id": 999}),
                ("change_permission", {"metadata_id": metadata_id, "attribute": "dosage",
                                       "new_writers": ["Patient"]})):
            system.simulator.submit_transaction(app.node.name,
                                                app.build_contract_call(method, args))
            system.simulator.mine()
    return system


def _receipts_digest(node):
    """Hash of every receipt, minus ``notify_peers``: on the parent commit that
    event field was the live ``pending_acks`` list and shrank as peers
    acknowledged (the aliasing this PR fixes), so its old value is no oracle."""
    payload = []
    for receipt in node.chain.receipts():
        body = receipt.to_dict()
        body["events"] = [
            {**event, "data": {k: v for k, v in event["data"].items() if k != "notify_peers"}}
            for event in body["events"]]
        payload.append(body)
    return hash_payload(payload)


def test_state_root_block_hashes_and_receipts_match_the_parent_commit():
    system = _run()
    assert system.all_shared_tables_consistent()
    nodes = [system.server_app(name).node for name in system.peer_names]
    assert {node.state_root() for node in nodes} == {GOLDEN_STATE_ROOT}
    for node in nodes:
        blocks = node.chain.blocks
        assert (len(blocks), blocks[-1].block_hash) == (GOLDEN_BLOCKS, GOLDEN_HEAD_HASH)
        receipts = node.chain.receipts()
        assert (len(receipts), sum(not r.success for r in receipts),
                _receipts_digest(node)) == GOLDEN_RECEIPTS


def test_event_notify_peers_is_a_copy_of_the_pending_acks_at_emit_time():
    system = _run()
    node = system.server_app("doctor").node
    notified = [event["data"]["notify_peers"] for receipt in node.chain.receipts()
                for event in receipt.events if "notify_peers" in event["data"]]
    assert notified and all(len(peers) == 1 for peers in notified)
