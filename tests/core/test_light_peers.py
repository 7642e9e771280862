"""Light patients in the hub and join topologies.

A light peer keeps a header chain and checks one inclusion proof per
operation it takes part in, instead of replaying every block.  These tests
hold it to three things: the relational outcome is exactly the all-validator
one, a validator that lies to it is refused and replaced, and every leg with
a light side is backed by exactly one verified proof.  One test pins what it
does not check: the event sent with a proof.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.core.system import MedicalDataSharingSystem
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.ledger.events import LogEntry
from repro.ledger.light_client import build_inclusion_proof
from repro.network.light import LightNode
from repro.workloads.topology import (
    HOSPITAL_TABLE_ID,
    TopologySpec,
    build_join_topology_system,
    build_topology_system,
)


def _build(seed: int, researchers: int = 1):
    return build_topology_system(
        TopologySpec(patients=3, researchers=researchers, seed=seed),
        SystemConfig.private_chain(1.0))


def _build_join(seed: int):
    """Doctor, hospital and three patients on join-backed views."""
    return build_join_topology_system(
        TopologySpec(patients=3, researchers=0, distinct_medications=2, seed=seed),
        SystemConfig.private_chain(1.0))


#: topology → (builder, the validators' node names).
TOPOLOGIES = {
    "hub": (_build, ["node-doctor", "node-researcher-1"]),
    "join": (_build_join, ["node-doctor", "node-hospital"]),
}


def _build_all_validators(build, seed: int, monkeypatch):
    """The same topology with every patient a validator of its own."""
    add_peer = MedicalDataSharingSystem.add_peer
    with monkeypatch.context() as patch:
        patch.setattr(MedicalDataSharingSystem, "add_peer",
                      lambda self, name, role, is_miner=None, light=False:
                      add_peer(self, name, role, is_miner))
        return build(seed)


def _drive(system, rounds: int = 3):
    """Patients write ``clinical_data``, the doctor ``dosage``, a researcher
    or the hospital a mechanism (the hospital's cascades into every patient's
    view); one patient tries a write the contract refuses."""
    gateway = SharingGateway(system)
    patient_tables = {mid: int(mid.split(":")[1]) for mid in system.agreement_ids
                      if mid.startswith("D13&D31:")}
    doctor = gateway.open_session("doctor")
    for round_ in range(rounds):
        for metadata_id, patient_id in sorted(patient_tables.items()):
            gateway.submit(gateway.open_session(f"patient-{patient_id}"),
                           UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                                              updates={"clinical_data": f"r{round_}"}))
        gateway.drain()
        for metadata_id, patient_id in sorted(patient_tables.items()):
            gateway.submit(doctor, UpdateEntryRequest(
                metadata_id=metadata_id, key=(patient_id,),
                updates={"dosage": f"dose-{round_}"}))
        for name in system.peer_names:
            if name.startswith("researcher-"):
                medication = next(iter(system.peer(name).database.table("D2")))
                gateway.submit(gateway.open_session(name), UpdateEntryRequest(
                    metadata_id=f"D23&D32:{name}",
                    key=(medication["medication_name"],),
                    updates={"mechanism_of_action": f"MeA-{round_}"}))
            elif name == "hospital":
                hospital = gateway.open_session(name)
                for patient_id in sorted(patient_tables.values()):
                    gateway.submit(hospital, UpdateEntryRequest(
                        metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
                        updates={"mechanism_of_action": f"MeA-{round_}"}))
        gateway.drain()
    metadata_id, patient_id = sorted(patient_tables.items())[0]
    refused = gateway.submit(gateway.open_session(f"patient-{patient_id}"),
                             UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                                                updates={"dosage": "self-prescribed"}))
    gateway.drain()
    gateway.close()
    assert refused.status != "ok"
    return gateway


def _history(system):
    """The doctor replica's update history, minus what the simulated clock sets."""
    return [{key: value for key, value in record.items()
             if key not in ("timestamp", "block_number")}
            for record in system.server_app("doctor").query_contract("update_history")]


def _lights(system):
    return {light.name: light for light in system.simulator.gossip.light_peers}


@pytest.mark.parametrize("seed", [23, 300])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_light_patients_reach_the_all_validator_outcome(topology, seed, monkeypatch):
    build, validators = TOPOLOGIES[topology]
    full, light = _build_all_validators(build, seed, monkeypatch), build(seed)
    _drive(full)
    _drive(light)
    assert [node.name for node in light.simulator.nodes] == validators
    assert len(full.simulator.nodes) == 5
    assert light.state_fingerprints() == full.state_fingerprints()
    assert _history(light) == _history(full)
    assert light.all_shared_tables_consistent() and light.views_consistent_with_sources()
    assert light.simulator.in_consensus()
    # Every patient app signs through the doctor's node, its trusted node.
    doctor_node = light.simulator.node("node-doctor")
    assert all(light.server_app(name).node is doctor_node
               for name in light.peer_names if name.startswith("patient-"))


def test_every_leg_with_a_light_side_is_backed_by_one_verified_proof():
    system = _build(23)
    _drive(system)
    legs = [record for record in _history(system)
            if record["metadata_id"].startswith("D13&D31:")]
    statistics = system.simulator.light_statistics()
    assert statistics == {"peers": 3, "proofs_verified": len(legs),
                          "refusals": 0, "failovers": 0}
    per_peer = {name: light.proofs_verified for name, light in _lights(system).items()}
    assert per_peer == {f"node-patient-{mid.split(':')[1]}":
                        sum(1 for leg in legs if leg["metadata_id"] == mid)
                        for mid in system.agreement_ids if mid.startswith("D13&D31:")}


def _tamper_once(node, method, tamper):
    """Make ``node.<method>`` return one tampered answer, then honest ones."""
    honest = getattr(node, method)
    state = {"done": False}

    def lying(*args):
        answer = honest(*args)
        if not state["done"] and answer:
            state["done"] = True
            answer = tamper(honest, args, answer)
        return answer

    setattr(node, method, lying)
    return state


def _tampered_transaction(honest, args, payloads):
    payload = dict(payloads[0])
    transaction = dict(payload["transaction"])
    transaction["args"] = dict(transaction["args"], diff_hash="0" * 64)
    payload["transaction"] = transaction
    return [payload] + payloads[1:]


def _tampered_path(honest, args, payloads):
    payload = dict(payloads[0])
    proof = dict(payload["proof"])
    proof["path"] = [[side, "f" * 64] for side, _sibling in proof["path"]] or [["right", "f" * 64]]
    payload["proof"] = proof
    return [payload] + payloads[1:]


def _conflicting_header(honest, args, header):
    (number,) = args
    earlier = dict(honest(number - 1))
    earlier["merkle_root"] = "f" * 64
    return earlier


@pytest.mark.parametrize("method, tamper", [
    ("light_operations", _tampered_transaction),
    ("light_operations", _tampered_path),
    ("light_header", _conflicting_header),
])
def test_a_lying_validator_is_refused_and_replaced(method, tamper):
    oracle = _build(23)
    _drive(oracle)
    system = _build(23)
    doctor_node = system.simulator.node("node-doctor")
    researcher_node = system.simulator.node("node-researcher-1")
    state = _tamper_once(doctor_node, method, tamper)
    _drive(system)
    assert state["done"]

    lights = _lights(system)
    refused = {name: light for name, light in lights.items() if light.refusals}
    # An operation goes to one peer; a header body to every peer the doctor serves.
    assert len(refused) == (len(lights) if method == "light_header" else 1)
    for name, light in refused.items():
        assert light.refusals == light.failovers == 1
        assert light.validator is researcher_node
        assert system.server_app(name[len("node-"):]).node is researcher_node
    for light in lights.values():
        if light.name not in refused:
            assert light.validator is doctor_node
    # The tables converge on exactly the honest run's, and every leg is backed.
    assert system.state_fingerprints() == oracle.state_fingerprints()
    assert system.all_shared_tables_consistent()
    statistics = system.simulator.light_statistics()
    assert statistics["proofs_verified"] == oracle.simulator.light_statistics()["proofs_verified"]


def test_a_refusal_without_another_validator_is_counted_and_fails_the_leg():
    system = _build(23, researchers=0)
    doctor_node = system.simulator.node("node-doctor")
    _tamper_once(doctor_node, "light_operations", _tampered_transaction)
    gateway = SharingGateway(system)
    metadata_id = sorted(mid for mid in system.agreement_ids)[0]
    patient_id = int(metadata_id.split(":")[1])
    response = gateway.submit(gateway.open_session("doctor"), UpdateEntryRequest(
        metadata_id=metadata_id, key=(patient_id,), updates={"dosage": "tampered"}))
    gateway.drain()
    assert response.status != "ok" and "notification" in (response.error or "")
    light = _lights(system)[f"node-patient-{patient_id}"]
    assert (light.refusals, light.failovers, light.proofs_verified) == (1, 0, 0)
    assert light.validator is doctor_node


def test_failover_moves_on_to_the_next_validator():
    """Refused by the doctor and then by ``researcher-1``, a peer moves on to
    ``researcher-2``; it does not fall back to the doctor it already refused."""
    system = _build(23, researchers=2)
    doctor_node, first, second = (system.simulator.node(f"node-{name}") for name in
                                  ("doctor", "researcher-1", "researcher-2"))
    assert system.simulator.nodes == (doctor_node, first, second)
    for node in (doctor_node, first):
        _tamper_once(node, "light_operations", _tampered_transaction)
    gateway = SharingGateway(system)
    doctor = gateway.open_session("doctor")
    metadata_id = sorted(mid for mid in system.agreement_ids
                         if mid.startswith("D13&D31:"))[0]
    patient_id = int(metadata_id.split(":")[1])
    gateway.submit(doctor, UpdateEntryRequest(
        metadata_id=metadata_id, key=(patient_id,), updates={"dosage": "refused twice"}))
    gateway.drain()
    gateway.close()
    light = _lights(system)[f"node-patient-{patient_id}"]
    assert (light.refusals, light.failovers, light.proofs_verified) == (2, 2, 0)
    assert light.validator is second
    assert system.server_app(f"patient-{patient_id}").node is second


def test_a_light_peer_needs_a_validator_first():
    from repro.core.system import MedicalDataSharingSystem
    from repro.errors import SharingError, UnknownPeerError

    system = MedicalDataSharingSystem(SystemConfig.private_chain(1.0))
    with pytest.raises(UnknownPeerError):
        system.add_peer("patient", "Patient", light=True)
    system.add_peer("doctor", "Doctor")
    with pytest.raises(SharingError):
        system.add_peer("phone", "Patient", is_miner=True, light=True)
    system.add_peer("patient", "Patient", light=True)
    assert isinstance(system.server_app("patient").light, LightNode)
    assert [node.name for node in system.simulator.nodes] == ["node-doctor"]


def test_a_light_peer_behind_a_lagging_validator_still_gets_its_operation():
    system = _build(23)
    researcher_node = system.simulator.node("node-researcher-1")
    metadata_id = sorted(system.agreement_ids)[0]
    patient = f"patient-{metadata_id.split(':')[1]}"
    light = _lights(system)[f"node-{patient}"]
    # The patient has failed over to the researcher, whose replica is about
    # to miss a block: serve_block passes the patient over for it.
    light.validator = researcher_node
    light.on_reattach(researcher_node)
    honest_receive = researcher_node.receive_block
    missed = []
    researcher_node.receive_block = missed.append
    gateway = SharingGateway(system)
    doctor = gateway.open_session("doctor")
    lagged = gateway.submit(doctor, UpdateEntryRequest(
        metadata_id=metadata_id, key=(int(metadata_id.split(":")[1]),),
        updates={"dosage": "while-lagging"}))
    gateway.drain()
    assert lagged.status != "ok" and len(missed) == 1
    (block,) = missed
    operation_tx = next(tx.tx_hash for tx in block.transactions
                        if tx.args.get("metadata_id") == metadata_id)
    assert not light.verified(operation_tx)
    # The replica catches up; the next block's header reaches the patient
    # past a gap, and the operation of the missed block is served with it.
    del researcher_node.receive_block
    assert honest_receive(block)
    other = sorted(system.agreement_ids)[1]
    gateway.submit(doctor, UpdateEntryRequest(
        metadata_id=other, key=(int(other.split(":")[1]),), updates={"dosage": "later"}))
    gateway.drain()
    gateway.close()
    assert light.verified(operation_tx)
    assert (light.refusals, light.proofs_verified) == (0, 1)
    assert light.client.height == researcher_node.chain.height
    assert [n.block_number for n in system.server_app(patient).notifications] == [block.number]


def test_the_event_sent_with_a_proof_is_not_authenticated():
    """Pins a known gap: a header commits to transactions, not to receipts
    or events, so a validator can pair a forged ``SharedDataChanged`` with a
    transaction that was included but reverted, and the light peer accepts
    it.  Closing it needs a receipts root in the header."""
    system = _build(23)
    metadata_id = sorted(system.agreement_ids)[0]
    patient = f"patient-{metadata_id.split(':')[1]}"
    app = system.server_app(patient)
    light = _lights(system)[f"node-{patient}"]
    doctor_node = system.simulator.node("node-doctor")
    # The contract refuses a patient's write of ``dosage``: included, reverted,
    # no event, so the doctor's node serves the patient nothing for it.
    reverted = app.build_contract_call("request_update", {
        "metadata_id": metadata_id, "changed_attributes": ("dosage",),
        "diff_hash": "ab" * 32})
    system.simulator.submit_and_mine(doctor_node.name, reverted)
    assert not doctor_node.chain.receipt(reverted.tx_hash).success
    assert (light.proofs_verified, app.notifications) == (0, ())
    # A lying validator sends the reverted transaction with a forged event.
    number, _position = doctor_node.chain.location_of(reverted.tx_hash)
    forged = LogEntry(contract=reverted.contract, name="SharedDataChanged",
                      data={"metadata_id": metadata_id, "diff_hash": "ab" * 32,
                            "requester": reverted.sender, "notify_peers": [reverted.sender],
                            "update_id": 999, "operation": "update"},
                      block_number=number, tx_hash=reverted.tx_hash)
    transport = system.simulator.transport
    transport.send(doctor_node.name, light.name, "operation", {
        "transaction": reverted.to_dict(),
        "proof": build_inclusion_proof(doctor_node.chain, reverted.tx_hash).to_dict(),
        "event": forged.to_dict()})
    transport.flush()
    assert (light.refusals, light.proofs_verified) == (0, 1)
    assert [n.update_id for n in app.notifications] == [999]
