"""The per-process signature memo is exact, bounded, and invisible to callers."""

import dataclasses

import pytest

from repro.contracts.base import CallContext
from repro.contracts.sharing_contract import SharedDataContract, fold_attestation_payload
from repro.crypto import signatures
from repro.crypto.keys import generate_keypair
from repro.crypto.signatures import Signature, sign, verify
from repro.errors import PermissionDenied
from repro.ledger import transaction as transaction_module
from repro.ledger.transaction import Transaction
from repro.network.simulator import NetworkSimulator

ALICE = generate_keypair(seed=71)
MALLORY = generate_keypair(seed=72)


def signed_call(**overrides):
    fields = dict(sender=ALICE.address, kind="call", nonce=3, contract="0xc", method="request_update",
                  args={"metadata_id": "m", "changed_attributes": ["dosage"]}, timestamp=5.0)
    fields.update(overrides)
    return Transaction(**fields).signed_by(ALICE)


def with_fields(tx, **changes):
    """A copy of ``tx`` carrying its signature but with some fields replaced."""
    fields = {f.name: getattr(tx, f.name) for f in dataclasses.fields(tx)}
    fields["args"], fields["payload"] = dict(tx.args), dict(tx.payload)
    fields.update(changes)
    return Transaction(**fields)


class TestMemoCannotBeFooled:
    def test_a_cached_signature_does_not_vouch_for_a_changed_transaction(self):
        tx = signed_call()
        assert tx.verify_signature() and tx.verify_signature()  # computed, then cached
        forgeries = [
            with_fields(tx, args={"metadata_id": "m", "changed_attributes": ["address"]}),
            with_fields(tx, nonce=4),
            with_fields(tx, method="request_delete"),
            with_fields(tx, timestamp=6.0),
            with_fields(tx, sender_public_key=MALLORY.public_key),
            with_fields(tx, sender=MALLORY.address, sender_public_key=MALLORY.public_key),
        ]
        for forged in forgeries:
            assert forged.signature == tx.signature
            assert not forged.verify_signature()
            assert not forged.verify_signature()  # and the cached answer is still False
        assert tx.verify_signature()

    def test_a_shared_decode_does_not_vouch_for_a_changed_payload(self):
        """The same forgeries arriving over the wire: ``from_dict`` shares an
        instance only with a payload equal to the one it was decoded from, so
        keeping the signature (the table's slot) and changing anything else
        decodes to a different, invalid transaction."""
        tx = signed_call(args={"metadata_id": "m", "view_spec": {"where": {"value": [190]}}})
        wire = tx.to_dict()
        genuine = Transaction.from_dict(wire)
        assert genuine.verify_signature() and genuine.verify_signature()
        forgeries = [
            {**wire, "args": {"metadata_id": "m", "view_spec": {"where": {"value": [191]}}}},
            {**wire, "nonce": 4},
            {**wire, "method": "request_delete"},
            {**wire, "timestamp": 6.0},
            {**wire, "sender_public_key": hex(MALLORY.public_key)},
            {**wire, "sender": MALLORY.address, "sender_public_key": hex(MALLORY.public_key)},
        ]
        for payload in forgeries:
            assert payload["signature"] == wire["signature"]
            forged = Transaction.from_dict(payload)
            assert forged is not genuine
            assert not forged.verify_signature()
            assert not forged.verify_signature()  # and the instance's answer is still False
            assert not Transaction.from_dict(dict(payload)).verify_signature()
        assert Transaction.from_dict(tx.to_dict()) is genuine
        assert genuine.verify_signature()

    def test_a_forged_signature_stays_invalid_on_requery(self):
        payload = {"action": "update"}
        good = sign(ALICE, payload)
        for forged in (Signature(good.commitment, good.response + 1),
                       Signature(good.commitment + 1, good.response),
                       sign(MALLORY, payload)):
            assert [verify(ALICE.public_key, payload, forged) for _ in range(3)] == [False] * 3
        assert verify(ALICE.public_key, payload, good)
        assert not verify(ALICE.public_key, {"action": "delete"}, good)

    def test_a_fold_attestation_is_not_replayable_for_another_diff(self):
        doctor, patient = generate_keypair(seed=73), generate_keypair(seed=74)
        contract = SharedDataContract()

        def call(caller, method, **args):
            contract._begin_call(CallContext(caller, 1, 1.0, "0xc"))
            try:
                return getattr(contract, method)(**args)
            finally:
                contract._end_call()

        call(doctor.address, "register_shared_table", metadata_id="m",
             sharing_peers={doctor.address: "Doctor", patient.address: "Patient"},
             write_permission={"dosage": ["Doctor"], "clinical_data": ["Patient"]},
             authority_role="Doctor")
        attestation = sign(patient, fold_attestation_payload("m", "diff-1", ["clinical_data"]))

        def folded(diff_hash):
            return call(doctor.address, "request_folded_update", metadata_id="m", diff_hash=diff_hash,
                        contributions=[
                            {"peer": doctor.address, "changed_attributes": ["dosage"]},
                            {"peer": patient.address, "changed_attributes": ["clinical_data"],
                             "public_key": hex(patient.public_key),
                             "attestation": attestation.to_dict()}])

        assert folded("diff-1")["update_id"] == 1  # verified, and now cached
        call(patient.address, "acknowledge_update", metadata_id="m", update_id=1)
        with pytest.raises(PermissionDenied, match="lacks a valid attestation"):
            folded("diff-2")


def test_the_memo_stays_under_its_bound():
    bound = signatures.VERIFY_MEMO_SIZE
    assert signatures._equation_holds.cache_info().maxsize == bound
    for index in range(10 * bound):
        # Tiny operands keep 40 960 distinct (and invalid) checks fast.
        assert not verify(1, {"n": index}, Signature(commitment=2, response=index + 2))
    info = signatures._equation_holds.cache_info()
    assert info.currsize == bound
    assert info.misses >= 10 * bound


def test_every_node_still_checks_at_admission_and_at_block_validation(monkeypatch):
    """Sharing saves the work, not the check: each of N nodes calls
    ``verify_signature`` once when the transaction enters its mempool and once
    when it validates the block — but the process decodes the transaction once
    and does the modular exponentiations once.

    The ``_equation_holds`` *hit* count this test used to pin (``2N - 1``) is
    gone on purpose: the N - 1 ``tx`` deliveries and N - 1 ``block``
    deliveries now decode to one shared frozen instance, which answers from
    its own verdict before the memo is consulted.  What repeats is the decode
    table's count — 1 miss, ``2(N - 1) - 1`` hits — and the memo serves the
    one check made on a second instance, the origin's own object."""
    calls = []
    real = Transaction.verify_signature
    monkeypatch.setattr(Transaction, "verify_signature",
                        lambda tx: calls.append(tx.tx_hash) or real(tx))
    network = NetworkSimulator()
    nodes = [network.add_node(f"node-{i}", is_miner=(i == 0)) for i in range(4)]
    tx = Transaction(sender=ALICE.address, kind="transfer", nonce=0,
                     timestamp=123.456).signed_by(ALICE)
    before = signatures._equation_holds.cache_info()
    decodes_before = transaction_module._decode_shared.cache_info()
    network.submit_transaction("node-1", tx)
    assert calls.count(tx.tx_hash) == len(nodes)  # mempool admission, every node
    blocks = network.mine()
    assert len(blocks) == 1 and network.in_consensus()
    assert all(node.chain.has_receipt(tx.tx_hash) for node in nodes)
    assert calls.count(tx.tx_hash) == 2 * len(nodes)  # + validate_block, every node
    after = signatures._equation_holds.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1  # the origin's object and the shared one
    decodes = transaction_module._decode_shared.cache_info()
    assert decodes.misses - decodes_before.misses == 1
    assert decodes.hits - decodes_before.hits == 2 * (len(nodes) - 1) - 1
