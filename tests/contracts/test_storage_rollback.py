"""Undo-journaled contract storage: rollback ≡ the old deepcopy snapshot/restore.

The snapshot-before-every-call implementation the journal replaced lives on
here as the oracle: a second contract instance is driven with deep-copy
snapshot/restore and must agree with the runtime-driven one after every call.
"""

import copy
import pickle
import random

import pytest

from repro.contracts import storage
from repro.contracts.base import CallContext, Contract
from repro.contracts.registry_contract import SharingRegistryContract
from repro.contracts.runtime import ContractRuntime
from repro.contracts.sharing_contract import SharedDataContract, fold_attestation_payload
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import generate_keypair
from repro.crypto.signatures import sign
from repro.errors import ContractError, ContractRevert
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction

KEYS = {role: generate_keypair(seed=900 + index)
        for index, role in enumerate(("Doctor", "Patient", "Researcher", "Outsider"))}
PEERS = {role: key.address for role, key in KEYS.items()}
TABLES = {
    "D13&D31": ({PEERS["Doctor"]: "Doctor", PEERS["Patient"]: "Patient"},
                {"medication_name": ["Doctor"], "dosage": ["Doctor"],
                 "clinical_data": ["Patient", "Doctor"]}, "Doctor"),
    "D23&D32": ({PEERS["Doctor"]: "Doctor", PEERS["Researcher"]: "Researcher"},
                {"medication_name": ["Doctor", "Researcher"],
                 "mechanism_of_action": ["Researcher"]}, "Researcher"),
}
ATTRIBUTES = ("medication_name", "dosage", "clinical_data", "mechanism_of_action", "bogus")
ADDRESS = "0xc" + "1" * 39


def storage_hash(contract):
    return hash_payload(contract.storage_snapshot())


def oracle_call(contract, context, method, args):
    """One call the way the runtime did it before the journal: deep-copy the
    storage, run, and on any failure put the copy back."""
    snapshot = copy.deepcopy(contract.storage_view())
    contract._begin_call(context)
    try:
        value = getattr(contract, method)(**args)
    except ContractRevert as exc:
        contract._end_call()
        for name in list(contract.storage_view()):
            del contract.__dict__[name]
        for name, saved in snapshot.items():
            setattr(contract, name, saved)
        return False, str(exc), ()
    events = contract._end_call()
    return True, value, tuple(event.to_dict() for event in events)


def random_call(rng, contract):
    """A (caller role, method, args) triple; about half of them must revert."""
    metadata_id = "D99" if rng.random() < 0.05 else rng.choice(list(TABLES))
    role = rng.choice(list(PEERS))
    attributes = rng.sample(ATTRIBUTES, rng.randint(0, 2))
    entry = contract.entries.get(metadata_id)
    if entry is not None and entry.pending_acks and rng.random() < 0.6:
        # Mostly acknowledge what is pending so the protocol makes progress.
        role = next(r for r, address in PEERS.items() if address == entry.pending_acks[0])
        latest = max(r.update_id for r in contract.history if r.metadata_id == metadata_id)
        update_id = rng.choice([latest] * 6 + [0, -1, len(contract.history) + 1, 1])
        return role, "acknowledge_update", {"metadata_id": metadata_id, "update_id": update_id}
    if entry is not None and rng.random() < 0.25:
        # A request that is valid unless acks are pending or permissions moved.
        role = rng.choice([r for r, address in PEERS.items() if address in entry.sharing_peers])
        writable = [a for a, roles in TABLES[metadata_id][1].items() if role in roles]
        if writable:
            return role, "request_update", {"metadata_id": metadata_id,
                                            "changed_attributes": [rng.choice(writable)],
                                            "diff_hash": f"{rng.random():.6f}"}
    method = rng.choice(sorted(set(SharedDataContract.abi()) - {"register_shared_table"}))
    if method in ("get_metadata", "pending_acknowledgements"):
        return role, method, {"metadata_id": metadata_id}
    if method == "list_metadata_ids":
        return role, method, {}
    if method == "entries_for_peer":
        return role, method, {"address": PEERS[rng.choice(list(PEERS))]}
    if method == "update_history":
        return role, method, {"metadata_id": rng.choice([None, metadata_id])}
    if method == "can_peer_write":
        return role, method, {"metadata_id": metadata_id, "address": PEERS[rng.choice(list(PEERS))],
                              "attribute": rng.choice(ATTRIBUTES)}
    if method in ("request_update", "request_create", "request_delete"):
        return role, method, {"metadata_id": metadata_id, "changed_attributes": attributes,
                              "diff_hash": f"{rng.random():.6f}"}
    if method == "acknowledge_update":
        return role, method, {"metadata_id": metadata_id,
                              "update_id": rng.randint(-1, len(contract.history) + 1)}
    if method == "change_permission":
        return role, method, {"metadata_id": metadata_id, "attribute": rng.choice(ATTRIBUTES),
                              "new_writers": rng.sample(["Doctor", "Patient", "Researcher", "Nurse"],
                                                        rng.randint(0, 2))}
    if method == "transfer_authority":
        return role, method, {"metadata_id": metadata_id,
                              "new_authority_role": rng.choice(["Doctor", "Patient", "Researcher"])}
    assert method == "request_folded_update", method
    diff_hash = f"{rng.random():.6f}"
    contributions = []
    for peer_role in rng.sample(list(PEERS), rng.randint(0, 3)):
        changed = rng.sample(ATTRIBUTES[:4], rng.randint(0, 2))
        contribution = {"peer": PEERS[peer_role], "changed_attributes": changed}
        if rng.random() < 0.8:  # the rest lack (or carry a replayed) attestation
            signed_hash = diff_hash if rng.random() < 0.8 else "another-diff"
            contribution["public_key"] = hex(KEYS[peer_role].public_key)
            contribution["attestation"] = sign(KEYS[peer_role], fold_attestation_payload(
                metadata_id, signed_hash, changed)).to_dict()
        contributions.append(contribution)
    return role, method, {"metadata_id": metadata_id, "contributions": contributions,
                          "diff_hash": diff_hash}


@pytest.mark.parametrize("seed", range(8))
def test_journal_rollback_agrees_with_the_deepcopy_oracle(seed):
    rng = random.Random(seed)
    runtime, state = ContractRuntime(), WorldState()
    contract, oracle = SharedDataContract(), SharedDataContract()
    state.deploy_contract(ADDRESS, contract)
    calls = [("Doctor" if "D13" in mid else "Researcher", "register_shared_table",
              {"metadata_id": mid, "sharing_peers": peers, "write_permission": permission,
               "authority_role": authority})
             for mid, (peers, permission, authority) in TABLES.items()]
    exercised, reverts, static_calls = set(), 0, 0
    for index in range(600):
        role, method, args = calls[index] if index < len(calls) else random_call(rng, contract)
        exercised.add(method)
        before = storage_hash(contract)
        if index >= len(calls) and rng.random() < 0.25:
            # A static call never changes storage, whatever the method does.
            static_calls += 1
            try:
                runtime.static_call(state, ADDRESS, method, caller=PEERS[role], **args)
            except ContractRevert:
                pass
            assert storage_hash(contract) == before
            assert contract._ctx is None and storage._call.journal is None
            continue
        tx = Transaction(sender=PEERS[role], kind="call", nonce=index, contract=ADDRESS,
                         method=method, args=args, timestamp=float(index)).signed_by(KEYS[role])
        receipt = runtime.execute(tx, state, block_number=index, timestamp=float(index))
        expected = oracle_call(oracle, CallContext(PEERS[role], index, float(index), ADDRESS),
                               method, dict(tx.args))
        assert (receipt.success, receipt.return_value if receipt.success else receipt.error,
                receipt.events) == expected
        assert storage_hash(contract) == storage_hash(oracle)
        assert contract._ctx is None and storage._call.journal is None
        if not receipt.success:
            reverts += 1
            assert storage_hash(contract) == before
    assert exercised == set(SharedDataContract.abi())
    assert reverts >= 0.3 * (600 - static_calls), (reverts, static_calls)
    assert len(contract.history) > 20  # and the protocol still made progress


class Toy(Contract):
    """Touches storage in every way a contract author can."""

    def __init__(self):
        super().__init__()
        self.table = {"a": 1, "b": {"deep": [1, 2, {"deeper": "x"}]}, "c": 3, "d": 4}
        self.items = [3, 1, 2, [10, 20], {"k": "v"}]
        self.pair = (1, [2, 3])
        self.doomed = "gone after del"

    def mutate_everything(self, fail):
        self.table["a"] = 100                      # __setitem__ overwrite
        self.table["new"] = {"nested": []}         # __setitem__ insert
        self.table["new"]["nested"].append("n")    # a container adopted this call
        del self.table["c"]                        # __delitem__
        self.table.pop("d")
        self.table.setdefault("e", []).append(1)
        self.table.update({"f": [1]}, g=2)
        self.table |= {"h": {"i": 1}}
        self.table["b"]["deep"][2]["deeper"] = "y"  # nested, three levels down
        self.table["b"].popitem()
        self.items.append(4)
        self.items.extend([5, [6]])
        self.items += [7]
        self.items.insert(0, {"first": True})
        self.items[1] = "one"                      # index assign
        self.items[2:4] = ["s", ["t"]]             # slice assign
        del self.items[0]                          # index delete
        del self.items[-2:]                        # slice delete
        self.items.remove("one")
        self.items.pop()
        self.items[2].append(30)                   # nested list from the constructor
        self.items[1].append("u")                  # nested list adopted by the slice assign
        self.items *= 2
        self.pair[1].append(4)                     # a list inside a tuple
        self.items.reverse()
        self.items.sort(key=repr)
        self.fresh = {"attribute": ["new"]}        # new attribute
        self.fresh["attribute"].clear()
        del self.doomed                            # del self.x
        if fail == "late":
            self.table.clear()
            self.items.clear()
        self.require(not fail, "toy revert")
        return "kept"

    def hold_a_set(self):
        self.bad = {1, 2}


CONTEXT = CallContext(caller="0xa", block_number=1, timestamp=1.0, contract_address="0xtoy")


def test_every_container_mutator_is_rolled_back():
    toy = Toy()
    before, order = storage_hash(toy), list(toy.table)
    for fail in ("early", "late"):
        toy._begin_call(CONTEXT)
        with pytest.raises(ContractRevert):
            toy.mutate_everything(fail=fail)
        toy._end_call(revert=True)
        assert storage_hash(toy) == before
        assert list(toy.table) == order  # insertion order survives too
        assert toy.doomed == "gone after del" and not hasattr(toy, "fresh")
    # The same mutations stick when the call succeeds, and match plain containers.
    toy._begin_call(CONTEXT)
    assert toy.mutate_everything(fail="") == "kept"
    toy._end_call()
    assert storage_hash(toy) != before and not hasattr(toy, "doomed")
    assert toy.fresh == {"attribute": []} and toy.pair == (1, [2, 3, 4])


def test_untrackable_values_are_rejected_at_assignment():
    toy = Toy()
    with pytest.raises(TypeError, match="cannot hold a set"):
        toy.hold_a_set()
    for value in ({1}, object(), {"nested": [bytearray(b"x")]}, (1, [set()])):
        with pytest.raises(TypeError):
            toy.items.append(value)
        with pytest.raises(TypeError):
            toy.table["k"] = value


def test_storage_copies_and_pickles_to_plain_containers():
    contract = SharedDataContract()
    contract._begin_call(CONTEXT)
    contract.register_shared_table("m", {"0xa": "Doctor"}, {"x": ["Doctor"]}, "Doctor",
                                   view_spec={"columns": ["x"]})
    contract.request_update("m", ["x"], "h")
    contract._end_call()

    def assert_plain(value):
        if isinstance(value, (dict, list)):
            assert type(value) in (dict, list), type(value)
        children = (value.values() if isinstance(value, dict)
                    else value if isinstance(value, (list, tuple))
                    else vars(value).values() if hasattr(value, "__dict__") else ())
        for child in children:
            assert_plain(child)

    live = contract.storage_view()
    assert isinstance(live["entries"], storage.TrackedDict)
    for clone in (copy.deepcopy(live), pickle.loads(pickle.dumps(live)),
                  contract.storage_snapshot()):
        assert_plain(clone)
        assert hash_payload(clone) == hash_payload(live)
    assert type(copy.copy(live["history"])) is list


def test_per_call_cost_is_flat_in_history_length(monkeypatch):
    """2 000 update+ack pairs: no deepcopy on the success path, and call
    #2000 journals exactly as many mutations as call #10."""
    def no_deepcopy(*_args, **_kwargs):
        raise AssertionError("copy.deepcopy reached from the execute path")

    journal_lengths = []
    real_end = storage.end

    def measuring_end(revert):
        journal_lengths.append(len(storage._call.journal))
        real_end(revert)

    runtime, state, contract = ContractRuntime(), WorldState(), SharedDataContract()
    state.deploy_contract(ADDRESS, contract)
    peers, permission, authority = TABLES["D13&D31"]
    doctor, patient = PEERS["Doctor"], PEERS["Patient"]

    def execute(sender, method, **args):
        tx = Transaction(sender=sender, kind="call", nonce=0, contract=ADDRESS,
                         method=method, args=args)
        receipt = runtime.execute(tx, state, block_number=1, timestamp=1.0)
        assert receipt.success, receipt.error
        return receipt

    execute(doctor, "register_shared_table", metadata_id="m", sharing_peers=peers,
            write_permission=permission, authority_role=authority)
    monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
    monkeypatch.setattr(storage, "end", measuring_end)
    for pair in range(1, 2001):
        execute(doctor, "request_update", metadata_id="m", changed_attributes=["dosage"])
        execute(patient, "acknowledge_update", metadata_id="m", update_id=pair)
        assert runtime.static_call(state, ADDRESS, "can_peer_write", metadata_id="m",
                                   address=patient, attribute="clinical_data") is True
    monkeypatch.undo()
    per_pair = [tuple(journal_lengths[i:i + 3]) for i in range(0, len(journal_lengths), 3)]
    assert len(per_pair) == 2000 and per_pair[1999] == per_pair[9]
    assert per_pair[9][2] == 0  # the read-only probe journals nothing
    assert len(contract.history) == 2000 and runtime.statistics["reverts"] == 0


def test_mutating_a_receipt_does_not_touch_contract_storage():
    """Regression: ``register_agreement`` and ``change_permission`` used to
    return the very dict they stored, so a receipt was a handle into storage."""
    runtime, state = ContractRuntime(), WorldState()
    sharing, registry = SharedDataContract(), SharingRegistryContract()
    state.deploy_contract(ADDRESS, sharing)
    state.deploy_contract("0xregistry", registry)
    peers, permission, authority = TABLES["D13&D31"]
    doctor = PEERS["Doctor"]

    def execute(contract, method, **args):
        tx = Transaction(sender=doctor, kind="call", nonce=0, contract=contract,
                         method=method, args=args)
        receipt = runtime.execute(tx, state, block_number=1, timestamp=1.0)
        assert receipt.success, receipt.error
        return receipt

    execute(ADDRESS, "register_shared_table", metadata_id="m", sharing_peers=peers,
            write_permission=permission, authority_role=authority)
    receipts = [
        execute("0xregistry", "register_agreement", metadata_id="m", contract_address=ADDRESS),
        execute(ADDRESS, "change_permission", metadata_id="m", attribute="dosage",
                new_writers=["Doctor", "Patient"]),
        execute(ADDRESS, "request_update", metadata_id="m", changed_attributes=["dosage"]),
    ]
    root = state.state_root()
    for receipt in receipts:
        for value in list(receipt.return_value.values()):
            if isinstance(value, list):
                value.append("tampered")
        receipt.return_value["tampered"] = True
        for event in receipt.events:
            event["data"]["tampered"] = True
            for value in event["data"].values():
                if isinstance(value, list):
                    value.append("tampered")
    assert state.state_root() == root
    assert "tampered" not in registry.agreements["m"]
    assert sharing.permission_changes[0]["new"] == ["Doctor", "Patient"]


def test_a_crashing_method_is_rolled_back_like_a_revert():
    class Crashy(Toy):
        def crash_late(self):
            self.table["a"] = "dirty"
            self.items.clear()
            raise RuntimeError("contract bug")

    runtime, state, toy = ContractRuntime(), WorldState(), Crashy()
    state.deploy_contract("0xtoy", toy)
    before = storage_hash(toy)
    tx = Transaction(sender="0xa", kind="call", nonce=0, contract="0xtoy", method="crash_late")
    with pytest.raises(ContractError):
        runtime.execute(tx, state, block_number=1, timestamp=1.0)
    assert storage_hash(toy) == before
    assert toy._ctx is None and storage._call.journal is None
