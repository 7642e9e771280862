"""Thread races: admission-time ``static_call`` probes vs a replica applying blocks.

Threads line up on a barrier (no sleeps).  One thread replays "blocks" of
succeeding calls and of calls that scramble the permission table and *then*
revert; the probe threads ask ``can_peer_write`` the whole time.  The journal
undoes a revert in place, so without ``execution_lock`` a probe could see the
scrambled table — any ``False`` answer is a half-applied or half-rolled-back
call leaking out.
"""

import sys
import threading

import pytest

from repro.contracts import storage
from repro.contracts.runtime import ContractRuntime
from repro.contracts.sharing_contract import SharedDataContract
from repro.crypto.hashing import hash_payload
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction

pytestmark = [pytest.mark.slow]

DOCTOR, PATIENT = "0xd0c" + "0" * 37, "0xpa7" + "0" * 37
ADDRESS = "0xc" + "2" * 39
ROUNDS = 150
PROBES = 4


class Scrambling(SharedDataContract):
    def scramble_then_revert(self, metadata_id: str) -> None:
        entry = self.entries[metadata_id]
        entry.write_permission["clinical_data"] = []
        entry.sharing_peers.clear()
        entry.pending_acks = ["0xnobody"]
        del self.entries[metadata_id]
        self.require(False, "scrambled on purpose")


def test_probes_never_observe_a_half_rolled_back_call():
    runtime, state, contract = ContractRuntime(), WorldState(), Scrambling()
    state.deploy_contract(ADDRESS, contract)
    nonce = iter(range(10 ** 6))

    def execute(sender, method, **args):
        tx = Transaction(sender=sender, kind="call", nonce=next(nonce), contract=ADDRESS,
                         method=method, args=args)
        return runtime.execute(tx, state, block_number=1, timestamp=1.0)

    assert execute(DOCTOR, "register_shared_table", metadata_id="m",
                   sharing_peers={DOCTOR: "Doctor", PATIENT: "Patient"},
                   write_permission={"dosage": ["Doctor"], "clinical_data": ["Patient", "Doctor"]},
                   authority_role="Doctor").success
    barrier = threading.Barrier(PROBES + 1)
    done = threading.Event()
    errors, probes_made = [], [0] * PROBES

    def probe_loop(slot):
        try:
            barrier.wait(timeout=30)
            while not done.is_set():
                allowed = runtime.static_call(state, ADDRESS, "can_peer_write", metadata_id="m",
                                              address=PATIENT, attribute="clinical_data")
                assert allowed is True, "probe saw a scrambled permission table"
                assert storage._call.journal is None, "probe left its journal armed"
                with state.execution_lock:
                    assert contract._ctx is None, "a call was left open"
                probes_made[slot] += 1
        except Exception as exc:  # noqa: BLE001 - surfaced in the assert
            errors.append(f"probe {slot}: {type(exc).__name__}: {exc}")

    def replay_blocks():
        try:
            barrier.wait(timeout=30)
            for update_id in range(1, ROUNDS + 1):
                before = hash_payload(contract.storage_view())
                assert not execute(DOCTOR, "scramble_then_revert", metadata_id="m").success
                assert not execute("0xoutsider", "request_update", metadata_id="m",
                                   changed_attributes=["dosage"]).success
                assert hash_payload(contract.storage_view()) == before
                assert execute(DOCTOR, "request_update", metadata_id="m",
                               changed_attributes=["dosage"]).success
                assert execute(PATIENT, "acknowledge_update", metadata_id="m",
                               update_id=update_id).success
                assert storage._call.journal is None
        except Exception as exc:  # noqa: BLE001 - surfaced in the assert
            errors.append(f"replica: {type(exc).__name__}: {exc}")
        finally:
            done.set()

    threads = [threading.Thread(target=probe_loop, args=(slot,), daemon=True)
               for slot in range(PROBES)]
    threads.append(threading.Thread(target=replay_blocks, daemon=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(count > 0 for count in probes_made)
    assert len(contract.history) == ROUNDS
    assert runtime.statistics == {"calls": 1 + 4 * ROUNDS, "reverts": 2 * ROUNDS}
    assert contract._ctx is None and storage._call.journal is None
