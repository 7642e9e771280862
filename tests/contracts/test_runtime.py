"""Tests for the contract runtime (deploy, call, revert, static calls)."""

import pytest

from repro.contracts.base import CallContext, Contract
from repro.contracts.runtime import ContractRuntime, contract_address_for
from repro.crypto.keys import generate_keypair
from repro.errors import ContractError, ContractNotFoundError
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction

KEY = generate_keypair(seed=55)


class Counter(Contract):
    """A tiny contract used to exercise the runtime."""

    def __init__(self, start: int = 0):
        super().__init__()
        self.value = start
        self.history = []

    def increment(self, by: int = 1):
        self.require(by > 0, "increment must be positive")
        self.value += by
        self.history.append((self.ctx.caller, by))
        self.emit("Incremented", by=by, value=self.value)
        return self.value

    def current(self):
        return self.value

    def crash(self):
        raise RuntimeError("contract bug")


@pytest.fixture
def runtime():
    runtime = ContractRuntime()
    runtime.register_contract_class(Counter)
    return runtime


@pytest.fixture
def state():
    return WorldState()


def _deploy(runtime, state, args=None):
    tx = Transaction(sender=KEY.address, kind="deploy", nonce=0, method="Counter",
                     args=args or {}).signed_by(KEY)
    receipt = runtime.execute(tx, state, block_number=1, timestamp=1.0)
    return receipt


def _call(runtime, state, address, method, nonce=1, **args):
    tx = Transaction(sender=KEY.address, kind="call", nonce=nonce, contract=address,
                     method=method, args=args).signed_by(KEY)
    return runtime.execute(tx, state, block_number=2, timestamp=2.0)


class TestDeploy:
    def test_successful_deploy(self, runtime, state):
        receipt = _deploy(runtime, state, {"start": 5})
        assert receipt.success
        assert receipt.contract_address
        contract = state.contract_at(receipt.contract_address)
        assert isinstance(contract, Counter)
        assert contract.value == 5

    def test_deploy_address_is_deterministic(self, runtime, state):
        receipt = _deploy(runtime, state)
        assert receipt.contract_address == contract_address_for(KEY.address, 0)

    def test_unknown_class(self, runtime, state):
        tx = Transaction(sender=KEY.address, kind="deploy", nonce=0,
                         method="Mystery").signed_by(KEY)
        receipt = runtime.execute(tx, state, 1, 1.0)
        assert not receipt.success
        assert "unknown contract class" in receipt.error

    def test_constructor_error(self, runtime, state):
        receipt = _deploy(runtime, state, {"bogus_argument": 1})
        assert not receipt.success
        assert "constructor error" in receipt.error

    def test_registered_classes(self, runtime):
        assert "Counter" in runtime.registered_classes()


class TestCall:
    def test_successful_call_mutates_and_emits(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        receipt = _call(runtime, state, address, "increment", by=3)
        assert receipt.success
        assert receipt.return_value == 3
        assert state.contract_at(address).value == 3
        assert receipt.events[0]["name"] == "Incremented"
        assert receipt.events[0]["data"]["value"] == 3

    def test_revert_rolls_back_storage(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        _call(runtime, state, address, "increment", by=2)
        receipt = _call(runtime, state, address, "increment", nonce=2, by=-1)
        assert not receipt.success
        assert "positive" in receipt.error
        assert state.contract_at(address).value == 2
        assert receipt.events == ()

    def test_call_missing_contract(self, runtime, state):
        receipt = _call(runtime, state, "0xc" + "9" * 39, "increment")
        assert not receipt.success
        assert "no contract" in receipt.error

    def test_call_missing_method(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        receipt = _call(runtime, state, address, "does_not_exist")
        assert not receipt.success
        assert "no method" in receipt.error

    def test_private_method_not_callable(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        receipt = _call(runtime, state, address, "_begin_call")
        assert not receipt.success

    def test_non_revert_exception_surfaces_as_contract_error(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        with pytest.raises(ContractError):
            _call(runtime, state, address, "crash")

    def test_transfer_has_no_contract_semantics(self, runtime, state):
        tx = Transaction(sender=KEY.address, kind="transfer", nonce=0).signed_by(KEY)
        receipt = runtime.execute(tx, state, 1, 1.0)
        assert receipt.success

    def test_statistics_track_calls_and_reverts(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        _call(runtime, state, address, "increment", by=1)
        _call(runtime, state, address, "increment", nonce=2, by=-1)
        assert runtime.statistics["calls"] == 2
        assert runtime.statistics["reverts"] == 1


class TestStaticCall:
    def test_static_call_reads_without_mutating(self, runtime, state):
        address = _deploy(runtime, state, {"start": 7}).contract_address
        assert runtime.static_call(state, address, "current") == 7

    def test_static_call_rolls_back_mutations(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        runtime.static_call(state, address, "increment", by=5)
        assert state.contract_at(address).value == 0
        assert state.contract_at(address).history == []

    def test_static_call_unknown_contract(self, runtime, state):
        with pytest.raises(ContractNotFoundError):
            runtime.static_call(state, "0xmissing", "current")

    def test_static_call_unknown_method(self, runtime, state):
        address = _deploy(runtime, state).contract_address
        with pytest.raises(ContractError):
            runtime.static_call(state, address, "nope")


class TestContractBase:
    def test_ctx_outside_call_rejected(self):
        contract = Counter()
        from repro.errors import ContractRevert
        with pytest.raises(ContractRevert):
            _ = contract.ctx

    def test_abi_lists_public_methods(self):
        abi = Counter.abi()
        assert "increment" in abi and "current" in abi
        assert not any(name.startswith("_") for name in abi)

    def test_storage_snapshot_and_restore(self):
        contract = Counter(start=1)
        snapshot = contract.storage_snapshot()
        contract._begin_call(CallContext(caller="0xa", block_number=1, timestamp=1.0,
                                         contract_address="0xc"))
        contract.value = 99
        contract.history.append(("0xa", 98))
        assert snapshot == {"value": 1, "history": []}  # detached from live storage
        contract._end_call(revert=True)
        assert contract.value == 1
        assert contract.storage_snapshot() == snapshot
