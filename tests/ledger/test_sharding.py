"""Sharded consensus lanes: router, the mempool's lanes, the lane scheduler
and the single-shard configuration."""

import pytest

from repro.config import ConsensusConfig, LedgerConfig, SystemConfig
from repro.crypto.keys import generate_keypair
from repro.errors import InvalidTransactionError
from repro.ledger.chain import Blockchain
from repro.ledger.clock import SimClock
from repro.ledger.lanes import HeldClock, LaneScheduler
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner
from repro.ledger.sharding import ShardRouter
from repro.ledger.transaction import Transaction

KEY = generate_keypair(seed=51)
OTHER = generate_keypair(seed=52)


def _tx(nonce, metadata_id="T1", method="request_update", keypair=KEY):
    return Transaction(
        sender=keypair.address, kind="call", nonce=nonce, contract="0xc" + "1" * 39,
        method=method, args={"metadata_id": metadata_id, "changed_attributes": ["a"],
                             "diff_hash": "h"},
        timestamp=0.0,
    ).signed_by(keypair)


def _transfer(nonce, keypair=KEY):
    return Transaction(sender=keypair.address, kind="transfer",
                       nonce=nonce).signed_by(keypair)


class TestShardRouter:
    def test_routing_is_stable_and_in_range(self):
        router = ShardRouter(4)
        for metadata_id in ("T1", "T2", "CARE:D13&D31", "D13&D31:1008"):
            shard = router.shard_of(metadata_id)
            assert 0 <= shard < 4
            assert router.shard_of(metadata_id) == shard  # deterministic

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert router.shard_of("anything") == 0
        assert router.shard_of_transaction(_tx(0)) == 0

    def test_transactions_route_by_metadata_id(self):
        router = ShardRouter(4)
        update = _tx(0, metadata_id="T7")
        ack = Transaction(sender=KEY.address, kind="call", nonce=1, contract="0xc",
                          method="acknowledge_update",
                          args={"metadata_id": "T7", "update_id": 1}).signed_by(KEY)
        # Both consensus rounds of a commit land on the same lane.
        assert router.shard_of_transaction(update) == router.shard_of("T7")
        assert router.shard_of_transaction(ack) == router.shard_of("T7")

    def test_control_traffic_takes_shard_zero(self):
        router = ShardRouter(4)
        assert router.shard_of_transaction(_transfer(0)) == 0
        deploy = Transaction(sender=KEY.address, kind="deploy", nonce=0,
                             method="SomeContract").signed_by(KEY)
        assert router.shard_of_transaction(deploy) == 0

    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestControlLaneReservation:
    """With more than one shard, lane 0 is reserved for control traffic and
    shared tables hash over lanes ``1..N-1`` only."""

    def test_tables_never_route_to_the_control_lane(self):
        for shards in (2, 3, 4, 8):
            router = ShardRouter(shards)
            lanes = {router.shard_of(f"D13&D31:{i}") for i in range(200)}
            assert 0 not in lanes
            assert lanes <= set(range(1, shards))

    def test_two_shards_put_every_table_on_lane_one(self):
        router = ShardRouter(2)
        assert all(router.shard_of(f"T{i}") == 1 for i in range(50))

    def test_control_and_table_traffic_never_share_a_lane(self):
        router = ShardRouter(4)
        assert router.shard_of_transaction(_transfer(0)) == 0
        assert router.shard_of_transaction(_tx(0, metadata_id="T1")) >= 1

    def test_single_shard_keeps_everything_on_lane_zero(self):
        router = ShardRouter(1)
        assert router.shard_of("T1") == 0
        assert router.shard_of_transaction(_transfer(0)) == 0


def _spread_ids(router):
    """One metadata id per *data* lane of ``router`` (found by probing the
    hash).  Lane 0 is reserved for control traffic when ``num_shards > 1``,
    so tables can only ever land on lanes ``1..N-1``."""
    data_lanes = 1 if router.num_shards == 1 else router.num_shards - 1
    ids, seen = [], set()
    index = 0
    while len(seen) < data_lanes and index < 10_000:
        metadata_id = f"SPREAD-{index}"
        shard = router.shard_of(metadata_id)
        if shard not in seen:
            seen.add(shard)
            ids.append(metadata_id)
        index += 1
    assert len(seen) == data_lanes
    return ids


class TestMempoolLanes:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_behaves_like_one_pool(self, shards):
        pool = Mempool(ShardRouter(shards))
        txs = [_tx(i, metadata_id=f"T{i}") for i in range(6)]
        hashes = pool.submit_many(txs)
        assert len(pool) == 6
        assert all(h in pool for h in hashes)
        # Global peek order is arrival order, across lanes.
        assert [t.nonce for t in pool.peek()] == [0, 1, 2, 3, 4, 5]
        assert len(pool.peek(limit=3)) == 3
        assert pool.get(hashes[2]) is txs[2]
        removed = pool.remove([hashes[0], hashes[5]])
        assert removed == 2
        assert [t.nonce for t in pool.peek()] == [1, 2, 3, 4]
        assert [t.nonce for _s, t in pool.iter_entries()] == [1, 2, 3, 4]
        pool.clear()
        assert len(pool) == 0

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_duplicates_and_bad_signatures_rejected(self, shards):
        pool = Mempool(ShardRouter(shards))
        tx = _tx(0)
        pool.submit(tx)
        with pytest.raises(InvalidTransactionError):
            pool.submit(tx)
        with pytest.raises(InvalidTransactionError):
            pool.submit(Transaction(sender=KEY.address, kind="call", nonce=1))
        assert pool.rejected_count == 2

    def test_per_shard_iteration_and_depths(self):
        router = ShardRouter(4)
        pool = Mempool(router)
        ids = _spread_ids(router)
        for nonce, metadata_id in enumerate(ids):
            pool.submit(_tx(nonce, metadata_id=metadata_id))
        depths = pool.shard_depths()
        assert sum(depths) == len(ids)
        assert depths[0] == 0  # the control lane holds no table traffic
        assert all(depth >= 1 for depth in depths[1:])
        for shard in range(4):
            for _seq, tx in pool.iter_entries(shard=shard):
                assert router.shard_of_transaction(tx) == shard

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_next_nonce_sees_all_shards(self, shards):
        router = ShardRouter(shards)
        pool = Mempool(router)
        ids = _spread_ids(router)
        for nonce in range(3):
            pool.submit(_tx(nonce, metadata_id=ids[nonce % len(ids)]))
        pool.submit(_transfer(0, keypair=OTHER))
        assert pool.next_nonce(KEY.address, confirmed_nonce=0) == 3
        assert pool.next_nonce(OTHER.address, confirmed_nonce=0) == 1


def _sharded_setup(shards, block_interval=2.0, max_txs=64):
    config = LedgerConfig(
        consensus=ConsensusConfig(kind="poa", block_interval=block_interval),
        max_transactions_per_block=max_txs,
        consensus_shards=shards,
    )
    chain = Blockchain(config)
    router = ShardRouter(shards)
    mempool = Mempool(router)
    clock = SimClock()
    miner = Miner(chain, mempool, clock)
    return chain, mempool, clock, miner, router


class TestLaneScheduler:
    def test_lanes_share_one_interval(self):
        """Blocks for different shards are sealed inside the same simulated
        block interval: the clock advances once, not once per block."""
        chain, pool, clock, miner, router = _sharded_setup(4, block_interval=2.0)
        ids = _spread_ids(router)
        for nonce, metadata_id in enumerate(ids):
            pool.submit(_tx(nonce, metadata_id=metadata_id))
        pool.submit(_transfer(0, keypair=OTHER))  # control lane 0
        blocks = miner.mine_interval()
        assert len(blocks) == 4  # one per lane with pending work
        assert clock.now() == pytest.approx(2.0)
        assert len({block.timestamp for block in blocks}) == 1
        assert chain.height == 4
        assert chain.verify_chain()

    def test_same_shard_transactions_still_serialise(self):
        chain, pool, clock, miner, router = _sharded_setup(4)
        pool.submit(_tx(0, metadata_id="SAME"))
        pool.submit(_tx(1, metadata_id="SAME"))
        first = miner.mine_interval()
        assert len(first) == 1 and len(first[0].transactions) == 1
        second = miner.mine_interval()
        assert len(second) == 1
        assert clock.now() == pytest.approx(4.0)  # two intervals

    def test_lane_statistics_account_blocks_per_lane(self):
        chain, pool, clock, miner, router = _sharded_setup(4)
        ids = _spread_ids(router)
        for nonce, metadata_id in enumerate(ids):
            pool.submit(_tx(nonce, metadata_id=metadata_id))
        miner.mine_until_empty()
        stats = miner.lane_statistics()
        assert stats["lanes"] == 4
        assert stats["intervals"] == 1
        assert stats["blocks_per_lane"][0] == 0  # reserved control lane idle
        assert sum(stats["blocks_per_lane"]) == len(ids)
        assert sum(stats["transactions_per_lane"]) == len(ids)

    def test_unsharded_miner_runs_one_lane(self):
        _chain, pool, _clock, miner, _router = _sharded_setup(1)
        pool.submit(_tx(0))
        miner.mine_until_empty()
        stats = miner.lane_statistics()
        assert stats["lanes"] == 1
        assert stats["blocks_per_lane"] == [1] and stats["intervals"] == 1

    def test_held_clock_never_advances(self):
        clock = SimClock()
        held = HeldClock(clock)
        held.advance(10.0)
        held.advance_to(99.0)
        assert clock.now() == 0.0 and held.now() == 0.0

    def test_scheduler_requires_a_lane(self):
        _chain, _pool, _clock, miner, _router = _sharded_setup(2)
        with pytest.raises(ValueError):
            LaneScheduler(miner, 0)


class TestSingleShardEquivalence:
    """consensus_shards=1 is the default configuration, block for block."""

    def test_block_sequence_identical_to_default_config(self):
        def run(config):
            chain = Blockchain(config)
            mempool = Mempool(ShardRouter(config.consensus_shards))
            miner = Miner(chain, mempool, SimClock())
            mempool.submit_many(
                [_tx(i, metadata_id=f"T{i % 3}") for i in range(8)])
            miner.mine_until_empty()
            return [block.block_hash for block in chain.blocks]

        default = LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=2.0))
        explicit = LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=2.0),
            consensus_shards=1)
        assert run(default) == run(explicit)

    def test_system_config_surfaces_shard_count(self):
        assert SystemConfig().consensus_shards == 1
        assert SystemConfig.private_chain(2.0, consensus_shards=4).consensus_shards == 4

    def test_config_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            LedgerConfig(consensus_shards=0)
