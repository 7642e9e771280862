"""Per-shard block-production lanes.

One miner, many lanes: each consensus shard gets its own *lane* that builds
and seals a block from its shard of the mempool.  A :class:`LaneScheduler`
interleaves the lanes round-robin inside one simulated block interval — the
clock advances **once per interval**, not once per block — so independent
shared tables no longer queue behind each other for block space.  Sealing
work (PoW hash attempts) and produced blocks are accounted per lane.

Every miner has one: an unsharded ledger is the one-lane case, which seals at
most one block per interval.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ledger.block import Block
    from repro.ledger.miner import Miner


class HeldClock:
    """A clock view whose ``advance`` is a no-op.

    Lanes after the first in an interval seal with this wrapper: they share
    the interval the first lane already paid for, so their blocks carry the
    same timestamp and the simulated time advances once per interval.
    """

    def __init__(self, clock):
        self._clock = clock

    def now(self) -> float:
        return self._clock.now()

    def advance(self, seconds: float) -> float:
        return self._clock.now()

    def advance_to(self, timestamp: float) -> float:
        return self._clock.now()


class LaneScheduler:
    """Round-robin interleaving of per-shard mining lanes."""

    def __init__(self, miner: "Miner", num_lanes: int):
        if num_lanes < 1:
            raise ValueError("a lane scheduler needs at least one lane")
        self.miner = miner
        self.num_lanes = num_lanes
        self._next_lane = 0
        self.intervals = 0
        self.blocks_per_lane: List[int] = [0] * num_lanes
        self.transactions_per_lane: List[int] = [0] * num_lanes
        self.sealing_work_per_lane: List[int] = [0] * num_lanes

    def mine_interval(self) -> List["Block"]:
        """Produce at most one block per lane within one block interval.

        Lanes are visited round-robin starting from a rotating cursor; the
        first lane that seals advances the clock by the block interval and
        every later lane in the same pass seals against a :class:`HeldClock`.
        Returns the blocks in production order (empty when no lane had work).
        """
        blocks: List["Block"] = []
        start = self._next_lane
        for offset in range(self.num_lanes):
            lane = (start + offset) % self.num_lanes
            seal_clock = self.miner.clock if not blocks else HeldClock(self.miner.clock)
            with self.miner.tracer.span("lane.mine", shard=lane) as span:
                block = self.miner.mine_block(shard=lane, seal_clock=seal_clock)
                span.annotate(transactions=(len(block.transactions)
                                            if block is not None else 0))
            if block is None:
                continue
            blocks.append(block)
            self.blocks_per_lane[lane] += 1
            self.transactions_per_lane[lane] += len(block.transactions)
            self.sealing_work_per_lane[lane] += self.miner.chain.consensus.sealing_work()
        if blocks:
            self.intervals += 1
            self._next_lane = (start + 1) % self.num_lanes
        return blocks

    def statistics(self) -> dict:
        """Per-lane production counters (benchmarks and gateway metrics)."""
        return {
            "lanes": self.num_lanes,
            "intervals": self.intervals,
            "blocks_per_lane": list(self.blocks_per_lane),
            "transactions_per_lane": list(self.transactions_per_lane),
            "sealing_work_per_lane": list(self.sealing_work_per_lane),
        }
