"""The write scheduler: grouping, batching limits and conflict serialisation."""

from repro.gateway.requests import (
    DeleteEntryRequest,
    InsertEntryRequest,
    UpdateEntryRequest,
)
from repro.gateway.scheduler import PendingWrite, WriteScheduler


def _write(request_id, peer, request, enqueued_at=0.0):
    return PendingWrite(request_id=request_id, tenant=peer, peer=peer,
                        request=request, enqueued_at=enqueued_at)


def _update(metadata_id, key, attribute="clinical_data", value="x"):
    return UpdateEntryRequest(metadata_id=metadata_id, key=key,
                              updates={attribute: value})


class TestGrouping:
    def test_same_peer_same_table_edits_fold_into_one_group(self):
        scheduler = WriteScheduler()
        for index, key in enumerate([(1,), (2,), (3,)]):
            scheduler.enqueue(_write(f"r{index}", "doctor", _update("T1", key)))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert len(plan.groups[0].edits) == 3
        assert plan.size == 3
        assert scheduler.queue_depth == 0

    def test_different_tables_become_parallel_groups(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "patient-1", _update("T1", (1,))))
        scheduler.enqueue(_write("r2", "patient-2", _update("T2", (2,))))
        scheduler.enqueue(_write("r3", "patient-3", _update("T3", (3,))))
        plan = scheduler.plan()
        assert len(plan.groups) == 3
        assert {group.metadata_id for group in plan.groups} == {"T1", "T2", "T3"}

    def test_operations_do_not_mix_within_a_group(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,))))
        scheduler.enqueue(_write("r2", "doctor", DeleteEntryRequest("T1", (2,))))
        plan = scheduler.plan()
        # The delete on the same table is deferred behind the update batch.
        assert len(plan.groups) == 1
        assert plan.groups[0].operation == "update"
        assert plan.deferred == 1
        assert scheduler.queue_depth == 1
        follow_up = scheduler.plan()
        assert follow_up.groups[0].operation == "delete"

    def test_inserts_group_together(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", InsertEntryRequest("T1", {"id": 5})))
        scheduler.enqueue(_write("r2", "doctor", InsertEntryRequest("T1", {"id": 6})))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert plan.groups[0].operation == "create"
        assert len(plan.groups[0].edits) == 2


class TestConflictSerialisation:
    def test_same_key_writes_serialise_across_batches_in_order(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("first", "doctor", _update("T1", (1,), value="v1")))
        scheduler.enqueue(_write("second", "doctor", _update("T1", (1,), value="v2")))
        scheduler.enqueue(_write("third", "doctor", _update("T1", (1,), value="v3")))
        batches = []
        while scheduler.queue_depth or not batches or not batches[-1].is_empty:
            plan = scheduler.plan()
            if plan.is_empty:
                break
            batches.append(plan)
        order = [plan.members[0][0].request_id for plan in batches]
        assert order == ["first", "second", "third"]
        assert all(len(plan.groups[0].edits) == 1 for plan in batches)

    def test_two_peers_with_overlapping_columns_serialise(self):
        """Overlapping attribute sets cannot fold: the second peer's write on
        the same column waits for the next batch (no lost updates)."""
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "clinical_data")))
        scheduler.enqueue(_write("r2", "patient", _update("T1", (2,), "clinical_data")))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert plan.groups[0].peer == "doctor"
        assert not plan.groups[0].folded
        assert plan.deferred == 1
        next_plan = scheduler.plan()
        assert next_plan.groups[0].peer == "patient"

    def test_two_peers_on_one_table_serialise_with_folding_disabled(self):
        """With the fold rule off, a shared table is owned by one peer per
        batch even when the attribute sets are disjoint (the pre-folding
        behaviour)."""
        scheduler = WriteScheduler(fold_cross_peer=False)
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "dosage")))
        scheduler.enqueue(_write("r2", "patient", _update("T1", (2,), "clinical_data")))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert plan.groups[0].peer == "doctor"
        assert plan.deferred == 1
        assert scheduler.folded_writes_total == 0
        next_plan = scheduler.plan()
        assert next_plan.groups[0].peer == "patient"

    def test_deferred_write_blocks_younger_same_key_writes(self):
        """A write deferred by the table claim still owns its row key: a
        younger write on that key must not overtake it into the batch (it
        would be overwritten when the older write commits later)."""
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("W1", "A", _update("T", (1,))))
        scheduler.enqueue(_write("W2", "B", _update("T", (2,))))  # deferred (table)
        scheduler.enqueue(_write("W3", "A", _update("T", (2,))))  # same key as W2
        first = scheduler.plan()
        assert [m.request_id for m in first.members[0]] == ["W1"]
        second = scheduler.plan()
        assert [m.request_id for m in second.members[0]] == ["W2"]
        third = scheduler.plan()
        assert [m.request_id for m in third.members[0]] == ["W3"]

    def test_deferral_does_not_lose_or_reorder_writes(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("a", "doctor", _update("T1", (1,))))
        scheduler.enqueue(_write("b", "patient", _update("T1", (1,))))
        scheduler.enqueue(_write("c", "doctor", _update("T2", (9,))))
        plan = scheduler.plan()
        # T1/doctor and T2/doctor commit; T1/patient waits its turn.
        assert {group.metadata_id for group in plan.groups} == {"T1", "T2"}
        assert scheduler.queue_depth == 1
        assert scheduler.pending()[0].request_id == "b"


class TestCrossPeerFolding:
    """The cross-peer merge rule: disjoint column sets on distinct rows fold
    into one group; anything that could lose an update still serialises."""

    def test_disjoint_columns_different_peers_fold_into_one_group(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "dosage")))
        scheduler.enqueue(_write("r2", "patient", _update("T1", (2,), "clinical_data")))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert group.folded
        assert group.peer == "doctor"  # requester = first arrival
        assert group.edit_peers == ("doctor", "patient")
        assert group.contributors == ("doctor", "patient")
        assert plan.deferred == 0
        assert plan.folded_writes == 1
        assert scheduler.folded_writes_total == 1
        assert scheduler.fold_rounds_saved == 2

    def test_overlapping_columns_still_serialise(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "dosage")))
        scheduler.enqueue(_write("r2", "patient",
                                 UpdateEntryRequest(metadata_id="T1", key=(2,),
                                                    updates={"dosage": "x",
                                                             "clinical_data": "y"})))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert not plan.groups[0].folded
        assert plan.deferred == 1
        assert scheduler.folded_writes_total == 0

    def test_same_conflict_key_still_serialises_across_batches(self):
        """Two peers editing the same row never share a batch, whatever the
        columns — the second write would silently win otherwise."""
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "dosage")))
        scheduler.enqueue(_write("r2", "patient", _update("T1", (1,), "clinical_data")))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert not plan.groups[0].folded
        assert plan.deferred == 1
        follow_up = scheduler.plan()
        assert follow_up.groups[0].peer == "patient"

    def test_folded_peer_keeps_adding_disjoint_edits(self):
        """Once folded in, a contributor's further writes on its own columns
        and fresh rows join the same group (no extra rounds-saved credit)."""
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "dosage")))
        scheduler.enqueue(_write("r2", "patient", _update("T1", (2,), "clinical_data")))
        scheduler.enqueue(_write("r3", "patient", _update("T1", (3,), "clinical_data")))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert plan.groups[0].edit_peers == ("doctor", "patient", "patient")
        assert plan.folded_writes == 2
        assert scheduler.fold_rounds_saved == 2  # one extra contributor, once

    def test_creates_and_deletes_never_fold_across_peers(self):
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "dosage")))
        scheduler.enqueue(_write("r2", "patient", InsertEntryRequest("T1", {"id": 9})))
        scheduler.enqueue(_write("r3", "patient", DeleteEntryRequest("T1", (2,))))
        plan = scheduler.plan()
        assert len(plan.groups) == 1
        assert not plan.groups[0].folded
        assert plan.deferred == 2

    def test_fold_never_reorders_a_tenants_writes_on_one_table(self):
        """Once a peer has a deferred write on a table, its later writes on
        that table defer too — folding must not let a tenant's newer write
        overtake its older one on-chain."""
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("W1", "doctor", _update("T1", (1,), "dosage")))
        # W2 overlaps the doctor's column -> deferred.
        scheduler.enqueue(_write("W2", "patient", _update("T1", (2,), "dosage")))
        # W3 would fold (disjoint column), but W2 must commit first.
        scheduler.enqueue(_write("W3", "patient", _update("T1", (3,), "clinical_data")))
        first = scheduler.plan()
        assert [m.request_id for m in first.members[0]] == ["W1"]
        assert first.deferred == 2
        second = scheduler.plan()
        assert [m.request_id for members in second.members for m in members] == ["W2", "W3"]

    def test_cross_column_claim_after_fold_stays_disjoint(self):
        """A second doctor write on a column the patient already claimed in
        the folded group must defer."""
        scheduler = WriteScheduler()
        scheduler.enqueue(_write("r1", "doctor", _update("T1", (1,), "dosage")))
        scheduler.enqueue(_write("r2", "patient", _update("T1", (2,), "clinical_data")))
        scheduler.enqueue(_write("r3", "doctor", _update("T1", (3,), "clinical_data")))
        plan = scheduler.plan()
        assert plan.groups[0].edit_peers == ("doctor", "patient")
        assert plan.deferred == 1

    def test_queue_depth_by_shard(self):
        from repro.ledger.sharding import ShardRouter

        scheduler = WriteScheduler()
        router = ShardRouter(4)
        tables = ["T1", "T2", "T3"]
        for index, table in enumerate(tables):
            scheduler.enqueue(_write(f"r{index}", "doctor", _update(table, (1,))))
        depths = scheduler.queue_depth_by_shard(router)
        assert set(depths) == {0, 1, 2, 3}
        assert sum(depths.values()) == 3
        for table in tables:
            assert depths[router.shard_of(table)] >= 1

    def test_snapshots_survive_concurrent_queue_churn(self):
        """Per-shard depth (and the other iterating snapshots) must not blow
        up with 'deque mutated during iteration' while enqueue/plan churn the
        queue from another thread — that error killed lane pumps silently."""
        import threading

        from repro.ledger.sharding import ShardRouter

        scheduler = WriteScheduler(max_batch_size=4)
        router = ShardRouter(4)
        errors = []
        done = threading.Event()

        def churn():
            try:
                for index in range(3000):
                    scheduler.enqueue(_write(
                        f"r{index}", f"p{index % 3}",
                        _update(f"T{index % 5}", (index,))))
                    if index % 5 == 0:
                        scheduler.plan()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)
            finally:
                done.set()

        def snapshot():
            try:
                while not done.is_set():
                    depths = scheduler.queue_depth_by_shard(router)
                    # Each snapshot is internally consistent; counts across
                    # *separate* snapshots may differ (the queue moves on).
                    assert sum(depths.values()) >= 0
                    scheduler.pending()
                    scheduler.queued_by_tenant()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = ([threading.Thread(target=churn)]
                   + [threading.Thread(target=snapshot) for _ in range(2)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestLimits:
    def test_max_batch_size_bounds_the_plan(self):
        scheduler = WriteScheduler(max_batch_size=2)
        for index in range(5):
            scheduler.enqueue(_write(f"r{index}", "p", _update("T1", (index,))))
        plan = scheduler.plan()
        assert plan.size == 2
        assert scheduler.queue_depth == 3

    def test_max_edits_per_group_spills_to_next_batch(self):
        scheduler = WriteScheduler(max_edits_per_group=2)
        for index in range(3):
            scheduler.enqueue(_write(f"r{index}", "p", _update("T1", (index,))))
        plan = scheduler.plan()
        assert len(plan.groups[0].edits) == 2
        assert plan.deferred == 1

    def test_queue_metrics(self):
        scheduler = WriteScheduler()
        for index in range(4):
            scheduler.enqueue(_write(f"r{index}", "p", _update("T1", (index,))))
        assert scheduler.enqueued_total == 4
        assert scheduler.peak_queue_depth == 4
        scheduler.plan()
        assert scheduler.queue_depth == 0
        assert scheduler.peak_queue_depth == 4
