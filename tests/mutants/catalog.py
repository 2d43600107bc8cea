"""The committed mutants: each a bug the analyzer's deleted rules were written
for, a decision of the C kernel or a rule of the shard transport, and the
deterministic tests that kill it.

``guards`` names what a mutant stands for.  OBL001 / OBL002 (a secret
steering the traffic), CNT001 (the request's counts folded on every exit
path) and ALLOC001 (no per-call temporary in the row store's get and set)
were analyzer rules; each went once every mutant of its bug was killed
here.  The C mutants follow the rows of ``docs/static_analysis.md``,
"Outside the scan": the request kernel, the walk, the write-backs, the
path read and the gradient sum.

Run them with ``python -m tests.mutants`` (see ``tests/mutants/__init__.py``).
"""

from __future__ import annotations

from . import Mutant

_ENGINE = "oram/path_oram.py"
_KERNEL = "oram/_write_back.c"

PYTHON_MUTANTS = (
    # -- OBL001 / OBL002: a secret steers what the bus carries ------------
    Mutant(
        name="access-bypasses-the-kernel-on-a-stash-hit",
        path=_ENGINE,
        search=(
            "        try:\n"
            "            self._run_bins(np.array([block_id], dtype=np.int64))"
        ),
        replace=(
            "        if block_id in self.stash.entries:\n"
            "            return payloads.get(block_id)\n"
            "        try:\n"
            "            self._run_bins(np.array([block_id], dtype=np.int64))"
        ),
        kills=(
            "tests/test_trace_contract.py::test_per_access_hooks_match_the_object_engine_on_a_large_stash[PathORAM-False]",
            "tests/test_laoram.py::TestKernelFailurePaths::test_overflow_on_the_per_access_path_loses_no_block[PathORAM-dense-access]",
        ),
        guards="OBL001 in PathORAM.access",
    ),
    Mutant(
        name="access-reads-a-dummy-path-on-odd-leaves",
        path=_ENGINE,
        search="        return payloads.get(block_id)\n\n    def dummy_access",
        replace=(
            "        if self.position_map.leaf_access()[0][block_id] & 1:\n"
            "            self.dummy_access()\n"
            "        return payloads.get(block_id)\n\n    def dummy_access"
        ),
        kills=(
            "tests/test_trace_contract.py::test_every_single_access_runs_the_bin_kernel[PathORAM-False-dict]",
            "tests/test_trace_contract.py::test_the_clock_is_the_closed_form_of_the_counters[PathORAM-dense]",
        ),
        guards="OBL001 in PathORAM.access (a branch on the position map's leaf)",
    ),
    Mutant(
        name="dummy-access-skipped-on-an-empty-stash",
        path=_ENGINE,
        search="        self._run_bins(DUMMY_READ)",
        replace="        if len(self.stash):\n            self._run_bins(DUMMY_READ)",
        kills=(
            "tests/test_engine_invariants.py::TestEngineInvariants::test_server_traffic_is_whole_paths[PathORAM-array-normal]",
            "tests/test_trace_contract.py::test_the_clock_is_the_closed_form_of_the_counters[PathORAM-dense]",
        ),
        guards="OBL001 in PathORAM.dummy_access",
    ),
    Mutant(
        name="commit-counts-distinct-ids",
        path=_ENGINE,
        search="self.counter.record_logical_access(len(ids))",
        replace="self.counter.record_logical_access(len(set(ids)))",
        kills=(
            "tests/test_hold_commit.py::test_a_read_after_commit_returns_the_committed_rows[shipped-PathORAM-False]",
            "tests/test_hold_commit.py::test_shipped_and_reference_agree_through_held_steps[PathORAM-False-dense]",
        ),
        guards="OBL002 in PathORAM.commit (a count sized by the distinct secret ids)",
    ),
    Mutant(
        name="commit-skips-the-bin-of-a-hold-that-read-no-path",
        path=_ENGINE,
        search="        finally:\n            self._end_hold()",
        replace="        finally:\n            if self._held_paths:\n                self._end_hold()",
        kills=(
            "tests/test_hold_commit.py::test_a_step_of_stash_hits_reads_no_path_and_its_commit_ends_the_bin[PathORAM]",
            "tests/test_hold_commit.py::test_a_step_of_stash_hits_reads_no_path_and_its_commit_ends_the_bin[Normal/S8]",
        ),
        guards="OBL001 in PathORAM.commit (a branch on whether the stash held every id)",
    ),
    Mutant(
        name="update-skips-the-walk-to-its-own-leaf",
        path="oram/position_map.py",
        search=(
            "        try:\n"
            "            return walk(self._leaf_access[1], block_id, leaf)"
        ),
        replace=(
            "        if self._entries[block_id] == leaf:\n"
            "            return leaf\n"
            "        try:\n"
            "            return walk(self._leaf_access[1], block_id, leaf)"
        ),
        kills=(
            "tests/test_recursive_posmap.py::TestChargingModel::test_an_update_to_the_label_it_has_is_a_walk_too",
        ),
        guards="OBL001 in PositionMap.update (a branch on the secret label)",
    ),
    # -- CNT001: the request's counts are folded on every exit path -------
    Mutant(
        name="run-bins-folds-only-when-serve-returns",
        path=_ENGINE,
        search="            raise\n        finally:\n            (\n",
        replace="            raise\n        else:\n            (\n",
        kills=(
            "tests/test_request_kernel.py::TestKernelGuards::test_a_callback_cannot_start_a_second_request",
            "tests/test_recursive_posmap.py::TestFailurePathsUnderRecursion::test_out_of_range_id_mid_trace[PathORAM]",
            "tests/test_laoram.py::TestKernelFailurePaths::test_overflow_mid_bin_loses_no_block[dense]",
        ),
        guards="CNT001 in PathORAM._run_bins (the fold outside a finally)",
    ),
    Mutant(
        name="run-bins-drops-the-counts",
        path=_ENGINE,
        search="            counter.add_bulk(",
        replace="            (lambda *counts: None)(",
        kills=(
            "tests/test_hold_commit.py::test_a_read_after_commit_returns_the_committed_rows[shipped-PathORAM-False]",
            "tests/test_trace_contract.py::test_the_clock_is_the_closed_form_of_the_counters[PathORAM-dense]",
        ),
        guards="CNT001 in PathORAM._run_bins (no add_bulk flush)",
    ),
    Mutant(
        name="run-bins-drops-the-walk-charges",
        path=_ENGINE,
        search="            self.position_map.charge_walks()\n",
        replace="",
        kills=(
            "tests/test_recursive_posmap.py::TestDenseRecursiveBitIdentity::test_main_tree_identical[True-3-PathORAM]",
            "tests/test_hold_commit.py::test_shipped_and_reference_agree_through_held_steps[PathORAM-False-recursive]",
        ),
        guards="CNT001 in PathORAM._run_bins (the walks' counts not charged)",
    ),
    # -- ALLOC001: no per-call temporary in the row store -----------------
    Mutant(
        name="row-store-get-lists-the-index",
        path="oram/row_store.py",
        search="        slot = self._slot_of[block_id]\n        if slot < 0:",
        replace="        slot = [s for s in self._slot_of][block_id]\n        if slot < 0:",
        kills=(
            "tests/test_fused_trace.py::TestZeroAllocationSteadyState::test_a_row_store_get_holds_only_the_row_view[base-row]",
            "tests/test_fused_trace.py::TestZeroAllocationSteadyState::test_a_row_store_get_holds_only_the_row_view[overlay-row]",
        ),
        guards="ALLOC001 in OverlayRowStore.get (a comprehension)",
    ),
    Mutant(
        name="row-store-get-reads-a-numpy-scalar",
        path="oram/row_store.py",
        search="        slot = self._slot_of[block_id]\n        if slot < 0:",
        replace="        slot = self._index[block_id]\n        if slot < 0:",
        kills=(
            "tests/test_fused_trace.py::TestZeroAllocationSteadyState::test_a_row_store_get_holds_only_the_row_view[overlay-row]",
            "tests/test_fused_trace.py::TestZeroAllocationSteadyState::test_a_row_store_get_holds_only_the_row_view[past-the-base]",
        ),
        guards="ALLOC001's contract in OverlayRowStore.get (a temporary the rule did not see)",
    ),
    Mutant(
        name="row-store-set-copies-the-row",
        path="oram/row_store.py",
        search="        self._overlay[slot] = row\n",
        replace="        self._overlay[slot] = np.array(row)\n",
        kills=(
            "tests/test_fused_trace.py::TestZeroAllocationSteadyState::test_a_row_store_set_holds_only_the_row_copy[rewrite]",
            "tests/test_fused_trace.py::TestZeroAllocationSteadyState::test_a_row_store_set_holds_only_the_row_copy[first-write]",
        ),
        guards="ALLOC001 in OverlayRowStore.__setitem__ (a numpy constructor)",
    ),
    # -- the shard transport: a worker's death is its pipe's end of file ----
    Mutant(
        name="parent-keeps-the-workers-pipe-end",
        path="experiments/sharded/executor.py",
        search="            proc.start()\n            child_end.close()\n",
        replace="            proc.start()\n",
        kills=(
            "tests/test_parallel_sharded.py::test_a_worker_that_dies_while_building_reads_as_dead_not_hung",
        ),
        guards="ProcessShardExecutor.start (each pipe end open in one process only)",
    ),
)

C_MUTANTS = (
    # -- the request kernel (serve) -----------------------------------------
    Mutant(
        name="evict-at-the-trigger",
        path=_KERNEL,
        search="if (dummy || (r->evict && occupancy > r->trigger)) {",
        replace="if (dummy || (r->evict && occupancy >= r->trigger)) {",
        kills=(
            "tests/test_trace_contract.py::test_per_access_hooks_match_the_object_engine_on_a_large_stash[Normal/S4-False]",
            "tests/test_laoram.py::TestKernelFailurePaths::test_overflow_in_the_eviction_after_a_planned_access[dense-access]",
        ),
        guards="the request kernel: the eviction trigger (after_bin)",
    ),
    Mutant(
        name="bin-counts-distinct-ids",
        path=_KERNEL,
        search="r->state[LOGICAL] += count;",
        replace="r->state[LOGICAL] += k;",
        kills=(
            "tests/test_trace_contract.py::test_reads_return_the_last_write[Normal/S4-True-False-dict]",
            "tests/test_laoram.py::TestPlanAlignment::test_a_bin_counts_accesses_not_unique_blocks[LAORAMClient]",
        ),
        guards="the request kernel: a bin counts its accesses (serve_bin)",
    ),
    Mutant(
        name="bin-fetches-a-shared-path-twice",
        path=_KERNEL,
        search=(
            "                if (j == num_read) {\n"
            "                    w->read[num_read++] = old;"
        ),
        replace=(
            "                if (1) {\n"
            "                    w->read[num_read++] = old;"
        ),
        kills=(
            "tests/test_trace_contract.py::test_fast_lookahead_bins_match_the_object_client[Normal/S4-False-None]",
            "tests/test_trace_contract.py::test_remaps_by_position_match_the_object_client_across_a_deviation[Normal/S4-False-False-mid_bin]",
        ),
        guards="the request kernel: each distinct path read once a bin (serve_bin)",
    ),
    Mutant(
        name="bin-updates-hits-before-the-fetch",
        path=_KERNEL,
        search="    for (int pass = 0; pass < 2; pass++) {",
        replace="    for (int pass = 1; pass >= 0; pass--) {",
        kills=(
            "tests/test_trace_contract.py::test_fast_lookahead_bins_match_the_object_client[Normal/S4-True-None]",
            "tests/test_trace_contract.py::test_remaps_by_position_match_the_object_client_across_a_deviation[Normal/S4-True-False-mid_bin]",
        ),
        guards="the request kernel: Path ORAM's update order, misses first (serve_bin)",
    ),
    Mutant(
        name="remap-ignores-the-planned-leaf",
        path=_KERNEL,
        search="            planned = leaf >= 0;",
        replace="            planned = 0;",
        kills=(
            "tests/test_trace_contract.py::test_fast_lookahead_bins_match_the_object_client[Normal/S4-False-None]",
            "tests/test_trace_contract.py::test_fast_lookahead_bins_match_the_object_client[Normal/S8-True-101]",
        ),
        guards="the request kernel: a bin by position remaps to the plan's leaves (serve_bin)",
    ),
    # -- the recursion walk ---------------------------------------------------
    Mutant(
        name="walk-reads-a-stashed-blocks-path",
        path=_KERNEL,
        search="        hit[k] = find(level->stash, block[k]) >= 0;",
        replace="        hit[k] = 0;",
        kills=(
            "tests/test_recursive_posmap.py::TestDrawBlockSeam::test_twins_stay_state_equal_across_a_refill[PathORAM]",
            "tests/test_recursive_posmap.py::TestDenseRecursiveBitIdentity::test_object_and_array_twins_agree_under_recursion[Fat/S8]",
        ),
        guards="the walk: a level block in its stash reads no path (update_map)",
    ),
    Mutant(
        name="walk-keeps-the-parent-label",
        path=_KERNEL,
        search="    level->parent[block] = (int32_t)fresh;\n",
        replace="",
        kills=(
            "tests/test_trace_contract.py::test_reads_return_the_last_write[PathORAM-True-True-dict]",
            "tests/test_trace_contract.py::test_fast_run_trace_equals_the_generic_loop[PathORAM-True-False]",
        ),
        guards="the walk: the parent refreshed with the block's fresh label (walk_step)",
    ),
    # -- the write-backs ------------------------------------------------------
    Mutant(
        name="path-write-back-reverses-the-stash-order",
        path=_KERNEL,
        search="        grouped[fill[items[i].bits]++] = items[i];",
        replace="        grouped[fill[items[n - 1 - i].bits]++] = items[n - 1 - i];",
        kills=(
            "tests/test_trace_contract.py::test_fast_run_trace_equals_the_generic_loop[PathORAM-False-False]",
            "tests/test_trace_contract.py::test_per_access_hooks_match_the_object_engine_on_a_large_stash[PathORAM-False]",
        ),
        guards="the write-backs: the path write-back's tie-break, stash order (write_back_path)",
    ),
    Mutant(
        name="place-fills-the-slots-backwards",
        path=_KERNEL,
        search="        slot[offset] = stash->entries[pos].id;",
        replace="        slot[take - 1 - offset] = stash->entries[pos].id;",
        kills=(
            "tests/test_trace_contract.py::test_fast_run_trace_equals_the_generic_loop[PathORAM-False-False]",
            "tests/test_trace_contract.py::test_fast_lookahead_bins_match_the_object_client[Normal/S4-False-None]",
        ),
        guards="the write-backs: a bucket fills its free slots in ascending order (place)",
    ),
    Mutant(
        name="path-write-back-leaves-a-slot-free",
        path=_KERNEL,
        search=(
            "        long long take = tree->caps[level] - tree->occ[tree->node_base[level] + node];\n"
            "        if (take > top) {"
        ),
        replace=(
            "        long long take = tree->caps[level] - tree->occ[tree->node_base[level] + node] - 1;\n"
            "        if (take > top) {"
        ),
        kills=(
            "tests/test_native_write_back.py::test_a_write_back_fills_each_bucket_to_its_capacity[uniform]",
            "tests/test_native_write_back.py::test_a_write_back_fills_each_bucket_to_its_capacity[fat]",
        ),
        guards="the write-backs: a bucket takes every free slot (write_back_path)",
    ),
    Mutant(
        name="held-write-back-ignores-the-lower-neighbour",
        path=_KERNEL,
        search="            if (below < bits) {\n                bits = below;",
        replace="            if (0) {\n                bits = below;",
        kills=(
            "tests/test_batched_write_back.py::TestHeldStepDifferential::test_random_held_steps_stay_identical[1-False]",
            "tests/test_hold_commit.py::test_shipped_and_reference_agree_through_held_steps[PathORAM-False-dense]",
        ),
        guards="the write-backs: the commit bin's subtree fill (write_back_held)",
    ),
    Mutant(
        name="stash-keeps-its-tombstones",
        path=_KERNEL,
        search="    if (s->used - s->live <= s->live) {\n        return;",
        replace="    if (1) {\n        return;",
        kills=(
            "tests/test_stash.py::test_the_table_is_sized_by_its_residents",
            "tests/test_native_write_back.py::test_a_steady_state_request_allocates_nothing[300-recursive map]",
        ),
        guards="the write-backs: the stash compacts what they delete (settle)",
    ),
    # -- the path read --------------------------------------------------------
    Mutant(
        name="fetch-trusts-the-occupancy",
        path=_KERNEL,
        search="        if (used[level] > tree->caps[level]) {",
        replace="        if (0) {",
        kills=(
            "tests/test_native_write_back.py::test_a_damaged_path_is_rejected[occupancy past a filled slot]",
        ),
        guards="the path read: an occupancy past its bucket is refused before the read (fetch_path)",
    ),
    Mutant(
        name="fetch-files-blocks-under-the-read-leaf",
        path=_KERNEL,
        search="            put(stash, slot[offset], labels[slot[offset]]);",
        replace="            put(stash, slot[offset], leaf);",
        kills=(
            "tests/test_tree.py::TestPathReads::test_a_kernel_trace_keeps_the_dense_prefixes[PathORAM]",
            "tests/test_native_write_back.py::test_a_steady_state_request_allocates_nothing[300-dense map]",
        ),
        guards="the path read: a block enters the stash under its label (fetch_path)",
    ),
    Mutant(
        name="fetch-leaves-the-slots-unblanked",
        path=_KERNEL,
        search=(
            "            put(stash, slot[offset], labels[slot[offset]]);\n"
            "            slot[offset] = -1;"
        ),
        replace="            put(stash, slot[offset], labels[slot[offset]]);",
        kills=(
            "tests/test_tree.py::TestPathReads::test_slots_past_the_occupancy_hold_minus_one[uniform]",
            "tests/test_tree.py::TestPathReads::test_slots_past_the_occupancy_hold_minus_one[fat]",
        ),
        guards="the path read: the slots it empties are blanked (fetch_path)",
    ),
    # -- the gradient sum -----------------------------------------------------
    Mutant(
        name="group-sum-adds-in-sequence",
        path=_KERNEL,
        search="    if (n < 8) {\n",
        replace="    if (1) {\n",
        kills=(
            "tests/test_group_sum.py::test_a_run_of_each_length_sums_as_reduceat[9]",
            "tests/test_group_sum.py::test_a_run_of_each_length_sums_as_reduceat[300]",
            "tests/test_trainer.py::TestTheStepIsTheReferenceStep::test_an_epoch_trains_the_reference_rows_and_losses[Fat/S8-xlmr]",
        ),
        guards="the gradient sum: numpy's pairwise order over a run's rows (pairwise_sum)",
    ),
    Mutant(
        name="group-sum-folds-the-first-row-in",
        path=_KERNEL,
        search=(
            "            pairwise_sum(grad + c0, dim, order + begin + 1, end - begin - 1, width, sum + c0);\n"
            "            for (Py_ssize_t c = c0; c < c0 + width; c++) {\n"
            "                sum[c] = first[c] + sum[c];\n"
            "            }\n"
        ),
        replace="            pairwise_sum(grad + c0, dim, order + begin, end - begin, width, sum + c0);\n",
        kills=(
            "tests/test_group_sum.py::test_a_run_of_each_length_sums_as_reduceat[7]",
            "tests/test_group_sum.py::test_a_run_of_each_length_sums_as_reduceat[129]",
            "tests/test_trainer.py::TestTheStepIsTheReferenceStep::test_an_epoch_trains_the_reference_rows_and_losses[PathORAM-xlmr]",
        ),
        guards="the gradient sum: a run's first row added to the pairwise sum of the rest (group_sum)",
    ),
)

MUTANTS = PYTHON_MUTANTS + C_MUTANTS
