"""Known-bad obliviousness snippets, analyzed with the fixture manifest.

Not a test module: pytest never imports this file.  ``tests/test_analysis.py``
parses the trailing ``EXPECT`` markers and asserts the analyzer reports
exactly those (rule, line) pairs and nothing else.
"""


class Engine:
    def secret_branch(self, block_id, out):
        if block_id > 16:  # EXPECT: OBL001
            out.append(1)
        return out

    def secret_branch_early_exit(self, block_id):
        if block_id > 16:  # EXPECT: OBL001
            return None
        return block_id

    def secret_ternary(self, block_id):
        return 1 if block_id > 0 else 0  # EXPECT: OBL001

    def secret_comp_filter(self, block_ids):
        total = 0
        for value in [b for b in block_ids if b > 0]:  # EXPECT: OBL001
            total += value
        return total

    def secret_while(self):
        remaining = len(self.stash)
        while remaining > 0:  # EXPECT: OBL002
            remaining -= 1
        return remaining

    def secret_sized_loop(self):
        total = 0
        for row in self.stash:  # EXPECT: OBL002
            total += row
        return total

    def secret_index(self, block_id, slots):
        leaf = self.position_map.update(block_id, self._draw_leaf())
        return slots[leaf]  # EXPECT: OBL002

    def secret_recursion_level_skip(self, block_id, levels):
        # A recursion walk that skips upper levels for small ids leaks the
        # id through the number of observable path transfers.
        leaf = 0
        for level in levels:
            if block_id < level.num_blocks:  # EXPECT: OBL001
                break
            leaf = level.read_path(leaf)
        return leaf
