"""Known-good obliviousness snippets: same fixture manifest, zero findings."""


class Engine:
    def public_length_loop(self, block_ids):
        # Iterating a content-secret parameter is public: the trace length
        # is observable anyway.
        total = 0
        for _block_id in block_ids:
            total += 1
        return total

    def public_emptiness(self, block_ids):
        # len() of a content-secret parameter is public too.
        count = len(block_ids)
        while count > 0:
            count -= 1
        return count

    def arithmetic_select(self, block_id, table):
        # Branch-free select: the secret feeds arithmetic, never control flow.
        secret_bit = (block_id >> 3) & 1
        return table[0] * (1 - secret_bit) + table[1] * secret_bit

    def declassified_index(self, block_id, slots):
        # The path read reveals the leaf, so indexing with it afterwards is
        # public (declassifier in the fixture manifest).
        leaf = self.position_map.update(block_id, self._draw_leaf())
        self.read_path(leaf)
        return slots[leaf]

    def sanitized_dispatch(self, block_ids):
        # isinstance() results never carry taint (type dispatch, not contents).
        if isinstance(block_ids, list):
            return len(block_ids)
        return 0
