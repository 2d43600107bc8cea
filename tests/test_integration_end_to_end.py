"""Cross-module integration tests exercising the full system together."""

import numpy as np

from repro.attacks.analysis import analyze_address_leakage, analyze_path_obliviousness
from repro.attacks.observer import CuriousOSObserver, MemoryBusObserver
from repro.core.config import LAORAMConfig
from repro.datasets.kaggle import SyntheticCriteoDataset
from repro.embedding.dlrm import DLRMModel
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.oram.config import ORAMConfig
from repro.oram.insecure import InsecureMemory

from oracle import ObjectLAORAMClient, ObjectPathORAM


class TestEndToEndPrivacyStory:
    """The paper's motivating story, executed end to end on the simulator.

    Training DLRM over an unprotected embedding table leaks the categorical
    inputs to a curious OS; the same training loop over LAORAM leaks only a
    uniform path stream, while producing the same learning behaviour.
    """

    ROWS = 128
    DIM = 8

    def _train(self, engine, observer, dataset, samples=30):
        table = EmbeddingTable(self.ROWS, self.DIM, seed=1)
        store = SecureEmbeddingStore(engine, table)
        model = DLRMModel(
            num_dense_features=13,
            small_table_sizes=dataset.table_sizes[:-1],
            embedding_dim=self.DIM,
            seed=0,
        )
        trainer = ObliviousEmbeddingTrainer(store)
        return trainer.train_dlrm_epoch(model, dataset, max_samples=samples)

    def test_insecure_training_leaks_categories_but_oram_does_not(self):
        dataset = SyntheticCriteoDataset(num_samples=30, largest_table_rows=self.ROWS, seed=2)
        true_ids = dataset.categorical[:30, dataset.largest_table_index].tolist()

        # Unprotected training: the curious OS recovers every accessed row.
        insecure_observer = CuriousOSObserver(block_size_bytes=self.DIM * 4, cache_line_bytes=self.DIM * 4)
        insecure = InsecureMemory(
            ORAMConfig(num_blocks=self.ROWS, block_size_bytes=self.DIM * 4),
            observer=insecure_observer,
        )
        insecure_report = self._train(insecure, insecure_observer, dataset)
        recovered = insecure_observer.recovered_block_ids()
        # Each training sample fetches then writes its row; the reads alone
        # already contain every categorical id.
        assert set(true_ids).issubset(set(recovered))
        leakage = analyze_address_leakage(true_ids, recovered[: len(true_ids)])
        assert leakage.leakage_fraction > 0.5

        # LAORAM-protected training: only uniform-looking paths are visible.
        laoram_observer = MemoryBusObserver()
        laoram = ObjectLAORAMClient(
            LAORAMConfig(
                oram=ORAMConfig(
                    num_blocks=self.ROWS, block_size_bytes=self.DIM * 4, fat_tree=True, seed=5
                ),
                superblock_size=4,
            ),
            observer=laoram_observer,
        )
        laoram_report = self._train(laoram, laoram_observer, dataset)
        oblivious = analyze_path_obliviousness(
            true_ids, laoram_observer.observed_paths, num_leaves=laoram.config.num_leaves
        )
        assert oblivious.mutual_information_bits < 1.0
        assert not oblivious.uniformity.rejects_uniformity(alpha=0.001)

        # Both runs actually trained (finite loss, same sample count).
        assert np.isfinite(insecure_report.mean_loss)
        assert np.isfinite(laoram_report.mean_loss)


class TestPathORAMVsLAORAMConsistency:
    def test_identical_payload_semantics(self):
        """LAORAM must return exactly the data PathORAM returns."""
        config = ORAMConfig(num_blocks=128, block_size_bytes=32, seed=3)
        payloads = {i: f"row-{i}".encode() for i in range(128)}
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 128, size=256)

        path_oram = ObjectPathORAM(config)
        path_oram.load_payloads(dict(payloads))
        expected = path_oram.access_many(addresses.tolist())

        laoram = ObjectLAORAMClient(
            LAORAMConfig(oram=config.with_overrides(seed=4), superblock_size=4)
        )
        laoram.load_payloads(dict(payloads))
        plan = laoram.preprocess(addresses)
        laoram.apply_initial_placement(plan)
        # The plan's own bins, served from the cursor it was planned at.
        actual = laoram.access_many(addresses)
        assert actual == expected

    def test_metrics_orders_match_the_paper(self):
        """Cross-checks the qualitative ordering the whole evaluation relies on."""
        from repro.datasets.kaggle import SyntheticKaggleTrace

        config = ORAMConfig(num_blocks=512, block_size_bytes=64, seed=6)
        trace = SyntheticKaggleTrace(num_blocks=512, hot_band_size=32, seed=7).generate(2048)

        baseline = ObjectPathORAM(config)
        baseline.access_many(trace.addresses)
        base_time = baseline.simulated_time_s / len(trace)

        speedups = {}
        for superblock in (2, 4, 8):
            client = ObjectLAORAMClient(
                LAORAMConfig(
                    oram=config.with_overrides(fat_tree=True, seed=8 + superblock),
                    superblock_size=superblock,
                )
            )
            client.run_trace(trace.addresses)
            speedups[superblock] = base_time / (client.simulated_time_s / len(trace))
        assert speedups[2] > 1.0
        assert speedups[4] > speedups[2]
        assert speedups[8] > speedups[4] * 0.9
