"""Diversity metric, per-block traces, and graph statistics."""

import csv

import numpy as np
import pytest

from pvg.diagnostics import (
    DiversityTrace,
    diversity,
    graph_stats,
    trace_diversity,
    write_trace_csv,
)
from pvg.errors import DimensionError
from pvg.graph import topk_neighbors
from pvg.net import Model, tiny_config


class TestDiversity:
    def test_identical_rows_zero(self):
        x = np.tile(np.array([1.0, -2.0, 0.5]), (8, 1))
        assert diversity(x) == 0.0

    def test_two_node_hand_case(self):
        assert diversity(np.array([[0.0], [2.0]])) == 1.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 4))
        base = diversity(x)
        for s in (0.0, 0.5, 3.0):
            assert abs(diversity(s * x) - s * base) < 1e-9

    def test_zero_iff_identical(self):
        rng = np.random.default_rng(1)
        x = np.tile(rng.normal(size=(1, 5)), (6, 1))
        x[3, 2] += 1e-3
        assert diversity(x) > 1e-7


class TestTraceDiversity:
    def test_trace_length_equals_blocks(self):
        cfg = tiny_config()
        model = Model(cfg, seed=0)
        imgs = np.random.default_rng(2).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        trace = trace_diversity(model, imgs)
        assert len(trace.per_block) == cfg.total_blocks()
        assert [b for b, _ in trace.per_block] == list(range(cfg.total_blocks()))
        assert all(v >= 0 for _, v in trace.per_block)

    def test_deterministic(self):
        model = Model(tiny_config(), seed=1)
        imgs = np.random.default_rng(3).uniform(size=(3, 32, 32, 3)).astype(np.float32)
        t1 = trace_diversity(model, imgs)
        t2 = trace_diversity(model, imgs)
        assert t1.per_block == t2.per_block

    def test_identity_blocks_propagate_stem_diversity(self):
        from test_net import zero_residual_outputs

        cfg = tiny_config()
        model = Model(cfg, seed=2)
        zero_residual_outputs(model)
        imgs = np.random.default_rng(4).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        trace = trace_diversity(model, imgs)
        values = dict(trace.per_block)

        # identity blocks: within each stage the trace is flat
        assert values[2] == pytest.approx(values[3], rel=1e-12)  # stage 2 blocks

        # stage-0 value equals the diversity of the raw stem output
        p = cfg.patch_size
        grid = cfg.image_size // p
        stem_w = model.params["stem.weight"].data
        stem_b = model.params["stem.bias"].data
        per_image = []
        for im in imgs:
            t = im.reshape(grid, p, grid, p, 3).transpose(0, 2, 1, 3, 4).reshape(grid * grid, -1)
            per_image.append(diversity(t @ stem_w + stem_b))
        assert values[0] == pytest.approx(float(np.mean(per_image)), rel=1e-5)

    def test_matches_offline_recompute_from_dumped_activations(self):
        model = Model(tiny_config(), seed=3)
        imgs = np.random.default_rng(5).uniform(size=(3, 32, 32, 3)).astype(np.float32)
        trace = trace_diversity(model, imgs)

        collect = {"blocks": []}
        model.forward(imgs, collect=collect)
        for (block, feats), (tb, tv) in zip(collect["blocks"], trace.per_block):
            assert block == tb
            # literal recomputation: double loop over images and nodes
            vals = []
            for im in range(feats.shape[0]):
                x = feats[im].astype(np.float64)
                mean = x.mean(axis=0)
                vals.append(np.mean([np.sqrt(((row - mean) ** 2).sum()) for row in x]))
            assert tv == pytest.approx(float(np.mean(vals)), rel=1e-9)


class TestTraceCsv:
    def test_schema_and_single_block_trace(self, tmp_path):
        trace = DiversityTrace(run_id="unit", per_block=[(0, 1.25)])
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["run_id", "block", "diversity"]
        assert rows[1] == ["unit", "0", "1.25"]


class TestGraphStats:
    def _random_topo(self, seed, n=12, k=3):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(n, n))
        return topk_neighbors(0.5 * (s + s.T), k)

    def test_out_degree_is_point_mass_at_k(self):
        topo = self._random_topo(0)
        stats = graph_stats(topo)
        assert stats["out_degree"] == 3.0
        assert topo.neighbor_idx.shape[1] == 3

    def test_uniform_labels_purity_one(self):
        topo = self._random_topo(1)
        stats = graph_stats(topo, labels=np.zeros(12, dtype=int))
        assert stats["label_purity"] == 1.0

    def test_in_degree_matches_counting_oracle(self):
        topo = self._random_topo(2)
        counts = {}
        for row in topo.neighbor_idx:
            for j in row:
                counts[int(j)] = counts.get(int(j), 0) + 1
        stats = graph_stats(topo)
        got_max = max(counts.values())
        got_min = min(counts.get(i, 0) for i in range(topo.n_nodes))
        assert stats["in_degree_max"] == float(got_max)
        assert stats["in_degree_min"] == float(got_min)
        assert stats["in_degree_mean"] == pytest.approx(sum(counts.values()) / 12)

    def test_batched_topology_refused(self):
        s = np.random.default_rng(4).normal(size=(2, 12, 12))
        with pytest.raises(DimensionError, match=r"\(2, 12, 3\)"):
            graph_stats(topk_neighbors(s, 3))

    def test_similarity_quantiles_ordered(self):
        stats = graph_stats(self._random_topo(3))
        qs = [stats[f"similarity_q{q}"] for q in (0, 25, 50, 75, 100)]
        assert qs == sorted(qs)
