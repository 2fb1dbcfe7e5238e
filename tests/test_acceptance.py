"""Acceptance suite: one test per exit criterion, each printing a single
machine-readable pass/fail line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them).

Every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np
import pytest

from pvg.data import make_two_class_patches, oracle_linear_accuracy
from pvg.diagnostics import diversity, trace_diversity, write_trace_csv
from pvg.errors import DegenerateInputError
from pvg.gradcheck import grad_check
from pvg.graph import similarity_matrix, topk_neighbors
from pvg.graphlu import gelu, graphlu, phi
from pvg import net
from pvg.net import Model, ModelConfig, deep_tiny_config, tiny_config
from pvg.tensor import DIFFERENTIABLE_OPS, Tensor, layer_norm, softmax_cross_entropy
from pvg.train import OptimizerConfig, RunConfig, ScheduleConfig, train

from gradprobes import build_cases
from oracles import cast_model, decomposition_check, param_count
from test_graph import brute_force_topk, chebyshev_window_oracle, impulse_response
from test_net import zero_residual_outputs


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_gradient_certification(monkeypatch):
    """Every differentiable op and the full tiny forward pass the central
    finite-difference oracle in f64 at 1e-4 relative, >= 20 probes each."""
    t0 = time.time()
    worst = 0.0
    cases = build_cases()
    assert {op for op, *_ in cases} == set(DIFFERENTIABLE_OPS)
    for _, name, fn, x0 in cases:
        rep = grad_check(fn, Tensor(x0), probes=20, seed=101, tolerance=1e-4, op_name=name)
        assert rep.probe_count >= min(20, x0.size)
        assert rep.passed, str(rep)
        worst = max(worst, rep.max_rel_error)

    cfg = tiny_config(num_classes=3)
    model = cast_model(Model(cfg, seed=11), np.float64)
    rng = np.random.default_rng(14)
    img = rng.uniform(0.2, 0.8, size=(1, 32, 32, 3))
    labels = np.array([1])

    def full_forward(x):
        return softmax_cross_entropy(model.forward(x), labels)

    rep = grad_check(full_forward, Tensor(img), probes=20, seed=15, h=1e-5,
                     tolerance=1e-4, op_name="pvg-tiny-forward")
    assert rep.passed, str(rep)
    worst = max(worst, rep.max_rel_error)

    # The tiny config's only second graph branch sits in a LayerScale block,
    # where a 1e-5 scale puts its weights' gradients at the finite-difference
    # noise floor; it is probed where LayerScale covers the last block only.
    with monkeypatch.context() as patch:
        patch.setattr(net, "LAYER_SCALE_BLOCKS", 1)
        shallow_scale = cast_model(Model(cfg, seed=11), np.float64)
    for probed, pname in (
        (model, "stem.weight"),
        (model, "stage0.block0.first.W"),
        (model, "stage2.block0.fuse.weight"),
        (model, "stage2.block1.scale1"),
        (model, "head.weight"),
        (shallow_scale, "stage2.block1.second.W"),
    ):
        original = probed.params[pname]

        def from_param(w, _m=probed, _n=pname, _orig=original):
            _m.params[_n] = w
            try:
                return softmax_cross_entropy(_m.forward(img), labels)
            finally:
                _m.params[_n] = _orig

        rep = grad_check(from_param, original, probes=20, seed=16, h=1e-5,
                         tolerance=1e-4, op_name=f"pvg-tiny-forward/{pname}")
        assert rep.passed, str(rep)
        worst = max(worst, rep.max_rel_error)

    elapsed = time.time() - t0
    report(
        "gradient-certification",
        worst <= 1e-4 and elapsed < 300.0,
        f"{len(cases)} op cases + full forward, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_knn_oracle_equivalence():
    """topk_neighbors exactly matches a full-sort oracle: all n <= 64, all k,
    100 seeded trials, tie-heavy matrices, and n = 72 and 256 with ties and
    NaN scores."""
    checked = 0
    for n in range(2, 65):
        rng = np.random.default_rng(n)
        s = rng.normal(size=(n, n)).astype(np.float32)
        s = 0.5 * (s + s.T)
        for k in range(1, n):
            np.testing.assert_array_equal(topk_neighbors(s, k).neighbor_idx, brute_force_topk(s, k))
            checked += 1
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 65))
        s = rng.normal(size=(n, n))
        if seed % 3 == 0:
            s = np.round(s * 2) / 2.0  # force exact ties
        s = 0.5 * (s + s.T)
        for k in range(1, n):
            np.testing.assert_array_equal(topk_neighbors(s, k).neighbor_idx, brute_force_topk(s, k))
            checked += 1
    # The stage-0 graph size, and NaN scores, which a diverging run sends
    # through the graph build: random, tie-heavy, constant, and 30% NaN
    # entries, every k, then whole NaN rows. Where a row has fewer than k
    # non-NaN scores for other nodes, topk_neighbors must raise instead.
    for seed, n in enumerate([256] * 4 + [72] * 4):
        rng = np.random.default_rng(2000 + seed)
        s = rng.normal(size=(n, n)).astype(np.float32)
        nan_rows = None
        if seed % 4 == 1:
            s = np.round(s * 2) / 2.0
        elif seed % 4 == 2:
            s[:] = 0.25
        elif seed % 4 == 3:
            s[rng.random((n, n)) < 0.3] = np.nan
            nan_rows = rng.random(n) < 0.1
        variants = [s] if nan_rows is None else [s, np.where(nan_rows[:, None], np.nan, s)]
        for scores in variants:
            full = brute_force_topk(scores, n - 1)
            usable = ~np.isnan(scores)
            np.fill_diagonal(usable, False)
            fewest = usable.sum(axis=1).min()
            for k in range(1, n):
                if k > fewest:
                    with pytest.raises(DegenerateInputError):
                        topk_neighbors(scores, k)
                else:
                    np.testing.assert_array_equal(topk_neighbors(scores, k).neighbor_idx, full[:, :k])
                checked += 1
    report("knn-oracle-equivalence", True, f"{checked} (n, k, seed) cases, exact index agreement")


def test_criterion_psgc_branch_graphs():
    """Every graph the model builds is cosine top-k on its branch's channels
    of the block's normalised input, byte for byte, image by image, in a
    config with a second branch at n = 64 and at n = 16; the PSGC widths sum
    to the stage width, and the second grows by what the local branch loses.
    The share of neighbours the two graphs hold in common is reported, not
    asserted."""
    cfg = tiny_config(stage_depths=[1, 2, 2, 1])
    model = Model(cfg, seed=0)
    inputs = {}
    block_forward = model.block_forward

    def recording(h, s, b, batch, collect=None):
        inputs[s, b] = h.data
        return block_forward(h, s, b, batch, collect=collect)

    model.block_forward = recording
    images = make_two_class_patches(n_images=4, size=32, seed=31).images
    collect = {"graphs": []}
    model.forward(images, collect=collect)

    plans = cfg.blocks()
    for plan in plans:
        assert sum(plan.widths) == cfg.stage_widths[plan.stage], plan
    for a, b in zip(plans, plans[1:]):
        if a.stage == b.stage:
            assert b.widths[2] - a.widths[2] == a.widths[0] - b.widths[0], (a, b)
    branches = {(p.index, name) for p in plans for name, w in zip(("first", "second"), p.widths[1:]) if w}
    assert {(i, name) for i, name, _ in collect["graphs"]} == branches
    assert len(branches) == len(collect["graphs"])

    P = model.params
    graphs, checked = {}, 0
    for index, name, topo in collect["graphs"]:
        plan = plans[index]
        pre, n = plan.prefix, plan.grid * plan.grid
        local_c, first_c, _ = plan.widths
        lo, hi = (local_c, local_c + first_c) if name == "first" else (local_c + first_c, sum(plan.widths))
        z = layer_norm(Tensor(inputs[plan.stage, plan.block]), P[pre + "norm1.gamma"], P[pre + "norm1.beta"]).data
        for i in range(len(images)):
            want = topk_neighbors(similarity_matrix(np.ascontiguousarray(z[i * n : (i + 1) * n, lo:hi])), plan.k)
            assert topo.neighbor_idx[i].tobytes() == want.neighbor_idx.tobytes(), (index, name, i)
            assert topo.neighbor_sim[i].tobytes() == want.neighbor_sim.tobytes(), (index, name, i)
            checked += 1
        graphs[index, name] = topo.neighbor_idx

    for plan in plans:
        if plan.widths[2]:
            first, second = graphs[plan.index, "first"], graphs[plan.index, "second"]
            shared = (first[..., :, None] == second[..., None, :]).any(axis=-1).mean()
            n = plan.grid * plan.grid
            print(
                f"  measurement (not asserted): block {plan.index}, n = {n}, k = {plan.k}: "
                f"first and second graphs share {shared:.2f} of neighbours "
                f"(chance {plan.k / (n - 1):.2f})"
            )
    report(
        "psgc-branch-graphs",
        True,
        f"{checked} image-branch graphs byte-equal to cosine top-k on their channel slice",
    )


def test_criterion_decomposition_identity():
    """max(z) = mean + remainder + within-class bound, residual <= 1e-12 over
    1000 random vectors; the k-order recursion telescopes for depth <= 4."""
    rng = np.random.default_rng(0)
    worst_first = 0.0
    worst_tele = 0.0
    for _ in range(1000):
        z = rng.normal(size=int(rng.integers(1, 33)))
        rep = decomposition_check(z, depth=4)
        worst_first = max(worst_first, rep.first_order_residual)
        worst_tele = max(worst_tele, rep.telescoped_residual)
    for depth in (1, 2, 3, 4):
        for trial in range(100):
            z = np.random.default_rng(trial).normal(size=16)
            worst_tele = max(worst_tele, decomposition_check(z, depth=depth).telescoped_residual)
    report(
        "decomposition-identity",
        worst_first <= 1e-12 and worst_tele <= 1e-12,
        f"first-order residual {worst_first:.2e}, telescoped residual {worst_tele:.2e}",
    )


def test_criterion_graphlu_limit():
    """At eps = 0 GraphLU is exact-erf GELU byte for byte, values and
    x-gradients, on a 10^4-point grid over [-6, 6] in both dtypes;
    phi(0) = 0.5 exactly."""
    xs = np.linspace(-6.0, 6.0, 10_000)
    g = np.random.default_rng(0).normal(size=xs.shape)
    equal = []
    for dtype in (np.float32, np.float64):
        runs = []
        for gate in (lambda x: graphlu(x, Tensor(np.zeros(1, dtype))), gelu):
            x = Tensor(xs.astype(dtype), requires_grad=True)
            y = gate(x)
            y.backward(seed=g.astype(dtype))
            runs.append((y.data.tobytes(), x.grad.tobytes()))
        equal.append(runs[0] == runs[1])
    phi_zero = phi(0.0, 0.37)
    report(
        "graphlu-limit",
        all(equal) and phi_zero == 0.5,
        f"graphlu(eps=0) == gelu byte for byte (values, x-gradients) on 10^4 grid in "
        f"float32/float64: {equal}, phi(0) == {phi_zero}",
    )


def test_criterion_table_parameter_ratios():
    """MaxE/GIN = 3 and MRGraphConv/GIN = 2 exactly under the single-linear
    GIN unit; EdgeConv and GraphSAGE counts reported, not asserted."""
    c = 64
    _, maxe_ratio = param_count("MaxE", c, c)
    _, mr_ratio = param_count("MRGraphConv", c, c)
    edge_count, edge_ratio = param_count("EdgeConv", c, c)
    sage_count, sage_ratio = param_count("GraphSAGE", c, c)
    print(
        f"  reported (not asserted): EdgeConv ratio {edge_ratio} ({edge_count} params), "
        f"GraphSAGE ratio {sage_ratio} ({sage_count} params) at c={c}"
    )
    report(
        "table-parameter-ratios",
        maxe_ratio == 3.0 and mr_ratio == 2.0,
        f"MaxE/GIN == {maxe_ratio}, MRGraphConv/GIN == {mr_ratio}",
    )


def test_criterion_chebyshev_mask_oracle():
    """The local branch's window, probed through offset_mix itself: a unit
    impulse at every node of grids up to 16x16, r in {0, 1, 2, 3}, each
    offset weighted apart. Every output inside the Chebyshev window equals
    the weight of its offset and every output outside is exactly 0, against
    exhaustive pair enumeration (2x2 at r = 3 clips the window to the grid)."""
    grids = [(2, 2), (3, 5), (4, 4), (7, 3), (8, 8), (12, 16), (16, 16)]
    checked = 0
    for h, w in grids:
        for r in (0, 1, 2, 3):
            np.testing.assert_array_equal(impulse_response(h, w, r), chebyshev_window_oracle(h, w, r))
            checked += (h * w) ** 2
    report("chebyshev-mask-oracle", True, f"{checked} offset_mix impulse pairs enumerated, exact match")


def test_criterion_residual_identity():
    """Zero-initialized branch/FFN outputs make every block exactly the
    identity map (bit-level)."""
    cfg = tiny_config()
    model = Model(cfg, seed=5)
    zero_residual_outputs(model)
    rng = np.random.default_rng(9)
    grids = [16, 8, 4, 2]
    blocks = 0
    for s in range(4):
        for b in range(cfg.stage_depths[s]):
            n = grids[s] * grids[s]
            h = Tensor(rng.normal(size=(n, cfg.stage_widths[s])).astype(np.float32))
            out = model.block_forward(h, s=s, b=b, batch=1)
            assert np.array_equal(out.data, h.data), (s, b)
            blocks += 1
    report("residual-identity", True, f"all {blocks} blocks bit-exact identity maps")


def test_criterion_learnability_smoke(tmp_path):
    """PVG-Tiny reaches >= 95% train accuracy on the synthetic two-class
    patch corpus within 30 epochs, deterministically, in <= 15 minutes."""
    t0 = time.time()
    ds = make_two_class_patches(n_images=512, size=32, seed=0)
    oracle = oracle_linear_accuracy(ds)
    assert oracle >= 0.99, f"corpus not shallow-learnable: oracle {oracle}"

    steps_per_epoch = (512 + 31) // 32
    outputs = []
    best = 0.0
    for sub in ("a", "b"):
        run = RunConfig(
            model=ModelConfig(num_classes=2),
            optimizer=OptimizerConfig(),
            schedule=ScheduleConfig(warmup_steps=steps_per_epoch, total_steps=30 * steps_per_epoch),
            batch_size=32,
            seed=0,
            output_dir=str(tmp_path / sub),
        )
        _, metrics = train(run, ds, stop_accuracy=0.95)
        best = max(best, max(m.train_acc for m in metrics))
        assert metrics[-1].epoch <= 29
        outputs.append((tmp_path / sub / "metrics.csv").read_bytes())

    elapsed = time.time() - t0
    report(
        "learnability-smoke",
        best >= 0.95 and outputs[0] == outputs[1] and elapsed <= 900.0,
        f"train acc {best:.4f} (oracle {oracle:.4f}), runs identical: "
        f"{outputs[0] == outputs[1]}, {elapsed:.0f}s for both runs",
    )


def test_criterion_diversity_instrumentation(tmp_path):
    """diversity semantics plus a complete per-block trace CSV from a
    21-block deep stack; the GraphLU-vs-GELU gap is reported, not asserted."""
    assert diversity(np.tile(np.array([3.0, 1.0]), (5, 1))) == 0.0
    assert diversity(np.array([[0.0], [2.0]])) == 1.0

    cfg = deep_tiny_config(21)
    assert cfg.total_blocks() == 21
    imgs = np.random.default_rng(6).uniform(size=(2, 32, 32, 3)).astype(np.float32)

    model = Model(cfg, seed=3)
    trace = trace_diversity(model, imgs, run_id="deep21-graphlu")
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    complete = len(trace.per_block) == 21 and len(lines) == 22

    gelu_model = Model(deep_tiny_config(21, activation="gelu"), seed=3)
    gelu_trace = trace_diversity(gelu_model, imgs, run_id="deep21-gelu")
    # a relaxed gate (eps = 1) shows the instrument resolves activation choice;
    # the trained GraphLU-vs-GELU gap itself is training-dependent
    for name, t in model.params.items():
        if name.endswith(".epsilon"):
            t.data[:] = 1.0
    relaxed_trace = trace_diversity(model, imgs, run_id="deep21-graphlu-eps1")
    print(
        f"  measurement (training-dependent, not asserted): final-block diversity "
        f"gelu={gelu_trace.per_block[-1][1]:.4f}, graphlu(eps=0)={trace.per_block[-1][1]:.4f}, "
        f"graphlu(eps=1)={relaxed_trace.per_block[-1][1]:.4f}"
    )
    report(
        "diversity-instrumentation",
        complete,
        f"hand cases exact, 21-block trace complete ({len(lines) - 1} rows)",
    )
