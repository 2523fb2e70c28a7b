"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from sfr.cli import main
from sfr.encoder import ConvLayer, EncoderParams, init_params
from sfr.features import (
    DEFAULT_PYRAMID,
    FeatureMatrix,
    GlobalFeature,
    SpatialFeatureMap,
    pool_feature_maps,
    save_feature_map,
)
from sfr.metric import (
    batch_hard_mine,
    build_batch,
    frozen_step_objective,
    global_distances,
    step_gradients,
)
from sfr.oracle import (
    exhaustive_mine,
    finite_difference,
    random_batch,
    relative_error,
    ridge_oracle,
)
from sfr.reconstruction import sfr_distance, sfr_gradients, solve_coefficients
from sfr.retrieval import (
    ManifestEntry,
    build_gallery,
    evaluate,
    fold,
    match_probe,
    write_manifest,
)
from sfr.toydata import make_identity_pools


def run_in_subprocess(argv, blas_threads):
    """`sfr` with `argv` in a fresh interpreter whose BLAS runs that many threads."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "OMP_NUM_THREADS": str(blas_threads),
        "MKL_NUM_THREADS": str(blas_threads),
    }
    code = "import sys; from sfr.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300)


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {number}: {name}{suffix}")


def fm(rng, d, n):
    return FeatureMatrix(rng.standard_normal((d, n)))


def fake_ranking(probe_id, order):
    return probe_id, tuple(order)


def evaluate_rankings(rankings, truth, subject_of):
    """evaluate over the folds of (probe id, entry ids in rank order) pairs."""
    return evaluate((fold(probe_id, ids, truth, subject_of) for probe_id, ids in rankings), truth, subject_of)


def test_criterion_1_ridge_correctness():
    rng = np.random.default_rng(1)
    betas = (1e-3, 1e-1, 1.0)
    start = time.monotonic()
    worst = 0.0
    for i in range(200):
        d, m, n = (int(v) for v in rng.integers(1, 17, size=3))
        x, y = fm(rng, d, n), fm(rng, d, m)
        beta = betas[i % 3]
        fast = solve_coefficients(x, y, beta)
        slow = ridge_oracle(x, y, beta)
        assert np.abs(fast - slow).max() <= 1e-8
        normal_eq = y.columns.T @ (x.columns - y.columns @ fast) - beta * fast
        assert np.abs(normal_eq).max() <= 1e-8
        worst = max(worst, float(np.abs(fast - slow).max()), float(np.abs(normal_eq).max()))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, "ridge solve matches elimination oracle and normal equations",
           f"200 instances, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_orthonormal_closed_form():
    x = FeatureMatrix(np.eye(5)[:, :2])
    r = sfr_distance(x, x, 1.0)
    assert abs(r - 0.5) <= 1e-12
    report(2, "orthonormal self-reconstruction at beta=1 gives distance 0.5",
           f"value {r!r}")


def test_criterion_3_gradient_checks():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        xa, xo = fm(rng, d, n), fm(rng, d, m)
        coeff = solve_coefficients(xa, xo, 0.01)
        grad_a, grad_o = sfr_gradients(xa, xo, coeff)

        def f_a(cols):
            r = cols - xo.columns @ coeff
            return float(np.sum(r * r))

        def f_o(cols):
            r = xa.columns - cols @ coeff
            return float(np.sum(r * r))

        rel = max(
            relative_error(grad_a, finite_difference(f_a, xa.columns, 1e-5)),
            relative_error(grad_o, finite_difference(f_o, xo.columns, 1e-5)),
        )
        assert rel <= 1e-4
        worst = max(worst, rel)

    # end-to-end: analytic parameter gradient of the frozen-plan objective
    pools = make_identity_pools(3, 3, seed=3)
    params = init_params(((4, 1, 3, True), (6, 4, 3, False)), 3)
    assert params.parameter_count() <= 5000
    picks = [(label, img) for label, imgs in sorted(pools.items()) for img in imgs[:2]]
    batch = build_batch(picks, params)
    grads, plan = step_gradients(batch, 0.001, 0.3)
    assert plan.report.active_triplets > 0
    worst_e2e = 0.0
    for li in range(len(params.layers)):
        def f_kernel(kernel, li=li):
            layers = list(params.layers)
            layers[li] = ConvLayer(kernel, params.layers[li].bias, params.layers[li].downsample)
            return frozen_step_objective(batch, EncoderParams(tuple(layers)), plan, 0.3)

        rel = relative_error(grads[li].kernel, finite_difference(f_kernel, params.layers[li].kernel, 1e-6))
        assert rel <= 1e-3
        worst_e2e = max(worst_e2e, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, "analytic gradients match central finite differences",
           f"50 instances worst {worst:.2e}, end-to-end worst {worst_e2e:.2e}, {elapsed:.1f}s")


def test_criterion_4_mining_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        batch = random_batch(rng, p, k, 4)
        fast = batch_hard_mine(batch, 0.001)
        slow = exhaustive_mine(batch, 0.001)
        assert fast == slow  # indices and distances, exact
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, "batch-hard mining equals exhaustive scan on 100 batches", f"{elapsed:.1f}s")


def test_criterion_5_pyramid_geometry():
    rng = np.random.default_rng(5)
    fmap = SpatialFeatureMap(rng.standard_normal((16, 8, 4)).astype(np.float32))
    pooled = pool_feature_maps([fmap], DEFAULT_PYRAMID, normalize=False)[0][1]
    assert pooled.count == 70
    values = fmap.values.astype(np.float64)
    cols = []
    for k in DEFAULT_PYRAMID.kernel_sizes:
        if k > 4:
            continue
        for i in range(8 - k + 1):
            for j in range(4 - k + 1):
                cols.append(values[:, i:i + k, j:j + k].reshape(16, -1).mean(axis=1))
    np.testing.assert_allclose(pooled.columns, np.array(cols).T, rtol=1e-6)
    report(5, "8x4 grid with default kernels yields exactly 70 columns matching the loop oracle")


def test_criterion_6_fusion_endpoints():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    entries = {
        f"g{i}": (
            GlobalFeature(rng.standard_normal(8)),
            FeatureMatrix(rng.standard_normal((8, int(rng.integers(2, 7))))),
        )
        for i in range(50)
    }
    probes = [
        (GlobalFeature(rng.standard_normal(8)), FeatureMatrix(rng.standard_normal((8, 5))))
        for _ in range(20)
    ]
    for alpha, key in ((1.0, "global"), (0.0, "sfr")):
        gallery = build_gallery(entries.items(), alpha, 0.001)
        for probe in probes:
            ranking = match_probe(probe, gallery, "p")
            if key == "global":
                ref = [global_distances(probe[0].values, g.values[None, :])[0] for g, _ in entries.values()]
            else:
                ref = [sfr_distance(probe[1], m, 0.001) for _, m in entries.values()]
            expected = [list(entries)[i] for i in np.argsort(ref, kind="stable")]
            assert list(ranking.entry_ids) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(6, "alpha endpoints reproduce the single-metric permutations exactly",
           f"50 entries x 20 probes, {elapsed:.1f}s")


def test_criterion_7_toy_end_to_end(tmp_path, capsys):
    start = time.monotonic()
    rc = main(["train-demo", "--out", str(tmp_path / "demo"), "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0, f"train demo exited {rc}"
    rank1 = float(out.split("rank-1")[1].strip())
    assert rank1 >= 0.95
    rows = (tmp_path / "demo" / "loss.csv").read_text().splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    assert len(losses) <= 200  # steps budget
    windows = np.array([np.mean(losses[t:t + 10]) for t in range(20, len(losses) - 9)])
    increases = np.diff(windows)
    assert increases.max() <= 1e-9, f"10-step window mean rose by {increases.max()}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(7, "seeded toy training reaches held-out rank-1 >= 0.95 with decreasing loss windows",
           f"rank-1 {rank1}, {len(losses)} steps, {elapsed:.0f}s")


def test_criterion_8_evaluation_metrics():
    subject_of = {"g1": "x", "g2": "t", "g3": "y"}
    single = evaluate_rankings([fake_ranking("p", ["g1", "g2", "g3"])], {"p": "t"}, subject_of)
    np.testing.assert_array_equal(single.cmc, [0.0, 1.0, 1.0])

    two_gallery = {"g1": "a", "g2": "b"}
    rankings = [fake_ranking("p1", ["g1", "g2"]), fake_ranking("p2", ["g1", "g2"])]
    got = evaluate_rankings(rankings, {"p1": "a", "p2": "b"}, two_gallery)
    assert got.per_probe_ap == (1.0, 0.5)
    assert got.map == 0.75
    report(8, "CMC and mAP fixtures match hand-computed values exactly")


def test_criterion_9_parallel_determinism(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(9)

    def write_set(name, n_subjects, per_subject):
        root = tmp_path / name
        root.mkdir()
        entries = []
        for s in range(n_subjects):
            for i in range(per_subject):
                rel = f"{s}_{i}.sfrf"
                save_feature_map(
                    SpatialFeatureMap(rng.standard_normal((6, 4, 3)).astype(np.float32)), root / rel
                )
                entries.append(ManifestEntry(f"{name}{s}_{i}", f"subj{s}", rel))
        manifest = root / "manifest.jsonl"
        write_manifest(manifest, entries)
        return manifest

    gallery = write_set("gal", 50, 1)
    probes = write_set("probe", 50, 4)  # 200 probes: up to 7 chunks
    outputs = set()
    for blas_threads in (1, 2):
        for flags in (["--workers", "1"], ["--workers", "2"], ["--workers", "8"], []):
            out = tmp_path / f"blas{blas_threads}-workers{'-'.join(flags[1:]) or 'default'}"
            argv = ["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(out), *flags]
            result = run_in_subprocess(argv, blas_threads)
            assert result.returncode == 0, result.stderr
            outputs.add(((out / "rankings.csv").read_bytes(), (out / "summary.json").read_bytes()))
    assert len(outputs) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(
        9, "200-probe match is byte-identical at 1, 2, 8 and the default workers, with 1 and 2 BLAS threads",
        f"{elapsed:.1f}s",
    )
