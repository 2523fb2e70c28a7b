"""Command-line behavior: exit codes, outputs, determinism."""

import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sfr import cli
from sfr.cli import RunConfig, main
from sfr.errors import FactorizationError
from sfr.features import SpatialFeatureMap, load_pooled, pool_feature_maps, save_feature_map
from sfr.retrieval import GALLERY_BLOCK, ManifestEntry, write_manifest


def write_map(path, rng, c=6, h=4, w=3):
    save_feature_map(SpatialFeatureMap(rng.standard_normal((c, h, w)).astype(np.float32)), path)


def make_set(tmp_path, rng, name, n_subjects, per_subject, c=6, h=4, w=3):
    """Random feature maps + manifest; returns the manifest path."""
    root = tmp_path / name
    root.mkdir()
    entries = []
    for s in range(n_subjects):
        for i in range(per_subject):
            rel = f"{name}_{s}_{i}.sfrf"
            write_map(root / rel, rng, c, h, w)
            entries.append(ManifestEntry(f"{name}{s}_{i}", f"subj{s}", rel))
    manifest = root / "manifest.jsonl"
    write_manifest(manifest, entries)
    return manifest


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.alpha == 0.7
        assert cfg.beta == 0.001
        assert cfg.margin == 0.3
        assert cfg.kernels == (1, 2, 3, 4)
        assert cfg.normalize is True
        assert (cfg.p, cfg.k) == (32, 4)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            RunConfig(alpha=1.2)
        with pytest.raises(ValueError):
            RunConfig(beta=0.0)
        with pytest.raises(ValueError):
            RunConfig(margin=-0.1)
        with pytest.raises(ValueError):
            RunConfig(lr_schedule="warmup")
        for name in ("alpha", "beta", "margin", "lr"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match="finite"):
                    RunConfig(**{name: value})

    def test_step_schedule(self):
        cfg = RunConfig(lr=0.1, lr_schedule="step:0.5:10")
        assert cfg.learning_rate(0) == 0.1
        assert cfg.learning_rate(10) == 0.05
        assert cfg.learning_rate(25) == 0.025


class TestPool:
    def test_8x4_reports_70_columns(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        src = tmp_path / "map.sfrf"
        write_map(src, rng, c=5, h=8, w=4)
        out = tmp_path / "pooled.sfrf"
        assert main(["pool", "--input", str(src), "--out", str(out)]) == 0
        assert "70 columns" in capsys.readouterr().out
        matrix, gap = load_pooled(out)
        assert matrix.count == 70
        assert gap.dim == 5

    def test_1x1_reports_1_column(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        src = tmp_path / "map.sfrf"
        write_map(src, rng, c=3, h=1, w=1)
        assert main(["pool", "--input", str(src), "--out", str(tmp_path / "p.sfrf")]) == 0
        assert "1 columns" in capsys.readouterr().out

    def test_malformed_file_exit_2(self, tmp_path):
        src = tmp_path / "bad.sfrf"
        src.write_bytes(b"JUNKJUNKJUNK")
        assert main(["pool", "--input", str(src), "--out", str(tmp_path / "p.sfrf")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["pool", "--input", str(tmp_path / "none.sfrf"), "--out", str(tmp_path / "p.sfrf")]) == 2


class TestMatch:
    def test_self_match_rank1(self, tmp_path):
        rng = np.random.default_rng(42)
        gallery = make_set(tmp_path, rng, "gal", 6, 1)
        out = tmp_path / "out"
        rc = main(["match", "--gallery", str(gallery), "--probes", str(gallery), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rank1"] == 1.0
        assert summary["mAP"] == 1.0
        header = (out / "rankings.csv").read_text().splitlines()[0]
        assert header == "probeId,rank,entryId,d,r,s"

    def test_alpha_endpoints_differ(self, tmp_path):
        rng = np.random.default_rng(43)
        gallery = make_set(tmp_path, rng, "gal", 5, 1)
        probes = make_set(tmp_path, rng, "probe", 5, 1)
        # same subjects so evaluation is defined
        lines = [json.loads(l) for l in probes.read_text().splitlines()]
        out1, out0 = tmp_path / "a1", tmp_path / "a0"
        assert main(["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(out1), "--alpha", "1"]) == 0
        assert main(["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(out0), "--alpha", "0"]) == 0
        assert (out1 / "rankings.csv").read_text() != (out0 / "rankings.csv").read_text()

    def test_empty_probe_manifest_exit_2(self, tmp_path):
        rng = np.random.default_rng(44)
        gallery = make_set(tmp_path, rng, "gal", 3, 1)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["match", "--gallery", str(gallery), "--probes", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_dim_mismatch_exit_3(self, tmp_path):
        rng = np.random.default_rng(45)
        gallery = make_set(tmp_path, rng, "gal", 3, 1, c=6)
        probes = make_set(tmp_path, rng, "probe", 3, 1, c=4)
        assert main(["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(tmp_path / "o")]) == 3

    def test_entry_id_with_a_comma_exit_2(self, tmp_path, capsys):
        # The rankings CSV writes ids unquoted: a comma would add a field.
        rng = np.random.default_rng(48)
        gallery = make_set(tmp_path, rng, "gal", 3, 1)
        lines = gallery.read_text().splitlines()
        lines[1] = lines[1].replace('"gal1_0"', '"g,1"')
        gallery.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["match", "--gallery", str(gallery), "--probes", str(gallery), "--out", str(out)]) == 2
        assert "manifest.jsonl:2: entry id 'g,1'" in capsys.readouterr().err
        assert not (out / "rankings.csv").exists()

    def test_workers_byte_identical(self, tmp_path):
        # 70 probes make three 32-probe blocks: --workers 2 forks one worker,
        # --workers 8 two, and no flag one per CPU up to three chunks. Each
        # runs in a fresh interpreter with one and with two BLAS threads.
        rng = np.random.default_rng(46)
        gallery = make_set(tmp_path, rng, "gal", 40, 1)
        probes = make_set(tmp_path, rng, "probe", 35, 2)
        outputs = set()
        for blas_threads in (1, 2):
            for flags in WORKER_FLAGS:
                out = tmp_path / f"blas{blas_threads}-workers{'-'.join(flags[1:]) or 'default'}"
                argv = ["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(out), *flags]
                result = run_in_subprocess(argv, blas_threads)
                assert result.returncode == 0, result.stderr
                outputs.add(((out / "rankings.csv").read_bytes(), (out / "summary.json").read_bytes()))
                assert sorted(p.name for p in out.iterdir()) == ["rankings.csv", "summary.json"]
        assert len(outputs) == 1


# --workers 1, 2 and 8, and the default of one worker per CPU.
WORKER_FLAGS = (["--workers", "1"], ["--workers", "2"], ["--workers", "8"], [])


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


@pytest.mark.parametrize("count", [1, 31, 32, 33, 35, 100, 200])
@pytest.mark.parametrize("workers", [1, 2, 8, 10**9])
def test_probe_chunks_are_contiguous_balanced_and_one_per_started_block(count, workers):
    chunks = cli.probe_chunks(count, workers)
    assert [i for chunk in chunks for i in chunk] == list(range(count))
    assert all(chunk.step == 1 and len(chunk) > 0 for chunk in chunks)
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) - min(sizes) <= 1
    assert len(chunks) == min(workers, math.ceil(count / GALLERY_BLOCK))


def test_a_match_of_one_probe_block_forks_nothing(tmp_path, monkeypatch):
    # At most one chunk per started block of 32 probes: the benchmark's
    # 8-probe warm-up match runs in-process at any --workers.
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(cli.os, "fork", no_fork)
    rng = np.random.default_rng(47)
    gallery, probes = make_set(tmp_path, rng, "gal", 4, 2), make_set(tmp_path, rng, "prb", 4, 2)
    argv = ["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(tmp_path / "o")]
    assert main(argv + ["--workers", "8"]) == 0


class TestMatchBlocks:
    """`sfr match` builds and scores its gallery in blocks of 32 entries."""

    def match(self, tmp_path, gallery, probes, *flags):
        out = tmp_path / "out"
        return main(["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(out), *flags]), out

    def check_fault(self, tmp_path, capsys, gallery, probes, workers, code, message, leftovers):
        """The match exits `code` with `message` as its whole stderr, leaves
        exactly `leftovers` in the output directory (None: not created) and
        no child process."""
        rc, out = self.match(tmp_path, gallery, probes, "--workers", workers)
        assert (rc, capsys.readouterr().err) == (code, f"error: {message}\n")
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == leftovers
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_dim_mismatch_in_a_later_block_exit_3(self, tmp_path, capsys, workers):
        rng = np.random.default_rng(70)
        gallery = make_set(tmp_path, rng, "gal", 40, 1)
        write_map(tmp_path / "gal" / "gal_35_0.sfrf", rng, c=4)
        probes = make_set(tmp_path, rng, "prb", 35, 2)
        message = "entry gal35_0: feature dim differs from gallery dim 6"
        self.check_fault(tmp_path, capsys, gallery, probes, workers, 3, message, None)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_damaged_map_in_a_later_block_exit_2(self, tmp_path, capsys, workers):
        rng = np.random.default_rng(71)
        gallery = make_set(tmp_path, rng, "gal", 40, 1)
        damaged = tmp_path / "gal" / "gal_36_0.sfrf"
        damaged.write_bytes(damaged.read_bytes()[:-4])
        probes = make_set(tmp_path, rng, "prb", 35, 2)
        message = f"{damaged.resolve()}: payload holds 71 values, header declares 72"
        self.check_fault(tmp_path, capsys, gallery, probes, workers, 2, message, None)

    # 70 probes: at --workers 2, probes 0-34 are ranked in this process and
    # 35-69 in a forked worker; at --workers 1, probes 32-63 are one block.
    PROBE_FAULTS = {
        "damaged-in-worker": ({50: "damaged"}, 50),
        "wrong-dim-in-worker": ({60: "wrong-dim"}, 60),
        "damaged-here-wrong-dim-in-worker": ({33: "damaged", 40: "wrong-dim"}, 33),
        "wrong-dim-here-damaged-in-worker": ({33: "wrong-dim", 40: "damaged"}, 33),
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", PROBE_FAULTS)
    def test_first_faulty_probe_decides_at_any_worker_count(self, tmp_path, capsys, workers, case):
        # The first faulty probe in manifest order is reported, even where a
        # later one in the same 32-probe block is damaged, and no
        # rankings.csv or part file is left.
        faults, first = self.PROBE_FAULTS[case]
        rng = np.random.default_rng(74)
        gallery = make_set(tmp_path, rng, "gal", 35, 1)
        probes = make_set(tmp_path, rng, "prb", 35, 2)
        paths = {}
        for index, fault in faults.items():
            path = (tmp_path / "prb" / f"prb_{index // 2}_{index % 2}.sfrf").resolve()
            if fault == "damaged":
                path.write_bytes(path.read_bytes()[:-4])
            else:
                write_map(path, rng, c=4)
            paths[index] = path
        if faults[first] == "damaged":
            code, message = 2, f"{paths[first]}: payload holds 71 values, header declares 72"
        else:
            code, message = 3, f"{paths[first]}: feature dim 4 != gallery dim 6"
        self.check_fault(tmp_path, capsys, gallery, probes, workers, code, message, [])

    def test_pooling_gets_at_most_one_block_of_maps_per_call(self, tmp_path, monkeypatch):
        # pool_feature_maps stacks every map it is given, so the loader hands
        # it one block at a time: the 70 gallery maps in two full blocks and
        # a partial one, then the 40 probes in one full block and a partial one.
        # The monkeypatch sees only this process's calls, so the probes are
        # ranked here at --workers 1, not in a forked worker.
        rng = np.random.default_rng(73)
        gallery = make_set(tmp_path, rng, "gal", 70, 1)
        probes = make_set(tmp_path, rng, "prb", 40, 1)
        sizes = []

        def counted(fmaps, *args):
            sizes.append(len(fmaps))
            return pool_feature_maps(fmaps, *args)

        monkeypatch.setattr(cli, "pool_feature_maps", counted)
        assert self.match(tmp_path, gallery, probes, "--workers", "1")[0] == 0
        assert sizes == [32, 32, 6, 32, 8]

    def test_peak_memory_grows_by_the_scoring_operators(self, tmp_path):
        # d = 32 below the 122 pyramid columns of an 8 x 6 map: every entry
        # is kept as its 32 x 32 dual operator. Four times the gallery may
        # add those operators, and no more than one block of dictionaries.
        d, block = 32, 32
        rng = np.random.default_rng(72)
        probes = make_set(tmp_path, rng, "prb", 4, 1, c=d, h=6, w=5)
        peaks = []
        for n in (64, 256):
            gallery = make_set(tmp_path, rng, f"gal{n}", n, 1, c=d, h=8, w=6)
            tracemalloc.start()
            try:
                assert self.match(tmp_path, gallery, probes)[0] == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added_operators = (256 - 64) * d * d * 8
        one_block = block * d * 122 * 8
        assert peaks[1] - peaks[0] < 1.5 * added_operators + one_block, peaks


class TestEval:
    def fixture_rankings(self, tmp_path):
        # 3 probes over a 3-entry gallery with known best ranks 1, 2, 1
        gallery_entries = [ManifestEntry(f"g{i}", f"s{i}", f"g{i}.sfrf") for i in range(3)]
        gal = tmp_path / "gal.jsonl"
        write_manifest(gal, gallery_entries)
        probe_entries = [ManifestEntry(f"p{i}", f"s{i}", f"p{i}.sfrf") for i in range(3)]
        probes = tmp_path / "probes.jsonl"
        write_manifest(probes, probe_entries)
        rows = ["probeId,rank,entryId,d,r,s"]
        orders = {"p0": ["g0", "g1", "g2"], "p1": ["g2", "g1", "g0"], "p2": ["g2", "g0", "g1"]}
        for pid, order in orders.items():
            for rank, eid in enumerate(order, start=1):
                rows.append(f"{pid},{rank},{eid},0.1,0.2,{0.1 * rank}")
        rankings = tmp_path / "rankings.csv"
        rankings.write_text("\n".join(rows) + "\n")
        return rankings, probes, gal

    def test_hand_fixture(self, tmp_path, capsys):
        rankings, probes, gal = self.fixture_rankings(tmp_path)
        out = tmp_path / "eval"
        rc = main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)])
        assert rc == 0
        cmc_text = (out / "cmc.csv").read_text().splitlines()
        assert cmc_text[0] == "rank,cmc"
        # best ranks: p0 -> 1, p1 -> 2 (g1=s1), p2 -> 3 (g2 first? p2 truth s2 -> g2 at rank 1)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rank1"] == pytest.approx(2 / 3)
        assert summary["rank3"] == 1.0
        assert summary["mAP"] == pytest.approx((1.0 + 0.5 + 1.0) / 3)

    def test_perfect_rankings_map_one(self, tmp_path):
        gallery_entries = [ManifestEntry(f"g{i}", f"s{i}", f"g{i}.sfrf") for i in range(2)]
        gal = tmp_path / "gal.jsonl"
        write_manifest(gal, gallery_entries)
        probes = tmp_path / "probes.jsonl"
        write_manifest(probes, [ManifestEntry(f"p{i}", f"s{i}", f"p{i}.sfrf") for i in range(2)])
        rows = ["probeId,rank,entryId,d,r,s"]
        rows += ["p0,1,g0,0,0,0", "p0,2,g1,0,0,1", "p1,1,g1,0,0,0", "p1,2,g0,0,0,1"]
        rankings = tmp_path / "rankings.csv"
        rankings.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["mAP"] == 1.0

    def test_interleaved_probe_rows_exit_2(self, tmp_path, capsys):
        # Each probe's rows must be contiguous; p0's rows resume after p1's.
        gal = tmp_path / "gal.jsonl"
        write_manifest(gal, [ManifestEntry(f"g{i}", f"s{i}", f"g{i}.sfrf") for i in range(2)])
        probes = tmp_path / "probes.jsonl"
        write_manifest(probes, [ManifestEntry(f"p{i}", f"s{i}", f"p{i}.sfrf") for i in range(2)])
        rows = ["probeId,rank,entryId,d,r,s", "p0,1,g0,0,0,0", "p1,1,g0,0,0,0", "p0,2,g1,0,0,1", "p1,2,g1,0,0,1"]
        rankings = tmp_path / "rankings.csv"
        rankings.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)]) == 2
        assert "rows for probe p0 are not contiguous" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_entry_listed_twice_exit_3(self, tmp_path):
        rankings, probes, gal = self.fixture_rankings(tmp_path)
        rows = rankings.read_text().splitlines()
        rows[2] = rows[2].replace(",g1,", ",g0,")  # p0 lists g0 at ranks 1 and 2, omits g1
        rankings.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)]) == 3
        assert not (out / "summary.json").exists()

    def test_unknown_probe_exit_3(self, tmp_path):
        rankings, probes, gal = self.fixture_rankings(tmp_path)
        truth = tmp_path / "short.jsonl"
        write_manifest(truth, [ManifestEntry("p0", "s0", "p0.sfrf")])  # p1, p2 unknown
        assert main(["eval", "--rankings", str(rankings), "--truth", str(truth), "--gallery", str(gal), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("column", [3, 4, 5])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_exit_2(self, tmp_path, column, value):
        rankings, probes, gal = self.fixture_rankings(tmp_path)
        rows = rankings.read_text().splitlines()
        fields = rows[1].split(",")
        fields[column] = value
        rows[1] = ",".join(fields)
        rankings.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()

    def test_decreasing_s_exit_3(self, tmp_path):
        rankings, probes, gal = self.fixture_rankings(tmp_path)
        rows = rankings.read_text().splitlines()
        rows[3] = rows[3].rsplit(",", 1)[0] + ",0.15"  # p0: s = 0.1, 0.2, 0.15
        rankings.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)]) == 3
        assert not (out / "summary.json").exists()

    def test_oversized_field_exit_2(self, tmp_path, capsys):
        # One field longer than the csv module's 131072-character limit.
        rankings, probes, gal = self.fixture_rankings(tmp_path)
        rows = rankings.read_text().splitlines()
        rows[1] = rows[1].replace(",g0,", f",{'g' * 200_000},")
        rankings.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)]) == 2
        assert "field larger than field limit" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_tied_s_accepted(self, tmp_path):
        rankings, probes, gal = self.fixture_rankings(tmp_path)
        rows = rankings.read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0] + ",0.1"  # p0: s = 0.1, 0.1, 0.3
        rankings.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gal), "--out", str(out)]) == 0

    def test_rankings_cut_at_a_probe_boundary_exit_3(self, tmp_path, capsys):
        # A match's rankings cut after their first probes would be scored on
        # those probes alone, and read like a whole run's.
        rng = np.random.default_rng(49)
        gallery = make_set(tmp_path, rng, "gal", 4, 2)
        probes = make_set(tmp_path, rng, "probe", 4, 2)
        match_out, eval_out = tmp_path / "match", tmp_path / "eval"
        assert main(["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(match_out)]) == 0
        rankings = match_out / "rankings.csv"
        lines = rankings.read_text().splitlines(keepends=True)
        rankings.write_text("".join(lines[: 1 + 3 * 8]))  # the header and 3 of the 8 probes' 8 rows
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gallery), "--out", str(eval_out)]) == 3
        assert "5 truth probes have no ranking (first: 'probe1_1')" in capsys.readouterr().err
        assert not (eval_out / "cmc.csv").exists()
        assert not (eval_out / "summary.json").exists()

    @pytest.mark.parametrize("flags", [[], ["--no-normalize"]])
    def test_match_rankings_evaluate_to_the_match_summary(self, tmp_path, flags):
        rng = np.random.default_rng(47)
        gallery = make_set(tmp_path, rng, "gal", 6, 3)
        probes = make_set(tmp_path, rng, "probe", 6, 2, h=3, w=2)
        match_out, eval_out = tmp_path / "match", tmp_path / "eval"
        assert main(["match", "--gallery", str(gallery), "--probes", str(probes), "--out", str(match_out), *flags]) == 0
        rankings = match_out / "rankings.csv"
        assert main(["eval", "--rankings", str(rankings), "--truth", str(probes), "--gallery", str(gallery), "--out", str(eval_out)]) == 0
        assert (eval_out / "summary.json").read_bytes() == (match_out / "summary.json").read_bytes()


class TestVerifyCommand:
    def test_passes_and_prints_json(self, capsys):
        assert main(["verify"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in reports)
        assert len(reports) == 4

    def test_injected_fault_exit_5(self, capsys):
        assert main(["verify", "--inject-fault"]) == 5

    def test_verbose_table(self, capsys):
        assert main(["verify", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert "absErr" in err


class TestTrainDemo:
    def test_epochs_zero_untrained_fails(self, tmp_path):
        rc = main(["train-demo", "--out", str(tmp_path / "demo"), "--epochs", "0"])
        assert rc == 4
        assert (tmp_path / "demo" / "loss.csv").exists()

    def test_lr_zero_flat_trace(self, tmp_path):
        rc = main(["train-demo", "--out", str(tmp_path / "demo"), "--epochs", "12", "--lr", "0"])
        assert rc == 4  # untrained quality, criterion unmet
        rows = (tmp_path / "demo" / "loss.csv").read_text().splitlines()[1:]
        losses = {row.split(",")[1] for row in rows}
        assert len(rows) == 12
        assert len(losses) == 1  # reference-batch loss identical every epoch

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train-demo", "--out", str(a), "--epochs", "3"])
        main(["train-demo", "--out", str(b), "--epochs", "3"])
        assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()
        assert (a / "encoder.sfrf").read_bytes() == (b / "encoder.sfrf").read_bytes()

    @pytest.mark.parametrize("flags", [[], ["--no-normalize"]], ids=["normalized", "raw"])
    def test_workers_byte_identical(self, tmp_path, flags):
        # At --workers 2 and above a forked worker computes the monitor loss
        # that loss.csv logs; at --workers 1 this process does. Each run is a
        # fresh interpreter with one and with two BLAS threads, two at a time.
        runs = [(blas_threads, workers) for blas_threads in (1, 2) for workers in WORKER_FLAGS]

        def run(blas_threads, workers):
            out = tmp_path / f"blas{blas_threads}-workers{'-'.join(workers[1:]) or 'default'}"
            result = run_in_subprocess(["train-demo", "--out", str(out), "--epochs", "6", *workers, *flags], blas_threads)
            assert sorted(p.name for p in out.iterdir()) == ["encoder.sfrf", "loss.csv"]
            files = ((out / "loss.csv").read_bytes(), (out / "encoder.sfrf").read_bytes())
            return result.returncode, result.stdout, result.stderr, files

        with ThreadPoolExecutor(2) as pool:
            outputs = set(pool.map(lambda run_args: run(*run_args), runs))
        assert len(outputs) == 1
        ((returncode, stdout, _, (loss_csv, _)),) = outputs
        assert returncode == 4 and stdout.startswith("trained 6 steps;")
        assert len(loss_csv.decode().splitlines()) == 7

    @pytest.mark.parametrize(("workers", "epochs", "forks"), [("1", "3", 0), ("2", "0", 0), ("2", "3", 1), ("8", "3", 1)])
    def test_one_monitor_worker_from_workers_2(self, tmp_path, monkeypatch, workers, epochs, forks):
        pids, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(cli.os, "fork", counted_fork)
        main(["train-demo", "--out", str(tmp_path / "demo"), "--epochs", epochs, "--workers", workers])
        assert len(pids) == (forks if cli.CAN_FORK else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # (epoch whose monitor loss fails, epoch whose step fails); the monitor of
    # an epoch comes before its step, so the earlier of the two is reported,
    # and the monitor's on a tie.
    FAULTS = {
        "monitor-first": (1, 2),
        "same-epoch": (2, 2),
        "step-first": (2, 1),
        "monitor-only": (3, None),
        "step-only": (None, 0),
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", FAULTS)
    def test_the_first_fault_in_epoch_order_decides(self, tmp_path, monkeypatch, capsys, workers, case):
        # The patches are inherited by a forked monitor worker, whose call
        # count starts at zero: it makes no monitor call before the fork.
        monitor_epoch, step_epoch = self.FAULTS[case]

        def failing_at(epoch, fn, exc):
            calls = itertools.count()

            def patched(*args):
                if next(calls) == epoch:
                    raise exc
                return fn(*args)

            return patched

        monitor_fault = FactorizationError(f"monitor fault at epoch {monitor_epoch}")
        step_fault = ArithmeticError(f"step fault at epoch {step_epoch}")
        monkeypatch.setattr(cli, "sfr_triplet_loss", failing_at(monitor_epoch, cli.sfr_triplet_loss, monitor_fault))
        monkeypatch.setattr(cli, "training_step", failing_at(step_epoch, cli.training_step, step_fault))
        out = tmp_path / "demo"
        rc = main(["train-demo", "--out", str(out), "--epochs", "4", "--workers", workers])
        monitor_first = monitor_epoch is not None and (step_epoch is None or monitor_epoch <= step_epoch)
        expected = (3, f"error: {monitor_fault}\n") if monitor_first else (4, f"error: {step_fault}\n")
        assert (rc, capsys.readouterr().err) == expected
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_monitor_loop_raises_its_first_failure_at_once(self):
        # The worker sends the exception and exits without reading the rest
        # of its inbox: the parent stops sending once it sees the result, and
        # a send that races the exit fails against the closed pipe.
        rest = b"".join(pickle.dumps(epoch) for epoch in range(2, 5))
        inbox = io.BytesIO(pickle.dumps(0) + pickle.dumps(1) + rest)
        seen = []

        def monitor_loss(epoch):
            seen.append(epoch)
            if epoch >= 1:
                raise FactorizationError(f"fault at epoch {epoch}")
            return 0.5

        with pytest.raises(FactorizationError, match="fault at epoch 1"):
            cli._monitor_losses(inbox, monitor_loss)
        assert seen == [0, 1]
        assert inbox.read() == rest
        assert cli._monitor_losses(io.BytesIO(pickle.dumps(2.0) * 3), lambda x: x / 2) == [1.0, 1.0, 1.0]

    @pytest.mark.skipif(not cli.CAN_FORK, reason="the monitor worker is forked on Linux only")
    def test_a_failed_monitor_stops_the_steps(self, tmp_path, monkeypatch, capsys):
        # The monitor fails at epoch 0. The first step waits, for at most
        # 10 s and without reaping it, until the worker has exited, so its
        # exception has been sent before the check that precedes epoch 1's send.
        pids, fork, steps = [], os.fork, []

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def failing_loss(*args):
            raise FactorizationError("monitor fault at epoch 0")

        def waiting_step(*args):
            steps.append(True)
            deadline = time.monotonic() + 10.0
            while len(steps) == 1 and time.monotonic() < deadline:
                if os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT | os.WNOHANG) is not None:
                    break
                time.sleep(0.01)
            return training_step(*args)

        training_step = cli.training_step
        monkeypatch.setattr(cli.os, "fork", counted_fork)
        monkeypatch.setattr(cli, "sfr_triplet_loss", failing_loss)
        monkeypatch.setattr(cli, "training_step", waiting_step)
        out = tmp_path / "demo"
        rc = main(["train-demo", "--out", str(out), "--epochs", "20", "--workers", "2"])
        assert (rc, capsys.readouterr().err) == (3, "error: monitor fault at epoch 0\n")
        assert len(steps) <= 2
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_singular_gram_exit_3_at_any_worker_count(self, tmp_path, capsys, workers):
        # At --workers 2 the worker's monitor batch and this process's first
        # training batch both fail to factor at epoch 0; the monitor's error,
        # the one reported in-process, must be the one reported.
        out = tmp_path / "demo"
        rc = main(["train-demo", "--out", str(out), "--epochs", "2", "--beta", "1e-30", "--workers", workers])
        message = (
            "error: gram matrix not positive definite or numerically singular "
            "(beta=1e-30, cond~7.657e+16); use a larger beta\n"
        )
        assert (rc, capsys.readouterr().err) == (3, message)
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        rng = np.random.default_rng(47)
        src = tmp_path / "map.sfrf"
        write_map(src, rng, c=2, h=4, w=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernels": [1, 2]}))
        out = tmp_path / "p.sfrf"
        # config file alone: kernels {1,2} -> 16 + 9 = 25 columns
        assert main(["pool", "--input", str(src), "--out", str(out), "--config", str(cfg)]) == 0
        assert "25 columns" in capsys.readouterr().out
        # explicit flag overrides the file: kernels {1} -> 16 columns
        assert main(["pool", "--input", str(src), "--out", str(out), "--config", str(cfg), "--kernels", "1"]) == 0
        assert "16 columns" in capsys.readouterr().out

    def test_unknown_config_key_exit_2(self, tmp_path):
        rng = np.random.default_rng(48)
        src = tmp_path / "map.sfrf"
        write_map(src, rng)
        cfg = tmp_path / "cfg.json"
        # an unknown key, a non-object, and values of the wrong type (a bool is not a number)
        for config in (
            {"gamma": 1},
            5,
            [["alpha", 5]],
            {"alpha": "x"},
            {"p": "3"},
            {"epochs": 1.5},
            {"workers": None},
            {"normalize": "no"},
            {"seed": True},
            {"kernels": [1, "2"]},
        ):
            cfg.write_text(json.dumps(config))
            argv = ["pool", "--input", str(src), "--out", str(tmp_path / "p.sfrf"), "--config", str(cfg)]
            assert main(argv) == 2, config

    def test_bad_flag_value_exit_2(self, tmp_path):
        rng = np.random.default_rng(49)
        src = tmp_path / "map.sfrf"
        write_map(src, rng)
        assert main(["pool", "--input", str(src), "--out", str(tmp_path / "p.sfrf"), "--alpha", "2.0"]) == 2
        for flag in ("--alpha", "--beta", "--margin", "--lr"):
            for value in ("nan", "inf"):
                argv = ["pool", "--input", str(src), "--out", str(tmp_path / "p.sfrf"), flag, value]
                assert main(argv) == 2, (flag, value)
        # a nan margin used to clamp every hinge and exit 4 with a loss of 0
        assert main(["train-demo", "--out", str(tmp_path / "demo"), "--epochs", "1", "--margin", "nan"]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    POOL = ["pool", "--input", "map.sfrf", "--out", "p.sfrf"]

    @pytest.mark.parametrize("argv, message", [
        (POOL + ["--p", "1"], "need p >= 2 and k >= 2"),
        (POOL + ["--k", "1"], "need p >= 2 and k >= 2"),
        (POOL + ["--epochs", "-1"], "epochs and lr must be nonnegative"),
        (POOL + ["--lr", "-1"], "epochs and lr must be nonnegative"),
        (POOL + ["--workers", "0"], "workers >= 1"),
        (POOL + ["--lr-schedule", "step:x:1"], "bad lr schedule 'step:x:1'"),
        (POOL + ["--lr-schedule", "step:2:1"], "bad lr schedule 'step:2:1'"),
        (POOL + ["--lr-schedule", "step:0.5:0"], "bad lr schedule 'step:0.5:0'"),
        (POOL + ["--config", "not.json"], "not.json: Expecting value"),
        (POOL + ["--kernels", "1,a"], "bad kernel list '1,a'"),
        (["eval", "--rankings", "header.csv", "--truth", "m.jsonl", "--gallery", "m.jsonl", "--out", "ev"],
         "no ranking rows"),
    ])
    def test_input_error_exit_2(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        write_map(tmp_path / "map.sfrf", np.random.default_rng(50))
        (tmp_path / "not.json").write_text("alpha = 0.5\n")
        write_manifest(tmp_path / "m.jsonl", [ManifestEntry("g0", "s0", "map.sfrf")])
        (tmp_path / "header.csv").write_text("probeId,rank,entryId,d,r,s\n")
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_every_exported_name_resolves():
    import sfr

    assert [name for name in sfr.__all__ if not hasattr(sfr, name)] == []


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: scipy would load a second BLAS
    # into every process. A fresh interpreter runs a match (d = 6 below the
    # 20 pyramid columns: the dual form) and a one-epoch demo (d = 64 above
    # them: the primal form), then lists the scipy modules it imported.
    rng = np.random.default_rng(3)
    gallery, probes = make_set(tmp_path, rng, "gal", 3, 2), make_set(tmp_path, rng, "prb", 3, 1)
    code = (
        "import sys; from sfr.cli import main; "
        f"codes = [main(['match', '--gallery', {str(gallery)!r}, '--probes', {str(probes)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]), "
        f"main(['train-demo', '--out', {str(tmp_path / 'demo')!r}, '--epochs', '1'])]; "
        "print(codes, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # One epoch does not reach rank-1 0.95, so the demo exits 4.
    assert result.stdout.splitlines()[-1] == "[0, 4] []"
