"""Gallery matching, score fusion, and CMC/mAP evaluation."""

import json
import weakref

import numpy as np
import pytest

from sfr.errors import FormatError, MismatchError
from sfr.features import FeatureMatrix, GlobalFeature
from sfr.metric import global_distances
from sfr.reconstruction import ReconstructionScorer, sfr_distance
from sfr.retrieval import (
    RetrievalRanking,
    build_gallery,
    evaluate,
    load_manifest,
    match_probe,
    match_probes,
    write_cmc_csv,
    write_manifest,
    write_summary_json,
)

BETA = 0.001


def random_pooled(rng, dim=6, count=None):
    """A random (global, spatial) pair for one gallery entry."""
    count = count or int(rng.integers(2, 7))
    return GlobalFeature(rng.standard_normal(dim)), FeatureMatrix(rng.standard_normal((dim, count)))


def random_entries(rng, n, dim=6):
    return {f"g{i}": random_pooled(rng, dim) for i in range(n)}


def random_gallery(rng, n, alpha=0.7, dim=6):
    return build_gallery(random_entries(rng, n, dim).items(), alpha, BETA)


def fake_ranking(probe_id, order):
    n = len(order)
    return RetrievalRanking(probe_id, tuple(order), np.zeros(n), np.zeros(n), np.arange(n, dtype=float))


class TestBuildGallery:
    def test_singleton(self):
        rng = np.random.default_rng(0)
        g = build_gallery({"a": random_pooled(rng)}.items(), 0.5, BETA)
        assert g.entry_ids == ("a",)

    def test_order_preserved(self):
        rng = np.random.default_rng(2)
        entries = {f"e{i}": random_pooled(rng) for i in range(100)}
        g = build_gallery(entries.items(), 0.5, BETA)
        assert list(g.entry_ids) == [f"e{i}" for i in range(100)]

    def test_dim_mismatch(self):
        rng = np.random.default_rng(3)
        entries = {"a": random_pooled(rng, dim=4), "b": random_pooled(rng, dim=5)}
        with pytest.raises(MismatchError):
            build_gallery(entries.items(), 0.5, BETA)

    def test_alpha_range(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            build_gallery({"a": random_pooled(rng)}.items(), 1.5, BETA)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_gallery({}.items(), 0.5, BETA)


# Gallery blocks hold 32 entries. Three dictionary shapes interleave in
# gallery order against d = 6: M = 4 (primal), 9 and 12 (dual).
BLOCK_COUNTS = (4, 9, 12)
RAW_AT = (32, 40)  # raw-scale dictionaries, past the first block


def block_entries(rng, n):
    """n gallery entries whose shapes interleave; at RAW_AT a rank-2 M = 9
    dictionary at scale 1e3, too ill-conditioned for the dual form."""
    entries = {}
    for i in range(n):
        if i in RAW_AT:
            spatial = FeatureMatrix(1e3 * rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9)))
        else:
            spatial = FeatureMatrix(rng.standard_normal((6, BLOCK_COUNTS[i % 3])))
        entries[f"e{i}"] = (GlobalFeature(rng.standard_normal(6)), spatial)
    return entries


class TestGalleryBlocks:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    def test_each_r_has_the_bits_of_the_entry_scored_alone(self, n):
        rng = np.random.default_rng(60 + n)
        entries = block_entries(rng, n)
        probe = (GlobalFeature(rng.standard_normal(6)), FeatureMatrix(rng.standard_normal((6, 5))))
        ranking = match_probe(probe, build_gallery(entries.items(), 0.7, BETA), "p")
        assert sorted(ranking.entry_ids) == sorted(entries)
        got = dict(zip(ranking.entry_ids, ranking.sfr_dist.tolist()))
        alone = [ReconstructionScorer([m], BETA).distances(probe[1])[0] for _, m in entries.values()]
        np.testing.assert_array_equal([got[entry_id] for entry_id in entries], alone)
        for i in RAW_AT:
            if i < n:
                (_, dual, _), = ReconstructionScorer([entries[f"e{i}"][1]], BETA)._groups
                assert dual is False

    def test_a_probe_ranked_with_others_has_the_bits_it_has_alone(self):
        # Twelve probes of three shapes, scored together: each shape's stack
        # is one product per gallery block, whose every slice is the pair's.
        # Two more are entries' own dictionaries (M = 4), which their own
        # entries score in the direct form.
        rng = np.random.default_rng(69)
        entries = block_entries(rng, 40)
        gallery = build_gallery(entries.items(), 0.7, BETA)
        probes = [(f"p{i}", random_pooled(rng, count=(3, 5, 8)[i % 3])) for i in range(12)]
        probes += [("own0", entries["e0"]), ("own3", entries["e3"])]
        for (probe_id, probe), ranking in zip(probes, match_probes(probes, gallery)):
            alone = match_probe(probe, gallery, probe_id)
            assert (ranking.probe_id, ranking.entry_ids) == (alone.probe_id, alone.entry_ids)
            for name in ("global_dist", "sfr_dist", "fused"):
                np.testing.assert_array_equal(getattr(ranking, name), getattr(alone, name))

    def test_dim_mismatch_in_a_later_block(self):
        rng = np.random.default_rng(66)
        entries = block_entries(rng, 40)
        entries["e35"] = random_pooled(rng, dim=5)
        with pytest.raises(MismatchError, match="entry e35"):
            build_gallery(entries.items(), 0.7, BETA)

    def test_duplicate_id_from_an_iterable(self):
        pairs = list(block_entries(np.random.default_rng(67), 40).items())
        pairs[33] = ("e0", pairs[33][1])
        with pytest.raises(MismatchError, match="duplicate gallery entry id 'e0'"):
            build_gallery(iter(pairs), 0.7, BETA)

    def test_gallery_keeps_no_dictionary_it_was_given(self):
        rng = np.random.default_rng(68)
        refs = []

        def pairs():
            for entry_id, (global_feature, spatial) in block_entries(rng, 40).items():
                refs.append(weakref.ref(spatial))
                yield entry_id, (global_feature, spatial)

        gallery = build_gallery(pairs(), 0.7, BETA)
        assert gallery.entry_ids == tuple(f"e{i}" for i in range(40))
        assert [ref for ref in refs if ref() is not None] == []


class TestMatchProbe:
    def probe_from(self, rng, dim=6):
        return GlobalFeature(rng.standard_normal(dim)), FeatureMatrix(rng.standard_normal((dim, 4)))

    def test_alpha_one_is_global_ordering(self):
        rng = np.random.default_rng(42)
        entries = random_entries(rng, 20)
        gallery = build_gallery(entries.items(), 1.0, BETA)
        probe = self.probe_from(rng)
        ranking = match_probe(probe, gallery, "p")
        d = [global_distances(probe[0].values, g.values[None, :])[0] for g, _ in entries.values()]
        expected = [list(entries)[i] for i in np.argsort(d, kind="stable")]
        assert list(ranking.entry_ids) == expected

    def test_alpha_zero_is_sfr_ordering(self):
        rng = np.random.default_rng(43)
        entries = random_entries(rng, 20)
        gallery = build_gallery(entries.items(), 0.0, BETA)
        probe = self.probe_from(rng)
        ranking = match_probe(probe, gallery, "p")
        r = [sfr_distance(probe[1], m, BETA) for _, m in entries.values()]
        expected = [list(entries)[i] for i in np.argsort(r, kind="stable")]
        assert list(ranking.entry_ids) == expected

    def test_self_probe_ranks_first(self):
        rng = np.random.default_rng(44)
        entries = random_entries(rng, 15)
        gallery = build_gallery(entries.items(), 0.7, BETA)
        ranking = match_probe(entries["g6"], gallery, "p")
        assert ranking.entry_ids[0] == "g6"

    def test_fusion_linear_exact(self):
        rng = np.random.default_rng(45)
        alpha = 0.37
        gallery = random_gallery(rng, 10, alpha=alpha)
        probe = self.probe_from(rng)
        ranking = match_probe(probe, gallery, "p")
        for d, r, s in zip(ranking.global_dist.tolist(), ranking.sfr_dist.tolist(), ranking.fused.tolist()):
            assert s == alpha * d + (1.0 - alpha) * r

    def test_contains_every_entry_once(self):
        rng = np.random.default_rng(46)
        entries = random_entries(rng, 12)
        ranking = match_probe(self.probe_from(rng), build_gallery(entries.items(), 0.7, BETA), "p")
        assert sorted(ranking.entry_ids) == sorted(entries)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(47)
        ranking = match_probe(self.probe_from(rng), random_gallery(rng, 25), "p")
        fused = ranking.fused.tolist()
        assert fused == sorted(fused)

    def test_ties_keep_gallery_order(self):
        rng = np.random.default_rng(52)
        g = GlobalFeature(rng.standard_normal(4))
        spatial = FeatureMatrix(rng.standard_normal((4, 3)))
        entries = {f"e{i}": (g, spatial) for i in range(5)}
        gallery = build_gallery(entries.items(), 0.7, BETA)
        probe = (GlobalFeature(rng.standard_normal(4)), FeatureMatrix(rng.standard_normal((4, 2))))
        ranking = match_probe(probe, gallery, "p")
        assert list(ranking.entry_ids) == [f"e{i}" for i in range(5)]

    def test_probe_dim_mismatch(self):
        rng = np.random.default_rng(48)
        gallery = random_gallery(rng, 3, dim=6)
        with pytest.raises(MismatchError):
            match_probe(
                (GlobalFeature(rng.standard_normal(5)), FeatureMatrix(rng.standard_normal((5, 3)))),
                gallery,
                "p",
            )


class TestEvaluation:
    def subjects(self, mapping):
        return mapping

    def test_single_probe_match_at_rank_two(self):
        subject_of = {"g1": "x", "g2": "t", "g3": "y"}
        rankings = [fake_ranking("p", ["g1", "g2", "g3"])]
        cmc = evaluate(rankings, {"p": "t"}, subject_of).cmc
        np.testing.assert_array_equal(cmc, [0.0, 1.0, 1.0])

    def test_all_rank_one(self):
        subject_of = {"g1": "a", "g2": "b"}
        rankings = [fake_ranking("p1", ["g1", "g2"]), fake_ranking("p2", ["g2", "g1"])]
        cmc = evaluate(rankings, {"p1": "a", "p2": "b"}, subject_of).cmc
        np.testing.assert_array_equal(cmc, [1.0, 1.0])

    def test_cmc_monotone_and_matches_enumeration(self):
        rng = np.random.default_rng(42)
        n = 6
        subject_of = {f"g{i}": f"s{i}" for i in range(n)}
        rankings = []
        truth = {}
        best = []
        for p in range(5):
            order = [f"g{i}" for i in rng.permutation(n)]
            rankings.append(fake_ranking(f"p{p}", order))
            target = f"s{int(rng.integers(0, n))}"
            truth[f"p{p}"] = target
            best.append(order.index(f"g{target[1:]}") + 1)
        cmc = evaluate(rankings, truth, subject_of).cmc
        for k in range(n):
            expected = sum(1 for b in best if b <= k + 1) / 5
            assert cmc[k] == pytest.approx(expected)
        assert all(a <= b for a, b in zip(cmc, cmc[1:]))

    def test_map_single_true_match(self):
        subject_of = {"g1": "x", "g2": "t"}
        assert evaluate([fake_ranking("p", ["g2", "g1"])], {"p": "t"}, subject_of).map == 1.0
        assert evaluate([fake_ranking("p", ["g1", "g2"])], {"p": "t"}, subject_of).map == 0.5

    def test_map_hand_mean(self):
        subject_of = {"g1": "a", "g2": "b"}
        rankings = [fake_ranking("p1", ["g1", "g2"]), fake_ranking("p2", ["g1", "g2"])]
        truth = {"p1": "a", "p2": "b"}
        got = evaluate(rankings, truth, subject_of).map
        assert got == pytest.approx(0.75)  # AP 1.0 and 0.5

    def test_multi_match_average_precision(self):
        # matches at positions 1 and 3: AP = (1/1 + 2/3) / 2
        subject_of = {"g1": "t", "g2": "x", "g3": "t"}
        report = evaluate([fake_ranking("p", ["g1", "g2", "g3"])], {"p": "t"}, subject_of)
        assert report.per_probe_ap[0] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_probe_without_true_match(self):
        subject_of = {"g1": "a"}
        with pytest.raises(MismatchError, match="no gallery entry"):
            evaluate([fake_ranking("p", ["g1"])], {"p": "zzz"}, subject_of).cmc

    def test_unknown_probe_id(self):
        subject_of = {"g1": "a"}
        with pytest.raises(MismatchError, match="unknown probe"):
            evaluate([fake_ranking("p", ["g1"])], {"other": "a"}, subject_of).cmc

    @pytest.mark.parametrize("order, message", [
        (["g1", "g1"], "2 entries, 1 distinct"),
        (["g1", "g3"], r"unknown: \['g3'\]"),
        (["g1"], r"missing: \['g2'\]"),
    ])
    def test_ranking_must_list_each_gallery_entry_once(self, order, message):
        # a ranking listing g1 twice and omitting g2 used to score mAP 1.0
        subject_of = {"g1": "a", "g2": "b"}
        with pytest.raises(MismatchError, match=message):
            evaluate([fake_ranking("p", order)], {"p": "a"}, subject_of)

    def test_map_bounds(self):
        rng = np.random.default_rng(49)
        n = 8
        subject_of = {f"g{i}": f"s{i % 4}" for i in range(n)}
        rankings = []
        truth = {}
        for p in range(6):
            order = [f"g{i}" for i in rng.permutation(n)]
            rankings.append(fake_ranking(f"p{p}", order))
            truth[f"p{p}"] = f"s{int(rng.integers(0, 4))}"
        report = evaluate(rankings, truth, subject_of)
        assert 0.0 < report.map <= 1.0


class TestManifests:
    def test_round_trip(self, tmp_path):
        from sfr.retrieval import ManifestEntry

        entries = [ManifestEntry("e1", "s1", "maps/e1.sfrf"), ManifestEntry("e2", "s1", "maps/e2.sfrf")]
        path = tmp_path / "gallery.jsonl"
        write_manifest(path, entries)
        assert load_manifest(path) == entries

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"entryId": "a", "subjectId": "s", "path": "x"}\nnot json\n')
        with pytest.raises(FormatError, match="2"):
            load_manifest(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"entryId": "a", "path": "x"}\n')
        with pytest.raises(FormatError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "key, value",
        [("subjectId", None), ("entryId", None), ("path", True), ("subjectId", False), ("entryId", ["a"]), ("path", {})],
        ids=["subject-null", "entry-null", "path-true", "subject-false", "entry-array", "path-object"],
    )
    def test_value_that_is_not_text(self, tmp_path, key, value):
        # str() would read null as the subject "None", which two entries could share.
        lines = [
            {"entryId": "b", "subjectId": "s", "path": "y"},
            {"entryId": "a", "subjectId": "s", "path": "x", key: value},
        ]
        path = tmp_path / "m.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(FormatError, match=f":2: .*{key}"):
            load_manifest(path)

    def test_numbers_read_as_text(self, tmp_path):
        from sfr.retrieval import ManifestEntry

        # Each number keeps its spelling: 1.0, 1.00 and 1e0 are three
        # subjects, and 1E2 is not the id "100.0".
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"entryId": 7, "subjectId": 1.5, "path": "x"}\n'
            '{"entryId": 1E2, "subjectId": 1.00, "path": "y"}\n'
            '{"entryId": -0, "subjectId": 1e0, "path": 3}\n'
            '{"entryId": "a", "subjectId": 1.0, "path": "z"}\n'
        )
        assert load_manifest(path) == [
            ManifestEntry("7", "1.5", "x"),
            ManifestEntry("1E2", "1.00", "y"),
            ManifestEntry("-0", "1e0", "3"),
            ManifestEntry("a", "1.0", "z"),
        ]

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n")
        with pytest.raises(FormatError, match="empty"):
            load_manifest(path)

    def test_duplicate_entry_ids(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"entryId": "a", "subjectId": "s", "path": "x"}\n'
            '{"entryId": "a", "subjectId": "t", "path": "y"}\n'
        )
        with pytest.raises(FormatError, match="duplicate"):
            load_manifest(path)

    @pytest.mark.parametrize("entry_id", ["g,1", 'g"1', "g\r1", "g\n1"], ids=["comma", "quote", "cr", "lf"])
    def test_entry_id_that_would_break_the_rankings_csv(self, tmp_path, entry_id):
        from sfr.retrieval import ManifestEntry

        path = tmp_path / "m.jsonl"
        write_manifest(path, [ManifestEntry("ok", "s", "x"), ManifestEntry(entry_id, "s", "y")])
        with pytest.raises(FormatError, match=":2: entry id"):
            load_manifest(path)


class TestEvalOutputs:
    def test_cmc_csv(self, tmp_path):
        path = tmp_path / "cmc.csv"
        write_cmc_csv(path, np.array([0.5, 1.0]))
        assert path.read_text() == "rank,cmc\n1,0.5\n2,1\n"

    def test_summary_json(self, tmp_path):
        subject_of = {"g1": "x", "g2": "t", "g3": "y"}
        report = evaluate([fake_ranking("p", ["g1", "g2", "g3"])], {"p": "t"}, subject_of)
        path = tmp_path / "summary.json"
        write_summary_json(path, report)
        summary = json.loads(path.read_text())
        assert set(summary) == {"mAP", "rank1", "rank3", "rank5", "rank10"}
        assert summary["rank1"] == 0.0
        assert summary["rank3"] == 1.0
        assert summary["rank10"] == 1.0  # clamped to gallery size
        assert summary["mAP"] == 0.5
