"""Invariants of the reconstruction score on generated inputs: the distance
lies between 0 and the probe's mean column norm, permuting the gallery
permutes each entry's d, r and s bit for bit, at alpha = 0 or 1 the fused
score is r or d bit for bit and ranks as that distance alone, and r
reconstructs the probe from the entry, not the entry from the probe. Needs
hypothesis; skipped where it is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from sfr.features import FeatureMatrix, GlobalFeature  # noqa: E402
from sfr.reconstruction import ReconstructionScorer, sfr_distance  # noqa: E402
from sfr.retrieval import build_gallery, match_probe  # noqa: E402

# Entries up to 10 in magnitude keep ||Y||^2 <= 8 * 8 * 100, so beta >= 1e-3
# keeps the condition number of Y^T Y + beta I and of Y Y^T + beta I below
# COND_MAX: every generated case must be scored, and rounding moves r by
# about COND_MAX * eps relative, times a small dimension factor.
FINITE = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
BETA = st.floats(1e-3, 1e3)
COND_MAX = (8 * 8 * 100 + 1e-3) / 1e-3
ROUNDING = 64 * COND_MAX * np.finfo(np.float64).eps


@st.composite
def probe_and_dictionaries(draw):
    d = draw(st.integers(1, 8))
    x = draw(arrays(np.float64, (d, draw(st.integers(1, 8))), elements=FINITE))
    counts = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    ys = [draw(arrays(np.float64, (d, m), elements=FINITE)) for m in counts]
    return x, ys


@settings(max_examples=200, deadline=None)
@given(probe_and_dictionaries(), BETA)
def test_distance_lies_between_zero_and_the_mean_column_norm(case, beta):
    # The residual operator I - Y (Y^T Y + beta I)^{-1} Y^T is symmetric with
    # eigenvalues in (0, 1], so no residual column is longer than x's column.
    x, ys = case
    r = ReconstructionScorer([FeatureMatrix(y) for y in ys], beta).distances(FeatureMatrix(x))
    bound = float(np.linalg.norm(x, axis=0).mean())
    assert (r >= 0.0).all()
    assert (r <= bound * (1.0 + ROUNDING) + 1e-12).all(), (r, bound)


@st.composite
def gallery_and_probe(draw):
    """(entry id, (global, spatial)) items of a gallery, and a probe."""
    d = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 9), min_size=2, max_size=6))
    entries = [
        (
            f"e{i}",
            (
                GlobalFeature(draw(arrays(np.float64, d, elements=FINITE))),
                FeatureMatrix(draw(arrays(np.float64, (d, m), elements=FINITE))),
            ),
        )
        for i, m in enumerate(counts)
    ]
    probe = (
        GlobalFeature(draw(arrays(np.float64, d, elements=FINITE))),
        FeatureMatrix(draw(arrays(np.float64, (d, draw(st.integers(1, 6))), elements=FINITE))),
    )
    return entries, probe


@st.composite
def gallery_and_permutation(draw):
    entries, probe = draw(gallery_and_probe())
    return entries, probe, draw(st.permutations(range(len(entries))))


@settings(max_examples=100, deadline=None)
@given(gallery_and_permutation(), st.floats(0.0, 1.0), BETA)
def test_permuting_the_gallery_permutes_each_entrys_scores(case, alpha, beta):
    entries, probe, perm = case

    def scores(gallery_entries):
        ranking = match_probe(probe, build_gallery(gallery_entries, alpha, beta))
        return {
            e: (d, r, s)
            for e, d, r, s in zip(ranking.entry_ids, ranking.global_dist, ranking.sfr_dist, ranking.fused)
        }

    before = scores(entries)
    after = scores([entries[i] for i in perm])
    assert before.keys() == after.keys()
    for entry_id, values in before.items():
        # Bit for bit: compare the float64 bytes, which also tells -0.0 from 0.0.
        assert np.array(values).tobytes() == np.array(after[entry_id]).tobytes(), entry_id


@settings(max_examples=100, deadline=None)
@given(gallery_and_probe(), st.sampled_from([0.0, 1.0]), BETA)
def test_fusion_endpoints_are_one_distance_alone(case, alpha, beta):
    # s = alpha * d + (1 - alpha) * r is r at alpha = 0 and d at alpha = 1,
    # and the ranking is the stable argsort of that column in gallery order.
    entries, probe = case
    ranking = match_probe(probe, build_gallery(entries, alpha, beta))
    column = ranking.global_dist if alpha == 1.0 else ranking.sfr_dist
    assert ranking.fused.tobytes() == column.tobytes()
    position = {entry_id: i for i, (entry_id, _) in enumerate(entries)}
    in_gallery_order = np.empty_like(column)
    in_gallery_order[[position[e] for e in ranking.entry_ids]] = column
    order = np.argsort(in_gallery_order, kind="stable")
    assert [entries[i][0] for i in order] == list(ranking.entry_ids)


@settings(max_examples=100, deadline=None)
@given(gallery_and_probe(), st.floats(0.0, 1.0), BETA)
def test_probe_and_entry_roles_are_not_interchangeable(case, alpha, beta):
    # r reconstructs the probe's columns from the entry's, so swapping the
    # two roles gives the distance in the other direction.
    entries, probe = case
    entry = entries[0][1]

    def r(query, stored):
        return float(match_probe(query, build_gallery([("e", stored)], alpha, beta)).sfr_dist[0])

    forward, backward = r(probe, entry), r(entry, probe)
    expected_forward = sfr_distance(probe[1], entry[1], beta)
    expected_backward = sfr_distance(entry[1], probe[1], beta)
    assert abs(forward - expected_forward) <= ROUNDING * expected_forward + 1e-12, (forward, expected_forward)
    assert abs(backward - expected_backward) <= ROUNDING * expected_backward + 1e-12, (backward, expected_backward)
    if abs(expected_forward - expected_backward) > 1e-6 * max(expected_forward, expected_backward):
        assert forward != backward
