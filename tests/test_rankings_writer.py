"""The rankings CSV writer: its bytes equal one f-string line per row for
arbitrary floats. Needs hypothesis; skipped where it is not installed."""

import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sfr.cli import _write_rankings_csv  # noqa: E402
from sfr.retrieval import RetrievalRanking  # noqa: E402


_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"), min_size=1, max_size=8)
_SCORES = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _rankings(draw):
    rankings = []
    for probe_id in draw(st.lists(_IDS, min_size=1, max_size=4, unique=True)):
        ids = draw(st.lists(_IDS, min_size=1, max_size=6))
        d, r, s = (draw(st.lists(_SCORES, min_size=len(ids), max_size=len(ids))) for _ in range(3))
        rankings.append(RetrievalRanking(probe_id, tuple(ids), d, r, s))
    return rankings


class TestRankingsWriter:
    # The writer formats each probe's rows from its columns at once; its
    # bytes must equal one f-string line per row.
    @settings(max_examples=200, deadline=None)
    @given(_rankings())
    @example([RetrievalRanking("p", ("a", "b", "c", "d"), [-0.0, 5e-324, 2.2250738585072014e-308, math.nan],
                               [1.7976931348623157e308, -1e308, 9.99e307, math.inf],
                               [0.1, 1 / 3, -math.inf, 1e-310])])
    def test_bytes_equal_per_row_lines(self, rankings):
        lines = ["probeId,rank,entryId,d,r,s\n"]
        for ranking in rankings:
            columns = (ranking.global_dist.tolist(), ranking.sfr_dist.tolist(), ranking.fused.tolist())
            rows = zip(ranking.entry_ids, *columns)
            for rank, (entry_id, d, r, s) in enumerate(rows, start=1):
                lines.append(f"{ranking.probe_id},{rank},{entry_id},{d:.17g},{r:.17g},{s:.17g}\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rankings.csv"
            _write_rankings_csv(path, rankings)
            assert path.read_bytes() == "".join(lines).encode("utf-8")
