"""Exact hit tables and the checks every answer goes through.

The tables come from the full-scan kernel (``sw_score_packed``) run in
the load-generator process, never from the server under test, and are
built before any timed window.  Exact answers must match the table's
top-k bit for bit; cascade answers must report exact scores and miss no
exact hit at or above the cascade's reporting threshold.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.align.scoring import default_scheme
from repro.align.sw_batch import sw_score_packed
from repro.engine.pipeline import PIPELINE_PRESETS
from repro.sequences import PackedDatabase, Sequence, SequenceDatabase

#: Scores below this are not guaranteed by the cascade (filtered
#: subjects carry 0); the ``default`` preset's reporting cutoff.
PIPELINE_THRESHOLD = PIPELINE_PRESETS["default"].threshold


class ScoreTable:
    """Exact scores of a set of queries against a set of subjects."""

    def __init__(self, subject_ids: list[str], scores: dict[str, np.ndarray]):
        self.subject_ids = list(subject_ids)
        self.scores = scores  # query id -> int64 vector over subject_ids

    @classmethod
    def compute(
        cls, queries: list[Sequence], subjects: list[Sequence], threads: int = 2
    ) -> "ScoreTable":
        """Full scan of every query (the cc kernels release the GIL, so
        threads run in parallel)."""
        packed = PackedDatabase.from_database(SequenceDatabase("oracle", subjects))
        scheme = default_scheme()

        def one(query: Sequence) -> tuple[str, np.ndarray]:
            return query.id, np.asarray(sw_score_packed(query, packed, scheme), dtype=np.int64)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            scores = dict(pool.map(one, queries))
        return cls([s.id for s in subjects], scores)

    def joined(self, other: "ScoreTable") -> "ScoreTable":
        """Scores against the union of both subject sets."""
        return ScoreTable(
            self.subject_ids + other.subject_ids,
            {q: np.concatenate([v, other.scores[q]]) for q, v in self.scores.items()},
        )

    def top(self, query_id: str, k: int) -> list[tuple[str, int]]:
        """The exact top-k, ordered by (-score, subject id)."""
        scores = self.scores[query_id]
        ranked = sorted(zip(self.subject_ids, scores.tolist()), key=lambda h: (-h[1], h[0]))
        return ranked[:k]

    def score(self, query_id: str, subject_id: str) -> int | None:
        try:
            return int(self.scores[query_id][self.subject_ids.index(subject_id)])
        except ValueError:
            return None


def check_exact(table: ScoreTable, query_id: str, hits: list, k: int) -> str | None:
    """``None`` if *hits* equal the exact top-k, else a reason."""
    got = [(str(s), int(v)) for s, v in hits]
    want = table.top(query_id, k)
    if got != want:
        return f"{query_id}: got {got[:3]}..., want {want[:3]}..."
    return None


def check_pipeline(
    table: ScoreTable, query_id: str, hits: list, k: int, parents: dict[str, str]
) -> str | None:
    """``None`` if the cascade answer is sound, else a reason.

    Every reported score at or above the threshold equals the exact
    score (below it the cascade reports lower bounds), and a homolog
    query's parent is reported with its exact score whenever the parent
    is in the exact top-k at or above the threshold.  Losing an
    unrelated near-threshold hit is the cascade's documented
    sensitivity trade; :func:`hits_lost` counts those.
    """
    got = {str(s): int(v) for s, v in hits}
    for subject, score in got.items():
        exact = table.score(query_id, subject)
        if exact is None:
            return f"{query_id}: unknown subject {subject}"
        if score > exact or (score >= PIPELINE_THRESHOLD and score != exact):
            return f"{query_id}: {subject} scored {score}, exact {exact}"
    parent = parents.get(query_id)
    for subject, exact in table.top(query_id, k):
        if subject == parent and exact >= PIPELINE_THRESHOLD and got.get(subject) != exact:
            return f"{query_id}: missing homolog parent {subject}:{exact}"
    return None


def hits_lost(table: ScoreTable, query_id: str, hits: list, k: int) -> int:
    """Exact top-k hits at or above the threshold the answer lacks."""
    got = {str(s) for s, _ in hits}
    return sum(
        1
        for subject, exact in table.top(query_id, k)
        if exact >= PIPELINE_THRESHOLD and subject not in got
    )
