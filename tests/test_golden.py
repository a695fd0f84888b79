"""End-to-end outputs pinned to recorded values.

Two episodes of the acceptance stream (seed 20230: 5-way 1-shot, 15+15
queries, 10x10x64, shift 0.6) under four ablation rows.  Predictions,
k, rounds, the confident counts and the skipped SPA classes must match
exactly; the four losses within a relative 1e-9.  A refactor that moves
any of them has changed what the pipeline computes.
"""

import math
from typing import NamedTuple

import pytest

from fewshift.engine import PipelineConfig, SyntheticTaskStream, config_for_toggles, evaluate
from fewshift.synthgen import SynthConfig

STREAM = SynthConfig(
    seed=20230, n_way=5, k_shot=1, n_query=15, height=10, width=10, channels=64,
    parts_per_class=2, part_noise=0.05, pixel_noise=0.15, shift_strength=0.6,
    distractor_rate=0.2,
)
ROWS = {
    "tse+catt+cs": {"tse", "catt", "cs"},
    "tse": {"tse"},
    "cs": {"cs"},
    "baseline": set(),
}


class Golden(NamedTuple):
    predictions: str
    k: int
    rounds: int
    confident_per_class: list[int]
    spa_skipped: int
    losses: tuple[float, float, float, float]  # l_cls, l_sfa, l_spa, l_clm


GOLDEN = {
    "tse+catt+cs": [
        Golden(
            "000000000000000111111111111111222222222222222333333333333333444444444444444",
            19, 2, [8, 10, 7, 9, 11], 0,
            (1.0302542638315275, 573.3841832359354, 3.6858421878543464, 101.68922308725783),
        ),
        Golden(
            "030000000000000111113311111111222222222222222333333333333333444444444444444",
            20, 3, [9, 4, 8, 6, 12], 0,
            (1.1075300850282064, 914.7396822239289, 3.8993207927926186, 103.96198113532),
        ),
    ],
    "tse": [
        Golden(
            "000000000000000111141111111111222222222222222333333333333333444444444444444",
            19, 0, [0, 0, 0, 0, 0], 0,
            (1.0302542638315275, 573.3841832359354, 3.6858421878543464, 102.6296849347402),
        ),
        Golden(
            "030000000000000111111111111111222222222222222333333333333333444444444444444",
            20, 0, [0, 0, 0, 0, 0], 0,
            (1.0944568831788108, 616.0269578895344, 2.9344935679759576, 103.85623917610066),
        ),
    ],
    "cs": [
        Golden(
            "434034004144004413341341134111322432332222244333333333334344444444444444444",
            0, 0, [0, 0, 0, 0, 0], 0,
            (1.2335286639129244, 7333.202782887637, 358.06002021824406, 109.96774685374055),
        ),
        Golden(
            "032022300230333432113313131211322222212332222333333333333333444234414444434",
            0, 0, [0, 0, 0, 0, 0], 0,
            (1.2847236248262397, 7651.838772571424, 458.5787174082309, 110.43627763561432),
        ),
    ],
    "baseline": [
        Golden(
            "434034004144004413341341134111322432332222244333333333334344444444444444444",
            0, 0, [0, 0, 0, 0, 0], 0,
            (1.2335286639129244, 7333.202782887637, 358.06002021824406, 109.96774685374055),
        ),
        Golden(
            "032022300230333432113313131211322222212332222333333333333333444234414444434",
            0, 0, [0, 0, 0, 0, 0], 0,
            (1.2847236248262397, 7651.838772571424, 458.5787174082309, 110.43627763561432),
        ),
    ],
}


# content_hash() of the two episodes: a change to how an episode is stored
# or hashed must not move them
EPISODE_HASHES = [
    "863ad73fd98dd16adfeba7578013c18bac648858941bc00fc2c5cdd4143676c3",
    "5392357f82279d268b9e86fe2b45e93fc08b1a03a96b06fa4db670934aa6722f",
]


@pytest.mark.parametrize("row", list(ROWS))
def test_outputs_match_recorded(row):
    run = evaluate(SyntheticTaskStream(STREAM), 2, config_for_toggles(PipelineConfig(), ROWS[row]))
    assert not run.failures
    assert [report.episode_hash for report in run.reports] == EPISODE_HASHES
    for report, want in zip(run.reports, GOLDEN[row], strict=True):
        assert "".join(map(str, report.predictions.tolist())) == want.predictions
        assert (report.k, report.rounds) == (want.k, want.rounds)
        assert report.confident_per_class == want.confident_per_class
        assert report.spa_skipped == want.spa_skipped
        got = (report.l_cls, report.l_sfa, report.l_spa, report.l_clm)
        for name, a, b in zip(("l_cls", "l_sfa", "l_spa", "l_clm"), got, want.losses):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0), (name, a, b)
