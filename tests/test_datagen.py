import json

import numpy as np
import pytest

from tvdpm.datagen import (
    DENSITY_PRESETS,
    TOPIC_PRESET,
    gen_density_data,
    gen_topic_corpus,
    mixture_density,
)
from tvdpm.models import DataError


class TestDensityStream:
    def test_paper_timeline(self, rng):
        cfg = DENSITY_PRESETS["paper-4.1"]
        recs = list(gen_density_data(cfg, rng))
        assert len(recs) == 1000
        # abrupt changes at 301 and 601, drift over 701..850
        assert recs[299]["truth"] != recs[300]["truth"]
        assert recs[599]["truth"] != recs[600]["truth"]
        mu_700 = recs[699]["truth"][0]["mu"]
        mu_850 = recs[849]["truth"][0]["mu"]
        mu_900 = recs[899]["truth"][0]["mu"]
        assert mu_700 != mu_850
        assert mu_850 == mu_900 == -1.5

    def test_scaled_timeline(self, rng):
        cfg = DENSITY_PRESETS["paper-4.1-scaled"]
        recs = list(gen_density_data(cfg, rng))
        assert len(recs) == 300
        assert recs[99]["truth"] != recs[100]["truth"]
        assert len(recs[100]["truth"]) == 3
        assert recs[199]["truth"] != recs[200]["truth"]

    def test_truth_normalized(self, rng):
        cfg = DENSITY_PRESETS["paper-4.1-scaled"]
        grid = np.linspace(-40.0, 40.0, 8001)
        for rec in gen_density_data(cfg, rng):
            if rec["t"] in (1, 101, 150, 250, 300):
                integral = np.trapezoid(mixture_density(grid, rec["truth"]), grid)
                assert integral == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        cfg = DENSITY_PRESETS["paper-4.1-scaled"]
        a = [json.dumps(r) for r in gen_density_data(cfg, np.random.default_rng(5))]
        b = [json.dumps(r) for r in gen_density_data(cfg, np.random.default_rng(5))]
        assert a == b

    def test_bad_weights_rejected(self, rng):
        cfg = {
            "T": 2,
            "segments": [
                {"start": 1, "end": 2, "components": [{"w": 0.5, "mu": 0.0, "sigma": 1.0}]}
            ],
        }
        with pytest.raises(ValueError):
            list(gen_density_data(cfg, rng))

    @pytest.mark.parametrize(
        "weights,named",
        [((1.0, 0.8, 1.0), "weights at t=2"), ((1.0, None, 1.0), "time 2 not covered")],
        ids=["middle-weights", "gap"],
    )
    def test_every_step_checked(self, rng, weights, named):
        # the old check read the weights at t = 1 and t = T only
        cfg = {
            "T": 3,
            "segments": [
                {"start": t, "end": t, "components": [{"w": w, "mu": 0.0, "sigma": 1.0}]}
                for t, w in enumerate(weights, start=1)
                if w is not None
            ],
        }
        with pytest.raises(DataError, match=named):
            gen_density_data(cfg, rng)


class TestTopicCorpus:
    def test_shapes(self, rng):
        records, vocab, topics = gen_topic_corpus(TOPIC_PRESET, rng)
        assert len(records) == TOPIC_PRESET["T"]
        assert len(vocab) == TOPIC_PRESET["K"]
        assert len(topics) == TOPIC_PRESET["n_topics"]
        for rec in records:
            assert len(rec["words"]) == TOPIC_PRESET["n_per_step"]
            assert all(0 <= w < TOPIC_PRESET["K"] for w in rec["words"])
        for p in topics:
            assert p.sum() == pytest.approx(1.0)

    def test_blocks_disjoint(self, rng):
        _, _, topics = gen_topic_corpus(TOPIC_PRESET, rng)
        spans = [set(np.where(p > 0.01)[0]) for p in topics]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                assert not (spans[i] & spans[j])

    def test_overlapping_blocks_rejected(self, rng):
        cfg = dict(TOPIC_PRESET, K=10, n_topics=3, within_topic_words=4)
        with pytest.raises(ValueError):
            gen_topic_corpus(cfg, rng)
