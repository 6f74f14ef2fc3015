"""N-gram LM quality scoring (pipelines/quality.py) vs a direct
python reference model."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from packcol.pipelines.quality import (fit_bigram_lm, perplexity_filter,
                                       score_bigram_logprob)


def _corpus(n=400, seed=3):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)]
    # natural docs: markov-ish chains; gibberish docs: rare random junk
    docs = []
    for i in range(n):
        if i % 20 == 19:
            docs.append(" ".join(
                f"zz{rng.integers(0, 10**6)}" for _ in range(12)))
        else:
            start = int(rng.integers(0, 30))
            docs.append(" ".join(
                vocab[(start + j * 3) % 40] for j in range(20)))
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "text": docs})


def _ref_score(df, doc, bits=20, alpha=0.1):
    """Pure-python reference of the hashed bigram model."""
    from packcol.functions.text import _hash_words
    from packcol.pipelines.quality import _bigram_hash, _bucket
    uni = {}
    bi = {}
    for t in df["text"]:
        ws = t.split(" ")
        hs = _hash_words(ws)
        for h in hs:
            b = int(_bucket(np.array([h], np.uint64), bits)[0])
            uni[b] = uni.get(b, 0) + 1
        for a, b2 in zip(hs[:-1], hs[1:]):
            bb = int(_bucket(_bigram_hash(
                np.array([a], np.uint64), np.array([b2], np.uint64)),
                bits)[0])
            bi[bb] = bi.get(bb, 0) + 1
    ws = doc.split(" ")
    hs = _hash_words(ws)
    V = float(1 << bits)
    lps = []
    for a, b2 in zip(hs[:-1], hs[1:]):
        pb = int(_bucket(np.array([a], np.uint64), bits)[0])
        bb = int(_bucket(_bigram_hash(
            np.array([a], np.uint64), np.array([b2], np.uint64)),
            bits)[0])
        lps.append(np.log((bi.get(bb, 0) + alpha)
                          / (uni.get(pb, 0) + alpha * V)))
    return float(np.mean(lps))


def test_scores_match_reference(ray_session):
    import ray.data as rd
    df = _corpus(n=60)
    ds = rd.from_pandas(df).repartition(4)
    model = fit_bigram_lm(ds, "text")
    scored = score_bigram_logprob(ds, model, "text").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    for i in (0, 7, 19):
        np.testing.assert_allclose(
            scored["lm_score"][i], _ref_score(df, df["text"][i]),
            rtol=1e-9)


def test_gibberish_scores_low(ray_session):
    import ray.data as rd
    df = _corpus()
    ds = rd.from_pandas(df).repartition(4)
    model = fit_bigram_lm(ds, "text")
    scored = score_bigram_logprob(ds, model, "text").to_pandas()
    gib = scored["doc_id"] % 20 == 19
    assert scored.loc[gib, "lm_score"].max() < \
        scored.loc[~gib, "lm_score"].min()


def test_perplexity_filter_drops_tail(ray_session):
    import ray.data as rd
    df = _corpus()
    kept, meta = perplexity_filter(
        rd.from_pandas(df).repartition(4), "text",
        keep_quantiles=(0.06, 1.0), sketch_k=4096)
    out = kept.to_pandas()
    assert meta["lo"] < meta["hi"]
    # the 5% planted-gibberish docs fall below the 6% cut
    assert (out["doc_id"] % 20 == 19).sum() == 0
    assert len(out) > 0.85 * len(df)


def test_short_docs_score_null(ray_session):
    import ray.data as rd
    df = pd.DataFrame({"doc_id": [0, 1], "text": ["solo", "two words"]})
    model = fit_bigram_lm(rd.from_pandas(df), "text")
    scored = score_bigram_logprob(rd.from_pandas(df), model, "text")
    s = scored.to_pandas().sort_values("doc_id")
    assert np.isnan(s["lm_score"].iloc[0])
    assert np.isfinite(s["lm_score"].iloc[1])
    # NULL, not NaN: pc.is_null does not count NaN by default
    t = pa.concat_tables(list(scored.iter_batches(
        batch_format="pyarrow", batch_size=None)))
    t = t.sort_by("doc_id")
    assert pc.is_null(t.column("lm_score")).to_pylist() == [True, False]
