"""N-gram language-model quality scoring (CCNet-style perplexity
filtering) — Ray-Data-first.

The standard web-corpus curation step: fit a small language model on
the corpus (or a reference corpus), score every document by its
per-token log-probability, drop the tails (gibberish scores low,
boilerplate scores suspiciously high).  Here the model is a hashed
bigram LM:

* **fit** — one streaming pass counts unigrams and bigrams into two
  FIXED-SIZE hash-bucket arrays (count-min-style: collisions only
  OVERcount, and at 2^20 buckets vs 10^4-10^5 real types the bias is
  negligible); per-batch partial arrays tree-merge through
  ``repartition(fanin)`` so the driver sums ≤ fanin arrays of 2^b
  int64 — bounded regardless of corpus size, the same merge shape as
  the KLL sketch.
* **score** — a second pass broadcasts the count arrays (``ray.put``
  once) and computes every document's mean bigram log-probability
  with add-α smoothing, fully vectorized over the flat token-hash
  stream (functions/text.py::token_hashes) — no Python loop over
  tokens or rows.

Scores are deterministic for a fixed corpus + seed.  No reference
analogue (SURVEY §2.7); this is the LLM-pipeline text-quality family
(task brief) beyond the closed-form features in functions/text.py.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

_DEFAULT_BITS = 20


def _bucket(h: np.ndarray, bits: int) -> np.ndarray:
    return (h >> np.uint64(64 - bits)).astype(np.int64)


def _bigram_hash(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    from ..functions.text import _splitmix64
    with np.errstate(over="ignore"):
        return _splitmix64(prev * np.uint64(0x100000001B3) ^ cur)


def fit_bigram_lm(ds, text_col: str = "text", bits: int = _DEFAULT_BITS,
                  fanin: int = 16) -> dict:
    """One pass → {"uni": int64[2^bits], "bi": int64[2^bits],
    "n_tokens": int, "bits": b}."""
    from ..functions.text import token_hashes
    size = 1 << bits

    def _blob(uni: np.ndarray, bi: np.ndarray) -> pa.Table:
        # ONE self-contained row per partial: repartition moves whole
        # rows, so the bucket-index association survives any split
        return pa.table({"counts": pa.array(
            [uni.tobytes() + bi.tobytes()], type=pa.large_binary())})

    def _unblob(col: pa.Array):
        acc_u = np.zeros(size, dtype=np.int64)
        acc_b = np.zeros(size, dtype=np.int64)
        for v in col:
            buf = np.frombuffer(v.as_py(), dtype=np.int64)
            acc_u += buf[:size]
            acc_b += buf[size:]
        return acc_u, acc_b

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h, rows = token_hashes(col)
        uni = np.zeros(size, dtype=np.int64)
        bi = np.zeros(size, dtype=np.int64)
        if len(h):
            np.add.at(uni, _bucket(h, bits), 1)
            same = rows[1:] == rows[:-1]
            bh = _bigram_hash(h[:-1][same], h[1:][same])
            np.add.at(bi, _bucket(bh, bits), 1)
        return _blob(uni, bi)

    def merge(batch: pa.Table) -> pa.Table:
        col = batch.column("counts")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return _blob(*_unblob(col))

    rows = (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .repartition(fanin)
            .map_batches(merge, batch_size=None,
                         batch_format="pyarrow")
            .to_arrow_refs())
    import ray
    tables = [t for t in ray.get(rows)
              if isinstance(t, pa.Table) and t.num_rows]
    uni = np.zeros(size, dtype=np.int64)
    bi = np.zeros(size, dtype=np.int64)
    for t in tables:
        u, b = _unblob(t.column("counts").combine_chunks()
                       if isinstance(t.column("counts"), pa.ChunkedArray)
                       else t.column("counts"))
        uni += u
        bi += b
    return {"uni": uni, "bi": bi, "n_tokens": int(uni.sum()),
            "bits": bits}


def score_bigram_logprob(ds, model: dict, text_col: str = "text",
                         alpha: float = 0.1,
                         out_col: str = "lm_score"):
    """Per-document mean bigram log-probability under ``model`` with
    add-α smoothing: score(d) = mean over positions i≥1 of
    log((C₂[prev,cur] + α) / (C₁[prev] + α·V)).  Documents with < 2
    tokens score NULL.  The model broadcasts once (``ray.put``);
    scoring is one vectorized pass.  Returns the Dataset with
    ``out_col`` appended (float64, higher = more corpus-typical)."""
    import ray
    from ..functions.text import token_hashes
    bits = model["bits"]
    V = float(1 << bits)
    mref = ray.put((model["uni"], model["bi"]))

    def score(batch: pa.Table) -> pa.Table:
        uni, bi = ray.get(mref)
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h, rows = token_hashes(col)
        n = batch.num_rows
        out = np.full(n, np.nan)
        if len(h) > 1:
            same = rows[1:] == rows[:-1]
            prev_b = _bucket(h[:-1][same], bits)
            bh = _bucket(_bigram_hash(h[:-1][same], h[1:][same]), bits)
            lp = np.log((bi[bh] + alpha) / (uni[prev_b] + alpha * V))
            r = rows[1:][same]
            s = np.zeros(n)
            c = np.zeros(n)
            np.add.at(s, r, lp)
            np.add.at(c, r, 1.0)
            has = c > 0
            out[has] = s[has] / c[has]
        # NaN marks the rows without a bigram: they score NULL
        return batch.append_column(out_col,
                                   pa.array(out, mask=np.isnan(out)))

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def perplexity_filter(ds, text_col: str = "text", *,
                      keep_quantiles: tuple = (0.05, 0.99),
                      bits: int = _DEFAULT_BITS, alpha: float = 0.1,
                      sketch_k: int = 512):
    """The composed CCNet-shaped curation step: fit the corpus LM,
    score every document, and keep the middle of the score
    distribution — the low tail is gibberish, the extreme high tail is
    boilerplate/repetition.  Cut points come from the KLL quantile
    sketch over the scores (no exact-quantile pass).  Returns
    (filtered dataset, {"lo": .., "hi": .., "n_tokens": ..})."""
    import pyarrow.compute as pc
    from ..stages.sketch import kll_quantiles
    model = fit_bigram_lm(ds, text_col, bits=bits)
    scored = score_bigram_logprob(ds, model, text_col, alpha=alpha)
    qs = kll_quantiles(scored, "lm_score", list(keep_quantiles),
                       k=sketch_k)
    lo, hi = float(qs["value"][0]), float(qs["value"][1])

    def keep(batch: pa.Table) -> pa.Table:
        s = batch.column("lm_score")
        m = pc.and_(pc.greater_equal(s, lo), pc.less_equal(s, hi))
        return batch.filter(pc.fill_null(m, False))

    return (scored.map_batches(keep, batch_format="pyarrow",
                               zero_copy_batch=True),
            {"lo": lo, "hi": hi, "n_tokens": model["n_tokens"]})
