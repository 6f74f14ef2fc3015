"""Codec auto-selection: a deterministic pure function of column stats.

Determinism matters for resume: re-running a partition must reproduce a
byte-identical encoded block (SURVEY.md §7 "codec decision stability").
The decision is cost-based — estimated encoded size per codec from the
stats — followed by a trial-encode size guard against passthrough.
"""

from __future__ import annotations

import pyarrow as pa

from ..codecs import EncodedColumn, all_codecs, get_codec
from ..codecs.bitpack import bits_needed
from ..codecs.forpack import is_int_like
from ..codecs.fsst import _is_stringy


def estimate_sizes(dtype: pa.DataType, s: dict) -> dict:
    """Estimated encoded bytes per applicable codec (heuristic, cheap)."""
    n = s["n"]
    if n == 0:
        return {"store": 0}
    est: dict[str, float] = {}
    nd = max(s.get("n_distinct", n), 1)
    nr = max(s.get("n_runs", n), 1)
    raw = s["raw_bytes"]
    avg_val_bytes = raw / n

    dict_bytes = nd * avg_val_bytes + 64  # values + ipc overhead
    code_w = bits_needed(nd - 1)
    est["dict"] = n * code_w / 8 + dict_bytes
    est["rle"] = nr * (code_w + bits_needed(n)) / 8 + dict_bytes

    if is_int_like(dtype) and "min" in s:
        width = bits_needed(int(s["max"]) - int(s["min"]))
        est["for"] = n * width / 8 + 16
        if "delta_max_abs" in s:
            dw = bits_needed(2 * int(s["delta_max_abs"]))
            est["delta"] = n * dw / 8 + 16
    if "dec_scale_sampled" in s:
        est["decfloat"] = n * s.get("dec_width", 40) / 8 + 16
    if "trial_tokdict_payload" in s:
        frac = max(s.get("trial_tokdict_rows", 1), 1) / n
        ed = max(s.get("est_tok_distinct", 1), 1)
        eds = max(s.get("trial_tokdict_distinct", 1), 1)
        est["tokdict"] = (s["trial_tokdict_payload"] / frac
                          + s["trial_tokdict_aux"] * min(ed / eds, 1 / frac)
                          + 200)
    elif s.get("joinable_sampled"):
        et, ed = s.get("est_n_tokens", 0), max(s.get("est_tok_distinct", 1), 1)
        est["tokdict"] = (et * bits_needed(2 * ed) / 8
                          + ed * (s.get("avg_tok_len", 8) + 4) + 200)
    if "trial_toksep_payload" in s:
        # sample-measured: payload scales with rows, the dictionary with
        # the estimated full-column distinct-token count
        frac = max(s.get("trial_rows", 1), 1) / n
        td = max(s.get("toksep_distinct_est", 1), 1)
        tds = max(s.get("trial_toksep_distinct", 1), 1)
        est["toksep"] = (s["trial_toksep_payload"] / frac
                         + s["trial_toksep_aux"] * min(td / tds, 1 / frac)
                         + 200)
    elif "toksep_tokens_est" in s:
        tt = s["toksep_tokens_est"]
        td = max(s.get("toksep_distinct_est", 1), 1)
        flat = tt * bits_needed(2 * td) / 8
        # escape-byte stream: 1 B/token + side stream for non-top-255
        # codes (rare fraction measured on the stats sample)
        rare = s.get("toksep_rare_frac", 1.0)
        esc = tt * (1 + rare * bits_needed(td) / 8)
        est["toksep"] = (min(flat, esc)
                         + td * (s.get("toksep_avg_len", 8) + 4) + 200)
    if _is_stringy(dtype):
        db = s.get("data_bytes", raw)
        if "trial_fsst_total" in s:
            frac = max(s.get("trial_fsst_rows",
                             s.get("trial_rows", 1)), 1) / n
            est["fsst"] = s["trial_fsst_total"] / frac + 600
        elif s.get("n_unused_bytes", 0) > 0 and s.get("entropy", 8.0) < 7.0:
            # digram coding saves roughly what entropy predicts, capped
            ratio = max(0.55, min(1.0, s.get("entropy", 8.0) / 8.0 + 0.15))
            est["fsst"] = db * ratio + n * 1.2 + 600
        else:
            est["fsst"] = db + n * 1.2 + 600
    est["store"] = raw + 96
    return est


def choose_codec(dtype: pa.DataType, s: dict,
                 exclude: set | None = None) -> str:
    n = s.get("n", 0)
    exclude = exclude or set()
    # long-runs rule: when the column is runs-dominated, RLE wins outright
    # (F3 const_col/runs_col; generalizes the crawl-ordered `lang` column)
    if n and "rle" not in exclude and \
            s.get("n_runs", n) <= max(4, n // 64) and \
            get_codec("rle").can_encode(dtype, s):
        return "rle"
    est = estimate_sizes(dtype, s)
    applicable = {k: v for k, v in est.items()
                  if k not in exclude and get_codec(k).can_encode(dtype, s)}
    if not applicable:
        return "store"
    return min(sorted(applicable), key=lambda k: applicable[k])


def not_smaller_than_raw(enc: EncodedColumn, raw_nbytes: int) -> bool:
    """The size guard: a block of ``raw_nbytes`` of rows that encodes to
    no fewer bytes (plus the store codec's framing) is a candidate for
    the store codec."""
    return enc.enc_bytes >= raw_nbytes + 96


def encode_with_guard(arr: pa.Array, codec_name: str | None = None,
                      stats: dict | None = None) -> EncodedColumn:
    """Encode with the chosen (or auto-chosen) codec; fall back to
    passthrough if the encoded form is not smaller than raw.  A
    ``codec_name`` that is not registered (a reused choice recorded by
    another version) or cannot encode ``arr`` falls back to selection."""
    from .stats import column_stats
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if codec_name is not None and (
            codec_name not in all_codecs() or
            not get_codec(codec_name).can_encode(arr.type, stats)):
        codec_name = None  # unknown, or not applicable to this dtype → auto
    if codec_name is None:
        stats = stats or column_stats(arr)
        codec_name = choose_codec(arr.type, stats)
    # Sampled stats (joinable_sampled, dec_scale_sampled) can pass on the
    # sample but fail on the full column; exclude each failing codec and
    # re-select until one succeeds ("store" always does).
    failed: set[str] = set()
    while True:
        try:
            enc = get_codec(codec_name).encode(arr)
            break
        except ValueError:
            if codec_name == "store":
                raise
            failed.add(codec_name)
            stats = dict(stats or column_stats(arr))
            codec_name = choose_codec(arr.type, stats, exclude=failed)
    if codec_name != "store" and not_smaller_than_raw(enc, arr.nbytes):
        store = get_codec("store").encode(arr)
        if store.enc_bytes < enc.enc_bytes:
            return store
    return enc
