"""Persisted IVF index = a clustered encoded store + a centroid sidecar.

Design (the 100 TB shape): ``build_ivf_store`` trains n_lists k-means
centroids with the distributed Lloyd pass (``ann.kmeans_fit`` — vectors
never leave workers, only (sum, count) partials move), tags every row
with its nearest-list id, sorts ONCE on that id (the only all-to-all),
and sinks through the standard store writer.  Each part therefore
covers a contiguous list-id range, and the manifest zone maps turn the
IVF probe into the store's EXISTING IN-list pushdown — a query reads
only the parts whose zones intersect its probed lists (per-value zone
tests, `sources/plan.py::plan`).  Centroids land in a tiny
``_ivf/`` sidecar (n_lists × dim floats).

No bespoke index format and no bespoke reader: the index IS a plain
queryable store (readable by ``read_encoded`` / ``agg_encoded`` /
``count_encoded``), the probe IS a predicate, and recall/latency trade
with ``n_probe`` exactly as in classical IVF (n_probe = n_lists scans
everything and is provably exact — the driver oracle anchor).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray

from .ann import _sq_dists, ann_brute_topk, embedding_matrix, kmeans_fit

LIST_COL = "__ivf_list"
_IVF_DIR = "_ivf"


def _sidecar_path(store_dir: str) -> str:
    return os.path.join(store_dir, _IVF_DIR, "centroids.npz")


def build_ivf_store(ds, out_dir: str, *, n_lists: int = 64,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    iters: int = 8, rows_per_part: int | None = None,
                    seed: int = 13) -> dict:
    """Train centroids, tag rows with ``__ivf_list``, sort on it, sink
    into ``out_dir`` as a standard encoded store, and write the
    centroid sidecar.  Returns the sink metrics + index metadata."""
    from .encode_pipeline import write_encoded
    C = kmeans_fit(ds, n_lists, iters=iters, vec_col=vec_col, seed=seed)
    cref = ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        X = embedding_matrix(batch, vec_col)
        if len(X) == 0:
            return batch.append_column(
                LIST_COL, pa.array([], type=pa.int64()))
        vcol = batch.column(vec_col)
        vt = vcol.type if not isinstance(vcol, pa.ChunkedArray) \
            else vcol.chunk(0).type if vcol.num_chunks else None
        if isinstance(vt, pa.ExtensionType):
            # Ray's Arrow tensor extension (ndarray cells) has no
            # encode kernels; rebuild as fixed_size_list<double> from
            # the matrix already in hand — the storable twin
            fl = pa.FixedSizeListArray.from_arrays(
                pa.array(X.ravel(), type=pa.float64()), X.shape[1])
            batch = batch.set_column(
                batch.column_names.index(vec_col), vec_col, fl)
        a = _sq_dists(X, ray.get(cref)).argmin(axis=1)
        return batch.append_column(
            LIST_COL, pa.array(a.astype(np.int64)))

    tagged = ds.map_batches(assign, batch_format="pyarrow",
                            zero_copy_batch=True)
    metrics = write_encoded(tagged.sort(LIST_COL), out_dir,
                            rows_per_part=rows_per_part)
    os.makedirs(os.path.join(out_dir, _IVF_DIR), exist_ok=True)
    # np.savez appends .npz to names that lack it: tmp must keep it
    tmp = _sidecar_path(out_dir)[:-len(".npz")] + ".tmp.npz"
    np.savez(tmp, centroids=C,
             meta=json.dumps({"n_lists": int(n_lists),
                              "vec_col": vec_col, "id_col": id_col,
                              "metric": "l2-assign/cosine-rank"}))
    os.replace(tmp, _sidecar_path(out_dir))
    return {**metrics, "n_lists": int(n_lists), "dim": int(C.shape[1])}


def load_ivf_sidecar(store_dir: str) -> tuple[np.ndarray, dict]:
    p = _sidecar_path(store_dir)
    if not os.path.exists(p):
        raise FileNotFoundError(
            f"{store_dir} has no IVF sidecar ({_IVF_DIR}/centroids.npz);"
            " build one with build_ivf_store")
    with np.load(p, allow_pickle=False) as z:
        return z["centroids"], json.loads(str(z["meta"]))


def ivf_query_store(store_dir: str, query: np.ndarray, k: int = 10,
                    n_probe: int = 4):
    """ANN top-k against a ``build_ivf_store`` index: rank lists per
    query against the sidecar centroids (driver-side, n_lists × dim —
    tiny), then scan ONLY the union of probed lists via the store's
    IN-list pushdown and brute-force the survivors.  The union can only
    ADD candidates beyond each query's own probes, so recall is ≥
    classical per-query IVF at the same n_probe; n_probe = n_lists is
    provably exact.  Returns (qid, id, cos) — k rows per query."""
    from ..sources.encoded import read_encoded
    C, meta = load_ivf_sidecar(store_dir)
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    n_probe = max(1, min(int(n_probe), len(C)))
    d = _sq_dists(q, C)                      # (n_q, n_lists)
    probe = np.argpartition(d, n_probe - 1, axis=1)[:, :n_probe]
    lists = sorted({int(v) for v in probe.ravel()})
    cand = read_encoded(
        store_dir, columns=[meta["id_col"], meta["vec_col"]],
        filter=(LIST_COL, "in", lists))
    return ann_brute_topk(cand, q, k=k, vec_col=meta["vec_col"],
                          id_col=meta["id_col"])


def ivf_probe_stats(store_dir: str, query: np.ndarray,
                    n_probe: int = 4) -> dict:
    """How selective a probe is: parts scanned vs total — the pruning
    evidence (zone maps on the sorted list id), metadata-only."""
    from ..sources.plan import plan
    C, _ = load_ivf_sidecar(store_dir)
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    n_probe = max(1, min(int(n_probe), len(C)))
    d = _sq_dists(q, C)
    probe = np.argpartition(d, n_probe - 1, axis=1)[:, :n_probe]
    lists = sorted({int(v) for v in probe.ravel()})
    rec = plan(store_dir, [(LIST_COL, "in", tuple(lists), None)]).record
    return {"parts_total": rec["parts_total"],
            "parts_scanned": rec["parts_scanned"],
            "lists_probed": len(lists)}


# ---------------------------------------------------------------------------
# IVF-PQ: the persisted index + memory-compressed codes, all store-native
# ---------------------------------------------------------------------------

PQ_COL = "__pq_code"


def _pq_sidecar_path(store_dir: str) -> str:
    return os.path.join(store_dir, _IVF_DIR, "pq.npz")


def build_ivfpq_store(ds, out_dir: str, *, n_lists: int = 64,
                      m: int = 8, nbits: int = 8,
                      vec_col: str = "embedding",
                      id_col: str = "vec_id", iters: int = 8,
                      sample_rows: int = 4096, seed: int = 13) -> dict:
    """IVF-PQ as pure store composition: ``build_ivf_store`` (cluster
    by nearest list, sort once, sink) + an ANNOTATED ``__pq_code``
    column (pipelines/annotate.py — every existing payload byte copies
    verbatim, the m-byte code encodes as one new block per part) + a
    codebook sidecar.  No bespoke index format: the probe reads the
    code column through the same projection/pushdown path as any other
    column.  At 100 TB the shortlist scan touches m bytes/row instead
    of the 3 KB vector."""
    from .ann import pq_train, uniform_sample_vectors  # noqa: F401
    from .annotate import add_column_encoded
    from ..sources.encoded import read_encoded
    if nbits > 8:
        # codes are stored one uint8 per subquantizer: 2^nbits > 256
        # centroids would silently wrap
        raise ValueError(f"nbits must be <= 8 (one byte per PQ code), "
                         f"got {nbits}")
    metrics = build_ivf_store(ds, out_dir, n_lists=n_lists,
                              vec_col=vec_col, id_col=id_col,
                              iters=iters, seed=seed)
    books = pq_train(read_encoded(out_dir,
                                  columns=[vec_col]),
                     m=m, nbits=nbits, vec_col=vec_col,
                     sample_rows=sample_rows, seed=seed)

    def _codes(t: pa.Table) -> pa.Array:
        from .ann import _pq_encode_block, embedding_matrix
        X = embedding_matrix(t, vec_col)
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True),
                            1e-30)
        codes = _pq_encode_block(Xn, books).astype(np.uint8)
        return pa.array([r.tobytes() for r in codes],
                        type=pa.large_binary())

    ann = add_column_encoded(out_dir, PQ_COL, _codes, [vec_col])
    os.makedirs(os.path.join(out_dir, _IVF_DIR), exist_ok=True)
    np.savez(_pq_sidecar_path(out_dir), books=books,
             meta=json.dumps({"m": m, "nbits": nbits,
                              "vec_col": vec_col, "id_col": id_col}))
    return {**metrics, "pq_parts_annotated": ann["parts_annotated"],
            "pq": {"m": m, "nbits": nbits}}


def ivfpq_query_store(store_dir: str, query: np.ndarray, k: int = 10,
                      n_probe: int = 4, rerank_k: int | None = None):
    """Two pushdown reads, no bespoke reader:

    1. shortlist — probed lists' ``(id, __pq_code)`` rows stream
       through the store's IN-list pushdown (zone-pruned parts, m
       bytes/row decoded), ADC-scored per batch, each batch emits its
       local top-``rerank_k`` (driver merge O(rerank_k × batches));
    2. re-rank — ONLY the shortlisted ids' raw vectors read back via
       the id IN-list pushdown (bloom + zone pruned) and exact cosine
       ranks the final k (returned scores are true cosines).

    rerank_k >= corpus with n_probe = n_lists reads and exactly ranks
    everything — the driver-oracle anchor (``ann_ivfpq_exact``)."""
    from ..sources.encoded import read_encoded
    from .ann import embedding_matrix
    C, meta = load_ivf_sidecar(store_dir)
    p = _pq_sidecar_path(store_dir)
    if not os.path.exists(p):
        raise FileNotFoundError(f"{store_dir} has no PQ sidecar; "
                                "build with build_ivfpq_store")
    with np.load(p, allow_pickle=False) as z:
        books = z["books"]
        pmeta = json.loads(str(z["meta"]))
    id_col, vec_col = pmeta["id_col"], pmeta["vec_col"]
    mm, ksub, dsub = books.shape
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    n_q = qn.shape[0]
    rr = rerank_k if rerank_k is not None else max(8 * k, 64)
    n_probe = max(1, min(int(n_probe), len(C)))
    d = _sq_dists(q, C)
    probe = np.argpartition(d, n_probe - 1, axis=1)[:, :n_probe]
    lists = sorted({int(v) for v in probe.ravel()})
    T = np.einsum("qjd,jkd->qjk", qn.reshape(n_q, mm, dsub), books)
    tref = ray.put(T)

    def shortlist(batch: pa.Table) -> pa.Table:
        Tq = ray.get(tref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        col = batch.column(PQ_COL)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(ids) == 0:
            return pa.table({"qid": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "adc": pa.array([], pa.float64())})
        from ..codecs.fsst import buffer_view
        dbuf, offs = buffer_view(col)
        codes = np.asarray(dbuf, dtype=np.uint8)[
            offs[0]:offs[-1]].reshape(len(ids), mm)
        out_q, out_i, out_s = [], [], []
        kk = min(rr, len(ids))
        for iq in range(n_q):
            approx = Tq[iq][np.arange(mm)[None, :], codes].sum(axis=1)
            cand = np.argpartition(-approx, kk - 1)[:kk]
            out_q.append(np.full(kk, iq, dtype=np.int64))
            out_i.append(ids[cand])
            out_s.append(approx[cand])
        return pa.table({"qid": np.concatenate(out_q),
                         id_col: np.concatenate(out_i),
                         "adc": np.concatenate(out_s)})

    cand = read_encoded(store_dir, columns=[id_col, PQ_COL],
                        filter=(LIST_COL, "in", lists)) \
        .map_batches(shortlist, batch_size=None,
                     batch_format="pyarrow").to_pandas()
    if len(cand) == 0:
        import pandas as pd
        return pd.DataFrame({"qid": [], id_col: [], "cos": []})
    short = cand.sort_values(["qid", "adc"], ascending=[True, False]) \
        .groupby("qid", as_index=False).head(rr)
    ids = sorted(set(int(v) for v in short[id_col]))
    vecs = read_encoded(store_dir, columns=[id_col, vec_col],
                        filter=(id_col, "in", ids)).to_pandas()
    X = np.stack([np.asarray(v, dtype=np.float64)
                  for v in vecs[vec_col]])
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
    vid = vecs[id_col].to_numpy()
    pos = {int(v): i for i, v in enumerate(vid)}
    import pandas as pd
    frames = []
    for iq in range(n_q):
        want = short[short["qid"] == iq][id_col].to_numpy()
        rows = np.array([pos[int(v)] for v in want], dtype=np.int64)
        cos = Xn[rows] @ qn[iq]
        order = np.lexsort((want, -cos))[:k]
        frames.append(pd.DataFrame({
            "qid": iq, id_col: want[order], "cos": cos[order]}))
    return pd.concat(frames, ignore_index=True)
