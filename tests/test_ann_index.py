"""Persisted IVF index (pipelines/ann_index.py): the index is a
clustered encoded store + centroid sidecar; probes reuse the store's
IN-list pushdown."""

import os

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(5)
    n, dim = 3000, 12
    centers = rng.normal(size=(6, dim)) * 5.0
    X = centers[rng.integers(0, 6, n)] + rng.normal(size=(n, dim)) * 0.3
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": list(X)})
    return df, X


@pytest.fixture(scope="module")
def ivf(tmp_path_factory, ray_session, corpus):
    import ray.data as rd
    from packcol.pipelines.ann_index import build_ivf_store
    df, _ = corpus
    out = str(tmp_path_factory.mktemp("ivf")) + "/store"
    m = build_ivf_store(rd.from_pandas(df), out, n_lists=6,
                        rows_per_part=400)
    return out, m


def test_build_metrics_and_sidecar(ivf, corpus):
    from packcol.pipelines.ann_index import load_ivf_sidecar
    out, m = ivf
    assert m["rows"] == len(corpus[0])
    assert m["n_lists"] == 6 and m["dim"] == 12
    C, meta = load_ivf_sidecar(out)
    assert C.shape == (6, 12)
    assert meta["id_col"] == "vec_id"


def test_index_store_is_a_plain_store(ivf, corpus, ray_session):
    """The index remains a generic queryable store: full read returns
    every row plus the list-id column."""
    from packcol.pipelines.ann_index import LIST_COL
    from packcol.sources.encoded import count_encoded, read_encoded
    out, _ = ivf
    df, _ = corpus
    got = read_encoded(out, columns=["vec_id", LIST_COL]).to_pandas()
    assert sorted(got.vec_id) == sorted(df.vec_id)
    assert (got[LIST_COL] >= 0).all() and (got[LIST_COL] < 6).all()
    assert count_encoded(out) == len(df)


def test_exact_when_probing_all_lists(ivf, corpus, ray_session):
    import ray.data as rd
    from packcol.pipelines.ann import ann_brute_topk
    from packcol.pipelines.ann_index import ivf_query_store
    out, _ = ivf
    df, X = corpus
    q = X[[7, 1500, 2999]] + 0.01
    got = ivf_query_store(out, q, k=5, n_probe=6)
    truth = ann_brute_topk(rd.from_pandas(df), q, k=5)
    assert got[["qid", "vec_id"]].values.tolist() == \
        truth[["qid", "vec_id"]].values.tolist()


def test_low_probe_recall_and_self_hit(ivf, corpus, ray_session):
    from packcol.pipelines.ann_index import ivf_query_store
    out, _ = ivf
    _, X = corpus
    q = X[[7, 1500]] + 0.01
    got = ivf_query_store(out, q, k=3, n_probe=1)
    assert got[got.qid == 0].vec_id.iloc[0] == 7
    assert got[got.qid == 1].vec_id.iloc[0] == 1500


def test_probe_prunes_parts(ivf, corpus, ray_session):
    """The sort on the list id makes zone pruning the IVF probe: one
    probed list reads a strict subset of parts; probing all lists
    reads them all."""
    from packcol.pipelines.ann_index import ivf_probe_stats
    out, _ = ivf
    _, X = corpus
    st1 = ivf_probe_stats(out, X[[7]], n_probe=1)
    assert st1["parts_scanned"] < st1["parts_total"]
    st6 = ivf_probe_stats(out, X[[7]], n_probe=6)
    assert st6["parts_scanned"] == st6["parts_total"]


def test_in_survivors_scattered_values(tmp_path, ray_session):
    """Per-value IN pruning: values {0, 3} must NOT keep the parts
    whose zones only cover the span between them."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.plan import plan
    src = tmp_path / "src"
    src.mkdir()
    for v in range(4):  # four parts, one value of k each
        df = pd.DataFrame({"id": np.arange(100, dtype=np.int64),
                           "k": np.full(100, v, dtype=np.int64)})
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       str(src / f"p{v}.parquet"))
    out = str(tmp_path / "store")
    encode_files([str(src / f"p{v}.parquet") for v in range(4)], out)
    surv = plan(out, [("k", "in", (0, 3), None)]).record["zone_survivors"]
    assert surv == 2  # envelope [0,3] would have kept all 4


def test_missing_sidecar_raises(tmp_path):
    from packcol.pipelines.ann_index import load_ivf_sidecar
    with pytest.raises(FileNotFoundError, match="IVF sidecar"):
        load_ivf_sidecar(str(tmp_path))


def test_ivfpq_rejects_nbits_over_8(tmp_path, ray_session):
    """PQ codes are one byte per subquantizer: more than 2^8 centroids
    must be refused, not wrapped modulo 256, and before any work."""
    import ray.data as rd
    from packcol.pipelines.ann_index import build_ivfpq_store
    rng = np.random.default_rng(2)
    ds = rd.from_items([{"vec_id": i, "embedding": rng.standard_normal(8)
                         .tolist()} for i in range(64)])
    out = str(tmp_path / "pq9")
    with pytest.raises(ValueError, match="nbits"):
        build_ivfpq_store(ds, out, n_lists=2, m=2, nbits=9)
    assert not os.path.exists(out)


class TestIVFPQ:
    @pytest.fixture(scope="class")
    def store(self, ray_session, tmp_path_factory):
        import ray.data as rd
        from packcol.pipelines.ann_index import build_ivfpq_store
        rng = np.random.default_rng(5)
        n, dim = 4000, 16
        centers = rng.standard_normal((12, dim)) * 3
        X = centers[rng.integers(0, 12, n)] + \
            rng.standard_normal((n, dim)) * 0.3
        df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                           "embedding": list(X)})
        out = str(tmp_path_factory.mktemp("ivfpq"))
        m = build_ivfpq_store(rd.from_pandas(df).repartition(4), out,
                              n_lists=8, m=4, nbits=6, sample_rows=1024)
        assert m["pq_parts_annotated"] > 0
        return df, out

    def test_exactness_anchor(self, store, ray_session):
        """n_probe = n_lists + rerank everything == brute force."""
        import ray.data as rd
        from packcol.pipelines.ann import ann_brute_topk
        from packcol.pipelines.ann_index import ivfpq_query_store
        df, out = store
        q = np.asarray(df["embedding"][7], dtype=np.float64)
        brute = ann_brute_topk(rd.from_pandas(df), q, k=10)
        got = ivfpq_query_store(out, q, k=10, n_probe=8,
                                rerank_k=10**9)
        assert list(got["vec_id"]) == list(brute["vec_id"])
        np.testing.assert_allclose(got["cos"], brute["cos"])

    def test_probe_recall_and_honest_scores(self, store, ray_session):
        import ray.data as rd
        from packcol.pipelines.ann import ann_brute_topk
        from packcol.pipelines.ann_index import ivfpq_query_store
        df, out = store
        q = np.asarray(df["embedding"][99], dtype=np.float64)
        brute = ann_brute_topk(rd.from_pandas(df), q, k=10)
        got = ivfpq_query_store(out, q, k=10, n_probe=3, rerank_k=256)
        recall = len(set(got["vec_id"]) & set(brute["vec_id"])) / 10
        assert recall >= 0.7, recall
        X = np.stack(df["embedding"].to_numpy())
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q)
        for vid, cos in zip(got["vec_id"], got["cos"]):
            assert abs(Xn[int(vid)] @ qn - cos) < 1e-9

    def test_store_stays_queryable(self, store, ray_session):
        """The IVF-PQ index is still a plain store: projection reads
        and aggregates work, and the code column is m bytes/row."""
        from packcol.sources.encoded import agg_encoded, read_encoded
        df, out = store
        n = agg_encoded(out, aggs={"n": ("count",)}).to_pandas()
        assert int(n["n"][0]) == len(df)
        codes = read_encoded(out, columns=["vec_id", "__pq_code"],
                             limit=50).to_pandas()
        assert all(len(bytes(c)) == 4 for c in codes["__pq_code"])
