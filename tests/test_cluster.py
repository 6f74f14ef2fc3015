"""Sort-clustered re-encode (pipelines/cluster.py): zone disjointness
on the cluster key, pushdown pruning effectiveness, bit-identical
content, resume marker."""

import os

import pytest

from packcol.sources.webtext import write_webtext


@pytest.fixture(scope="module")
def stores(tmp_path_factory, ray_session):
    """Unclustered store (arrival order) + the same rows clustered on
    warc_ts into small parts so there are many of them to prune."""
    from packcol.pipelines.cluster import cluster_store
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("wt_cl"))
    src = str(tmp_path_factory.mktemp("store_cl_src"))
    dst = str(tmp_path_factory.mktemp("store_cl_dst"))
    paths = write_webtext(wt, n_rows=4000, n_parts=4, seed=7)
    encode_files(paths, src, target_bytes=1 << 18)
    summary = cluster_store(src, dst, "warc_ts", target_bytes=1 << 18)
    return wt, src, dst, summary


def test_cluster_roundtrip_content(stores, ray_session):
    """Clustering is a pure physical reorganization: the decoded
    multiset of rows is unchanged, and rows come back key-sorted
    within each part."""
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, _, dst, summary = stores
    exp = rd.read_parquet(wt).to_pandas().sort_values("url")
    got = read_encoded(dst).to_pandas().sort_values("url")
    assert summary["rows"] == len(exp)
    assert list(got["url"]) == list(exp["url"])
    assert list(got["text"]) == list(exp["text"])
    assert list(got["warc_ts"]) == list(exp["warc_ts"])


def test_cluster_zones_disjoint(stores):
    """Post-sort, per-part key zones are non-overlapping (ties at part
    boundaries aside) — the property that makes zone pruning O(1)."""
    from packcol.pipelines.cluster import key_zone_overlap
    _, src, dst, summary = stores
    assert summary["parts_zoned"] >= 4  # enough parts to mean anything
    # clustered: at most boundary-tie overlaps; unclustered: almost all
    assert summary["overlapping_parts"] <= summary["parts_zoned"] // 4
    un = key_zone_overlap(src, "warc_ts")
    assert un["overlapping_parts"] >= un["parts_zoned"] - 1


def test_cluster_pruning_effectiveness(stores, ray_session):
    """An eq/range probe on the cluster key survives to O(1) parts of
    the clustered store but reads every part of the unclustered one,
    and both return identical results."""
    import ray.data as rd
    from packcol.sources.encoded import count_encoded, read_encoded
    from packcol.sources.plan import plan
    wt, src, dst, summary = stores
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.48).to_pydatetime()
    hi = exp["warc_ts"].quantile(0.52).to_pydatetime()
    n_src = len(plan(src, [("warc_ts", "range", lo, hi)]).parts)
    n_dst = len(plan(dst, [("warc_ts", "range", lo, hi)]).parts)
    src_parts = sum(f.endswith(".parquet") for f in os.listdir(src))
    assert n_src == src_parts  # arrival order: nothing prunes
    assert n_dst <= max(2, summary["parts_zoned"] // 4)  # real pruning
    want = int(((exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)).sum())
    assert want > 0
    assert count_encoded(dst, ("warc_ts", "between", lo, hi)) == want
    got = read_encoded(dst, columns=["url"],
                       filter=("warc_ts", "between", lo, hi)).to_pandas()
    wanted = exp[(exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)]
    assert sorted(got["url"]) == sorted(wanted["url"])


def test_cluster_resume_marker(stores, ray_session):
    """A second cluster_store call is a metadata-only no-op."""
    from packcol.pipelines.cluster import cluster_store
    _, src, dst, _ = stores
    before = sorted(os.listdir(dst))
    again = cluster_store(src, dst, "warc_ts", target_bytes=1 << 18)
    assert again["skipped"] is True
    assert again["rows"] == 4000
    assert sorted(os.listdir(dst)) == before


def test_cluster_improves_key_compression(stores):
    """The sorted key column encodes no worse than in arrival order
    (delta/RLE-friendly after the sort)."""
    from packcol.state.manifest import Manifest
    _, src, dst, _ = stores

    def key_bytes(store):
        # per-part codec map names the chosen codec; compare the
        # encoded size of the warc_ts blocks across the two stores
        import pyarrow.parquet as pq
        total = 0
        for f in sorted(os.listdir(store)):
            if not f.endswith(".parquet"):
                continue
            t = pq.read_table(os.path.join(store, f),
                              columns=["column", "enc_bytes"],
                              filters=[("column", "==", "warc_ts")])
            total += sum(t.column("enc_bytes").to_pylist())
        return total

    assert key_bytes(dst) <= key_bytes(src) * 1.05
    # and the manifests record what the store is clustered on
    assert all(m.get("clustered_on") == "warc_ts"
               for m in Manifest(dst).load_all())


def test_cluster_composite_key(stores, ray_session, tmp_path):
    """Composite clustering: lexicographic sort on [lang, warc_ts];
    zones prune on the PRIMARY key, rows within a part are ordered by
    the pair, and the content multiset is unchanged."""
    from packcol.pipelines.cluster import cluster_store
    from packcol.sources.encoded import read_encoded
    wt, src, _, _ = stores
    dst = str(tmp_path / "composite")
    summary = cluster_store(src, dst, ["lang", "warc_ts"],
                            target_bytes=1 << 18)
    assert summary["parts_zoned"] > 1
    got = read_encoded(dst, columns=["url", "lang", "warc_ts"]) \
        .to_pandas()
    import ray.data as rd
    exp = rd.read_parquet(wt).to_pandas()
    assert sorted(got["url"]) == sorted(exp["url"])
    # an eq probe on the primary key prunes
    from packcol.sources.plan import plan
    lang = exp["lang"].iloc[0]
    p = plan(dst, [("lang", "eq", lang, lang)])
    assert p.record["zone_survivors"] < len(p.listed)
    with open(f"{dst}/_CLUSTERED") as f:
        assert f.read() == "lang,warc_ts"
