"""Compaction tests: column-major compaction, recompaction, read_column."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.sources.webtext import write_webtext


@pytest.fixture(scope="module")
def enc_dir(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("wt"))
    out = str(tmp_path_factory.mktemp("enc"))
    paths = write_webtext(wt, n_rows=3000, n_parts=3, seed=42)
    encode_files(paths, out, target_bytes=1 << 19)
    return out


def test_compact_columns(enc_dir, ray_session, tmp_path):
    from packcol.pipelines.compact import compact_columns
    dest = str(tmp_path / "cols")
    res = compact_columns(enc_dir, dest)
    assert set(res) == {"url", "warc_ts", "html", "text", "lang"}
    for col, info in res.items():
        t = pq.read_table(os.path.join(dest, f"{col}.parquet"))
        assert t.num_rows == info["n_blocks"]
        assert set(t.column("column").to_pylist()) == {col}


def test_recompact_roundtrip(enc_dir, ray_session, tmp_path):
    from packcol.pipelines.compact import recompact
    from packcol.pipelines.encode_pipeline import decode_files
    dest = str(tmp_path / "merged")
    res = recompact(enc_dir, dest, merge_factor=4)
    n_src = len([f for f in os.listdir(enc_dir) if f.endswith(".parquet")])
    assert res["parts"] == -(-n_src // 4)
    assert res["rows"] == 3000
    # decoded content identical to the uncompacted decode
    a = decode_files(enc_dir).to_pandas().sort_values("url") \
        .reset_index(drop=True)
    b = decode_files(dest).to_pandas().sort_values("url") \
        .reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(a, b)
    # bigger blocks → ratio at least as good (amortized headers)
    assert res["ratio"] > 1.0


def test_read_single_column(enc_dir, ray_session, tmp_path):
    from packcol.pipelines.compact import compact_columns, read_column
    dest = str(tmp_path / "cols2")
    compact_columns(enc_dir, dest)
    langs = read_column(dest, "lang").to_pandas()
    assert len(langs) == 3000
    assert set(langs.columns) == {"lang"}


def test_filter_encoded_on_recompacted_store(enc_dir, ray_session,
                                             tmp_path):
    """Predicate pushdown still works after recompaction: the merged
    store has no zone manifests (conservative: every part read), but
    the encoded-domain filter stays exact."""
    import ray.data as rd
    from packcol.pipelines.compact import recompact
    from packcol.pipelines.encode_pipeline import decode_files
    from packcol.sources.encoded import read_encoded
    dest = str(tmp_path / "merged_flt")
    recompact(enc_dir, dest, merge_factor=4)
    got = read_encoded(dest, columns=["url", "lang"],
                       filter=("lang", "==", "de")).to_pandas()
    exp = decode_files(enc_dir).to_pandas()
    exp = exp[exp["lang"] == "de"]
    assert sorted(got["url"]) == sorted(exp["url"])


@pytest.fixture(scope="module")
def sv_enc_dir(tmp_path_factory, ray_session):
    """Encoded store with shared-vocab toksep columns (sidecar refs)."""
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("wt_sv"))
    out = str(tmp_path_factory.mktemp("enc_sv"))
    paths = write_webtext(wt, n_rows=2000, n_parts=2, seed=7)
    encode_files(paths, out, target_bytes=1 << 19,
                 shared_vocab_columns=["html", "text"])
    return out


def test_compact_columns_carries_shared_vocab(sv_enc_dir, ray_session,
                                              tmp_path):
    """ADVICE r3 (medium): column-major compaction of a shared-vocab
    store must copy the _shared/ sidecar and decode shared-ref blocks —
    previously read_column raised 'decode needs base_dir'."""
    from packcol.pipelines.compact import compact_columns, read_column
    from packcol.pipelines.encode_pipeline import decode_files
    dest = str(tmp_path / "cols_sv")
    compact_columns(sv_enc_dir, dest)
    assert os.path.isdir(os.path.join(dest, "_shared"))
    got = read_column(dest, "text").to_pandas()["text"]
    exp = decode_files(sv_enc_dir).to_pandas()["text"]
    assert sorted(got) == sorted(exp)


def test_shared_encoder_call_rejects_extra_columns(sv_enc_dir):
    """ADVICE r3 (low): the standalone __call__ stage encodes exactly
    its configured columns; a batch with extra columns must fail loudly
    instead of silently dropping them."""
    from packcol.stages.toksep_actor import TokSepSharedEncoder
    stage = TokSepSharedEncoder(sv_enc_dir, ["text"])
    batch = pa.table({"text": ["a b", "c"], "extra": [1, 2]})
    with pytest.raises(ValueError, match="configured"):
        stage(batch)


def test_recompact_keeps_query_layer(ray_session, tmp_path):
    """Merged parts carry zones + bloom sidecars: pruning and the
    metadata MIN/MAX path survive recompaction."""
    import os

    from packcol.pipelines.compact import recompact
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import agg_encoded, read_encoded
    wt = str(tmp_path / "wt_q")
    enc = str(tmp_path / "enc_q")
    paths = write_webtext(wt, n_rows=2000, n_parts=2, seed=13)
    encode_files(paths, enc, target_bytes=1 << 19)
    dest = str(tmp_path / "recompacted_q")
    recompact(enc, dest, merge_factor=3)
    # zones recorded -> metadata-only MIN/MAX answers from manifests
    import ray.data as rd
    exp = rd.read_parquet(wt).to_pandas()
    got = agg_encoded(dest, aggs={"n": ("count",),
                                  "last": ("max", "warc_ts")}).to_pandas()
    assert got["n"].iloc[0] == len(exp)
    assert got["last"].iloc[0] == exp["warc_ts"].max()
    from packcol.sources.encoded import _agg_from_manifests
    assert _agg_from_manifests(dest, {"m": ("max", "warc_ts")}) \
        is not None
    # bloom sidecars present for the merged parts
    bl = os.path.join(dest, "_bloom")
    parts = [f for f in os.listdir(dest) if f.endswith(".parquet")]
    assert os.path.isdir(bl) and len(os.listdir(bl)) == len(parts)
    # point lookup still correct through the pruned path
    url = exp["url"].iloc[5]
    got = read_encoded(dest, columns=["url", "text"],
                       filter=("url", "==", url)).to_pandas()
    assert list(got["text"]) == \
        list(exp[exp["url"] == url]["text"])
