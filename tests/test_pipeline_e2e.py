"""End-to-end Dataset pipeline tests: encode → write → decode-verify,
checkpoint/resume, and the url-keyed text invariant (FIXTURES.md F4)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.sources.webtext import generate_partition, write_webtext
from packcol.stages.encode import decode_rows, encode_table
from packcol.state.manifest import Manifest


@pytest.fixture(scope="module")
def webtext_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("webtext"))
    write_webtext(d, n_rows=4000, n_parts=4, seed=42)
    return d


def test_encode_decode_table_no_ray():
    t = generate_partition(0, 500)
    enc = encode_table(t)
    dec = decode_rows(enc)
    assert dec.schema == t.schema
    for name in t.column_names:
        assert dec.column(name).combine_chunks().equals(
            t.column(name).combine_chunks()), name
    # compression: encoded strictly smaller than raw on this data
    orig = sum(enc.column("orig_bytes").to_pylist())
    encb = sum(enc.column("enc_bytes").to_pylist())
    assert encb < orig


def test_codec_choices_match_expectations():
    t = generate_partition(0, 2000)
    enc = encode_table(t)
    chosen = dict(zip(enc.column("column").to_pylist(),
                      enc.column("codec").to_pylist()))
    assert chosen["lang"] in ("rle", "dict")
    assert chosen["warc_ts"] in ("for", "delta")
    assert chosen["text"] in ("fsst", "tokdict", "toksep")
    assert chosen["html"] == "toksep"  # token dictionary beats byte-level
    # schemes on markup (measured via the sample trial in stats)


def test_encode_files_resume(webtext_dir, ray_session, tmp_path):
    from packcol.pipelines.encode_pipeline import (decode_files,
                                                   encode_files,
                                                   verify_url_text_invariant)
    out = str(tmp_path / "enc")
    paths = [os.path.join(webtext_dir, f) for f in os.listdir(webtext_dir)
             if f.endswith(".parquet")]
    m1 = encode_files(paths, out, target_bytes=1 << 20)
    assert m1["rows"] == 4000
    assert m1["skipped_parts"] == 0
    assert m1["ratio"] > 1.0
    n_parts = m1["parts"]

    # decoded output matches the input, bit-identical per column
    dec = decode_files(out)
    got = dec.to_pandas().sort_values("url").reset_index(drop=True)
    import pandas as pd
    exp = pd.concat([pq.read_table(p).to_pandas() for p in paths]) \
        .sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)

    # url-keyed text invariant survives the roundtrip
    inv = verify_url_text_invariant(decode_files(out))
    assert inv == {"rows": 4000, "mismatches": 0}

    # --- resume: delete some parts + their manifest entries, re-run ------
    man = Manifest(out)
    done_before = sorted(man.done_parts())
    victims = done_before[:2]
    for v in victims:
        os.remove(os.path.join(out, f"part-{v}.parquet"))
        os.remove(os.path.join(out, "_manifest", f"{v}.json"))
    survivors = {p: os.path.getmtime(os.path.join(out, f"part-{p}.parquet"))
                 for p in done_before[2:]}
    m2 = encode_files(paths, out, target_bytes=1 << 20)
    assert m2["skipped_parts"] == n_parts - 2
    assert m2["parts"] == n_parts
    # completed partitions were NOT re-encoded
    for p, mtime in survivors.items():
        assert os.path.getmtime(os.path.join(out, f"part-{p}.parquet")) == mtime
    # re-encoded partitions are byte-identical to a fresh single run
    out2 = str(tmp_path / "enc2")
    encode_files(paths, out2, target_bytes=1 << 20)
    for v in victims:
        a = open(os.path.join(out, f"part-{v}.parquet"), "rb").read()
        b = open(os.path.join(out2, f"part-{v}.parquet"), "rb").read()
        assert a == b


def test_encode_dataset_streaming(ray_session, webtext_dir):
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import (decode_dataset,
                                                   encode_dataset,
                                                   verify_dataset)
    ds = rd.read_parquet(webtext_dir)
    enc = encode_dataset(ds)
    dec = decode_dataset(enc)
    assert dec.count() == 4000
    v = verify_dataset(rd.read_parquet(webtext_dir))
    assert v["n_failed"] == 0
    assert v["ratio"] > 1.0


def test_decode_files_column_pruning(ray_session, webtext_dir, tmp_path):
    from packcol.pipelines.encode_pipeline import decode_files, encode_files
    out = str(tmp_path / "enc_prune")
    paths = [os.path.join(webtext_dir, f) for f in os.listdir(webtext_dir)
             if f.endswith(".parquet")]
    encode_files(paths, out, target_bytes=1 << 20)
    dec = decode_files(out, columns=["url", "lang"])
    pdf = dec.to_pandas()
    assert sorted(pdf.columns) == ["lang", "url"]
    assert len(pdf) == 4000


def test_content_hash_partition_invariant(ray_session, webtext_dir, tmp_path):
    """Decoded dataset hashes equal to the original regardless of
    partitioning / order — the shuffle-free cross-partition verify."""
    import ray.data as rd
    from packcol.pipelines.content_hash import (dataset_content_hash,
                                                datasets_equal)
    from packcol.pipelines.encode_pipeline import decode_files, encode_files
    out = str(tmp_path / "enc_hash")
    paths = [os.path.join(webtext_dir, f) for f in os.listdir(webtext_dir)
             if f.endswith(".parquet")]
    encode_files(paths, out, target_bytes=1 << 20)
    orig = rd.read_parquet(webtext_dir)
    dec = decode_files(out)
    assert datasets_equal(orig, dec)
    # and repartitioned/shuffled still equal
    assert datasets_equal(orig.repartition(7), dec.random_shuffle(seed=1))
    # a corrupted dataset does not
    bad = dec.map_batches(
        lambda t: t.set_column(t.column_names.index("lang"), "lang",
                               pa.array(["xx"] * t.num_rows)),
        batch_format="pyarrow")
    h1, _ = dataset_content_hash(orig)
    h2, _ = dataset_content_hash(bad)
    assert h1 != h2


def test_spot_check_point_access(ray_session, webtext_dir, tmp_path):
    from packcol.pipelines.encode_pipeline import (encode_files,
                                                   spot_check_files)
    out = str(tmp_path / "enc_spot")
    paths = [os.path.join(webtext_dir, f) for f in os.listdir(webtext_dir)
             if f.endswith(".parquet")]
    encode_files(paths, out, target_bytes=1 << 20)
    res = spot_check_files(out, k=5)
    assert res["mismatches"] == 0
    assert res["checked"] > 0


def test_filter_encoded_pushdown(ray_session, webtext_dir, tmp_path):
    """Equality filter runs on packed codes; only hits are decoded."""
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    out = str(tmp_path / "enc_pred")
    paths = [os.path.join(webtext_dir, f) for f in os.listdir(webtext_dir)
             if f.endswith(".parquet")]
    encode_files(paths, out, target_bytes=1 << 20)
    got = read_encoded(out, columns=["url", "lang"],
                       filter=("lang", "==", "de")).to_pandas()
    exp = rd.read_parquet(webtext_dir).to_pandas()
    exp = exp[exp["lang"] == "de"]
    assert sorted(got["url"]) == sorted(exp["url"])
    assert (got["lang"] == "de").all()
    # no-match value → empty
    none = read_encoded(out, columns=["url"],
                        filter=("lang", "==", "zz-none")).to_pandas()
    assert len(none) == 0


def test_filter_encoded_range_pushdown(ray_session, webtext_dir, tmp_path):
    """Range predicate evaluated in the encoded domain (dict code
    interval / FOR delta bounds) — matches a plaintext filter."""
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    out = str(tmp_path / "enc_rng")
    paths = [os.path.join(webtext_dir, f) for f in os.listdir(webtext_dir)
             if f.endswith(".parquet")]
    encode_files(paths, out, target_bytes=1 << 20)
    exp = rd.read_parquet(webtext_dir).to_pandas()
    # timestamp range on the FOR-encoded warc_ts column
    lo = exp["warc_ts"].quantile(0.25)
    hi = exp["warc_ts"].quantile(0.75)
    got = read_encoded(out, columns=["url", "warc_ts"],
                       filter=("warc_ts", "between", lo.to_pydatetime(),
                               hi.to_pydatetime())).to_pandas()
    want = exp[(exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)]
    assert sorted(got["url"]) == sorted(want["url"])
    # string range on the dict-encoded lang column
    got2 = read_encoded(out, columns=["url", "lang"],
                        filter=("lang", "between", "de", "en")).to_pandas()
    want2 = exp[(exp["lang"] >= "de") & (exp["lang"] <= "en")]
    assert sorted(got2["url"]) == sorted(want2["url"])
    assert got2["lang"].between("de", "en").all()


def test_zone_map_computation():
    from datetime import datetime
    from packcol.state.manifest import compute_zones, zone_may_match
    t = pa.table({
        "i": pa.array([5, 1, None, 9], pa.int64()),
        "ts": pa.array([datetime(2024, 1, 2), datetime(2024, 1, 8)],
                       pa.timestamp("us")).take(pa.array([0, 1, 0, 1])),
        "f": pa.array([1.5, -2.0, 3.25, None]),
        "s": pa.array(["bb", "aa", "zz", None]),
        "long": pa.array(["x" * 500, "y"]).take(pa.array([0, 1, 0, 1])),
        "bin": pa.array([b"ab", b"cd", b"e", b"f"], pa.binary()),
        "allnull": pa.array([None] * 4, pa.int64()),
    })
    z = compute_zones(t)
    assert z["i"] == {"kind": "i64", "min": 1, "max": 9, "dt": "int64"}
    assert z["f"] == {"kind": "f64", "min": -2.0, "max": 3.25}
    assert z["s"] == {"kind": "str", "min": "aa", "max": "zz"}
    assert z["ts"]["kind"] == "i64"
    assert z["ts"]["dt"] == "timestamp[us]"  # predicate-unit conversion
    # long strings, binary, all-null: no zone → never pruned
    assert "long" not in z and "bin" not in z and "allnull" not in z
    assert zone_may_match(z["i"], 9, 20) and zone_may_match(z["i"], -5, 1)
    assert not zone_may_match(z["i"], 10, 20)
    assert zone_may_match(None, 0, 0)  # unknown zone is conservative


def test_zone_map_part_pruning(ray_session, tmp_path):
    """Disjoint-ranged parts: out-of-range predicates read ZERO parts
    (driver-side manifest pruning), results stay exact."""
    import numpy as np
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    from packcol.sources.plan import part_id, plan

    def survivors(lo, hi):
        return plan(out, [("id", "range", lo, hi)]).parts

    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):  # part i holds ids [i*100, i*100+99]
        ids = np.arange(i * 100, i * 100 + 100, dtype=np.int64)
        pq.write_table(pa.table({"id": ids, "v": ids * 2}),
                       str(src / f"f{i}.parquet"))
    out = str(tmp_path / "enc")
    encode_files([str(src / f"f{i}.parquet") for i in range(4)], out,
                 target_bytes=1 << 20)
    # predicate inside part 1 only → exactly one part survives pruning
    assert len(survivors(150, 160)) == 1
    got = read_encoded(out, columns=["id", "v"],
                       filter=("id", "between", 150, 160)).to_pandas()
    assert sorted(got["id"]) == list(range(150, 161))
    assert (got["v"] == got["id"] * 2).all()
    # predicate outside every part → zero parts read, empty result
    assert survivors(5000, 6000) == []
    assert len(read_encoded(out, columns=["id"],
                            filter=("id", "between", 5000, 6000))
               .to_pandas()) == 0
    # a part file without its manifest is no committed part: no plan
    # lists it and no read sees its rows (state/manifest.py)
    from packcol.pipelines.encode_pipeline import decode_files
    from packcol.sources.encoded import count_encoded
    (hit,) = survivors(150, 160)
    os.remove(Manifest(out)._path(part_id(hit)))
    assert hit not in plan(out, []).listed
    assert survivors(150, 160) == []
    assert len(read_encoded(out, columns=["id"],
                            filter=("id", "between", 150, 160))
               .to_pandas()) == 0
    assert count_encoded(out) == decode_files(out).count() == 300


def test_encode_files_null_heavy(ray_session, tmp_path):
    """The checkpointed path preserves nulls in every column type."""
    import numpy as np
    import pyarrow.parquet as _pq
    from packcol.pipelines.encode_pipeline import decode_files, encode_files
    rng = np.random.default_rng(12)
    n = 3000
    t = pa.table({
        "id": pa.array(range(n), type=pa.int64()),
        "s": pa.array([None if rng.random() < 0.3 else f"v{i % 50}"
                       for i in range(n)]),
        "x": pa.array([None if rng.random() < 0.3 else float(i)
                       for i in range(n)], type=pa.float64()),
        "ts": pa.array([None if rng.random() < 0.3 else i * 1000
                        for i in range(n)], type=pa.int64()).cast(
            pa.timestamp("us")),
    })
    src = str(tmp_path / "nulls.parquet")
    _pq.write_table(t, src, row_group_size=500)
    out = str(tmp_path / "enc_nulls")
    m = encode_files([src], out, target_bytes=1 << 18)
    assert m["rows"] == n
    got = decode_files(out).to_pandas().sort_values("id") \
        .reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(got, t.to_pandas())


def test_decode_survives_mid_partition_resplit(ray_session):
    """Grouped decode (the default) reassembles partitions that were
    re-split across blocks; the fast path detects and refuses them."""
    import ray.data as rd
    import pytest
    from packcol.pipelines.encode_pipeline import (decode_dataset,
                                                   encode_dataset)
    import pyarrow as pa
    import numpy as np
    rng = np.random.default_rng(61)
    t = pa.table({"a": [f"v{i % 7}" for i in range(600)],
                  "b": rng.integers(0, 1000, 600),
                  "c": [f"text {i}" for i in range(600)]})
    ds = rd.from_arrow([t.slice(0, 200), t.slice(200, 200),
                        t.slice(400, 200)])
    enc = encode_dataset(ds).materialize()
    # re-split mid-partition: 1 encoded row (column) per block
    resplit = enc.repartition(enc.count())
    dec = decode_dataset(resplit).to_pandas()
    orig = t.to_pandas()
    key = ["a", "b", "c"]
    assert sorted(map(tuple, dec[key].itertuples(index=False))) == \
        sorted(map(tuple, orig[key].itertuples(index=False)))
    # fast path on intact blocks still works…
    dec_fast = decode_dataset(enc, whole_blocks=True).to_pandas()
    assert len(dec_fast) == 600
    # …and raises loudly on re-split blocks instead of mis-decoding
    with pytest.raises(Exception, match="incomplete partition"):
        decode_dataset(resplit, whole_blocks=True).to_pandas()


def test_encode_nested_list_column(ray_session, tmp_path):
    """Tables with nested (list) columns must encode via the store
    codec, not crash stats — regression for the embeddings table."""
    import numpy as np
    from packcol.stages.encode import decode_rows, encode_table
    rng = np.random.default_rng(3)
    t = pa.table({
        "vec_id": pa.array(range(50), pa.int64()),
        "embedding": pa.array([rng.normal(size=8).tolist()
                               for _ in range(50)],
                              pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 4, 50), pa.int32())})
    enc = encode_table(t, part_id="p0")
    codecs = dict(zip(enc.column("column").to_pylist(),
                      enc.column("codec").to_pylist()))
    assert codecs["embedding"] == "store"
    dec = decode_rows(enc)
    for name in t.column_names:
        assert dec.column(name).combine_chunks().equals(
            t.column(name).combine_chunks()), name
    # end-to-end through the file pipeline
    from packcol.pipelines.encode_pipeline import encode_files, verify_files
    src = str(tmp_path / "emb.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc_emb")
    m = encode_files([src], out)
    assert m["rows"] == 50
    assert verify_files(out)["mismatches"] == 0


def test_decode_to_hive_partitioned_sink(ray_session, webtext_dir,
                                         tmp_path):
    """Decoded store → Hive-partitioned parquet sink (partition_cols):
    one directory per lang, readable back with partition pruning."""
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import decode_files, encode_files
    out = str(tmp_path / "enc_sink")
    paths = [os.path.join(webtext_dir, f) for f in os.listdir(webtext_dir)
             if f.endswith(".parquet")]
    encode_files(paths, out, target_bytes=1 << 20)
    sink = str(tmp_path / "by_lang")
    decode_files(out).write_parquet(sink, partition_cols=["lang"])
    langs = sorted(d.split("=")[1] for d in os.listdir(sink)
                   if d.startswith("lang="))
    exp = rd.read_parquet(webtext_dir).to_pandas()
    assert langs == sorted(exp["lang"].unique())
    # partition-pruned read returns exactly that partition's rows
    sub = rd.read_parquet(os.path.join(sink, f"lang={langs[0]}"))
    assert sub.count() == int((exp["lang"] == langs[0]).sum())


def test_incremental_ingest_new_files(ray_session, tmp_path):
    """Appending input files to an existing store encodes ONLY the new
    partitions (manifest diff) — the streaming-ingest shape."""
    import time
    from packcol.pipelines.encode_pipeline import encode_files, verify_files
    wt = str(tmp_path / "wt")
    paths = write_webtext(wt, n_rows=2000, n_parts=2, seed=1)
    out = str(tmp_path / "enc")
    m1 = encode_files(paths, out, target_bytes=1 << 20)
    done_mtimes = {f: os.path.getmtime(os.path.join(out, f))
                   for f in os.listdir(out) if f.endswith(".parquet")}
    # a third file arrives
    extra_dir = str(tmp_path / "wt2")
    extra = write_webtext(extra_dir, n_rows=1000, n_parts=1, seed=2)
    m2 = encode_files(paths + extra, out, target_bytes=1 << 20)
    assert m2["rows"] == 3000
    assert m2["skipped_parts"] == m1["parts"]  # old parts untouched
    for f, mt in done_mtimes.items():
        assert os.path.getmtime(os.path.join(out, f)) == mt
    assert verify_files(out)["mismatches"] == 0


def test_zone_pruning_timestamp_ns_unit(ray_session, tmp_path):
    """Regression: datetime predicate bounds were converted at a
    guessed us unit; against a timestamp[ns] column's zones everything
    was pruned and matching rows silently vanished."""
    import numpy as np
    from datetime import datetime
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    ts = pa.array(np.datetime64("2024-01-01", "ns")
                  + np.arange(100) * np.timedelta64(1, "D"),
                  type=pa.timestamp("ns"))
    src = str(tmp_path / "ns.parquet")
    pq.write_table(pa.table({"id": pa.array(range(100), pa.int64()),
                             "ts": ts}), src)
    out = str(tmp_path / "enc_ns")
    encode_files([src], out, target_bytes=1 << 20)
    got = read_encoded(out, columns=["id"],
                       filter=("ts", "between", datetime(2024, 1, 10),
                               datetime(2024, 1, 20))).to_pandas()
    assert len(got) == 11  # days 10..20 inclusive


def test_pruned_empty_result_keeps_types(ray_session, tmp_path):
    """Regression: the all-parts-pruned branch typed every column
    string; it must match the unpruned schema."""
    import numpy as np
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    src = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"id": pa.array(range(50), pa.int64()),
                             "v": pa.array(np.arange(50) * 1.5)}), src)
    out = str(tmp_path / "enc_typed")
    encode_files([src], out, target_bytes=1 << 20)
    empty = read_encoded(out, columns=["id", "v"],
                         filter=("id", "between", 10_000, 20_000))
    sch = empty.schema()
    assert dict(zip(sch.names, [str(t) for t in sch.types])) == {
        "id": "int64", "v": "double"}


def test_resume_detects_changed_input(ray_session, tmp_path):
    """Regression: an in-place rewritten input with the same row-group
    layout was silently skipped by resume, serving stale parts."""
    import numpy as np
    from packcol.pipelines.encode_pipeline import decode_files, encode_files
    src = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({"id": pa.array(range(100), pa.int64()),
                             "v": pa.array(["old"] * 100)}), src)
    out = str(tmp_path / "enc_chg")
    encode_files([src], out)
    # rewrite in place: same path, same layout, different content
    pq.write_table(pa.table({"id": pa.array(range(100), pa.int64()),
                             "v": pa.array(["newer!"] * 100)}), src)
    m = encode_files([src], out)
    assert m["skipped_parts"] == 0  # change detected → re-encoded
    got = decode_files(out).to_pandas()
    assert (got["v"] == "newer!").all()
    # unchanged input still skips
    m2 = encode_files([src], out)
    assert m2["skipped_parts"] == m2["parts"]


def test_write_webtext_param_change_regenerates(tmp_path):
    """Regression: changing n_rows/seed against a cached dir silently
    mixed stale parts from the old configuration."""
    from packcol.sources.webtext import write_webtext
    d = str(tmp_path / "wt")
    write_webtext(d, n_rows=1000, n_parts=2, seed=1)
    n1 = sum(pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
             for f in os.listdir(d) if f.endswith(".parquet"))
    assert n1 == 1000
    write_webtext(d, n_rows=3000, n_parts=3, seed=1)
    n2 = sum(pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
             for f in os.listdir(d) if f.endswith(".parquet"))
    assert n2 == 3000  # fully regenerated, no stale mix


def test_resume_reencodes_inplace_rewritten_input(ray_session, tmp_path):
    """An input rewritten in place (same path, same row count) must
    re-encode on resume, not serve the stale parts — guarded by the
    recorded whole-file size AND the per-partition row-group byte sum."""
    import numpy as np
    import pandas as pd
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded

    def write(df):
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       raw, row_group_size=200)

    raw = str(tmp_path / "src.parquet")
    df = pd.DataFrame({"id": np.arange(1000, dtype=np.int64),
                       "v": np.arange(1000, dtype=np.int64) % 13})
    write(df)
    out = str(tmp_path / "store")
    m1 = encode_files([raw], out, target_bytes=1 << 12)
    assert m1["skipped_parts"] == 0
    # no change → full skip
    m2 = encode_files([raw], out, target_bytes=1 << 12)
    assert m2["encoded_rows_this_run"] == 0
    # in-place rewrite with different values → must re-encode
    df2 = df.copy()
    df2["v"] = (df2["v"] + 7) % 13
    write(df2)
    m3 = encode_files([raw], out, target_bytes=1 << 12)
    assert m3["encoded_rows_this_run"] > 0
    got = read_encoded(out).to_pandas().sort_values("id")
    assert list(got["v"]) == list(df2["v"])


def test_spot_check_skips_an_orphan_manifest(ray_session, webtext_dir,
                                             tmp_path):
    """A manifest whose part file is gone is fsck's to report; the
    spot check samples the parts that are there."""
    from packcol.pipelines.encode_pipeline import (encode_files,
                                                   spot_check_files)
    from packcol.pipelines.fsck import check_store
    out = str(tmp_path / "enc_orphan")
    paths = sorted(os.path.join(webtext_dir, f)
                   for f in os.listdir(webtext_dir)
                   if f.endswith(".parquet"))
    encode_files(paths, out, target_bytes=1 << 20)
    full = spot_check_files(out, k=5)
    parts = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    assert len(parts) > 1
    os.remove(os.path.join(out, parts[0]))
    res = spot_check_files(out, k=5)
    assert res["mismatches"] == 0
    assert 0 < res["checked"] < full["checked"]
    assert check_store(out)["counts"]["orphan manifest"] == 1


def test_empty_store_scans(ray_session, tmp_path):
    """Every per-part scan of a store with no parts returns zero rows
    or counts."""
    from packcol.pipelines.encode_pipeline import (decode_files,
                                                   encode_files,
                                                   spot_check_files,
                                                   verify_files)
    from packcol.pipelines.fsck import check_store
    from packcol.sources.encoded import read_encoded, sample_encoded
    out = str(tmp_path / "enc_empty")
    assert encode_files([], out)["parts"] == 0
    assert read_encoded(out).count() == 0
    assert decode_files(out).count() == 0
    assert len(decode_files(out, columns=["url"]).to_pandas()) == 0
    assert verify_files(out) == {"rows": 0, "mismatches": 0}
    assert spot_check_files(out) == {"checked": 0, "mismatches": 0}
    r = check_store(out, deep=True)
    assert r["ok"] and r["parts_total"] == 0
    assert sample_encoded(out, 0.5).count() == 0
