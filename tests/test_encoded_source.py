"""Generic encoded-store source (sources/encoded.py): the store read as
a first-class Dataset — projection, predicates, schema, heterogeneous
composition with shared-vocab stores."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.sources.webtext import write_webtext


@pytest.fixture(scope="module")
def store(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("wt_src"))
    out = str(tmp_path_factory.mktemp("store_src"))
    paths = write_webtext(wt, n_rows=3000, n_parts=3, seed=5)
    encode_files(paths, out, target_bytes=1 << 19)
    return wt, out


def test_encoded_schema(store):
    from packcol.sources.encoded import encoded_schema
    _, out = store
    sch = encoded_schema(out)
    assert set(sch.names) == {"url", "warc_ts", "html", "text", "lang"}
    assert sch.field("warc_ts").type == pa.timestamp("us")
    assert pa.types.is_large_binary(sch.field("html").type) or \
        pa.types.is_binary(sch.field("html").type)


def test_read_encoded_full_scan_roundtrip(store, ray_session):
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out = store
    got = read_encoded(out).to_pandas().sort_values("url")
    exp = rd.read_parquet(wt).to_pandas().sort_values("url")
    assert list(got["text"]) == list(exp["text"])
    assert list(got["html"]) == list(exp["html"])


def test_read_encoded_projection(store, ray_session):
    from packcol.sources.encoded import read_encoded
    _, out = store
    got = read_encoded(out, columns=["url", "lang"]).to_pandas()
    assert sorted(got.columns) == ["lang", "url"]
    assert len(got) == 3000


def test_read_encoded_unknown_projection_raises(store, ray_session):
    """Unknown projection columns must fail loud: before the check the
    unfiltered path silently dropped them and the filtered path emitted
    ZERO rows (both observed via the CLI)."""
    from packcol.sources.encoded import read_encoded
    _, out = store
    with pytest.raises(ValueError, match="unknown column"):
        read_encoded(out, columns=["url", "nope"])
    with pytest.raises(ValueError, match="unknown column"):
        read_encoded(out, columns=["url", "nope"],
                     filter=("lang", "==", "de"))


def test_read_encoded_eq_filter(store, ray_session):
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out = store
    got = read_encoded(out, columns=["url"],
                       filter=("lang", "==", "de")).to_pandas()
    exp = rd.read_parquet(wt).to_pandas()
    assert sorted(got["url"]) == sorted(exp[exp["lang"] == "de"]["url"])


def test_read_encoded_range_filter_default_columns(store, ray_session):
    """filter without columns= decodes the full schema at matching
    rows."""
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.4).to_pydatetime()
    hi = exp["warc_ts"].quantile(0.6).to_pydatetime()
    got = read_encoded(out, filter=("warc_ts", "between", lo, hi)) \
        .to_pandas()
    want = exp[(exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)]
    assert set(got.columns) == {"url", "warc_ts", "html", "text", "lang"}
    assert sorted(got["url"]) == sorted(want["url"])


def test_read_encoded_conjunction(store, ray_session):
    """A list of predicates is an AND: eq + range evaluated on packed
    codes in one part scan, survivor parts = intersection of the
    per-predicate zone-surviving sets."""
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.2).to_pydatetime()
    hi = exp["warc_ts"].quantile(0.8).to_pydatetime()
    got = read_encoded(out, columns=["url", "warc_ts"],
                       filter=[("lang", "==", "de"),
                               ("warc_ts", "between", lo, hi)]) \
        .to_pandas()
    want = exp[(exp["lang"] == "de") & (exp["warc_ts"] >= lo)
               & (exp["warc_ts"] <= hi)]
    assert sorted(got.columns) == ["url", "warc_ts"]
    assert sorted(got["url"]) == sorted(want["url"])
    assert len(want) > 0  # fixture actually exercises both predicates


def test_read_encoded_conjunction_single_and_pruned(store, ray_session):
    """A one-element list behaves as the plain tuple; a conjunction
    with one impossible predicate prunes to a typed empty result."""
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    got = read_encoded(out, columns=["url"],
                       filter=[("lang", "==", "de")]).to_pandas()
    assert sorted(got["url"]) == sorted(exp[exp["lang"] == "de"]["url"])
    empty = read_encoded(out, columns=["url", "lang"],
                         filter=[("lang", "==", "de"),
                                 ("lang", "==", "zz-nope")])
    # assert schema on the Dataset: Ray's to_pandas() of a zero-block
    # dataset drops columns, but the typed-empty schema is preserved
    assert sorted(empty.schema().names) == ["lang", "url"]
    assert empty.count() == 0


def test_read_encoded_conjunction_shared_vocab(tmp_path_factory,
                                               ray_session):
    """Conjunction pushdown decodes shared-vocab output columns
    (base_dir plumbed for sidecar refs in the filter path)."""
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    wt = str(tmp_path_factory.mktemp("wt_sv_conj"))
    out = str(tmp_path_factory.mktemp("store_sv_conj"))
    paths = write_webtext(wt, n_rows=1500, n_parts=2, seed=11)
    encode_files(paths, out, target_bytes=1 << 19,
                 shared_vocab_columns=["text"])
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.1).to_pydatetime()
    hi = exp["warc_ts"].quantile(0.9).to_pydatetime()
    lang = exp["lang"].mode()[0]  # a lang the fixture actually has
    got = read_encoded(out, columns=["url", "text"],
                       filter=[("lang", "==", lang),
                               ("warc_ts", "between", lo, hi)]) \
        .to_pandas().sort_values("url")
    want = exp[(exp["lang"] == lang) & (exp["warc_ts"] >= lo)
               & (exp["warc_ts"] <= hi)].sort_values("url")
    assert len(want) > 0
    assert list(got["text"]) == list(want["text"])


def test_read_encoded_bad_filter_raises(store):
    from packcol.sources.encoded import read_encoded
    _, out = store
    with pytest.raises(ValueError, match="unsupported filter"):
        read_encoded(out, filter=("lang", "!=", "de"))


def test_read_encoded_shared_vocab_store(tmp_path_factory, ray_session):
    """The generic source resolves shared-vocab sidecar refs (base_dir
    plumbing through DecodePartFile)."""
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    wt = str(tmp_path_factory.mktemp("wt_sv_src"))
    out = str(tmp_path_factory.mktemp("store_sv_src"))
    paths = write_webtext(wt, n_rows=1500, n_parts=2, seed=9)
    encode_files(paths, out, target_bytes=1 << 19,
                 shared_vocab_columns=["text"])
    got = read_encoded(out, columns=["url", "text"]).to_pandas() \
        .sort_values("url")
    exp = rd.read_parquet(wt).to_pandas().sort_values("url")
    assert list(got["text"]) == list(exp["text"])


def test_store_stats_metadata_only(store):
    """store_stats aggregates the lineage manifests: totals match the
    store, codec histogram and zone spans cover every column."""
    import ray.data as rd
    from packcol.sources.encoded import store_stats
    wt, out = store
    st = store_stats(out)
    exp_rows = rd.read_parquet(wt).count()
    assert st["rows"] == exp_rows
    assert st["parts"] > 1
    assert st["enc_bytes"] < st["orig_bytes"]
    assert st["ratio"] > 1
    assert set(st["codecs"]) == {"url", "warc_ts", "html", "text", "lang"}
    # lang is short strings -> zoned; global span must cover every part
    assert st["zones"]["lang"]["min"] <= st["zones"]["lang"]["max"]
    assert st["zones"]["warc_ts"]["kind"] == "i64"


def test_count_encoded(store, ray_session):
    """count without a predicate is manifest-only; with predicates it
    matches the decoded truth without decoding values."""
    import ray.data as rd
    from packcol.sources.encoded import count_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    assert count_encoded(out) == len(exp)
    assert count_encoded(out, ("lang", "==", "de")) == \
        int((exp["lang"] == "de").sum())
    lo = exp["warc_ts"].quantile(0.3).to_pydatetime()
    hi = exp["warc_ts"].quantile(0.7).to_pydatetime()
    assert count_encoded(out, ("warc_ts", "between", lo, hi)) == \
        int(((exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)).sum())
    # a predicate outside every zone prunes to 0 without any task
    assert count_encoded(out, ("lang", "==", "zz-nonexistent")) == 0
    # conjunction: AND of eq + range masks on packed codes
    assert count_encoded(out, [("lang", "==", "de"),
                               ("warc_ts", "between", lo, hi)]) == \
        int(((exp["lang"] == "de") & (exp["warc_ts"] >= lo)
             & (exp["warc_ts"] <= hi)).sum())
    with pytest.raises(ValueError, match="unsupported filter"):
        count_encoded(out, ("lang", "!=", "de"))


def test_per_block_row_groups_prune_projection(store, ray_session):
    """Part files carry one row group per encoded block, so a
    projection read prunes other columns' payload pages at the parquet
    layer (column-store behavior inside each part)."""
    import pyarrow.parquet as pq
    from packcol.sources.encoded import read_encoded
    wt, out = store
    part = next(os.path.join(out, f) for f in sorted(os.listdir(out))
                if f.endswith(".parquet"))
    md = pq.ParquetFile(part).metadata
    assert md.num_row_groups == md.num_rows  # one group per block
    got = pq.read_table(part, filters=[("column", "in", ["lang"])])
    assert got.column("column").to_pylist() == ["lang"]
    # decoded projection still matches the source
    import ray.data as rd
    exp = rd.read_parquet(wt).to_pandas().sort_values("url")
    prj = read_encoded(out, columns=["url", "lang"]).to_pandas() \
        .sort_values("url")
    assert list(prj["lang"]) == list(exp["lang"])



def test_read_part_matches_filter_read(store, tmp_path):
    """read_part picks a part's row groups by index from the footer and
    returns the table of the parquet filter read it replaces: on a
    current-layout part, on a single-row-group part and on a part
    without ``column`` statistics (both take the filter read)."""
    from packcol.sources.plan import _block_row_groups, read_part
    _, out = store
    part = next(os.path.join(out, f) for f in sorted(os.listdir(out))
                if f.endswith(".parquet"))
    enc = pq.read_table(part)
    one_group = str(tmp_path / "part-one.parquet")
    pq.write_table(enc, one_group, row_group_size=None)
    no_stats = str(tmp_path / "part-nostats.parquet")
    pq.write_table(enc, no_stats, row_group_size=1, write_statistics=False)
    for path, by_index in ((part, True), (one_group, False),
                           (no_stats, False)):
        md = pq.ParquetFile(path).metadata
        assert (_block_row_groups(md, ["url"]) is not None) == by_index
        for cols in (["lang"], ["url", "warc_ts"], ["html", "nope"]):
            want = pq.read_table(path, filters=[("column", "in", cols)])
            assert read_part(path, cols).equals(want), (path, cols)
            assert read_part(path, set(cols), ["column", "n_values"]) \
                .equals(want.select(["column", "n_values"])), (path, cols)
        assert read_part(path).equals(enc)
        assert read_part(path, fields=["column", "params"]).equals(
            enc.select(["column", "params"]))


def test_filtered_read_skips_pyarrow_dataset(store, monkeypatch):
    """A filtered read of a current-layout store reads its parts by
    row-group index: it never calls pq.read_table (the pyarrow.dataset
    path)."""
    from packcol.sources.encoded import count_encoded, read_encoded
    _, out = store
    want = read_encoded(out, columns=["url", "lang"],
                        filter=("lang", "==", "de")).to_pandas()
    assert len(want) > 0

    def no_dataset(*a, **kw):
        raise AssertionError("part read went through pq.read_table")

    monkeypatch.setattr(pq, "read_table", no_dataset)
    got = read_encoded(out, columns=["url", "lang"],
                       filter=("lang", "==", "de")).to_pandas()
    assert sorted(got["url"]) == sorted(want["url"])
    assert count_encoded(out, filter=("lang", "==", "de")) == len(want)

def _cli_module():
    import importlib.util
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "packcol_run.py")
    spec = importlib.util.spec_from_file_location("packcol_run", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_cli_schema_cast(store, tmp_path, ray_session):
    """CLI literals coerce to the column's logical type from the store
    manifests: '--where user_id 7' must probe int 7, '--between ts
    2024-01-05 ...' a datetime — not the raw strings (r4 CLI bug)."""
    import datetime

    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import count_encoded

    cli = _cli_module()
    _, out = store
    cast = cli._schema_cast(out)
    ts = cast("warc_ts", "2024-01-05T06:30:00")
    assert isinstance(ts, datetime.datetime)
    assert cast("lang", "de") == "de"
    with pytest.raises(SystemExit, match="unknown column"):
        cast("nope", "1")

    # int + float coercion on an events-shaped store
    t = pa.table({"user_id": pa.array([1, 7, 7, 9], type=pa.int64()),
                  "value": pa.array([0.5, 1.5, 2.5, 3.5])})
    src = tmp_path / "ints.parquet"
    pq.write_table(t, src)
    st2 = str(tmp_path / "store_ints")
    encode_files([str(src)], st2)
    cast2 = cli._schema_cast(st2)
    assert cast2("user_id", "7") == 7
    assert cast2("value", "1.5") == 1.5
    with pytest.raises(SystemExit, match="not a valid"):
        cast2("user_id", "seven")

    # end-to-end: _build_preds(schema mode) drives count_encoded
    import argparse
    args = argparse.Namespace(type="schema", encoded=st2,
                              where=[["user_id", "7"]], between=None,
                              where_in=[["value", "1.5,3.5"]])
    preds = cli._build_preds(args)
    assert preds == [("user_id", "==", 7), ("value", "in", [1.5, 3.5])]
    assert count_encoded(st2, preds) == 1


def test_encoded_schema_complete_any_codec(tmp_path, ray_session):
    """encoded_schema must report EVERY column's logical type no matter
    which codec won — incl. the store (IPC passthrough) codec, whose
    payload is never touched by metadata-only reads, and nested types,
    which ride as a serialized one-field IPC schema (r4 fix: store-codec
    blocks used to stamp no dtype, yielding empty/partial schemas)."""
    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import encoded_schema

    t = pa.table({
        "user_id": pa.array([1, 7, 7, 9], type=pa.int64()),
        "value": pa.array([0.5, 1.5, 2.5, 3.5]),
        "emb": pa.array([[0.1, 0.2]] * 4, type=pa.list_(pa.float32())),
    })
    src = tmp_path / "mixed.parquet"
    pq.write_table(t, src)
    out = str(tmp_path / "store_mixed")
    encode_files([str(src)], out)
    sch = encoded_schema(out)
    assert set(sch.names) == {"user_id", "value", "emb"}
    assert sch.field("user_id").type == pa.int64()
    assert sch.field("value").type == pa.float64()
    assert sch.field("emb").type == pa.list_(pa.float32())


def test_agg_encoded(store, ray_session):
    """Grouped aggregates over the encoded store: dict group columns
    aggregate on integer codes (only distinct group values decode),
    count-only aggs decode no value column, predicates mask on packed
    codes, partials merge by group."""
    import ray.data as rd
    from packcol.sources.encoded import agg_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()

    # grouped count + min/max on a timestamp value column
    got = agg_encoded(out, group_by="lang",
                      aggs={"n": ("count",),
                            "first_ts": ("min", "warc_ts"),
                            "last_ts": ("max", "warc_ts")}) \
        .to_pandas().sort_values("lang").reset_index(drop=True)
    ref = exp.groupby("lang").agg(
        n=("lang", "size"), first_ts=("warc_ts", "min"),
        last_ts=("warc_ts", "max")).reset_index() \
        .sort_values("lang").reset_index(drop=True)
    assert got["lang"].tolist() == ref["lang"].tolist()
    assert got["n"].tolist() == ref["n"].tolist()
    assert got["first_ts"].tolist() == ref["first_ts"].tolist()
    assert got["last_ts"].tolist() == ref["last_ts"].tolist()

    # filtered grouped count (zone/bloom prune + code-level mask)
    lo = exp["warc_ts"].quantile(0.3).to_pydatetime()
    hi = exp["warc_ts"].quantile(0.7).to_pydatetime()
    got = agg_encoded(out, group_by="lang", aggs={"n": ("count",)},
                      filter=("warc_ts", "between", lo, hi)) \
        .to_pandas().sort_values("lang").reset_index(drop=True)
    sub = exp[(exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)]
    ref = sub.groupby("lang").size()
    assert dict(zip(got["lang"], got["n"])) == ref.to_dict()

    # global: count without any payload read; min/max with
    got = agg_encoded(out, aggs={"n": ("count",),
                                 "last_ts": ("max", "warc_ts")}) \
        .to_pandas()
    assert got["n"].iloc[0] == len(exp)
    assert got["last_ts"].iloc[0] == exp["warc_ts"].max()

    # empty result: impossible predicate prunes every part driver-side
    got = agg_encoded(out, group_by="lang", aggs={"n": ("count",)},
                      filter=("lang", "==", "zz-nope")).to_pandas()
    assert len(got) == 0

    with pytest.raises(ValueError, match="unsupported aggregate"):
        agg_encoded(out, aggs={"x": ("median", "warc_ts")})


def test_agg_encoded_avg(tmp_path, ray_session):
    """AVG = mergeable sum + non-null-count partials, ratio after the
    distributed merge; SQL semantics (nulls ignored, empty → NULL)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import agg_encoded

    rng = np.random.default_rng(23)
    n = 2000
    df = pd.DataFrame({
        "lang": rng.choice(["en", "de", "fr"], n),
        "user_id": rng.integers(0, 50, n).astype(np.int64),
        "value": np.where(rng.random(n) < 0.2, np.nan, rng.random(n)),
    })
    src = tmp_path / "avg.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=200)
    out = str(tmp_path / "avg_store")
    encode_files([str(src)], out, target_bytes=1 << 13)

    got = agg_encoded(out, group_by="lang",
                      aggs={"n": ("count",),
                            "avg_v": ("avg", "value"),
                            "avg_u": ("avg", "user_id")}) \
        .to_pandas().sort_values("lang").reset_index(drop=True)
    ref = df.groupby("lang").agg(
        n=("lang", "size"), avg_v=("value", "mean"),
        avg_u=("user_id", "mean")).reset_index()
    assert got["lang"].tolist() == ref["lang"].tolist()
    assert np.allclose(got["avg_v"], ref["avg_v"])
    assert np.allclose(got["avg_u"], ref["avg_u"])
    assert got["n"].tolist() == ref["n"].tolist()

    # global avg + filtered avg (predicate on packed codes)
    g = agg_encoded(out, aggs={"m": ("avg", "value")}).to_pandas()
    assert np.isclose(g["m"].iloc[0], df["value"].mean())
    g2 = agg_encoded(out, aggs={"m": ("avg", "value")},
                     filter=("user_id", "between", 0, 9)).to_pandas()
    assert np.isclose(
        g2["m"].iloc[0],
        df[df.user_id <= 9]["value"].mean())


def test_agg_from_manifests_metadata_only(store, tmp_path, ray_session):
    """Unfiltered ungrouped COUNT/MIN/MAX answer from manifests alone:
    with every part FILE deleted (manifests kept), the answers still
    come out — proof no part bytes are read on the fast path."""
    import shutil

    import ray.data as rd
    from packcol.sources.encoded import agg_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    ghost = str(tmp_path / "ghost_store")
    shutil.copytree(out, ghost)
    removed = 0
    for f in os.listdir(ghost):
        if f.endswith(".parquet"):
            os.remove(os.path.join(ghost, f))
            removed += 1
    assert removed > 1
    got = agg_encoded(ghost, aggs={"n": ("count",),
                                   "first_ts": ("min", "warc_ts"),
                                   "last_ts": ("max", "warc_ts")}) \
        .to_pandas()
    assert got["n"].iloc[0] == len(exp)
    assert got["first_ts"].iloc[0] == exp["warc_ts"].min()
    assert got["last_ts"].iloc[0] == exp["warc_ts"].max()


def test_agg_from_manifests_fallback_paths(store, ray_session):
    """Shapes the manifests can't prove fall back to the scan and stay
    correct: SUM (not recorded), MIN on a long-string column (not
    zone-mapped), and a store with an unmanifested part."""
    import ray.data as rd
    from packcol.sources.encoded import _agg_from_manifests, agg_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    # sum: no metadata answer, scan path must produce it
    assert _agg_from_manifests(out, {"s": ("sum", "warc_ts")}) is None
    # binary payloads are never zone-mapped -> metadata refuses
    assert _agg_from_manifests(out, {"m": ("min", "html")}) is None
    # short strings ARE zone-mapped: str zones answer MIN exactly
    fast = _agg_from_manifests(out, {"m": ("min", "url")})
    assert fast is not None and fast.column("m")[0].as_py() == \
        exp["url"].min()
    got = agg_encoded(out, aggs={"m": ("min", "url")}).to_pandas()
    assert got["m"].iloc[0] == exp["url"].min()


def test_distinct_encoded_dict_and_decode_paths(store, ray_session):
    """DISTINCT over a dict-codec column comes from the per-part
    dictionaries (no row decodes); over a non-dict column it decodes
    and uniques per part.  Both merge in one distributed groupby."""
    import ray.data as rd
    from packcol.sources.encoded import distinct_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    got = sorted(distinct_encoded(out, "lang").to_pandas()["lang"])
    assert got == sorted(exp["lang"].unique())
    # url: fsst/toksep-coded long strings -> per-part decode + unique
    got = sorted(distinct_encoded(out, "url").to_pandas()["url"])
    assert got == sorted(exp["url"].unique())
    with pytest.raises(ValueError, match="unknown column"):
        distinct_encoded(out, "nope")


def test_distinct_encoded_includes_null(tmp_path, ray_session):
    """A dict column with nulls contributes the null exactly once
    (vocabularies hold only non-null values; the validity bitmap is
    the null witness)."""
    import pyarrow.parquet as pq

    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import distinct_encoded
    src = tmp_path / "nulls.parquet"
    pq.write_table(pa.table({
        "k": pa.array((["a", "b", None] * 200)),
        "v": pa.array(list(range(600))),
    }), str(src))
    out = str(tmp_path / "store_nulls")
    encode_files([str(src)], out)
    got = distinct_encoded(out, "k").to_pandas()["k"].tolist()
    assert sorted(x for x in got if x is not None) == ["a", "b"]
    assert sum(1 for x in got if x is None) == 1


def test_read_encoded_disjunction(store, ray_session):
    """filter_any= is an OR: a row matching ANY predicate returns;
    survivor parts = union of per-predicate zone/bloom survivors."""
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.8).to_pydatetime()
    hi = exp["warc_ts"].max().to_pydatetime()
    got = read_encoded(out, columns=["url", "lang", "warc_ts"],
                       filter_any=[("lang", "==", "de"),
                                   ("warc_ts", "between", lo, hi)]) \
        .to_pandas()
    want = exp[(exp["lang"] == "de") |
               ((exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi))]
    assert sorted(got["url"]) == sorted(want["url"])
    # OR of two impossible disjuncts -> typed empty, no tasks
    got = read_encoded(out, columns=["url"],
                       filter_any=[("lang", "==", "zz"),
                                   ("lang", "==", "qq")]).to_pandas()
    assert len(got) == 0
    # IN-list disjunct ORs with an eq disjunct
    some = sorted(exp["url"])[:3]
    got = read_encoded(out, columns=["url", "lang"],
                       filter_any=[("url", "in", some),
                                   ("lang", "==", "de")]).to_pandas()
    want = exp[exp["url"].isin(some) | (exp["lang"] == "de")]
    assert sorted(got["url"]) == sorted(want["url"])
    with pytest.raises(ValueError, match="not both"):
        read_encoded(out, filter=("lang", "==", "de"),
                     filter_any=[("lang", "==", "de")])


def test_count_encoded_disjunction(store, ray_session):
    """count_encoded(filter_any=) mask-sums the OR on packed codes —
    matches the decoded truth; AND+OR on the same preds bracket it."""
    import ray.data as rd
    from packcol.sources.encoded import count_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.85).to_pydatetime()
    hi = exp["warc_ts"].max().to_pydatetime()
    preds = [("lang", "==", "de"), ("warc_ts", "between", lo, hi)]
    n_or = count_encoded(out, filter_any=preds)
    n_and = count_encoded(out, filter=preds)
    truth_or = int(((exp["lang"] == "de") |
                    ((exp["warc_ts"] >= lo) &
                     (exp["warc_ts"] <= hi))).sum())
    truth_and = int(((exp["lang"] == "de") &
                     (exp["warc_ts"] >= lo) &
                     (exp["warc_ts"] <= hi)).sum())
    assert n_or == truth_or and n_and == truth_and
    assert n_and <= n_or
    with pytest.raises(ValueError, match="not both"):
        count_encoded(out, filter=preds[0], filter_any=preds)


def test_write_encoded_dataset_sink(store, tmp_path, ray_session):
    """write_encoded streams any Dataset into a store readable by the
    full source surface (read/filter/count/agg/distinct/schema)."""
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import write_encoded
    from packcol.sources.encoded import (agg_encoded, count_encoded,
                                         encoded_schema, read_encoded)
    wt, _ = store
    exp = rd.read_parquet(wt).to_pandas()
    dst = str(tmp_path / "sink_store")
    # a real pipeline result, not a file: projection + filter upstream
    src = rd.read_parquet(wt).select_columns(["url", "lang", "warc_ts"])
    m = write_encoded(src, dst)
    assert m["rows"] == len(exp) and m["parts"] >= 1
    assert m["ratio"] > 1
    assert set(encoded_schema(dst).names) == {"url", "lang", "warc_ts"}
    got = read_encoded(dst, columns=["url"],
                       filter=("lang", "==", "de")).to_pandas()
    assert sorted(got["url"]) == \
        sorted(exp[exp["lang"] == "de"]["url"])
    assert count_encoded(dst) == len(exp)
    a = agg_encoded(dst, group_by="lang",
                    aggs={"n": ("count",)}).to_pandas()
    assert dict(zip(a["lang"], a["n"])) == \
        exp.groupby("lang").size().to_dict()
    # retry-idempotence: writing the same content again lands on the
    # SAME part ids (content-addressed) — no duplicate rows
    m2 = write_encoded(src, dst)
    assert count_encoded(dst) == len(exp), m2


def test_agg_encoded_disjunction(store, ray_session):
    """agg_encoded(filter_any=) aggregates over the OR of predicates
    on packed codes — grouped counts match pandas truth."""
    import ray.data as rd
    from packcol.sources.encoded import agg_encoded
    wt, out = store
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.9).to_pydatetime()
    hi = exp["warc_ts"].max().to_pydatetime()
    got = agg_encoded(out, group_by="lang", aggs={"n": ("count",)},
                      filter_any=[("lang", "==", "de"),
                                  ("warc_ts", "between", lo, hi)]) \
        .to_pandas()
    sub = exp[(exp["lang"] == "de") |
              ((exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi))]
    assert dict(zip(got["lang"], got["n"])) == \
        sub.groupby("lang").size().to_dict()
    with pytest.raises(ValueError, match="not both"):
        agg_encoded(out, aggs={"n": ("count",)},
                    filter=("lang", "==", "de"),
                    filter_any=[("lang", "==", "de")])


def test_predicate_algebra_randomized(tmp_path, ray_session, monkeypatch):
    """Deterministic randomized sweep of the predicate algebra: random
    typed tables, random eq/range/IN/prefix/null predicate sets, AND
    and OR results of every encoded-domain scan (read, count, agg,
    exact and approximate distinct) match pandas truth (rows AND
    membership, not just counts), and no part the plan drops holds a
    matching row.  Trial 12 leaves every bloom probe to the scan
    tasks; trial 13 sets the in-process crossover to 0, so every scan
    of a non-empty plan runs through Ray Data instead of the driver."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from packcol.pipelines.encode_pipeline import (DecodePartFile,
                                                   encode_files)
    from packcol.sources import plan as plan_mod
    from packcol.sources.encoded import (agg_encoded,
                                         approx_distinct_encoded,
                                         count_distinct_encoded,
                                         count_encoded, read_encoded)

    rng = np.random.default_rng(42)
    n = 1200
    df = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "k_int": rng.integers(0, 12, n).astype(np.int64),
        "k_str": rng.choice(list("abcdef"), n),
        "ts": pd.to_datetime("2024-01-01") +
        pd.to_timedelta(rng.integers(0, 10_000, n), unit="m"),
        "val": rng.normal(size=n),
        # multi-char strings so prefixes match several values, with
        # nulls so isnull/notnull bite
        "name": np.where(rng.random(n) < 0.15, None, np.char.add(
            "u", rng.integers(0, 30, n).astype(str))),
    })
    src = tmp_path / "alg.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=150)
    out = str(tmp_path / "alg_store")
    encode_files([str(src)], out, target_bytes=1 << 14)  # many parts

    def pd_mask(p):
        col, op, *vals = p
        s = df[col]
        if op == "==":
            return s == vals[0]
        if op == "between":
            return (s >= vals[0]) & (s <= vals[1])
        if op == "prefix":
            return s.notna() & s.astype(str).str.startswith(vals[0])
        if op == "isnull":
            return s.isna()
        if op == "notnull":
            return s.notna()
        return s.isin(vals[0])

    def rand_pred():
        kind = rng.integers(0, 7)
        if kind == 4:
            return ("name", "prefix",
                    "u" + str(rng.integers(0, 4)))  # matches u1/u1x...
        if kind == 5:
            return ("name", "isnull")
        if kind == 6:
            return ("name", "notnull")
        if kind == 0:
            return ("k_int", "==", int(rng.integers(0, 13)))
        if kind == 1:
            lo, hi = sorted(rng.integers(0, 13, 2).tolist())
            return ("k_int", "between", int(lo), int(hi))
        if kind == 2:
            return ("k_str", "in",
                    rng.choice(list("abcdefg"), 2, replace=False)
                    .tolist())
        lo, hi = sorted(rng.integers(0, 10_000, 2).tolist())
        base = pd.Timestamp("2024-01-01")
        return ("ts", "between",
                (base + pd.Timedelta(minutes=int(lo))).to_pydatetime(),
                (base + pd.Timedelta(minutes=int(hi))).to_pydatetime())

    rids_of = {p: set(DecodePartFile(["rid"])(pa.table({"path": [p]}))
                      .column("rid").to_pylist())
               for p in plan_mod.part_files(out)}

    def first(ds, col):  # the one value of a global aggregate, 0 if none
        got = ds.to_pandas()
        v = got[col].iloc[0] if len(got) else None
        return 0 if v is None or pd.isna(v) else int(v)

    bloom_cap = plan_mod._BLOOM_DRIVER_CAP
    for trial in range(14):
        if trial < 12:
            preds = [rand_pred() for _ in range(int(rng.integers(1, 4)))]
        if trial == 12:
            # driver cap 0: the plan probes no bloom and every probe
            # runs in the scan tasks.  One row's ts lies inside nearly
            # every part's zone but in few parts, so under AND the
            # tasks disprove most parts; "a" is in every part, so
            # under OR they disprove none
            r = int(np.flatnonzero(df["k_str"] == "a")[0])
            preds = [("ts", "==", df["ts"][r].to_pydatetime()),
                     ("k_str", "in", ["a", "g"])]
            monkeypatch.setattr(plan_mod, "_BLOOM_DRIVER_CAP", 0)
            p = plan_mod.plan(out, *plan_mod.parse_filter(preds, None))
            assert not p.blooms_probed and len(p.parts) > 1
        if trial == 13:
            # crossover 0: every non-empty plan runs through Ray Data
            preds = [("k_str", "in", ["a", "b"]), ("name", "prefix", "u1"),
                     ("k_int", "between", 2, 9)]
            monkeypatch.setattr(plan_mod, "_BLOOM_DRIVER_CAP", bloom_cap)
            monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
            for f, fa in ((preds, None), (None, preds)):
                p = plan_mod.plan(out, *plan_mod.parse_filter(f, fa))
                assert p.parts and p.executor == "ray"
        for kw, m in (("filter", np.logical_and.reduce(
                           [pd_mask(p) for p in preds])),
                      ("filter_any", np.logical_or.reduce(
                           [pd_mask(p) for p in preds]))):
            flt = {kw: list(preds)}
            got = read_encoded(out, columns=["rid"], **flt).to_pandas()
            # Ray's to_pandas() of a zero-block dataset drops columns
            rids = sorted(got["rid"]) if len(got) else []
            assert rids == sorted(df["rid"][m]), (trial, kw, preds)
            assert count_encoded(out, **flt) == int(m.sum())
            assert first(agg_encoded(out, aggs={"n": ("count",)}, **flt),
                         "n") == int(m.sum()), (trial, kw, preds)
            n_k = df["k_str"][m].nunique()
            assert first(count_distinct_encoded(out, "k_str", **flt),
                         "n_distinct") == n_k, (trial, kw, preds)
            assert approx_distinct_encoded(out, "k_str", **flt) == \
                {"n_distinct": n_k, "exact": True, "k": 1024}
            # every part the plan drops holds no matching row
            p = plan_mod.plan(out, *plan_mod.parse_filter(
                flt.get("filter"), flt.get("filter_any")))
            hits = set(df["rid"][m])
            for path in set(p.listed) - set(p.parts):
                assert rids_of[path].isdisjoint(hits), (trial, kw, path)


def test_read_encoded_limit_prunes_plan(tmp_path, ray_session):
    """limit= on an unfiltered read plans only the covering prefix of
    parts (manifest row counts), and the exact cut still applies."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from packcol.pipelines import encode_pipeline as ep
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded

    df = pd.DataFrame({"id": np.arange(3000, dtype=np.int64)})
    src = tmp_path / "lim.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=250)
    out = str(tmp_path / "lim_store")
    encode_files([str(src)], out, target_bytes=1 << 12)
    n_parts = len([f for f in os.listdir(out) if f.endswith(".parquet")])
    assert n_parts > 3

    got = read_encoded(out, limit=10).to_pandas()
    assert len(got) == 10

    # the plan itself was pruned: decode_files with the limit only
    # covers the prefix of parts whose manifest rows reach 10
    assert ep.decode_files(out).count() == 3000
    assert ep.decode_files(out, limit=10).count() < 3000

    # filtered path: limit applies post-filter (streaming early stop)
    got = read_encoded(out, filter=("id", "between", 100, 2999),
                       limit=5).to_pandas()
    assert len(got) == 5
    assert (got["id"] >= 100).all()

    with pytest.raises(ValueError, match="limit"):
        read_encoded(out, limit=-1)


def test_cli_agg_spec_parse(tmp_path, ray_session):
    """CLI agg: OUT=FN[:COL] specs drive agg_encoded, incl. avg."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import agg_encoded

    df = pd.DataFrame({"lang": ["en", "en", "de", "de"],
                       "v": [1.0, 3.0, 10.0, 30.0]})
    src = tmp_path / "ca.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src))
    st = str(tmp_path / "ca_store")
    encode_files([str(src)], st)

    # the same parse the CLI dispatch does
    aggs = {}
    for spec in ["n=count", "total=sum:v", "m=avg:v"]:
        out_name, fnspec = spec.split("=", 1)
        fn, _, col = fnspec.partition(":")
        aggs[out_name] = (fn,) if not col else (fn, col)
    got = agg_encoded(st, group_by="lang", aggs=aggs) \
        .to_pandas().sort_values("lang").reset_index(drop=True)
    assert got["n"].tolist() == [2, 2]
    assert got["total"].tolist() == [40.0, 4.0]
    assert got["m"].tolist() == [20.0, 2.0]


def test_sample_encoded_deterministic(tmp_path, ray_session):
    """Bernoulli sample: reproducible across runs, fraction within
    binomial bounds, different seeds differ, projection respected."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import sample_encoded

    df = pd.DataFrame({"id": np.arange(20_000, dtype=np.int64),
                       "v": np.arange(20_000, dtype=np.int64) % 7})
    src = tmp_path / "smp.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=1000)
    out = str(tmp_path / "smp_store")
    encode_files([str(src)], out, target_bytes=1 << 14)

    a = sample_encoded(out, 0.1, seed=7, columns=["id"]).to_pandas()
    b = sample_encoded(out, 0.1, seed=7, columns=["id"]).to_pandas()
    assert sorted(a["id"]) == sorted(b["id"])  # deterministic
    # binomial 4-sigma bounds around 2000
    assert abs(len(a) - 2000) < 4 * (20_000 * 0.1 * 0.9) ** 0.5
    c = sample_encoded(out, 0.1, seed=8, columns=["id"]).to_pandas()
    assert sorted(c["id"]) != sorted(a["id"])
    # sampled ids are a subset of the population, no duplicates
    assert a["id"].is_unique and a["id"].isin(df["id"]).all()
    assert sample_encoded(out, 0.0).count() == 0
    assert sample_encoded(out, 1.0).count() == 20_000
    with pytest.raises(ValueError, match="fraction"):
        sample_encoded(out, 1.5)
    with pytest.raises(ValueError, match="unknown column"):
        sample_encoded(out, 0.5, columns=["nope"])


def test_or_disjunction_heterogeneous_parts(tmp_path, ray_session):
    """Regression: in OR mode a part missing ONE disjunct's column must
    still return/count/aggregate its rows matching the disjuncts on
    columns it DOES have.  (Previously such parts were skipped entirely
    and heterogeneous stores silently lost matching rows.)"""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import (agg_encoded, count_encoded,
                                         read_encoded)
    # part A: (id, lang) — no "score"; part B: (id, score) — no "lang"
    dfa = pd.DataFrame({"id": np.arange(0, 100, dtype=np.int64),
                        "lang": ["de" if i % 5 == 0 else "en"
                                 for i in range(100)]})
    dfb = pd.DataFrame({"id": np.arange(100, 200, dtype=np.int64),
                        "score": np.arange(100, dtype=np.int64)})
    pa_dir = tmp_path / "hsrc"
    pa_dir.mkdir()
    pq.write_table(pa.Table.from_pandas(dfa, preserve_index=False),
                   str(pa_dir / "a.parquet"))
    pq.write_table(pa.Table.from_pandas(dfb, preserve_index=False),
                   str(pa_dir / "b.parquet"))
    out = str(tmp_path / "hstore")
    encode_files([str(pa_dir / "a.parquet"), str(pa_dir / "b.parquet")],
                 out)
    preds = [("lang", "==", "de"), ("score", "between", 90, 99)]
    want_ids = sorted(dfa.loc[dfa["lang"] == "de", "id"].tolist() +
                      dfb.loc[dfb["score"].between(90, 99), "id"]
                      .tolist())
    got = read_encoded(out, columns=["id"], filter_any=preds).to_pandas()
    assert sorted(got["id"]) == want_ids
    assert count_encoded(out, filter_any=preds) == len(want_ids)
    g = agg_encoded(out, aggs={"n": ("count",), "s": ("sum", "id")},
                    filter_any=preds).to_pandas()
    assert int(g["n"][0]) == len(want_ids)
    assert int(g["s"][0]) == sum(want_ids)
    # AND across parts stays provably empty (no part holds both cols)
    assert count_encoded(out, filter=preds) == 0
    # OR where NO disjunct column exists anywhere: typed empty
    assert count_encoded(
        out, filter_any=[("nope", "==", 1), ("nada", "==", 2)]) == 0


def test_sample_encoded_empty_blocks_keep_store_types(tmp_path,
                                                      ray_session):
    """Regression: a sample whose tasks all produce zero rows must
    still yield blocks typed from the store schema, not pa.string()
    placeholders that break downstream schema unification."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import encoded_schema, sample_encoded
    df = pd.DataFrame({
        "id": np.arange(5000, dtype=np.int64),
        "ts": pd.date_range("2024-01-01", periods=5000, freq="s"),
        "v": np.linspace(0, 1, 5000)})
    src = tmp_path / "tsmp.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=500)
    out = str(tmp_path / "tsmp_store")
    encode_files([str(src)], out, target_bytes=1 << 14)
    want = encoded_schema(out)
    ds = sample_encoded(out, 1e-12, seed=3)  # ~surely zero rows kept
    t = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow")]) \
        if ds.count() else None
    sch = ds.schema()
    got = {n: t for n, t in zip(sch.names, sch.types)}
    for name in want.names:
        assert str(got[name]) == str(want.field(name).type), name


def test_count_distinct_encoded(tmp_path, ray_session):
    """COUNT(DISTINCT col) over the store vs DuckDB: grouped, global,
    filtered, null values ignored, null group keys kept, dict-codec
    code-domain dedup and plain-codec decode paths both exercised."""
    import duckdb
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import count_distinct_encoded
    rng = np.random.default_rng(11)
    n = 6000
    df = pd.DataFrame({
        "cat": rng.choice(["a", "b", "c", None], n, p=[.4, .3, .2, .1]),
        "user": rng.integers(0, 150, n).astype("int64"),
        "val": rng.integers(0, 40, n).astype("float64"),
    })
    df.loc[df.index[::7], "user"] = pd.NA  # null values must not count
    df["user"] = df["user"].astype("Int64")
    src = tmp_path / "cd.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=500)
    out = str(tmp_path / "cd_store")
    encode_files([str(src)], out, target_bytes=1 << 13)
    con = duckdb.connect()
    con.register("t", df)

    got = count_distinct_encoded(out, "user", group_by="cat") \
        .to_pandas().sort_values("cat", na_position="last") \
        .reset_index(drop=True)
    want = con.execute(
        "SELECT cat, COUNT(DISTINCT user) AS n_distinct FROM t "
        "GROUP BY cat ORDER BY cat NULLS LAST").df()
    assert list(got["n_distinct"].astype(int)) == \
        list(want["n_distinct"].astype(int))
    assert list(got["cat"].fillna("∅")) == list(want["cat"].fillna("∅"))

    glob = count_distinct_encoded(out, "user").to_pandas()
    wg = con.execute("SELECT COUNT(DISTINCT user) AS n FROM t").df()
    assert int(glob["n_distinct"][0]) == int(wg["n"][0])

    filt = count_distinct_encoded(
        out, "val", group_by="cat",
        filter=("user", "between", 0, 70)).to_pandas() \
        .sort_values("cat", na_position="last").reset_index(drop=True)
    wf = con.execute(
        "SELECT cat, COUNT(DISTINCT val) AS n FROM t "
        "WHERE user BETWEEN 0 AND 70 "
        "GROUP BY cat ORDER BY cat NULLS LAST").df()
    assert list(filt["n_distinct"].astype(int)) == \
        list(wf["n"].astype(int))


def test_count_distinct_encoded_pruned_empty(tmp_path, ray_session):
    """A predicate outside every zone prunes all parts; the result is
    an exact empty (grouped) / zero (global) answer, not an error."""
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import count_distinct_encoded
    df = pd.DataFrame({"g": list("xyzw") * 250,
                       "v": np.arange(1000, dtype=np.int64)})
    src = tmp_path / "z.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src))
    out = str(tmp_path / "z_store")
    encode_files([str(src)], out, target_bytes=1 << 13)
    got = count_distinct_encoded(out, "v", group_by="g",
                                 filter=("v", "between", 10**6, 10**7))
    assert len(got.to_pandas()) == 0


def test_approx_distinct_encoded(tmp_path, ray_session):
    """KMV distinct sketch over the store: exact below k, ~1/sqrt(k)
    relative error above, filtered path, dict vocab fast path."""
    import duckdb
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import approx_distinct_encoded
    rng = np.random.default_rng(23)
    n = 40_000
    df = pd.DataFrame({
        "lang": rng.choice(["en", "de", "fr", "es", "it"], n),
        "uid": rng.integers(0, 9_000, n).astype(np.int64),
    })
    src = tmp_path / "ad.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=2000)
    out = str(tmp_path / "ad_store")
    encode_files([str(src)], out, target_bytes=1 << 14)
    con = duckdb.connect()
    con.register("t", df)

    # dict column, distinct << k: answered exactly from part vocabs
    r = approx_distinct_encoded(out, "lang", k=256)
    assert r["exact"] is True and r["n_distinct"] == 5

    # high-cardinality int, distinct >> k: estimate within 4/sqrt(k)
    true = int(con.execute(
        "SELECT COUNT(DISTINCT uid) FROM t").fetchone()[0])
    r2 = approx_distinct_encoded(out, "uid", k=1024)
    assert r2["exact"] is False
    rel = abs(r2["n_distinct"] - true) / true
    assert rel < 4 / np.sqrt(1024 - 2), (r2, true, rel)

    # k above the true cardinality forces exactness
    r3 = approx_distinct_encoded(out, "uid", k=65536)
    assert r3["exact"] is True and r3["n_distinct"] == true

    # filtered
    true_f = int(con.execute(
        "SELECT COUNT(DISTINCT uid) FROM t WHERE lang = 'en'")
        .fetchone()[0])
    r4 = approx_distinct_encoded(out, "uid", k=65536,
                                 filter=("lang", "==", "en"))
    assert r4["exact"] is True and r4["n_distinct"] == true_f


def test_query_planner_routes_and_matches(tmp_path, ray_session):
    """query() must route each SELECT shape to the right pushdown
    primitive and return the same rows DuckDB does."""
    import duckdb
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import query
    rng = np.random.default_rng(31)
    n = 8000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "g": rng.choice(list("abcd"), n),
        "v": rng.integers(0, 1000, n).astype(np.int64)})
    src = tmp_path / "q.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=500)
    out = str(tmp_path / "q_store")
    encode_files([str(src)], out, target_bytes=1 << 13)
    con = duckdb.connect()
    con.register("t", df)

    got = query(out, columns=["id", "v"],
                where=("v", "between", 100, 200)).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    want = con.execute("SELECT id, v FROM t WHERE v BETWEEN 100 AND "
                       "200 ORDER BY id").df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    agg = query(out, group_by="g",
                aggs={"n": ("count",), "sv": ("sum", "v")},
                order_by="g").to_pandas().reset_index(drop=True)
    wagg = con.execute("SELECT g, COUNT(*) AS n, SUM(v) AS sv FROM t "
                       "GROUP BY g ORDER BY g").df()
    assert list(agg["n"].astype(int)) == list(wagg["n"].astype(int))
    assert list(agg["sv"].astype(int)) == list(wagg["sv"].astype(int))

    top = query(out, order_by=["v", "id"], descending=True, limit=7,
                columns=["id", "v"]).to_pandas()
    wtop = con.execute("SELECT id, v FROM t ORDER BY v DESC, id DESC "
                       "LIMIT 7").df()
    assert list(top["id"].astype(int)) == list(wtop["id"].astype(int))

    fo = query(out, where=("g", "==", "a"), order_by="id", limit=5,
               columns=["id"]).to_pandas()
    wfo = con.execute("SELECT id FROM t WHERE g = 'a' ORDER BY id "
                      "LIMIT 5").df()
    assert list(fo["id"].astype(int)) == list(wfo["id"].astype(int))

    with pytest.raises(ValueError, match="group_by requires aggs"):
        query(out, group_by="g")


def test_explain_scan_prune_accounting(tmp_path, ray_session):
    """explain_scan's numbers must agree with what the scan actually
    schedules: zone survivors, bloom prunes, row upper bound."""
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import explain_scan, read_encoded
    rng = np.random.default_rng(41)
    df = pd.DataFrame({
        "k": np.sort(rng.integers(0, 10_000, 6000)).astype(np.int64),
        "s": rng.choice([f"u{i}" for i in range(50)], 6000)})
    src = tmp_path / "e.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=300)
    out = str(tmp_path / "e_store")
    encode_files([str(src)], out, target_bytes=1 << 13)

    full = explain_scan(out)
    assert full["parts_scanned"] == full["parts_total"] > 3
    assert full["rows_total"] == 6000

    # sorted key → a narrow range prunes most parts
    rng_plan = explain_scan(out, filter=("k", "between", 0, 500))
    assert rng_plan["parts_scanned"] < full["parts_total"] / 2
    got = read_encoded(out, filter=("k", "between", 0, 500)).to_pandas()
    assert len(got) <= rng_plan["rows_upper_bound"]
    assert len(got) == int((df["k"] <= 500).sum())

    # out-of-domain predicate → zero parts
    none = explain_scan(out, filter=("k", "==", 10**7))
    assert none["parts_scanned"] == 0 and none["rows_upper_bound"] == 0

    # bloom prune shows up for a nonexistent dict value with in-zone
    miss = explain_scan(out, filter=("s", "==", "u999zz"))
    assert miss["parts_scanned"] <= miss["zone_survivors"]


def _routed_ops(out):
    """One call of each op routed through plan.execute, as (call,
    answer): ``answer`` maps the call's result to a plain Python
    value."""
    from packcol.pipelines import encode_pipeline as ep
    from packcol.pipelines.fsck import check_store
    from packcol.sources import encoded as enc
    flt = ("lang", "==", "en")

    def agg(res):
        got = res.to_pandas()
        return dict(zip(got["lang"], got["n"].astype(int)))

    def same(res):
        return res

    return {
        "read": (lambda: enc.read_encoded(out, columns=["url"],
                                          filter=flt),
                 lambda res: sorted(res.to_pandas()["url"])),
        "count": (lambda: enc.count_encoded(out, filter=flt), same),
        "agg": (lambda: enc.agg_encoded(out, group_by="lang",
                                        aggs={"n": ("count",)}), agg),
        "distinct": (lambda: enc.count_distinct_encoded(
            out, "lang", group_by="lang",
            filter=("lang", "in", ["en", "de"])),
            lambda res: sorted(res.to_pandas().itertuples(
                index=False, name=None))),
        "distinct_values": (lambda: enc.distinct_encoded(out, "lang"),
                            lambda res: list(res.to_pandas()["lang"])),
        "approx": (lambda: enc.approx_distinct_encoded(out, "url",
                                                       filter=flt),
                   same),
        "topk": (lambda: enc.topk_encoded(
            out, "warc_ts", 5, descending=True, columns=["warc_ts"]),
            lambda res: res.column("warc_ts").to_pylist()),
        "scan": (lambda: enc.read_encoded(out, columns=["url", "lang"]),
                 lambda res: sorted(res.to_pandas().itertuples(
                     index=False, name=None))),
        "verify": (lambda: ep.verify_files(out), same),
        "spot": (lambda: ep.spot_check_files(out),
                 lambda res: (res["checked"] > 0, res["mismatches"])),
        "fsck": (lambda: check_store(out, deep=True),
                 lambda res: (res["ok"], res["parts_total"])),
        "sample": (lambda: enc.sample_encoded(out, 0.5, seed=3,
                                              columns=["url"]),
                   lambda res: sorted(res.to_pandas()["url"])),
    }


def test_executor_paths_agree(store, monkeypatch):
    """Under the crossover every routed op runs in-process: it seeds no
    Ray Data scan, and its answer is consumed through to_pandas,
    iter_batches, count and limit without ``rd.from_arrow`` or a
    streaming executor.  Over it (crossover 0) every op seeds one, and
    both paths give the oracle's answers (the sample's: the same
    rows)."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from packcol.pipelines import encode_pipeline as ep
    from packcol.sources import plan as plan_mod
    wt, out = store
    truth = pq.read_table(wt).to_pandas()
    en = truth[truth["lang"] == "en"]
    want = {
        "read": sorted(en["url"]),
        "count": len(en),
        "agg": truth["lang"].value_counts().to_dict(),
        "distinct": [("de", 1), ("en", 1)],
        "distinct_values": sorted(truth["lang"].unique()),
        "approx": {"n_distinct": en["url"].nunique(), "exact": True,
                   "k": 1024},
        "topk": sorted(truth["warc_ts"], reverse=True)[:5],
        "scan": sorted(truth[["url", "lang"]].itertuples(index=False,
                                                         name=None)),
        "verify": {"rows": len(truth), "mismatches": 0},
        "spot": (True, 0),
        "fsck": (True, len(plan_mod.part_files(out))),
    }
    assert plan_mod.plan(out, []).executor == "local"

    def no_ray(*a, **kw):
        raise AssertionError("in-process answer started Ray Data")

    monkeypatch.setattr(ep, "_part_scan_seed", no_ray)
    monkeypatch.setattr(rd, "from_arrow", no_ray)
    monkeypatch.setattr(StreamingExecutor, "execute", no_ray)
    for op, (call, answer) in _routed_ops(out).items():
        res = call()
        if isinstance(res, rd.Dataset):
            assert isinstance(res, plan_mod.LocalDataset), op
            rows = sum(b.num_rows for b in res.iter_batches(
                batch_format="pyarrow", batch_size=None))
            assert res.count() == rows == len(res.to_pandas()) > 0, op
            assert res.limit(1).count() == 1, op
        # the sample's oracle is its in-process answer, checked below
        assert answer(res) == want.setdefault(op, answer(res)), op
    assert 0 < len(want["sample"]) < len(truth)
    assert set(want["sample"]) <= set(truth["url"])

    monkeypatch.undo()
    seed, seeded = ep._part_scan_seed, []

    def counted(files):
        seeded.append(len(files))
        return seed(files)

    monkeypatch.setattr(ep, "_part_scan_seed", counted)
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
    for op, (call, answer) in _routed_ops(out).items():
        del seeded[:]
        assert answer(call()) == want[op], op
        assert seeded and all(seeded), op


def _store_files(store_dir):
    """{relative path: bytes} of every file under ``store_dir``, with the
    manifests parsed and their wall time dropped."""
    import json
    got = {}
    for dirpath, _, names in os.walk(store_dir):
        for n in names:
            path = os.path.join(dirpath, n)
            with open(path, "rb") as f:
                data = f.read()
            if os.path.basename(dirpath) == "_manifest":
                data = json.loads(data)
                data.pop("wall_s", None)
            got[os.path.relpath(path, store_dir)] = data
    return got


def test_item_jobs_executor_paths_agree(store, tmp_path, monkeypatch):
    """recompact, compact.read_column and merge_join_clustered run
    through plan.execute_rows.  Under the crossover they run in-process:
    no Ray Data seed or streaming execution, and the Dataset answers are
    LocalDatasets.  Over it (crossover 0) each seeds one Ray Data scan.
    Both paths give the oracle's answers, and the recompacted stores
    are byte-identical (the manifests but for their wall time)."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from packcol.pipelines import encode_pipeline as ep
    from packcol.pipelines.compact import (compact_columns, read_column,
                                           recompact)
    from packcol.pipelines.join import merge_join_clustered
    from packcol.sources import plan as plan_mod
    wt, out = store
    truth = pq.read_table(wt).to_pandas()
    cols = str(tmp_path / "cols")
    compact_columns(out, cols)  # a Ray Data groupby: built unpatched
    n_src = len(plan_mod.part_files(out))
    joined = truth[["url", "warc_ts"]].merge(truth[["warc_ts", "lang"]],
                                             on="warc_ts")
    want = [{"parts": -(-n_src // 2), "rows": len(truth)},
            sorted(truth["lang"]),
            sorted(joined.itertuples(index=False, name=None))]

    def run(dest):
        res = recompact(out, dest, merge_factor=2)
        langs = read_column(cols, "lang")
        pairs = merge_join_clustered(out, out, "warc_ts",
                                     left_columns=["url"],
                                     right_columns=["lang"])
        return res, langs, pairs

    def answers(res, langs, pairs):
        return [{k: res[k] for k in ("parts", "rows")},
                sorted(langs.to_pandas()["lang"]),
                sorted(pairs.to_pandas()[["url", "warc_ts", "lang"]]
                       .itertuples(index=False, name=None))]

    def no_ray(*a, **kw):
        raise AssertionError("in-process job started Ray Data")

    local = str(tmp_path / "local")
    with monkeypatch.context() as m:
        m.setattr(ep, "_part_scan_seed", no_ray)
        m.setattr(rd, "from_arrow", no_ray)
        m.setattr(StreamingExecutor, "execute", no_ray)
        res = run(local)
        assert all(isinstance(ds, plan_mod.LocalDataset) for ds in res[1:])
        assert answers(*res) == want

    seed, seeded = ep._part_scan_seed, []

    def counted(files):
        seeded.append(len(files))
        return seed(files)

    monkeypatch.setattr(ep, "_part_scan_seed", counted)
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
    on_ray = str(tmp_path / "on_ray")
    assert answers(*run(on_ray)) == want
    assert seeded == [-(-n_src // 2), 1, n_src]
    assert _store_files(on_ray) == _store_files(local)


def test_local_dataset_matches_ray_dataset(store, tmp_path):
    """An in-process answer (a LocalDataset) behaves as
    ``rd.from_arrow`` of its table does: the methods it reads from the
    table, and the Ray methods it falls through to."""
    import pickle

    import ray.data as rd

    from packcol.sources import plan as plan_mod
    from packcol.sources.encoded import read_encoded
    _, out = store
    local = read_encoded(out, columns=["url", "lang", "warc_ts"],
                         filter=("lang", "in", ["en", "de"]))
    assert isinstance(local, plan_mod.LocalDataset)
    table = plan_mod.collect(local)
    ref = rd.from_arrow(table)
    n = table.num_rows
    assert n > 10

    def frame(ds, by="url"):
        return ds.to_pandas().sort_values(by, ignore_index=True)

    pd.testing.assert_frame_equal(local.to_pandas(), ref.to_pandas())
    assert local.count() == ref.count() == n
    assert local.take_all() == ref.take_all()
    assert local.take(4) == ref.take(4)
    for size, drop in ((None, False), (7, False), (7, True)):
        got, exp = (
            [b.num_rows for b in ds.iter_batches(
                batch_size=size, batch_format="pyarrow", drop_last=drop)]
            for ds in (local, ref))
        assert got == exp, (size, drop)
    for a, b in zip(local.iter_batches(batch_size=5, batch_format="numpy"),
                    ref.iter_batches(batch_size=5, batch_format="numpy")):
        assert a.keys() == b.keys()
        assert all((a[k] == b[k]).all() for k in a)
    pd.testing.assert_frame_equal(local.limit(3).to_pandas(),
                                  ref.limit(3).to_pandas())
    pd.testing.assert_frame_equal(local.sort("url").to_pandas(),
                                  ref.sort("url").to_pandas())
    assert local.materialize() is local
    pd.testing.assert_frame_equal(local.to_pandas(limit=n),
                                  ref.to_pandas(limit=n))
    for ds in (local, ref):
        with pytest.raises(ValueError, match="more than the given limit"):
            ds.to_pandas(limit=n - 1)
        with pytest.raises(ValueError, match="more than the given limit"):
            ds.take_all(limit=n - 1)

    # the methods that fall through to Ray
    pd.testing.assert_frame_equal(
        frame(local.groupby("lang").count(), "lang"),
        frame(ref.groupby("lang").count(), "lang"))
    pd.testing.assert_frame_equal(
        frame(local.map_batches(lambda b: b, batch_format="pyarrow")),
        frame(ref.map_batches(lambda b: b, batch_format="pyarrow")))
    pd.testing.assert_frame_equal(
        frame(local.union(rd.from_arrow(table.slice(0, 3)))),
        frame(ref.union(rd.from_arrow(table.slice(0, 3)))))
    assert local.schema() == ref.schema()
    local.materialize().write_parquet(str(tmp_path / "local"))
    ref.materialize().write_parquet(str(tmp_path / "ref"))
    pd.testing.assert_frame_equal(
        pq.read_table(str(tmp_path / "local")).to_pandas()
        .sort_values("url", ignore_index=True),
        pq.read_table(str(tmp_path / "ref")).to_pandas()
        .sort_values("url", ignore_index=True))
    for ds in (local, read_encoded(out, columns=["url", "lang", "warc_ts"],
                                   filter=("lang", "in", ["en", "de"]))):
        back = pickle.loads(pickle.dumps(ds))
        assert isinstance(back, plan_mod.LocalDataset)
        pd.testing.assert_frame_equal(back.to_pandas(), ref.to_pandas())


def test_query_order_by_sorts_in_process(store, monkeypatch):
    """``query(order_by=...)`` over an aggregate or an in-process
    filtered read sorts the driver table and starts no Ray Data
    execution, and returns the rows Ray's ``Dataset.sort`` does: nulls,
    one key either way, two keys with mixed ``descending``.  A sort
    with ``boundaries`` stays Ray's."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from packcol.sources import plan as plan_mod
    from packcol.sources.encoded import query
    _, out = store
    aggs = {"n": ("count",), "last": ("max", "warc_ts")}
    flt = ("lang", "in", ["en", "de"])
    cols = ["url", "lang", "warc_ts"]
    nulls = pa.table({"a": [3, None, 1, 2, 2, None],
                      "b": ["x", "y", None, "a", "b", "c"]})
    sorts = [("a", False), ("a", True), (["a", "b"], [False, True]),
             (["b", "a"], True)]

    def ray_sorted(table, key, descending):
        return rd.from_arrow(table).sort(key, descending=descending) \
            .to_pandas()

    want_agg = ray_sorted(
        plan_mod.collect(query(out, group_by="lang", aggs=aggs)),
        ["n", "lang"], [True, False])
    want_read = ray_sorted(
        plan_mod.collect(query(out, columns=cols, where=flt)),
        ["lang", "warc_ts"], [False, True]).head(9)
    want_nulls = [ray_sorted(nulls, k, d) for k, d in sorts]
    by_ray = plan_mod.LocalDataset(nulls).sort("a", boundaries=[2])
    assert not isinstance(by_ray, plan_mod.LocalDataset)
    pd.testing.assert_frame_equal(by_ray.to_pandas(), want_nulls[0])

    def no_ray(*a, **kw):
        raise AssertionError("in-process sort started Ray Data")

    monkeypatch.setattr(StreamingExecutor, "execute", no_ray)
    agg = query(out, group_by="lang", aggs=aggs, order_by=["n", "lang"],
                descending=[True, False])
    read = query(out, columns=cols, where=flt,
                 order_by=["lang", "warc_ts"], descending=[False, True],
                 limit=9)
    for got, want in ((agg, want_agg), (read, want_read)):
        assert isinstance(got, plan_mod.LocalDataset)
        pd.testing.assert_frame_equal(got.to_pandas(), want)
    for (key, desc), want in zip(sorts, want_nulls):
        got = plan_mod.LocalDataset(nulls).sort(key, descending=desc)
        pd.testing.assert_frame_equal(got.to_pandas(), want)
    empty = plan_mod.LocalDataset(nulls.slice(0, 0)).sort("a")
    assert empty.to_pandas().columns.tolist() == ["a", "b"]
    with pytest.raises(ValueError, match="no such column"):
        plan_mod.LocalDataset(nulls).sort("c")


def test_read_limit_agrees_across_executors(store, monkeypatch):
    """``read_encoded(..., limit=k)`` gives the same rows in-process (a
    table slice) and on Ray (the streaming early stop, its order kept)
    for k = 0, k below the matches and k above them."""
    from ray.data import DataContext

    from packcol.sources import plan as plan_mod
    from packcol.sources.encoded import read_encoded
    _, out = store
    flt = ("lang", "==", "en")

    def rows(k):
        return read_encoded(out, columns=["url", "warc_ts"], filter=flt,
                            limit=k).to_pandas()

    matches = len(read_encoded(out, columns=["url"], filter=flt)
                  .to_pandas())
    assert matches > 2
    ks = (0, matches // 2, matches + 5)
    local = [rows(k) for k in ks]
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
    monkeypatch.setattr(DataContext.get_current().execution_options,
                        "preserve_order", True)
    for k, got in zip(ks, local):
        ray_rows = rows(k)
        assert len(got) == len(ray_rows) == min(k, matches), k
        if k:
            pd.testing.assert_frame_equal(got, ray_rows)


def test_perfbench_consumes_lookup_answers(store, monkeypatch):
    """The benchmark's consumer (``perfbench.workloads._tables``) reads
    every lookup-op answer (point, IN, range and agg) on both
    executors."""
    from packcol.sources import plan as plan_mod
    from packcol.sources.encoded import agg_encoded, read_encoded
    from perfbench.workloads import _tables
    wt, out = store
    truth = pq.read_table(wt).to_pandas()
    urls = list(truth["url"][:3])
    ts = sorted(truth["warc_ts"])
    lo, hi = ts[10], ts[40]
    cols = ["url", "lang", "warc_ts"]
    ops = {
        "point": (lambda: read_encoded(out, columns=cols,
                                       filter=("url", "==", urls[0])),
                  truth[truth["url"] == urls[0]]),
        "in": (lambda: read_encoded(out, columns=cols,
                                    filter=("url", "in", urls)),
               truth[truth["url"].isin(urls)]),
        "range": (lambda: read_encoded(
            out, columns=cols, filter=("warc_ts", "between", lo, hi)),
            truth[(truth["warc_ts"] >= lo) & (truth["warc_ts"] <= hi)]),
    }
    for executor_bytes in (plan_mod._LOCAL_PLAN_BYTES, 0):
        monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", executor_bytes)
        for op, (call, exp) in ops.items():
            t = _tables(call())
            assert t is not None and t.column_names == cols, op
            assert sorted(t.column("url").to_pylist()) == \
                sorted(exp["url"]), op
        t = _tables(agg_encoded(out, group_by="lang",
                                aggs={"n": ("count",)}))
        assert dict(zip(t.column("lang").to_pylist(),
                        t.column("n").to_pylist())) == \
            truth["lang"].value_counts().to_dict()


def test_plan_records_planned_bytes_and_executor(store, monkeypatch):
    """Plan.record (explain_scan) reports the planned bytes — the file
    sizes of the parts to scan — and the executor they choose."""
    from packcol.sources import plan as plan_mod
    from packcol.sources.encoded import explain_scan
    _, out = store
    flt = ("lang", "==", "en")
    rec = explain_scan(out, filter=flt)
    p = plan_mod.plan(out, *plan_mod.parse_filter(flt, None))
    assert rec["planned_bytes"] == sum(
        os.path.getsize(q) for q in p.parts) > 0
    assert rec["executor"] == "local"
    assert explain_scan(out)["planned_bytes"] == sum(
        os.path.getsize(q) for q in plan_mod.part_files(out))
    none = explain_scan(out, filter=("lang", "==", "no-such-lang"))
    assert none["parts_scanned"] == 0 and none["planned_bytes"] == 0
    assert none["executor"] == "local"
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES",
                        rec["planned_bytes"] - 1)
    assert explain_scan(out, filter=flt)["executor"] == "ray"


def test_restrict_keeps_manifests_lazy(store, monkeypatch):
    """Narrowing an unfiltered plan and sizing it reads no manifest; a
    filtered plan's loaded manifests carry over to its restriction."""
    from packcol.sources import plan as plan_mod
    from packcol.state.manifest import Manifest
    _, out = store
    load, loads = Manifest.load, []

    def counted(self, pid):
        loads.append(pid)
        return load(self, pid)

    monkeypatch.setattr(Manifest, "load", counted)
    listed = plan_mod.part_files(out)
    sub = plan_mod.plan(out, []).restrict(listed[:2])
    assert sub.planned_bytes == sum(os.path.getsize(q)
                                    for q in listed[:2]) > 0
    assert loads == []
    full = plan_mod.plan(out, [("lang", "==", "en", "en")])
    n = len(loads)
    assert n == len(listed)
    assert full.restrict(full.parts[:1]).manifests is full.manifests
    assert len(loads) == n


def test_rollup_cube_null_keys_match_duckdb(tmp_path, ray_session,
                                            monkeypatch):
    """GROUP BY, ROLLUP, CUBE and GROUPING SETS over a key with NULLs:
    a NULL key is a group of its own, beside the NULL markers of the
    rolled-up levels, as in DuckDB — with the scan in-process and on
    Ray."""
    import duckdb
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources import plan as plan_mod
    from packcol.sources.encoded import (agg_encoded, agg_encoded_cube,
                                         agg_encoded_grouping_sets,
                                         agg_encoded_rollup)
    rng = np.random.default_rng(17)
    n = 3000
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], n),
        "b": np.where(rng.random(n) < 0.2, None,
                      rng.choice(["p", "q"], n)),
        "v": rng.integers(0, 1000, n).astype(np.int64)})
    src = tmp_path / "nk.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=500)
    out = str(tmp_path / "nk_store")
    encode_files([str(src)], out, target_bytes=1 << 13)
    con = duckdb.connect()
    con.register("t", df)
    aggs = {"n": ("count",), "sv": ("sum", "v"), "mx": ("max", "v")}
    sql = "SELECT a, b, COUNT(*) AS n, SUM(v) AS sv, MAX(v) AS mx " \
        "FROM t GROUP BY "

    def canon(d):
        d = d[["a", "b", "n", "sv", "mx"]].copy()
        for c in ("a", "b"):
            d[c] = d[c].fillna("∅")
        d = d.astype({"n": int, "sv": int, "mx": int})
        return d.sort_values(list(d.columns)).reset_index(drop=True)

    for crossover in (plan_mod._LOCAL_PLAN_BYTES, 0):
        monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", crossover)
        got = agg_encoded(out, group_by="b", aggs=aggs).to_pandas()
        want = con.execute(sql.replace("a, b", "NULL AS a, b", 1)
                           + "b").df()
        pd.testing.assert_frame_equal(canon(got.assign(a=None)),
                                      canon(want), check_dtype=False,
                                      obj="GROUP BY b")
        for got, group in (
                (agg_encoded_rollup(out, ["a", "b"], aggs),
                 "ROLLUP(a, b)"),
                (agg_encoded_rollup(out, ["b", "a"], aggs),
                 "ROLLUP(b, a)"),
                (agg_encoded_cube(out, ["a", "b"], aggs), "CUBE(a, b)"),
                (agg_encoded_grouping_sets(out, ["a", "b"],
                                           [("a", "b"), ("b",)], aggs),
                 "GROUPING SETS ((a, b), (b))")):
            want = con.execute(sql + group).df()
            pd.testing.assert_frame_equal(canon(got), canon(want),
                                          check_dtype=False, obj=group)


def test_agg_encoded_rollup_matches_duckdb(tmp_path, ray_session):
    import duckdb
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import agg_encoded_rollup
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], 4000),
        "b": rng.choice(["p", "q"], 4000),
        "v": rng.integers(0, 1000, 4000).astype(np.int64)})
    src = tmp_path / "r.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=500)
    out = str(tmp_path / "r_store")
    encode_files([str(src)], out, target_bytes=1 << 13)
    con = duckdb.connect()
    con.register("t", df)

    got = agg_encoded_rollup(out, ["a", "b"],
                             {"n": ("count",), "sv": ("sum", "v"),
                              "mx": ("max", "v")})
    want = con.execute(
        "SELECT a, b, COUNT(*) AS n, SUM(v) AS sv, MAX(v) AS mx "
        "FROM t GROUP BY ROLLUP(a, b)").df()

    def canon(d):
        d = d.copy()
        for c in ("a", "b"):
            d[c] = d[c].fillna("∅")
        return d.sort_values(["a", "b"]).reset_index(drop=True) \
            .astype({"n": int, "sv": int, "mx": int})

    pd.testing.assert_frame_equal(canon(got), canon(want[got.columns]),
                                  check_dtype=False)

    # single-key rollup goes through the encoded-domain agg
    got1 = agg_encoded_rollup(out, ["a"], {"n": ("count",)})
    want1 = con.execute("SELECT a, COUNT(*) AS n FROM t "
                        "GROUP BY ROLLUP(a)").df()
    g = got1.fillna("∅").sort_values("a").reset_index(drop=True)
    w = want1.fillna("∅").sort_values("a").reset_index(drop=True)
    assert list(g["n"].astype(int)) == list(w["n"].astype(int))

    with pytest.raises(ValueError, match="decomposable"):
        agg_encoded_rollup(out, ["a"], {"m": ("avg", "v")})


def test_agg_encoded_cube_matches_duckdb(tmp_path, ray_session):
    import duckdb
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import (agg_encoded_cube,
                                         agg_encoded_grouping_sets)
    rng = np.random.default_rng(6)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y"], 2000),
        "b": rng.choice(["p", "q", "r"], 2000),
        "v": rng.integers(0, 100, 2000).astype(np.int64)})
    src = tmp_path / "c.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=250)
    out = str(tmp_path / "c_store")
    encode_files([str(src)], out, target_bytes=1 << 12)
    con = duckdb.connect()
    con.register("t", df)

    def canon(d):
        d = d.copy()
        for c in ("a", "b"):
            d[c] = d[c].fillna("∅")
        return d.sort_values(["a", "b"]).reset_index(drop=True) \
            .astype({"n": int, "sv": int})

    got = agg_encoded_cube(out, ["a", "b"],
                           {"n": ("count",), "sv": ("sum", "v")})
    want = con.execute("SELECT a, b, COUNT(*) AS n, SUM(v) AS sv "
                       "FROM t GROUP BY CUBE(a, b)").df()
    pd.testing.assert_frame_equal(canon(got), canon(want[got.columns]),
                                  check_dtype=False)

    gs = agg_encoded_grouping_sets(out, ["a", "b"], [("a",), ("b",)],
                                   {"n": ("count",)})
    wgs = con.execute("SELECT a, b, COUNT(*) AS n FROM t GROUP BY "
                      "GROUPING SETS ((a), (b))").df()
    pd.testing.assert_frame_equal(
        canon(gs.assign(sv=0)).drop(columns=["sv"]),
        canon(wgs[gs.columns].assign(sv=0)).drop(columns=["sv"]),
        check_dtype=False)

    with pytest.raises(ValueError, match="not a subset"):
        agg_encoded_grouping_sets(out, ["a"], [("zz",)],
                                  {"n": ("count",)})
