"""Prefix (LIKE 'p%') and IS [NOT] NULL predicate pushdown: encoded-
domain kernels (codecs/access.py), part pruning on zone intervals /
manifest null counts, and the store-level read/count/agg paths."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.codecs.access import (eval_pred, filter_null, filter_prefix,
                                   filter_eq, filter_in, filter_range)
from packcol.codecs.base import get_codec


class _Codecs:
    def __getitem__(self, name):
        return get_codec(name)


CODECS = _Codecs()


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

STRS = ["alpha", "alps", None, "beta", "alphabet", "gamma", "alp", None]


@pytest.mark.parametrize("codec", ["dict", "rle", "fsst", "toksep"])
def test_filter_prefix_kernel(codec):
    arr = pa.array(STRS)
    enc = CODECS[codec].encode(arr)
    exp = [v is not None and v.startswith("alp") for v in STRS]
    assert filter_prefix(enc, "alp").tolist() == exp
    exp2 = [v is not None and v.startswith("alpha") for v in STRS]
    assert filter_prefix(enc, "alpha").tolist() == exp2
    assert filter_prefix(enc, "zz").sum() == 0
    assert filter_prefix(enc, "").tolist() == [v is not None for v in STRS]


def test_filter_prefix_non_string_dict_falls_back():
    # integer dictionary: starts_with is not defined → decode fallback
    enc = CODECS["dict"].encode(pa.array([1, 2, 1, 3], type=pa.int64()))
    with pytest.raises(pa.ArrowNotImplementedError):
        filter_prefix(enc, "1")


@pytest.mark.parametrize("codec", ["dict", "rle", "for", "delta",
                                   "decfloat", "fsst", "store"])
def test_filter_null_kernel(codec):
    if codec in ("for", "delta"):
        vals = [10, None, 25, None, 40]
        arr = pa.array(vals, type=pa.int64())
    elif codec == "decfloat":
        vals = [1.25, None, 2.5, None, 7.75]
        arr = pa.array(vals, type=pa.float64())
    else:
        vals = ["aa", None, "bb", None, "aa"]
        arr = pa.array(vals)
    enc = CODECS[codec].encode(arr)
    exp = [v is None for v in vals]
    assert filter_null(enc, True).tolist() == exp
    assert filter_null(enc, False).tolist() == [not e for e in exp]


def test_filter_null_no_nulls():
    for codec, arr in [("dict", pa.array(["a", "b", "a"])),
                       ("rle", pa.array(["a", "a", "b"])),
                       ("for", pa.array([1, 2, 3], type=pa.int64()))]:
        enc = CODECS[codec].encode(arr)
        assert filter_null(enc, True).sum() == 0
        assert filter_null(enc, False).all()


def test_rle_code_domain_eq_in_range():
    """RLE now evaluates eq/in/range on run codes (was decode
    fallback): same answers as the decoded truth, nulls excluded."""
    vals = ["b", "b", "b", None, "a", "a", "c", "c", "c", "c"]
    enc = CODECS["rle"].encode(pa.array(vals))
    assert filter_eq(enc, "b").tolist() == [v == "b" for v in vals]
    assert filter_in(enc, ("a", "c")).tolist() == \
        [v in ("a", "c") for v in vals]
    assert filter_range(enc, "a", "b").tolist() == \
        [v is not None and "a" <= v <= "b" for v in vals]
    assert filter_eq(enc, "zz").sum() == 0


def test_eval_pred_dispatch():
    enc = CODECS["dict"].encode(pa.array(["x", None, "xy", "z"]))
    assert eval_pred(enc, ("c", "prefix", "x", None)).tolist() == \
        [True, False, True, False]
    assert eval_pred(enc, ("c", "isnull", None, None)).tolist() == \
        [False, True, False, False]
    assert eval_pred(enc, ("c", "notnull", None, None)).tolist() == \
        [True, False, True, True]
    with pytest.raises(ValueError, match="unknown predicate op"):
        eval_pred(enc, ("c", "regex", ".*", None))


# ---------------------------------------------------------------------------
# store level
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nstore(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    rng = np.random.default_rng(11)
    n = 4000
    langs = np.array(["en", "en-GB", "en-US", "fr", "de", None],
                     dtype=object)
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "lang": langs[rng.integers(0, 6, n)],
        "score": np.where(rng.random(n) < 0.1, np.nan, rng.random(n)),
        "host": np.array(["www.alpha.com", "www.beta.org",
                          "api.alpha.com", "cdn.gamma.net"],
                         dtype=object)[rng.integers(0, 4, n)]})
    src = str(tmp_path_factory.mktemp("nsrc"))
    out = str(tmp_path_factory.mktemp("nstore"))
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   f"{src}/a.parquet", row_group_size=1000)
    encode_files([f"{src}/a.parquet"], out, target_bytes=1 << 18)
    return df, out


def test_read_encoded_prefix(nstore, ray_session):
    from packcol.sources.encoded import read_encoded
    df, out = nstore
    got = read_encoded(out, columns=["doc_id"],
                       filter=("host", "prefix", "www.")).to_pandas()
    want = df[df.host.str.startswith("www.")]
    assert sorted(got.doc_id) == sorted(want.doc_id)
    # LIKE spelling
    got2 = read_encoded(out, columns=["doc_id"],
                        filter=("lang", "like", "en%")).to_pandas()
    want2 = df[df.lang.fillna("").str.startswith("en")]
    assert sorted(got2.doc_id) == sorted(want2.doc_id)


def test_read_encoded_like_rejects_non_prefix(nstore, ray_session):
    from packcol.sources.encoded import read_encoded
    _, out = nstore
    for pat in ("%mid%", "a_b%", "exact"):
        with pytest.raises(ValueError, match="not a plain prefix"):
            read_encoded(out, filter=("lang", "like", pat))


def test_read_encoded_null_tests(nstore, ray_session):
    from packcol.sources.encoded import count_encoded, read_encoded
    df, out = nstore
    for col in ("lang", "score"):
        got = read_encoded(out, columns=["doc_id"],
                           filter=(col, "isnull")).to_pandas()
        assert sorted(got.doc_id) == sorted(df[df[col].isna()].doc_id)
        assert count_encoded(out, (col, "notnull")) == \
            int(df[col].notna().sum())


def test_prefix_null_conjunction_disjunction(nstore, ray_session):
    from packcol.sources.encoded import read_encoded
    df, out = nstore
    gc = read_encoded(out, columns=["doc_id"],
                      filter=[("host", "prefix", "www."),
                              ("score", "notnull"),
                              ("doc_id", "between", 0, 2500)]).to_pandas()
    wc = df[df.host.str.startswith("www.") & df.score.notna()
            & (df.doc_id <= 2500)]
    assert sorted(gc.doc_id) == sorted(wc.doc_id)
    go = read_encoded(out, columns=["doc_id"],
                      filter_any=[("lang", "isnull"),
                                  ("host", "prefix", "api.")]).to_pandas()
    wo = df[df.lang.isna() | df.host.str.startswith("api.")]
    assert sorted(go.doc_id) == sorted(wo.doc_id)


def test_agg_encoded_with_prefix_and_notnull(nstore, ray_session):
    from packcol.sources.encoded import agg_encoded
    df, out = nstore
    r = agg_encoded(out, group_by="host",
                    aggs={"n": ("count",), "mx": ("max", "doc_id")},
                    filter=("lang", "notnull")).to_pandas()
    w = df[df.lang.notna()].groupby("host").agg(
        n=("doc_id", "size"), mx=("doc_id", "max")).reset_index()
    got = r.sort_values("host").reset_index(drop=True)
    want = w.sort_values("host").reset_index(drop=True)
    assert got["n"].tolist() == want["n"].tolist()
    assert got["mx"].tolist() == want["mx"].tolist()


def test_part_pruning_prefix_and_nulls(tmp_path, ray_session):
    """Driver-side pruning: prefix prunes on the [prefix, successor)
    zone interval, null tests on manifest null counts."""
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.plan import plan
    a = pd.DataFrame({"id": np.arange(0, 1000, dtype=np.int64),
                      "host": ["aaa.com"] * 500 + ["abc.com"] * 500})
    b = pd.DataFrame({"id": np.arange(1000, 2000, dtype=np.int64),
                      "host": ["zzz.com"] * 900 + [None] * 100})
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(pa.Table.from_pandas(a, preserve_index=False),
                   str(src / "a.parquet"))
    pq.write_table(pa.Table.from_pandas(b, preserve_index=False),
                   str(src / "b.parquet"))
    out = str(tmp_path / "store")
    encode_files([str(src / "a.parquet"), str(src / "b.parquet")], out)
    n = lambda pred: len(plan(out, [pred]).parts)  # noqa: E731
    assert n(("host", "isnull", None, None)) == 1
    assert n(("host", "notnull", None, None)) == 2
    assert n(("host", "prefix", "a", None)) == 1
    assert n(("host", "prefix", "zz", None)) == 1
    assert n(("host", "prefix", "q", None)) == 0


def test_prefix_upper_edge_cases():
    from packcol.sources.plan import _prefix_upper
    assert _prefix_upper("abc") == "abd"
    assert _prefix_upper("a\U0010FFFF") == "b"
    assert _prefix_upper("\U0010FFFF") is None
    assert _prefix_upper("z") == "{"


def test_empty_filter_list_rejected():
    """Only None means "no predicate": an empty AND list (true) or an
    empty OR list (false) must not silently become a full scan."""
    from packcol.sources.plan import parse_filter
    assert parse_filter(None, None) == ([], "and")
    for kw in ({"filter": []}, {"filter_any": []}):
        with pytest.raises(ValueError, match="empty"):
            parse_filter(kw.get("filter"), kw.get("filter_any"))
