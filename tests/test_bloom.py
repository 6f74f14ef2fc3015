"""Per-part key sets in the manifests (state/bloom.py) + IN-list
pushdown: exact eq / IN part pruning for columns zone maps can't help
with (arrival-ordered high-cardinality keys), the per-process manifest
cache the probes read (state/manifest.py::Manifest.cached), and the
(col, "in", [...]) predicate on packed codes
(codecs/access.py::filter_in)."""

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.sources.webtext import write_webtext
from packcol.state.bloom import (bloom_may_contain, fingerprints,
                                 from_record, to_record)
from packcol.state.manifest import Manifest, StoreFormatError

# the rest of a manifest's key set, for manifests of no part file
_NO_PART = {"rows": 0, "orig_bytes": 0, "enc_bytes": 0, "zones": {},
            "nulls": {}, "values": {}, "codecs": {}, "params_hash": "",
            "payload_digest": ""}


def _write(store_dir, pid, columns):
    """Record part ``pid``'s manifest holding the key sets of
    ``columns`` ({column: values})."""
    Manifest(store_dir).record(pid, {**_NO_PART, "keys": {
        c: to_record(a) for c, a in columns.items()}})


def _may(store_dir, pid, column, values):
    """bloom_may_contain on the part's cached manifest entry."""
    return bloom_may_contain(Manifest(store_dir).cached(pid), column,
                             values)


def _entry(arr):
    """A cached-manifest entry holding only the key set of ``arr`` as
    column "c"."""
    return {"keys": {"c": from_record(to_record(arr))}}


# ---------------------------------------------------------------- unit

def test_bloom_no_false_negatives_and_low_fpr():
    keys = pa.array([f"https://ex.com/p{i}" for i in range(5000)])
    s = from_record(to_record(keys))
    assert np.isin(fingerprints(keys), s["fp"]).all()  # NEVER a miss
    assert bloom_may_contain(_entry(keys), "c", keys[1234:1235])
    absent = pa.array([f"https://other.com/x{i}" for i in range(20000)])
    # about 20000 * 5000 / 2^32 = 0.02 collisions expected
    assert np.isin(fingerprints(absent), s["fp"]).sum() <= 1
    assert not bloom_may_contain(_entry(keys), "c", absent[:4096])


def test_bloom_distinct_sizing():
    # low-cardinality column → tiny set (sized by DISTINCT keys)
    rec = to_record(pa.array(["de", "en", "fr"] * 10000))
    assert rec["n"] == 3
    assert len(rec["fp"]) <= 24  # at most 3 x 32 bits, base64


def test_bloom_timestamp_unit_safety():
    import datetime as dt
    ts = pa.array([dt.datetime(2024, 1, 1) + dt.timedelta(hours=i)
                   for i in range(500)]).cast(pa.timestamp("ns"))
    m = _entry(ts)
    assert m["keys"]["c"]["dt"] == "timestamp[ns]"
    # probe with a naturally us-inferred scalar: the stored dtype must
    # drive the cast, else this present key would falsely prune
    assert bloom_may_contain(m, "c", pa.array([dt.datetime(2024, 1, 1, 5)]))
    assert not bloom_may_contain(m, "c", pa.array([dt.datetime(2030, 1, 1)]))


def test_bloom_nulls_and_binary():
    assert to_record(pa.array(["a", None, "b"]))["n"] == 2
    bn = _entry(pa.array([b"\x00\xff", b"xy"], type=pa.binary()))
    assert bloom_may_contain(bn, "c", pa.array([b"\x00\xff"], pa.binary()))
    assert bloom_may_contain(bn, "c", pa.array(["xy"]))  # same bytes
    assert not bloom_may_contain(bn, "c", pa.array([b"xz"], pa.binary()))
    # a value that does not hash as the column's type never prunes
    assert bloom_may_contain(bn, "c", pa.array([5]))
    assert to_record(pa.array([None, None], type=pa.string())) is None


def test_bloom_sidecar_roundtrip(tmp_path, fresh_cache):
    """A key set survives the manifest record (JSON, base64 of the
    packed deltas) and the cached manifest entry probes like the built
    set."""
    d = str(tmp_path)
    keys = pa.array(["k1", "k2"])
    _write(d, "p0", {"url": keys})
    rec = Manifest(d).load("p0")["keys"]["url"]
    assert isinstance(rec["fp"], str) and rec["dt"] == "string"
    want = np.unique(fingerprints(keys))
    for got in (from_record(rec), Manifest(d).cached("p0")["keys"]["url"]):
        assert got["fp"].dtype == np.uint32
        assert np.array_equal(got["fp"], want) and got["dt"] == "string"
    assert _may(d, "p0", "url", pa.array(["k1"]))
    assert not _may(d, "p0", "url", pa.array(["nope"]))
    # conservative fallbacks: missing column / damaged record
    assert _may(d, "p0", "other", pa.array(["nope"]))
    for bad in ({"fp": "%%", "n": 2, "width": rec["width"], "dt": "string"},
                {**rec, "fp": rec["fp"][:8]}, {**rec, "n": 3},
                {**rec, "width": 40}, {"n": 2}, "url",
                {k: v for k, v in rec.items() if k != "dt"}):
        assert from_record(bad) is None
    # a manifest with blooms in place of key sets is an older store
    # format, which no read accepts
    Manifest(d).record("p1", {**_NO_PART, "blooms": ["url"]})
    with pytest.raises(StoreFormatError, match="re-encode"):
        Manifest(d).cached("p1")
    # no manifest, or one that is not JSON, raises: a plan lists only
    # committed parts, so a reader never probes a part without one
    with pytest.raises(FileNotFoundError):
        _may(d, "zz", "url", pa.array(["nope"]))
    with open(Manifest(d)._path("p0"), "w") as f:
        f.write("garbage")
    with pytest.raises(ValueError, match="p0.json: not JSON"):
        _may(d, "p0", "url", pa.array(["nope"]))


def test_key_set_record_packs_sorted_deltas():
    """A record holds the sorted distinct fingerprints as bit-packed
    deltas: 1,000 urls take about 25 bits each."""
    urls = pa.array([f"https://h{i}.example.com/p/{i * 7}"
                     for i in range(1000)] * 2)
    rec = to_record(urls)
    assert rec["n"] == 1000 and rec["width"] <= 32
    s = from_record(rec)
    assert np.array_equal(s["fp"], np.unique(fingerprints(urls)))
    assert (np.diff(s["fp"].astype(np.int64)) > 0).all()
    assert len(rec["fp"]) * 3 / 4 <= 1000 * 28 / 8


def test_fingerprint_distinguishes_every_byte():
    """Values differing in length, head, tail or only their middle
    bytes get distinct fingerprints: the string hash reads every
    byte."""
    base = "https://example.com/" + "m" * 40 + "/tail-of-the-url"
    vals = pa.array(["abcdef", "abcdeg", "xbcdef", "abcdef0",
                     "a" * 100, "a" * 101, "b" + "a" * 99,
                     "a" * 99 + "b", "", base] +
                    [base[:i] + "n" + base[i + 1:]
                     for i in range(20, 60)])
    fp = fingerprints(vals)
    assert len(set(fp.tolist())) == len(vals)
    # a sliced array hashes its own rows only
    assert np.array_equal(fingerprints(vals.slice(3, 5)), fp[3:8])


# --------------------------------------------------------- access layer

def _enc(values, codec=None):
    from packcol.stages.select import encode_with_guard
    return encode_with_guard(pa.array(values), codec)


def test_filter_in_dict_and_forpack():
    from packcol.codecs.access import filter_in
    langs = ["de", "en", "fr", "it", "nl"] * 40
    enc = _enc(langs, "dict")
    mask = filter_in(enc, ("de", "nl", "zz"))
    exp = np.array([v in ("de", "nl") for v in langs])
    assert np.array_equal(mask, exp)
    assert not filter_in(enc, ("zz",)).any()
    ints = list(range(100, 300))
    enci = _enc(ints, "for")
    m2 = filter_in(enci, (150, 299, 9999))
    assert np.flatnonzero(m2).tolist() == [50, 199]


def test_filter_in_decode_fallback():
    from packcol.codecs.access import filter_in
    vals = [1.5, 2.5, 3.5, None] * 10
    enc = _enc(vals)
    mask = filter_in(enc, (2.5,))
    assert mask.sum() == 10
    assert not mask[3]  # null never matches


# ----------------------------------------------------------- store e2e

@pytest.fixture(scope="module")
def bstore(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("wt_bloom"))
    out = str(tmp_path_factory.mktemp("store_bloom"))
    paths = write_webtext(wt, n_rows=4000, n_parts=8, seed=7)
    encode_files(paths, out, target_bytes=1 << 19)
    return wt, out, paths


def test_encode_writes_bloom_sidecars(bstore):
    """Key sets live in the manifests; no sidecar directory."""
    from packcol.sources.encoded import store_stats
    from packcol.sources.plan import plan
    _, out, _ = bstore
    parts = len([f for f in os.listdir(out) if f.endswith(".parquet")])
    assert sorted(f for f in os.listdir(out) if not f.endswith(
        ".parquet")) == ["_manifest", "_selection"]
    st = store_stats(out)
    # url (key) and warc_ts (int-like) covered; lang (low-card) has
    # exact value counts instead, which prune eq / IN; html/text
    # payloads excluded by the mean-length cap
    assert st["keys"].get("url") == parts
    assert st["keys"].get("warc_ts") == parts
    assert "lang" not in st["keys"]
    assert all("lang" in m["values"]
               for m in plan(out, []).manifests.values())
    assert "html" not in st["keys"] and "text" not in st["keys"]


def test_point_lookup_prunes_to_matching_parts(bstore):
    from packcol.sources.encoded import read_encoded
    from packcol.sources.plan import plan
    _, out, paths = bstore
    url = pq.read_table(paths[3], columns=["url"]).column("url")[17].as_py()
    rec = plan(out, [("url", "eq", url, url)]).record
    assert rec["zone_survivors"] > 2 and rec["parts_scanned"] == 1
    assert rec["keys_pruned"] == rec["zone_survivors"] - 1
    got = read_encoded(out, columns=["url", "text"],
                       filter=("url", "==", url)).to_pandas()
    assert list(got["url"]) == [url]


def test_read_encoded_in_filter_matches_parquet(bstore):
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out, paths = bstore
    u1 = pq.read_table(paths[1], columns=["url"]).column("url")[3].as_py()
    u2 = pq.read_table(paths[6], columns=["url"]).column("url")[9].as_py()
    got = read_encoded(out, columns=["url", "lang"],
                       filter=("url", "in", [u1, u2])).to_pandas()
    assert sorted(got["url"]) == sorted([u1, u2])
    exp = rd.read_parquet(wt).to_pandas()
    got2 = read_encoded(out, columns=["url"],
                        filter=("lang", "in", ["de", "fr"])).to_pandas()
    assert sorted(got2["url"]) == sorted(
        exp[exp["lang"].isin(["de", "fr"])]["url"])


def test_count_encoded_in_and_absent(bstore):
    from packcol.sources.encoded import count_encoded
    import ray.data as rd
    wt, out, _ = bstore
    exp = rd.read_parquet(wt).to_pandas()
    n = count_encoded(out, ("lang", "in", ["de", "fr"]))
    assert n == int(exp["lang"].isin(["de", "fr"]).sum())
    # absent key: the key sets disprove every part → zero without any
    # scan
    assert count_encoded(out, ("url", "==", "https://absent.example/")) == 0


def test_conjunction_in_plus_range(bstore):
    import ray.data as rd
    from packcol.sources.encoded import read_encoded
    wt, out, _ = bstore
    exp = rd.read_parquet(wt).to_pandas()
    lo = exp["warc_ts"].quantile(0.2)
    hi = exp["warc_ts"].quantile(0.6)
    got = read_encoded(out, columns=["url"],
                       filter=[("lang", "in", ["de", "en"]),
                               ("warc_ts", "between", lo, hi)]).to_pandas()
    want = exp[exp["lang"].isin(["de", "en"]) &
               (exp["warc_ts"] >= lo) & (exp["warc_ts"] <= hi)]
    assert sorted(got["url"]) == sorted(want["url"])


@pytest.fixture(scope="module")
def store16(tmp_path_factory, ray_session):
    """A 16-part webtext store, 1,000 rows per part."""
    from packcol.pipelines.encode_pipeline import encode_files
    wt = str(tmp_path_factory.mktemp("wt16"))
    out = str(tmp_path_factory.mktemp("store16"))
    paths = write_webtext(wt, n_rows=16000, n_parts=16, seed=42)
    assert encode_files(paths, out)["parts"] == 16
    return out, paths


def test_in_of_one_part_plans_that_part(store16):
    """An IN of all 1,000 urls of one part, an upsert retire's shape,
    plans exactly that part: a key set does not saturate."""
    from packcol.sources.encoded import count_encoded
    from packcol.sources.plan import part_id, plan
    out, paths = store16
    urls = pq.read_table(paths[5], columns=["url"]).column("url")
    p = plan(out, [("url", "in", tuple(urls.to_pylist()), None)])
    assert len(p.parts) == 1
    assert Manifest(out).cached(part_id(p.parts[0]))["input"] == paths[5]
    assert count_encoded(out, ("url", "in", urls.to_pylist())) == 1000


def test_middle_byte_difference_prunes(store16):
    """A url that differs from a stored one only in its middle bytes
    (same length, first and last 16 bytes) is absent, and the part that
    holds the stored url is pruned: its zone keeps it, its key set
    does not."""
    from packcol.sources.encoded import count_encoded, explain_scan
    from packcol.sources.plan import part_id, plan
    out, paths = store16
    stored = {u for p in paths
              for u in pq.read_table(p, columns=["url"])
              .column("url").to_pylist()}
    urls = pq.read_table(paths[5], columns=["url"]).column("url")
    part = next(p for p in plan(out, []).listed
                if Manifest(out).cached(part_id(p))["input"] == paths[5])
    zone = Manifest(out).cached(part_id(part))["zones"]["url"]
    for u in urls.to_pylist():
        i = 16 + (len(u) - 32) // 2
        if len(u) < 33:
            continue
        near = u[:i] + ("a" if u[i] != "a" else "b") + u[i + 1:]
        if near not in stored and zone["min"] < near < zone["max"]:
            break
    else:
        pytest.fail("no url of the part has an in-zone middle variant")
    assert len(near) == len(u) and near[:16] == u[:16] \
        and near[-16:] == u[-16:]
    assert explain_scan(out, filter=("url", "==", near))["parts_scanned"] \
        == 0
    assert explain_scan(out, filter=("url", "==", u))["parts_scanned"] == 1
    assert count_encoded(out, ("url", "==", near)) == 0


def test_empty_string_scalar_probe_matches_mixed_column_build():
    """Regression: a scalar probe of '' (or b'') against a set built
    from a MIXED column (['alpha','','beta']) must hit: the build hashes
    the '' row inside a non-empty data buffer, the probe's
    single-scalar buffer is empty, and both must give the same
    fingerprint."""
    for vals, probe in [
        (pa.array(["alpha", "", "beta"]), pa.array([""])),
        (pa.array([b"alpha", b"", b"beta"], type=pa.binary()),
         pa.array([b""], type=pa.binary())),
    ]:
        assert bloom_may_contain(_entry(vals), "c", probe), vals.type
    # and the converse orientation: all-empty build, mixed-batch probe
    m = _entry(pa.array(["", "", ""]))
    assert bloom_may_contain(m, "c", pa.array(["x", ""]))
    assert not bloom_may_contain(m, "c", pa.array(["x"]))


def test_empty_string_filter_not_pruned_end_to_end(tmp_path, ray_session):
    """A store part containing url='' must survive key-set pruning for
    filter=('url','==','')."""
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    t = pa.table({
        "url": pa.array(["https://a.example/1", "", "https://b.example/2"]),
        "text": pa.array(["aa", "bb", "cc"]),
    })
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    store = str(tmp_path / "store")
    encode_files([str(src / "p0.parquet")], store)
    assert "url" in Manifest(store).load(
        next(iter(Manifest(store).done_parts())))["keys"]
    got = read_encoded(store, columns=["url", "text"],
                       filter=("url", "==", "")).to_pandas()
    assert list(got["url"]) == [""] and list(got["text"]) == ["bb"]


# ----------------------------------------------- manifest cache and memo

@pytest.fixture()
def fresh_cache(monkeypatch):
    """An empty per-process manifest cache for one test."""
    import collections
    from packcol.state import manifest
    monkeypatch.setattr(manifest, "_cache", collections.OrderedDict())
    monkeypatch.setattr(manifest, "_cache_bytes", 0)
    return manifest


def _age(store_dir, *pids):
    """Set the manifests' mtime a minute back: on a filesystem with
    whole-second timestamps the cache keeps only a manifest older than
    _RACY_NS."""
    then = time.time_ns() - 60 * 10**9
    for pid in pids:
        os.utime(Manifest(store_dir)._path(pid), ns=(then, then))


def _entry_bytes(store_dir, pid):
    """What the cache charges for part ``pid``'s manifest: the file's
    bytes plus its decoded key sets."""
    m = Manifest(store_dir)
    return os.path.getsize(m._path(pid)) + sum(
        from_record(r)["fp"].nbytes for r in m.load(pid)["keys"].values())


def test_cache_sees_annotate_rewrite(tmp_path, ray_session, fresh_cache):
    """add_column_encoded rewrites a cached manifest under the same
    part id; the very next probe in the same process sees it."""
    from packcol.pipelines.annotate import add_column_encoded
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.plan import part_files, part_id
    n = 600
    src = tmp_path / "a.parquet"
    pq.write_table(pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "key": pa.array([f"k{i}" for i in range(n)])}), str(src),
        row_group_size=100)
    out = str(tmp_path / "store")
    encode_files([str(src)], out, target_bytes=1 << 12)
    pids = [part_id(p) for p in part_files(out)]
    assert len(pids) > 1
    _age(out, *pids)
    nope = pa.array(["nope"])
    for pid in pids:
        assert not _may(out, pid, "key", nope)
        # no "tag" entry yet: cannot prune
        assert _may(out, pid, "tag", nope)
    assert len(fresh_cache._cache) == len(pids)
    add_column_encoded(out, "tag", lambda t: pa.array(
        [f"t{v}" for v in t.column("id").to_pylist()]), ["id"])
    for pid in pids:
        assert not _may(out, pid, "tag", nope)
        assert "tag" in Manifest(out).load(pid)["keys"]
    tags = pa.array([f"t{i}" for i in range(n)])
    assert all(_may(out, pid, "tag", tags) for pid in pids)


def test_cache_corrupt_rewrite_never_prunes(tmp_path, fresh_cache):
    """A manifest overwritten with garbage after a good probe of the
    same path was cached never prunes: every read of it raises."""
    d = str(tmp_path)
    _write(d, "p0", {"url": pa.array(["k1", "k2"])})
    _age(d, "p0")
    nope = pa.array(["nope"])
    assert not _may(d, "p0", "url", nope)
    assert len(fresh_cache._cache) == 1
    with open(Manifest(d)._path("p0"), "w") as f:
        f.write("garbage")
    for _ in range(2):
        with pytest.raises(ValueError, match="not JSON"):
            _may(d, "p0", "url", nope)
        _age(d, "p0")
    # and a good rewrite after the garbage prunes again
    _write(d, "p0", {"url": pa.array(["k3"])})
    assert not _may(d, "p0", "url", nope)
    assert _may(d, "p0", "url", pa.array(["k3"]))


def test_cache_skips_racily_new_sidecar(tmp_path, fresh_cache):
    """On whole-second timestamps a manifest modified within _RACY_NS
    of the probe is not cached: rewritten in place with the same size
    and mtime (so the same inode, mtime and size) the next probe still
    sees the new key set.  Older, it is cached."""
    d = str(tmp_path)
    p = Manifest(d)._path("p0")

    def write(key):
        _write(d, "p0", {"url": pa.array([key])})
        with open(p, "rb") as f:
            return f.read()

    b2, b1 = write("k2"), write("k1")
    assert len(b1) == len(b2) and b1 != b2
    whole = (time.time_ns() // 10**9 - 1) * 10**9  # 1-2 s back
    os.utime(p, ns=(whole, whole))
    ino = os.stat(p).st_ino
    assert not _may(d, "p0", "url", pa.array(["k2"]))
    assert not fresh_cache._cache
    with open(p, "r+b") as f:
        f.write(b2)
    os.utime(p, ns=(whole, whole))
    assert os.stat(p).st_ino == ino
    assert _may(d, "p0", "url", pa.array(["k2"]))
    assert not fresh_cache._cache
    os.utime(p, ns=(whole - 2 * 10**9, whole - 2 * 10**9))
    assert not _may(d, "p0", "url", pa.array(["k1"]))
    assert list(fresh_cache._cache) == [p]


def test_memoized_probe_equals_unmemoized():
    """One memo shared by the probes of one value set gives every key
    set the answer of an unmemoized probe: strings, ints, sets of
    different sizes in one op, and timestamp[us] values against
    timestamp[ns] and timestamp[us] sets (the dt cast)."""
    import datetime as dt
    strs = [f"https://h{i}.example.com/{i}" for i in range(3000)]
    ts = [dt.datetime(2024, 1, 1) + dt.timedelta(minutes=i)
          for i in range(3000)]
    cases = [
        ([pa.array(strs[:40]), pa.array(strs)],
         pa.array([strs[97], "miss", ""]), [False, True]),
        ([pa.array(np.arange(40, dtype=np.int64)),
          pa.array(np.arange(3000, dtype=np.int64))],
         pa.array([2999, 5000, -1]), [False, True]),
        ([pa.array(ts[:40]).cast(pa.timestamp("ns")),
          pa.array(ts).cast(pa.timestamp("ns")),
          pa.array(ts).cast(pa.timestamp("us"))],
         pa.array([ts[2999], dt.datetime(2030, 1, 1)]),
         [False, True, True]),
    ]
    for builds, vals, want in cases:
        entries = [_entry(a) for a in builds]
        assert [bloom_may_contain(m, "c", vals) for m in entries] == want
        memo = {}
        for _ in range(2):  # the second pass is all memo hits
            assert [bloom_may_contain(m, "c", vals, memo)
                    for m in entries] == want
        assert set(memo) == {str(a.type) for a in builds}


def test_cache_byte_bound_evicts(tmp_path, monkeypatch, fresh_cache):
    """The cache holds at most _CACHE_BYTES (manifest files plus their
    decoded key sets) and evicts the least recently used entry first;
    evicted manifests still probe."""
    d = str(tmp_path)
    for i in range(3):
        _write(d, f"p{i}", {"url": pa.array([f"k{i}-{j}"
                                             for j in range(800)])})
    _age(d, "p0", "p1", "p2")
    size = max(_entry_bytes(d, f"p{i}") for i in range(3))
    monkeypatch.setattr(fresh_cache, "_CACHE_BYTES", 2 * size)
    path = Manifest(d)._path
    nope = pa.array(["nope"])
    for pid in ("p0", "p1", "p2"):
        assert not _may(d, pid, "url", nope)
        assert fresh_cache._cache_bytes <= 2 * size
    assert list(fresh_cache._cache) == [path("p1"), path("p2")]
    assert _may(d, "p0", "url", pa.array(["k0-5"]))  # reload
    assert list(fresh_cache._cache) == [path("p2"), path("p0")]
    # a manifest larger than the whole bound is read but not cached
    monkeypatch.setattr(fresh_cache, "_CACHE_BYTES",
                        _entry_bytes(d, "p1") - 1)
    assert not _may(d, "p1", "url", nope)
    assert path("p1") not in fresh_cache._cache


def test_cache_bytes_consistent_under_threads(tmp_path, monkeypatch,
                                              fresh_cache):
    """Threads probing through an evicting cache keep its byte count
    equal to the sum of its entries and within the bound."""
    import sys
    import threading
    d = str(tmp_path)
    for i in range(6):
        _write(d, f"p{i}", {"url": pa.array([f"k{i}-{j}"
                                             for j in range(200)])})
    _age(d, *(f"p{i}" for i in range(6)))
    size = max(_entry_bytes(d, f"p{i}") for i in range(6))
    monkeypatch.setattr(fresh_cache, "_CACHE_BYTES", 2 * size)
    errors = []

    def work(seed):
        try:
            for j in range(400):
                pid = f"p{(seed + j) % 6}"
                assert _may(d, pid, "url", pa.array([f"k{pid[1:]}-3"]))
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    held = sum(e[2] for e in fresh_cache._cache.values())
    assert fresh_cache._cache_bytes == held <= 2 * size
