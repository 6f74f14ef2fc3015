"""Per-part bloom filters in the manifests (state/bloom.py) + IN-list
pushdown: point-lookup part pruning for columns zone maps can't help
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
from packcol.state.bloom import (HASH_BYTES_SAMPLED, HASH_I64,
                                 bloom_may_contain, build_bloom, from_record,
                                 probe_bloom, to_record)
from packcol.state.manifest import Manifest, StoreFormatError

# the rest of a manifest's key set, for manifests of no part file
_NO_PART = {"rows": 0, "orig_bytes": 0, "enc_bytes": 0, "zones": {},
            "nulls": {}, "values": {}, "codecs": {}, "params_hash": "",
            "payload_digest": ""}


def _write(store_dir, pid, blooms):
    """Record part ``pid``'s manifest holding ``blooms`` ({column:
    build_bloom result})."""
    Manifest(store_dir).record(pid, {**_NO_PART, "blooms": {
        c: to_record(b) for c, b in blooms.items()}})


def _may(store_dir, pid, column, values):
    """bloom_may_contain on the part's cached manifest entry."""
    return bloom_may_contain(Manifest(store_dir).cached(pid), column,
                             values)


# ---------------------------------------------------------------- unit

def test_bloom_no_false_negatives_and_low_fpr():
    keys = pa.array([f"https://ex.com/p{i}" for i in range(5000)])
    b = build_bloom(keys, HASH_BYTES_SAMPLED)
    present = probe_bloom(b, keys)
    assert present.all()  # NEVER a false negative
    absent = probe_bloom(
        b, pa.array([f"https://other.com/x{i}" for i in range(20000)]))
    assert absent.mean() < 0.02  # ~0.8% design point, generous bound


def test_bloom_distinct_sizing():
    # low-cardinality column → tiny filter (sized by DISTINCT keys)
    many_rows = pa.array(["de", "en", "fr"] * 10000)
    b = build_bloom(many_rows, HASH_BYTES_SAMPLED)
    assert b["n"] == 3
    assert len(b["bits"]) <= 64


def test_bloom_timestamp_unit_safety():
    import datetime as dt
    ts = pa.array([dt.datetime(2024, 1, 1) + dt.timedelta(hours=i)
                   for i in range(500)]).cast(pa.timestamp("ns"))
    b = build_bloom(ts, HASH_I64)
    # probe with a naturally us-inferred scalar: the stored dtype must
    # drive the cast, else this present key would falsely prune
    assert probe_bloom(b, pa.array([dt.datetime(2024, 1, 1, 5)]))[0]
    assert not probe_bloom(b, pa.array([dt.datetime(2030, 1, 1)]))[0]


def test_bloom_nulls_and_binary():
    arr = pa.array(["a", None, "b"])
    b = build_bloom(arr, HASH_BYTES_SAMPLED)
    assert b["n"] == 2
    bn = build_bloom(pa.array([b"\x00\xff", b"xy"], type=pa.binary()),
                     HASH_BYTES_SAMPLED)
    assert probe_bloom(bn, pa.array([b"\x00\xff"], type=pa.binary()))[0]
    assert build_bloom(pa.array([None, None], type=pa.string()),
                       HASH_BYTES_SAMPLED) is None


def test_bloom_sidecar_roundtrip(tmp_path, fresh_cache):
    """A bloom survives the manifest record (JSON, base64 bits) and the
    cached manifest entry probes like the built bloom."""
    d = str(tmp_path)
    b = build_bloom(pa.array(["k1", "k2"]), HASH_BYTES_SAMPLED)
    _write(d, "p0", {"url": b})
    rec = Manifest(d).load("p0")["blooms"]["url"]
    assert isinstance(rec["bits"], str)
    for got in (from_record(rec), Manifest(d).cached("p0")["blooms"]["url"]):
        assert np.array_equal(got["bits"], b["bits"])
        assert {k: got[k] for k in ("k", "n", "hash", "dt")} == \
            {k: b[k] for k in ("k", "n", "hash", "dt")}
    assert _may(d, "p0", "url", pa.array(["k1"]))
    assert not _may(d, "p0", "url", pa.array(["nope"]))
    # conservative fallbacks: missing column / bad record / unknown
    # hash kind
    assert _may(d, "p0", "other", pa.array(["nope"]))
    for bad in ({"bits": "%%", "k": 7, "n": 2, "hash": 2, "dt": "string"},
                {**rec, "bits": rec["bits"][:8]}, {"k": 7}, "url",
                {**rec, "hash": 0}, {k: v for k, v in rec.items()
                                     if k != "dt"}):
        assert from_record(bad) is None
    # a list of columns (blooms kept outside the manifest) is an older
    # store format, which no read accepts
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
    """Blooms live in the manifests; no ``_bloom/`` directory."""
    from packcol.sources.encoded import store_stats
    from packcol.sources.plan import plan
    _, out, _ = bstore
    parts = len([f for f in os.listdir(out) if f.endswith(".parquet")])
    assert not os.path.exists(os.path.join(out, "_bloom"))
    st = store_stats(out)
    # url (key) and warc_ts (int-like) covered; lang (low-card) has
    # exact value counts instead, which prune eq / IN; html/text
    # payloads excluded by the mean-length cap
    assert st["blooms"].get("url") == parts
    assert st["blooms"].get("warc_ts") == parts
    assert "lang" not in st["blooms"]
    assert all("lang" in m["values"]
               for m in plan(out, []).manifests.values())
    assert "html" not in st["blooms"] and "text" not in st["blooms"]


def test_point_lookup_prunes_to_matching_parts(bstore):
    from packcol.sources.encoded import read_encoded
    from packcol.sources.plan import plan
    _, out, paths = bstore
    url = pq.read_table(paths[3], columns=["url"]).column("url")[17].as_py()
    rec = plan(out, [("url", "eq", url, url)]).record
    surv, pruned = rec["zone_survivors"], rec["parts_scanned"]
    assert surv > 2 * pruned  # most parts disproven driver-side
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
    # absent key: bloom disproves every part → zero without any scan
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


def test_bloom_columns_opt_out_and_explicit(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded, store_stats
    wt = str(tmp_path_factory.mktemp("wt_noboom"))
    paths = write_webtext(wt, n_rows=600, n_parts=2, seed=3)
    out_none = str(tmp_path_factory.mktemp("store_noboom"))
    encode_files(paths, out_none, target_bytes=1 << 19, bloom_columns=None)
    assert store_stats(out_none)["blooms"] == {}
    out_url = str(tmp_path_factory.mktemp("store_urlboom"))
    encode_files(paths, out_url, target_bytes=1 << 19,
                 bloom_columns=["url"])
    assert list(store_stats(out_url)["blooms"]) == ["url"]
    # a store without blooms still answers correctly (never lossy)
    url = pq.read_table(paths[0], columns=["url"]).column("url")[0].as_py()
    got = read_encoded(out_none, columns=["url"],
                       filter=("url", "==", url)).to_pandas()
    assert list(got["url"]) == [url]


def test_sampled_hash_build_and_probe():
    """String blooms build with HASH_BYTES_SAMPLED and probe it with no
    false negative and a low false-positive rate."""
    from packcol.state.bloom import _hash_kind
    vals = pa.array([f"https://h{i}.example.com/p/{i*7}" for i in
                     range(500)] + ["", "x", "y" * 40])
    kind = _hash_kind(vals.type)
    assert kind == HASH_BYTES_SAMPLED
    b = build_bloom(vals, kind)
    assert b["hash"] == kind
    assert probe_bloom(b, vals).all()
    misses = pa.array([f"https://miss{i}.other.org/{i}"
                       for i in range(2000)])
    assert probe_bloom(b, misses).mean() < 0.05


def test_sampled_hash_distinguishes_head_tail_len():
    """The sampled fingerprint separates values differing in length,
    head, or tail (middle-only differences MAY collide by design)."""
    from packcol.state.bloom import _sampled_fingerprint
    vals = pa.array(["abcdef", "abcdeg", "xbcdef", "abcdef0",
                     "a" * 100, "a" * 101, "b" + "a" * 99,
                     "a" * 99 + "b", ""])
    fp = _sampled_fingerprint(vals)
    assert len(set(fp.tolist())) == len(vals)


def test_empty_string_scalar_probe_matches_mixed_column_build():
    """Regression: a scalar probe of '' (or b'') against a bloom built
    from a MIXED column (['alpha','','beta']) must hit.  The build
    hashes the '' row through the head/tail splitmix chain (the column
    buffer is non-empty); the probe's single-scalar buffer IS empty, so
    a length-only shortcut there made the fingerprints disagree and the
    filter falsely pruned parts containing empty strings."""
    from packcol.state.bloom import (HASH_BYTES_SAMPLED, build_bloom,
                                     probe_bloom)
    for vals, probe in [
        (pa.array(["alpha", "", "beta"]), pa.array([""])),
        (pa.array([b"alpha", b"", b"beta"], type=pa.binary()),
         pa.array([b""], type=pa.binary())),
    ]:
        b = build_bloom(vals, HASH_BYTES_SAMPLED)
        assert probe_bloom(b, probe)[0], vals.type
    # and the converse orientation: all-empty build, mixed-batch probe
    b = build_bloom(pa.array(["", "", ""]), HASH_BYTES_SAMPLED)
    assert probe_bloom(b, pa.array(["x", ""])).tolist() == [False, True] \
        or probe_bloom(b, pa.array(["x", ""]))[1]  # fp on 'x' allowed


def test_empty_string_filter_not_pruned_end_to_end(tmp_path, ray_session):
    """A store part containing url='' must survive bloom pruning for
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
    encode_files([str(src / "p0.parquet")], store, bloom_columns=["url"])
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
    bytes plus its decoded bloom bits."""
    m = Manifest(store_dir)
    return os.path.getsize(m._path(pid)) + sum(
        from_record(r)["bits"].nbytes for r in m.load(pid)["blooms"].values())


def test_cache_sees_annotate_rewrite(tmp_path, ray_session, fresh_cache):
    """add_column_encoded(bloom=True) rewrites a cached manifest under
    the same part id; the very next probe in the same process sees it."""
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
        [f"t{v}" for v in t.column("id").to_pylist()]), ["id"],
        bloom=True)
    for pid in pids:
        assert not _may(out, pid, "tag", nope)
        assert "tag" in Manifest(out).load(pid)["blooms"]
    first = Manifest(out).cached(pids[0])["blooms"]["tag"]
    tags = [f"t{i}" for i in range(n)]
    assert probe_bloom(first, pa.array(tags)).any()


def test_cache_corrupt_rewrite_never_prunes(tmp_path, fresh_cache):
    """A manifest overwritten with garbage after a good probe of the
    same path was cached never prunes: every read of it raises."""
    d = str(tmp_path)
    _write(d, "p0", {"url": build_bloom(pa.array(["k1", "k2"]),
                                        HASH_BYTES_SAMPLED)})
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
    _write(d, "p0", {"url": build_bloom(pa.array(["k3"]),
                                        HASH_BYTES_SAMPLED)})
    assert not _may(d, "p0", "url", nope)
    assert _may(d, "p0", "url", pa.array(["k3"]))


def test_cache_skips_racily_new_sidecar(tmp_path, fresh_cache):
    """On whole-second timestamps a manifest modified within _RACY_NS
    of the probe is not cached: rewritten in place with the same size
    and mtime (so the same inode, mtime and size) the next probe still
    sees the new blooms.  Older, it is cached."""
    d = str(tmp_path)
    p = Manifest(d)._path("p0")

    def write(key):
        _write(d, "p0", {"url": build_bloom(pa.array([key]),
                                            HASH_BYTES_SAMPLED)})
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
    """One memo shared by the probes of one value set gives every bloom
    the answer of an unmemoized probe: every hash kind, blooms of
    different m_bits in one op, and timestamp[us] values against
    timestamp[ns] and timestamp[us] blooms (the dt cast)."""
    import datetime as dt
    strs = [f"https://h{i}.example.com/{i}" for i in range(3000)]
    ts = [dt.datetime(2024, 1, 1) + dt.timedelta(minutes=i)
          for i in range(3000)]
    cases = [
        (HASH_BYTES_SAMPLED, [pa.array(strs[:40]), pa.array(strs)],
         pa.array(strs[::97] + ["miss", ""])),
        (HASH_I64, [pa.array(np.arange(40, dtype=np.int64)),
                    pa.array(np.arange(3000, dtype=np.int64))],
         pa.array([3, 39, 2999, 5000, -1])),
        (HASH_I64, [pa.array(ts[:40]).cast(pa.timestamp("ns")),
                    pa.array(ts).cast(pa.timestamp("ns")),
                    pa.array(ts).cast(pa.timestamp("us"))],
         pa.array([ts[3], ts[2999], dt.datetime(2030, 1, 1)])),
    ]
    for kind, builds, vals in cases:
        blooms = [build_bloom(a, kind) for a in builds]
        assert len({len(b["bits"]) for b in blooms}) > 1  # two m_bits
        memo = {}
        for _ in range(2):  # the second pass is all memo hits
            for b in blooms:
                want = probe_bloom(b, vals)
                assert want.any() and not want.all(), kind
                assert probe_bloom(b, vals, memo).tolist() == \
                    want.tolist(), (kind, b["dt"])
        assert len(memo) == len({(b["hash"], b["dt"], len(b["bits"]))
                                 for b in blooms})
    # the dt cast is part of the key: same m_bits, different units
    ns = build_bloom(pa.array(ts).cast(pa.timestamp("ns")), HASH_I64)
    us = build_bloom(pa.array(ts).cast(pa.timestamp("us")), HASH_I64)
    assert len(ns["bits"]) == len(us["bits"])
    memo, probe = {}, pa.array([ts[10]])
    assert probe_bloom(ns, probe, memo)[0] and probe_bloom(us, probe, memo)[0]


def test_cache_byte_bound_evicts(tmp_path, monkeypatch, fresh_cache):
    """The cache holds at most _CACHE_BYTES (manifest files plus their
    decoded bloom bits) and evicts the least recently used entry first;
    evicted manifests still probe."""
    d = str(tmp_path)
    for i in range(3):
        _write(d, f"p{i}", {"url": build_bloom(
            pa.array([f"k{i}-{j}" for j in range(800)]),
            HASH_BYTES_SAMPLED)})
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
        _write(d, f"p{i}", {"url": build_bloom(
            pa.array([f"k{i}-{j}" for j in range(200)]),
            HASH_BYTES_SAMPLED)})
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
