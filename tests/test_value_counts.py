"""COUNT and GROUP BY COUNT answered from the per-part value counts in
the manifests (manifest key "values", sources/encoded.py::
_agg_from_manifests): the metadata answer equals the scan answer on
random stores and after every mutation that rewrites a manifest, reads
no part, and every shape it cannot prove falls back to the scan."""

import collections
import contextlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from packcol.pipelines.encode_pipeline import write_part
from packcol.sources import encoded
from packcol.sources import plan as plan_mod
from packcol.sources.encoded import agg_encoded, count_encoded
from packcol.state.manifest import Manifest

VALS = [f"v{i}" for i in range(5)]

# every predicate is eq / IN / isnull / notnull on the counted column
FILTERS = [
    {"filter": ("k", "==", "v1")},
    {"filter": ("k", "==", "absent")},        # outside every zone
    {"filter": ("k", "==", "v11")},           # inside the zones
    {"filter": ("k", "in", ["v0", "v3", "zz"])},
    {"filter": ("k", "isnull")},
    {"filter": ("k", "notnull")},
    {"filter": [("k", "in", ["v0", "v1", "v2"]),
                ("k", "in", ["v1", "v2", "v4"])]},
    {"filter": [("k", "notnull"), ("k", "==", "v2")]},
    {"filter": [("k", "isnull"), ("k", "==", "v2")]},   # matches nothing
    {"filter_any": [("k", "==", "v1"), ("k", "isnull")]},
    {"filter_any": [("k", "in", ["v0"]), ("k", "in", ["v3", "v4"])]},
]
AGGS = [{"n": ("count",)}, {"n": ("count",), "c": ("count", "k")}]


def _table(rng, ids, null_frac: float, vals=VALS) -> pa.Table:
    n = len(ids)
    k = np.array(rng.choice(vals, n), dtype=object)
    k[rng.random(n) < null_frac] = None
    return pa.table({"id": pa.array(ids, pa.int64()),
                     "k": pa.array(list(k), pa.string()),
                     "ts": pa.array(rng.integers(0, 1000, n), pa.int64()),
                     "x": pa.array(rng.random(n))})


def _random_store(path: str, seed: int) -> pa.Table:
    """A store of 5 parts written by ``write_part``, the key column
    dict- or rle-coded per part, with no / some / only NULL keys."""
    rng = np.random.default_rng(seed)
    os.makedirs(path)
    tabs = []
    for i, null_frac in enumerate((0.0, 0.2, 0.5, 1.0, 0.1)):
        n = int(rng.integers(150, 400))
        t = _table(rng, np.arange(i * 1000, i * 1000 + n), null_frac)
        write_part(path, f"p{seed}-{i}", t,
                   codec_overrides={"k": ("dict", "rle")[(i + seed) % 2]})
        tabs.append(t)
    return pa.concat_tables(tabs)


def _rows(t: pa.Table):
    """An answer as (schema, rows in a fixed order)."""
    rows = [tuple(r.values()) for r in t.to_pylist()]
    return t.schema, sorted(rows, key=lambda r: [(v is None, str(v))
                                                 for v in r])


def _ops():
    """(name, call) of every COUNT / GROUP BY COUNT shape under test."""
    out = []
    for j, f in enumerate([{}] + FILTERS):
        if f:
            out.append((f"count-{j}", lambda s, f=f: count_encoded(s, **f)))
        for i, a in enumerate(AGGS):
            for g in ("k", None):
                if not f and g is None and i == 0:
                    continue  # COUNT(*) alone: see _check_equivalent
                out.append((f"agg-{j}-{i}-{g}", lambda s, f=f, a=a, g=g:
                            agg_encoded(s, group_by=g, aggs=a, **f)._table))
    return out


@contextlib.contextmanager
def _no_reads(monkeypatch):
    """The one reader of part files patched to raise."""
    def boom(*a, **k):
        raise AssertionError("a part file was read")
    with monkeypatch.context() as m:
        m.setattr(plan_mod, "read_part", boom)
        m.setattr(encoded, "read_part", boom)
        yield


@contextlib.contextmanager
def _scan_only(monkeypatch):
    """The metadata answer patched off."""
    with monkeypatch.context() as m:
        m.setattr(encoded, "_agg_from_manifests", lambda *a, **k: None)
        yield


def _counting_reads(monkeypatch) -> list:
    reads, orig = [], plan_mod.read_part
    monkeypatch.setattr(plan_mod, "read_part",
                        lambda *a, **k: reads.append(a) or orig(*a, **k))
    return reads


def _check_equivalent(store: str, monkeypatch, ops=None):
    """Every op answers from metadata with no part read, equal to the
    scan's answer (schema, rows, counts)."""
    ops = ops or _ops()
    with _scan_only(monkeypatch):
        want = {name: op(store) for name, op in ops}
        # COUNT(*) alone is the manifests' row sum on every path: its
        # scan twin counts the rows whose k is null or not
        rows = count_encoded(store, filter_any=[("k", "isnull"),
                                                ("k", "notnull")])
    with _no_reads(monkeypatch):
        got = {name: op(store) for name, op in ops}
        assert agg_encoded(store, aggs=AGGS[0])._table.to_pylist() == \
            [{"n": rows}]
    for name, _ in ops:
        if isinstance(want[name], int):
            assert got[name] == want[name], name
        else:
            assert _rows(got[name]) == _rows(want[name]), name


def _truth_counts(t: pa.Table, col: str = "k") -> dict:
    return dict(collections.Counter(t.column(col).to_pylist()))


def _grouped(store: str, col: str = "k") -> dict:
    t = agg_encoded(store, group_by=col, aggs={"n": ("count",)})._table
    return dict(zip(t.column(col).to_pylist(), t.column("n").to_pylist()))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_metadata_answer_equals_scan(tmp_path, monkeypatch, seed):
    store = str(tmp_path / "s")
    truth = _random_store(store, seed)
    for m in plan_mod.plan(store, []).manifests.values():
        assert m["codecs"]["k"] in ("dict", "rle")
        assert "k" in m["values"] and None not in m["values"]["k"]
    _check_equivalent(store, monkeypatch)
    with _scan_only(monkeypatch):  # SQL: a COUNT of no row is 0
        assert agg_encoded(store, aggs=AGGS[1], filter=FILTERS[8][
            "filter"])._table.to_pylist() == [{"n": 0, "c": 0}]
    with _no_reads(monkeypatch):
        assert _grouped(store) == _truth_counts(truth)
        assert count_encoded(store, ("k", "==", "v1")) == \
            truth.column("k").to_pylist().count("v1")


def test_metadata_answer_after_delete_and_upsert(tmp_path, monkeypatch,
                                                 ray_session):
    from packcol.pipelines.delete import delete_where
    from packcol.pipelines.upsert import upsert_encoded
    store = str(tmp_path / "s")
    truth = _random_store(store, 4)
    # a partial rewrite of every part that holds such rows
    r = delete_where(store, ("ts", "between", 0, 299))
    assert r["parts_rewritten"] > 0
    truth = truth.filter(pc.greater(truth.column("ts"), 299))
    _check_equivalent(store, monkeypatch)
    assert _grouped(store) == _truth_counts(truth)
    # an upsert that moves existing keys to other values of k
    rng = np.random.default_rng(9)
    ids = rng.choice(truth.column("id").to_numpy(), 80, replace=False)
    new = _table(rng, ids, 0.3, vals=["v0", "w1", "w2"])
    r = upsert_encoded(store, new, "id", codec_overrides={"k": "rle"})
    assert r["rows_deleted"] == 80 and r["parts_rewritten"] > 0
    truth = pa.concat_tables([
        truth.filter(pc.invert(pc.is_in(truth.column("id"),
                                        value_set=new.column("id")))),
        new])
    _check_equivalent(store, monkeypatch)
    assert _grouped(store) == _truth_counts(truth)


def _upper(t: pa.Table):
    return pc.utf8_upper(t.column("k"))


def _ids(t: pa.Table):
    return pc.cast(t.column("id"), pa.string())


def test_metadata_answer_after_annotate(tmp_path, monkeypatch, ray_session):
    from packcol.pipelines.annotate import (add_column_encoded,
                                            drop_column_encoded,
                                            rename_column_encoded)
    store = str(tmp_path / "s")
    truth = _random_store(store, 5)

    def ops(col):
        return [(f"{col}-{i}", op) for i, op in enumerate((
            lambda s: count_encoded(s, (col, "in", ["V1", "V3"])),
            lambda s: count_encoded(s, (col, "isnull")),
            lambda s: agg_encoded(s, group_by=col, aggs={
                "n": ("count",), "c": ("count", col)})._table))]

    def values(col):
        return [m.get("values", {}).get(col)
                for m in plan_mod.plan(store, []).manifests.values()]

    add_column_encoded(store, "k2", _upper, ["k"])
    assert all(v is not None for v in values("k2"))
    _check_equivalent(store, monkeypatch, ops("k2"))
    assert _grouped(store, "k2") == _truth_counts(
        pa.table({"k2": _upper(truth)}), "k2")
    # overwrite with other values: the counts follow
    add_column_encoded(store, "k2", lambda t: pc.utf8_lower(_upper(t)),
                       ["k"], overwrite=True)
    _check_equivalent(store, monkeypatch, ops("k2"))
    assert _grouped(store, "k2") == _truth_counts(truth)
    # overwrite with a column too wide to count: the entry is gone and
    # the answer comes from the scan
    add_column_encoded(store, "k2", _ids, ["id"], overwrite=True)
    assert all(v is None for v in values("k2"))
    p = plan_mod.plan(store, [])
    assert encoded._agg_from_manifests(store, {"n": ("count",)},
                                       ["k2"], p) is None
    assert len(_grouped(store, "k2")) == truth.num_rows
    # rename and drop move and remove the entry
    add_column_encoded(store, "k2", _upper, ["k"], overwrite=True)
    rename_column_encoded(store, "k2", "k3")
    assert all(v is None for v in values("k2"))
    assert all(v is not None for v in values("k3"))
    _check_equivalent(store, monkeypatch, ops("k3"))
    drop_column_encoded(store, "k3")
    assert all(v is None for v in values("k3"))
    # the store's own key column is untouched throughout
    _check_equivalent(store, monkeypatch)


def test_part_without_values_falls_back(tmp_path, monkeypatch):
    store = str(tmp_path / "s")
    truth = _random_store(store, 6)
    man = Manifest(store)
    m = man.load("p6-2")
    del m["values"]["k"]  # as for a part of more than _VALUES_MAX values
    man.record("p6-2", m)
    p = plan_mod.plan(store, [plan_mod._norm_pred(("k", "==", "v1"))])
    assert encoded._agg_from_manifests(store, {"n": ("count",)}, (), p) \
        is None
    reads = _counting_reads(monkeypatch)
    assert count_encoded(store, ("k", "==", "v1")) == \
        truth.column("k").to_pylist().count("v1")
    assert _grouped(store) == _truth_counts(truth)
    assert reads


# ---------------------------------------- a store like the benchmark's

@pytest.fixture(scope="module")
def webtext(tmp_path_factory, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.webtext import write_webtext
    wt = str(tmp_path_factory.mktemp("vc_src"))
    out = str(tmp_path_factory.mktemp("vc_store"))
    paths = write_webtext(wt, n_rows=3000, n_parts=3, seed=42)
    encode_files(paths, out, target_bytes=1 << 18)
    return pq.read_table(paths, columns=["lang", "warc_ts"]), out


def test_eligible_shapes_read_no_part(webtext, monkeypatch):
    truth, store = webtext
    langs = truth.column("lang").to_pylist()
    with _no_reads(monkeypatch):
        assert count_encoded(store, ("lang", "==", "en")) == \
            langs.count("en")
        assert _grouped(store, "lang") == dict(collections.Counter(langs))


def test_cross_column_shapes_still_scan(webtext, monkeypatch):
    truth, store = webtext
    ts = truth.column("warc_ts")
    lo, hi = pc.quantile(ts.cast(pa.int64()), q=[0.2, 0.6]).to_pylist()
    lo, hi = (pa.scalar(int(v), pa.int64()).cast(ts.type).as_py()
              for v in (lo, hi))
    inside = pc.and_(pc.greater_equal(ts, lo), pc.less_equal(ts, hi))
    langs = truth.filter(inside).column("lang").to_pylist()
    reads = _counting_reads(monkeypatch)
    assert count_encoded(store, [("lang", "==", "en"),
                                 ("warc_ts", "between", lo, hi)]) == \
        langs.count("en")
    assert reads
    reads.clear()
    t = agg_encoded(store, group_by="lang", aggs={"n": ("count",)},
                    filter=("warc_ts", "between", lo, hi))._table
    assert dict(zip(t.column("lang").to_pylist(),
                    t.column("n").to_pylist())) == \
        dict(collections.Counter(langs))
    assert reads


def test_manifest_records_only_narrow_string_columns(webtext):
    _, store = webtext
    for path in plan_mod.part_files(store):
        with open(os.path.join(store, "_manifest",
                               f"{plan_mod.part_id(path)}.json")) as f:
            m = json.load(f)
        assert set(m["values"]) <= {c for c, codec in m["codecs"].items()
                                    if codec in ("dict", "rle")}
        assert "url" not in m["values"] and "html" not in m["values"]
        assert sum(m["values"]["lang"].values()) + \
            m["nulls"].get("lang", 0) == m["rows"]


# ------------------------------------ the scan's grouping on row codes

@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_agg_groups_dict_and_rle_keys_on_codes(tmp_path, monkeypatch, seed):
    """``_AggPart`` groups a dict or rle key on its row codes (code -1 is
    the NULL group) and never decodes the key column."""
    from packcol import codecs
    store = str(tmp_path / "s")
    truth = _random_store(store, seed)

    def guard(fn):
        def wrapped(enc, *a):
            if enc.params.get("dtype") == "string":
                raise AssertionError("the key column was decoded")
            return fn(enc, *a)
        return wrapped

    aggs = {"n": ("count",), "s": ("sum", "x"), "lo": ("min", "ts")}
    monkeypatch.setattr(codecs, "decode_any", guard(codecs.decode_any))
    monkeypatch.setattr(codecs, "take_any", guard(codecs.take_any))
    for flt in (None, ("ts", "between", 200, 700)):
        got = encoded._agg_merged(
            store, ["k"], aggs, *plan_mod.parse_filter(flt, None))
        t = truth if flt is None else truth.filter(pc.and_(
            pc.greater_equal(truth.column("ts"), 200),
            pc.less_equal(truth.column("ts"), 700)))
        want = t.group_by("k").aggregate(
            [([], "count_all"), ("x", "sum"), ("ts", "min")])
        want = pa.table({"k": want.column("k"),
                         "n": want.column("count_all"),
                         "s": want.column("x_sum"),
                         "lo": want.column("ts_min")})
        assert got.schema == want.schema
        g, w = _rows(got)[1], _rows(want)[1]
        assert [r[:2] + r[3:] for r in g] == [r[:2] + r[3:] for r in w]
        assert np.allclose([r[2] for r in g], [r[2] for r in w])


def test_value_counts_prune_eq_and_in(tmp_path):
    """eq / IN of ``str`` values prune a part whose value counts lack
    every value, inside its zone too; a non-``str`` value or a part
    without the map keeps the part."""
    store = str(tmp_path / "s")
    truth = _random_store(store, 6)
    listed = plan_mod.part_files(store)
    mans = {p: Manifest(store).load(plan_mod.part_id(p)) for p in listed}
    has = {p: set(m["values"]["k"]) for p, m in mans.items()}
    for pred, want in (
            (("k", "eq", "v1", "v1"), [p for p in listed if "v1" in has[p]]),
            (("k", "eq", "v11", "v11"), []),    # inside the zones
            (("k", "in", ("v11", "v2"), None),
             [p for p in listed if "v2" in has[p]]),
            (("k", "eq", 1, 1), listed)):       # not a str: kept
        p = plan_mod.plan(store, [pred])
        assert p.parts == want, pred
        assert p.zone_counts == [len(want)]
    assert "v11" not in truth.column("k").to_pylist()
    # the all-NULL part (null_frac 1.0) records an empty map
    assert any(not h for h in has.values())
    # a manifest without the column's map keeps its part
    pid = plan_mod.part_id(listed[0])
    m = mans[listed[0]]
    del m["values"]["k"]
    Manifest(store).record(pid, m)
    assert plan_mod.plan(store, [("k", "eq", "v11", "v11")]).parts == \
        [listed[0]]
