"""A part that loses some of its rows (``delete_where``, an upsert's
retire) is rewritten in the encoded domain: its blocks are cut with
``Codec.subset`` and only the columns that carry a zone, value counts
or a key set are decoded (pipelines/delete.py)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.codecs import decode_any, toksep
from packcol.pipelines.delete import delete_where
from packcol.pipelines.encode_pipeline import (EncodePartitionWriter,
                                               plan_partitions, write_part)
from packcol.pipelines.fsck import check_store
from packcol.sources.encoded import read_encoded
from packcol.sources.plan import part_files, part_id, read_blocks, read_part
from packcol.sources.webtext import write_webtext
from packcol.state.manifest import Manifest


@pytest.fixture(scope="module")
def webtext(tmp_path_factory):
    return write_webtext(str(tmp_path_factory.mktemp("wt")), n_rows=1200,
                         n_parts=4, seed=42)


def _store(webtext, out) -> str:
    os.makedirs(out)
    EncodePartitionWriter(out)(pa.Table.from_pylist(
        plan_partitions(webtext)))
    return out


def _sorted_rows(t: pa.Table) -> list:
    return sorted(zip(*(t.column(c).to_pylist()
                        for c in sorted(t.column_names))))


def _store_rows(store) -> list:
    return _sorted_rows(pa.Table.from_pandas(
        read_encoded(store).to_pandas(), preserve_index=False))


def test_rewritten_blocks_record_decoded_nbytes(webtext, tmp_path):
    """Each rewritten block decodes to the survivors, keeps its codec,
    and records as ``orig_bytes`` the ``nbytes`` of the decoded
    survivors' column, which is what a decode, filter and re-encode of
    the part records; the manifest keeps the entries it had."""
    store = _store(webtext, str(tmp_path / "s"))
    path = part_files(store)[1]
    pid = part_id(path)
    old_blocks = read_blocks(path)
    old = Manifest(store).load(pid)
    urls = decode_any(old_blocks["url"]).to_pylist()
    victims = set(np.random.default_rng(1).choice(urls, 90,
                                                  replace=False))
    r = delete_where(store, ("url", "in", sorted(victims)))
    assert r["parts_rewritten"] == 1 and r["rows_deleted"] == 90, r
    keep = pa.array([u not in victims for u in urls])
    rows = read_part(path)
    assert rows.column("column").to_pylist() == list(old_blocks)
    new_blocks = read_blocks(path)
    for name, orig in zip(rows.column("column").to_pylist(),
                          rows.column("orig_bytes").to_pylist()):
        got = decode_any(new_blocks[name])
        want = decode_any(old_blocks[name]).filter(keep)
        assert got.equals(want), name
        assert orig == want.nbytes, name
        assert new_blocks[name].codec == old_blocks[name].codec, name
    new = Manifest(store).load(pid)
    assert new["orig_bytes"] == sum(rows.column("orig_bytes").to_pylist())
    assert new["rows"] == len(urls) - 90
    for key in ("zones", "values", "keys"):
        assert set(new[key]) == set(old[key]), key
    assert new["codecs"] == old["codecs"]
    assert check_store(store, deep=True)["ok"]


def test_deep_fsck_clean_after_random_deletes(webtext, tmp_path):
    """20 random deletes (url sets, a language and url set, a time
    range) leave a store whose manifests prove out against every
    decoded column and whose rows are the input's minus the deleted
    ones."""
    import pyarrow.compute as pc
    store = _store(webtext, str(tmp_path / "s"))
    src = pa.concat_tables([pq.read_table(p) for p in webtext])
    urls = src.column("url").to_pylist()
    ts = sorted(src.column("warc_ts").to_pylist())
    langs = sorted(set(src.column("lang").to_pylist()))
    rng = np.random.default_rng(20)
    alive = np.ones(len(src), dtype=bool)
    rewritten = 0
    for i in range(20):
        vic = sorted(rng.choice(urls, int(rng.integers(1, 60)),
                                replace=False))
        hit = pc.is_in(src.column("url"), pa.array(vic))
        if i % 5 == 3:
            lg = langs[int(rng.integers(len(langs)))]
            flt = [("lang", "==", lg), ("url", "in", vic)]
            hit = pc.and_(hit, pc.equal(src.column("lang"), lg))
        elif i % 5 == 4:
            a = int(rng.integers(len(ts) - 20))
            lo, hi = ts[a], ts[a + int(rng.integers(1, 20))]
            flt = ("warc_ts", "between", lo, hi)
            hit = pc.and_(pc.greater_equal(src.column("warc_ts"), lo),
                          pc.less_equal(src.column("warc_ts"), hi))
        else:
            flt = ("url", "in", vic)
        hit = hit.to_numpy(zero_copy_only=False)
        r = delete_where(store, flt)
        assert r["rows_deleted"] == int((hit & alive).sum()), (i, r)
        rewritten += r["parts_rewritten"]
        alive &= ~hit
    assert rewritten >= 10
    res = check_store(store, deep=True)
    assert res["ok"], res["issues"]
    assert _store_rows(store) == _sorted_rows(src.filter(pa.array(alive)))


def test_partial_delete_never_tokenizes(webtext, tmp_path, monkeypatch):
    """A partial delete cuts the html and text toksep blocks without
    encoding: with the toksep encoder and tokenizer patched to raise it
    still rewrites its part and leaves the right rows."""
    store = _store(webtext, str(tmp_path / "s"))
    path = part_files(store)[2]
    blocks = read_blocks(path, ["html", "text"])
    assert {b.codec for b in blocks.values()} == {"toksep"}
    urls = decode_any(read_blocks(path, ["url"])["url"]).to_pylist()
    victims = sorted(urls[::7])

    def boom(*a, **kw):
        raise AssertionError("partial delete re-encoded a toksep column")

    with monkeypatch.context() as m:
        m.setattr(toksep.TokSepCodec, "encode", boom)
        m.setattr(toksep, "tokenize_offsets", boom)
        r = delete_where(store, ("url", "in", victims))
        assert r["parts_rewritten"] == 1, r
        assert r["rows_deleted"] == len(victims), r
        got = _store_rows(store)
    src = pa.concat_tables([pq.read_table(p) for p in webtext])
    keep = [u not in set(victims) for u in src.column("url").to_pylist()]
    assert got == _sorted_rows(src.filter(pa.array(keep)))


def test_rewrite_rebuilds_only_the_entries_it_had(tmp_path):
    """A rewrite rebuilds exactly the entries the part had, and a column
    gains none by losing rows: ``s`` has no zone and no key set while
    one row is longer than the zone limit and lifts the column's mean
    length past the key-set limit, and keeps none after that row is
    deleted; ``id`` keeps its key set and ``lang`` its value counts."""
    store = str(tmp_path / "s")
    os.makedirs(store)
    n = 300
    write_part(store, "p0", pa.table({
        "id": pa.array(range(n), pa.int64()),
        "s": ["x" * 200_000] + [f"v{i}" for i in range(1, n)],
        "lang": [("en", "de", "fr")[i % 3] for i in range(n)]}))
    old = Manifest(store).load("p0")
    assert set(old["keys"]) == {"id"} and "s" not in old["zones"]
    r = delete_where(store, ("id", "in", [0, 5, 9]))
    assert r["parts_rewritten"] == 1 and r["rows_deleted"] == 3, r
    new = Manifest(store).load("p0")
    assert set(new["keys"]) == {"id"}
    assert set(new["zones"]) == set(old["zones"])
    assert new["values"]["lang"] == {"en": 98, "de": 100, "fr": 99}
    got = read_encoded(store, filter=("lang", "==", "en")).to_pandas()
    assert sorted(got["id"]) == [i for i in range(n)
                                 if i % 3 == 0 and i not in (0, 9)]
    assert check_store(store, deep=True)["ok"]
