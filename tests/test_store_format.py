"""One store format (state/manifest.py): every writer records the
manifest key set that ``Manifest.load`` accepts, a manifest of an older
format raises ``StoreFormatError`` at every reader before anything is
written, and reads create no directory."""

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.pipelines.fsck import check_store
from packcol.sources.plan import part_files, part_id
from packcol.state.manifest import Manifest, StoreFormatError


def _table(lo: int, n: int) -> pa.Table:
    ids = np.arange(lo, lo + n, dtype=np.int64)
    return pa.table({
        "id": ids,
        "ts": pa.array(ids * 1_000_000, pa.timestamp("us")),
        "lang": pa.array(np.array(["en", "de", "fr"])[ids % 3]),
        "url": pa.array([f"https://e{i % 7}.example.org/p/{i}"
                         for i in ids]),
        "score": pa.array([None if i % 7 == 0 else i / 4 for i in ids],
                          pa.float64())})


@pytest.fixture()
def store(tmp_path, ray_session):
    """(input file, store) of a few ``encode_files`` parts."""
    from packcol.pipelines.encode_pipeline import encode_files
    src = str(tmp_path / "src.parquet")
    pq.write_table(_table(0, 600), src, row_group_size=100)
    out = str(tmp_path / "store")
    encode_files([src], out, target_bytes=1 << 12)
    assert len(part_files(out)) > 2
    return src, out


def _assert_current(store_dir: str) -> None:
    """Every manifest of the store loads and a deep check is clean."""
    man = Manifest(store_dir)
    pids = man.done_parts()
    assert pids == {part_id(p) for p in part_files(store_dir)}
    for pid in pids:
        man.load(pid)
    r = check_store(store_dir, deep=True)
    assert r["ok"], r["issues"]


def test_every_writer_records_the_current_format(store, tmp_path):
    from packcol.pipelines.annotate import (add_column_encoded,
                                            drop_column_encoded,
                                            rename_column_encoded)
    from packcol.pipelines.cluster import cluster_store
    from packcol.pipelines.compact import recompact
    from packcol.pipelines.delete import delete_where
    from packcol.pipelines.encode_pipeline import write_encoded
    from packcol.pipelines.upsert import upsert_encoded
    _, out = store
    _assert_current(out)
    written = str(tmp_path / "written")
    write_encoded(_table(0, 300), written, rows_per_part=100)
    _assert_current(written)
    r = upsert_encoded(out, _table(590, 20), "id")
    assert r["rows_deleted"] == 10 and r["parts_rewritten"] == 1
    _assert_current(out)
    r = delete_where(out, ("id", "between", 10, 20))
    assert r["parts_rewritten"] == 1
    _assert_current(out)
    add_column_encoded(out, "tag", lambda t: pa.array(
        [f"t{v}" for v in t.column("id").to_pylist()]), ["id"])
    _assert_current(out)
    rename_column_encoded(out, "tag", "tag2")
    _assert_current(out)
    drop_column_encoded(out, "tag2")
    _assert_current(out)
    recompact(out, str(tmp_path / "compact"), merge_factor=2)
    _assert_current(str(tmp_path / "compact"))
    cluster_store(out, str(tmp_path / "clustered"), "lang")
    _assert_current(str(tmp_path / "clustered"))


# how a manifest of an older engine differs from a current one: none
# recorded the format number
_OLD_SHAPES = {
    "no format number": lambda m: None,
    "list blooms": lambda m: m.update(blooms=sorted(m.pop("keys"))),
    "no values": lambda m: m.pop("values"),
    "zone without dt": lambda m: m["zones"]["ts"].pop("dt"),
}


def _snapshot(d: str) -> dict:
    """{relative path: bytes} of every file under ``d``."""
    out = {}
    for root, _, files in os.walk(d):
        for f in files:
            p = os.path.join(root, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, d)] = fh.read()
    return out


@pytest.mark.parametrize("shape", sorted(_OLD_SHAPES))
def test_old_format_raises_at_every_reader(store, shape):
    """One manifest of an older shape makes every read and write of the
    store raise the re-encode error, and none of them changes a file."""
    from packcol.pipelines.annotate import add_column_encoded
    from packcol.pipelines.delete import delete_where
    from packcol.pipelines.diff import diff_store_parts
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.pipelines.upsert import upsert_encoded
    from packcol.sources.encoded import (agg_encoded, count_encoded,
                                         read_encoded, topk_encoded)
    src, out = store
    man = Manifest(out)
    pid = sorted(man.done_parts())[-1]
    m = man.load(pid)
    assert m["keys"] and "dt" in m["zones"]["ts"]
    del m["format"]
    _OLD_SHAPES[shape](m)
    with open(man._path(pid), "w") as f:
        json.dump(m, f)
    before = _snapshot(out)
    calls = {
        "read_encoded": lambda: read_encoded(
            out, columns=["id"], filter=("id", "==", 5)),
        "count_encoded": lambda: count_encoded(out),
        "agg_encoded": lambda: agg_encoded(out, aggs={"n": ("count",)}),
        "topk_encoded": lambda: topk_encoded(out, "id", 3),
        "upsert_encoded": lambda: upsert_encoded(out, _table(0, 5), "id"),
        "delete_where": lambda: delete_where(out, ("id", "==", 5)),
        "annotate": lambda: add_column_encoded(
            out, "x", lambda t: t.column("id"), ["id"]),
        "encode_files resume": lambda: encode_files(
            [src], out, target_bytes=1 << 12),
        "diff_store_parts": lambda: diff_store_parts(out, out),
    }
    for name, call in calls.items():
        with pytest.raises(StoreFormatError) as e:
            call()
        msg = str(e.value)
        assert msg.startswith(f"{out}: manifest of part {pid}: "), name
        assert msg.endswith("re-encode it into a fresh directory"), name
    assert _snapshot(out) == before


def test_reads_create_no_directory(tmp_path, ray_session):
    """Reading a directory without manifests leaves it as it was: only
    ``Manifest.record`` makes ``_manifest/``."""
    from packcol.pipelines.diff import diff_store_parts
    from packcol.sources.encoded import count_encoded, store_stats
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a)
    os.makedirs(b)
    assert Manifest(str(tmp_path / "missing")).done_parts() == set()
    assert Manifest(a).done_parts() == set()
    assert store_stats(a)["parts"] == 0
    assert diff_store_parts(a, b)["only_a"]["parts"] == 0
    assert check_store(a)["ok"]
    assert count_encoded(a) == 0
    assert os.listdir(a) == [] and os.listdir(b) == []
    assert not os.path.exists(tmp_path / "missing")


def test_warm_unfiltered_agg_reads_no_manifest(store, monkeypatch):
    """An unfiltered COUNT(*) answers from the plan's cached manifests:
    a warm repeat loads none, and a manifest whose part file is gone
    is not counted, as no scan would count it."""
    from packcol.sources.encoded import agg_encoded, count_encoded
    from packcol.state import manifest
    _, out = store
    then = time.time_ns() - 60 * 10**9  # cacheable on any timestamps
    for pid in Manifest(out).done_parts():
        os.utime(Manifest(out)._path(pid), ns=(then, then))

    def n():
        return agg_encoded(out, aggs={"n": ("count",)}).take_all()

    want = count_encoded(out)
    assert n() == [{"n": want}] and want == 600
    loads = []
    real = manifest.Manifest.load
    monkeypatch.setattr(manifest.Manifest, "load",
                        lambda self, pid: loads.append(pid) or
                        real(self, pid))
    assert n() == [{"n": want}]
    assert loads == []
    part = part_files(out)[0]
    gone = real(Manifest(out), part_id(part))["rows"]
    os.remove(part)
    assert n() == [{"n": want - gone}]
    assert count_encoded(out) == want - gone
