"""Every store mutation writes its parts through one writer
(``encode_pipeline.write_part``): the same part layout, tmp naming and
manifest key set, whichever pipeline made the part."""
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.pipelines import fsck
from packcol.pipelines.compact import RecompactGroup, recompact
from packcol.pipelines.encode_pipeline import (EncodePartitionWriter,
                                               encode_files,
                                               plan_partitions)
from packcol.sources.plan import part_files
from packcol.sources.webtext import LANGS, write_webtext

# what every part's manifest holds, whichever writer made it
FULL_KEYS = {"rows", "orig_bytes", "enc_bytes", "zones", "nulls",
             "keys", "codecs", "values", "params_hash", "wall_s",
             "payload_digest", "format"}


@pytest.fixture(scope="module")
def webtext(tmp_path_factory):
    return write_webtext(str(tmp_path_factory.mktemp("wt")), n_rows=1200,
                         n_parts=4, seed=42)


def _encode_in_process(paths, out):
    os.makedirs(out, exist_ok=True)
    EncodePartitionWriter(out)(pa.Table.from_pylist(plan_partitions(paths)))


@pytest.mark.parametrize("writer", ["encode", "recompact"])
def test_fsck_sees_tmp_of_crashed_writer(webtext, tmp_path, monkeypatch,
                                         writer):
    """A writer that dies between its part write and the rename leaves
    a ``.tmp-<hex>`` file that fsck reports and repairs."""
    src, dest = str(tmp_path / "src"), str(tmp_path / "dest")
    if writer == "recompact":
        _encode_in_process(webtext, src)
    os.makedirs(dest)

    def crash(*_):
        raise OSError("crash before rename")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crash before rename"):
            if writer == "encode":
                _encode_in_process(webtext, dest)
            else:
                RecompactGroup(dest)(pa.table({
                    "paths": [part_files(src)[:2]],
                    "new_part_id": ["c00000x2"]}))
    tmps = [f for f in os.listdir(dest) if ".tmp" in f]
    assert len(tmps) == 1 and ".parquet.tmp-" in tmps[0], tmps
    monkeypatch.setattr(fsck, "_STALE_S", 0)
    r = fsck.check_store(dest)
    assert r["issues"] == [[tmps[0], "stale writer tmp file"]]
    assert fsck.repair_store(dest)["removed"] == tmps
    assert not [f for f in os.listdir(dest) if ".tmp" in f]


def test_recompact_records_codecs(ray_session, webtext, tmp_path):
    from packcol.sources.encoded import store_stats
    enc, dest = str(tmp_path / "enc"), str(tmp_path / "rc")
    encode_files(webtext, enc)
    assert store_stats(enc)["parts"] == 4
    recompact(enc, dest, merge_factor=2)
    st = store_stats(dest)
    assert st["parts"] == 2
    assert set(st["codecs"]) == set(pq.read_schema(webtext[0]).names)
    assert all(sum(h.values()) == 2 for h in st["codecs"].values()), \
        st["codecs"]


def _build(kind, webtext, tmp_path):
    """A store whose newest parts were written by ``kind``."""
    import ray.data as rd
    enc = str(tmp_path / "enc")
    encode_files(webtext, enc)
    out = str(tmp_path / "out")
    if kind == "encode_files":
        return enc
    if kind == "write_encoded":
        from packcol.pipelines.encode_pipeline import write_encoded
        write_encoded(rd.read_parquet(webtext), out, rows_per_part=500)
    elif kind == "cluster_store":
        from packcol.pipelines.cluster import cluster_store
        cluster_store(enc, out, "warc_ts", target_bytes=1 << 18)
    elif kind == "recompact":
        recompact(enc, out, merge_factor=2)
    elif kind == "delete_where":
        from packcol.pipelines.delete import delete_where
        r = delete_where(enc, ("lang", "==", LANGS[0]))
        assert r["parts_rewritten"] > 0, r
        return enc
    elif kind == "upsert_encoded":
        from packcol.pipelines.upsert import upsert_encoded
        t = pq.read_table(webtext[0]).slice(0, 20)
        t = t.set_column(t.schema.get_field_index("text"), "text",
                         pa.array(["updated"] * 20, pa.large_string()))
        r = upsert_encoded(enc, rd.from_arrow(t), "url")
        assert r["parts_inserted"] > 0 and r["parts_rewritten"] > 0, r
        return enc
    return out


@pytest.mark.parametrize("kind", ["encode_files", "write_encoded",
                                  "cluster_store", "recompact",
                                  "delete_where", "upsert_encoded"])
def test_every_writer_leaves_the_same_metadata(ray_session, webtext,
                                               tmp_path, kind):
    store = _build(kind, webtext, tmp_path)
    parts = part_files(store)
    assert parts
    for p in parts:
        pid = os.path.basename(p)[len("part-"):-len(".parquet")]
        with open(os.path.join(store, "_manifest", f"{pid}.json")) as f:
            m = json.load(f)
        assert FULL_KEYS <= set(m), (pid, FULL_KEYS - set(m))
        assert set(m["codecs"]) == set(pq.read_schema(webtext[0]).names)
    r = fsck.check_store(store, deep=True)
    assert r["ok"], r["issues"]


_TRACED_READ = """
import json, os, sys
from perfbench import trace
tracer = trace.Tracer(sys.argv[1], main=True)
trace.install(tracer)
import pyarrow as pa
from packcol.pipelines.delete import delete_where
from packcol.pipelines.encode_pipeline import write_part
from packcol.sources.encoded import read_encoded
store = os.path.join(sys.argv[1], "store")
os.makedirs(store)
for i in range(2):
    write_part(store, f"p{i}", pa.table({
        "url": [f"https://h{i}.example/{j}" for j in range(200)],
        "n": pa.array(range(200), pa.int64())}))
with tracer.op("t0", "point"):
    got = read_encoded(store, columns=["n"],
                       filter=("url", "==", "https://h1.example/7"))
    assert got.to_pandas()["n"].tolist() == [7]
with tracer.op("t1", "delete"):
    r = delete_where(store, ("url", "in", [f"https://h1.example/{j}"
                                           for j in range(10)]))
    assert r["parts_rewritten"] == 1 and r["rows_deleted"] == 10, r
got = read_encoded(store, columns=["n"],
                   filter=("url", "==", "https://h1.example/12"))
assert got.to_pandas()["n"].tolist() == [12]
mine = {lb: [sp for sp in tracer.spans if sp[6] == lb] for lb in ("t0", "t1")}
print(json.dumps({
    "names": {lb: sorted({sp[2] for sp in sps}) for lb, sps in mine.items()},
    "cls": {lb: sorted({sp[7]["cls"] for sp in sps
                        if sp[2] == "pipelines.task"})
            for lb, sps in mine.items()}}))
"""


def test_trace_installs(tmp_path):
    """perfbench/trace.py resolves the engine names it wraps with
    getattr, and a ``url ==`` read over a two-part store goes through
    the wrapped bloom probe and manifest read: a refactor that drops a
    name, or an op path that stops calling it, fails here, not only in
    a traced benchmark run.  A partial ``delete_where`` rebuilds its
    part's zones (``state.zones``) and writes the part
    (``pipelines.write``) without encoding a table: its blocks are cut
    in the encoded domain.  The ``pipelines.task`` spans carry the
    class of the task they time, so the per-class attribution survives
    tasks that share their loop (``plan.ScanPart``)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run([sys.executable, "-c", _TRACED_READ, str(tmp_path)],
                       cwd=root, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    names, cls = out["names"], out["cls"]
    assert "EncodedFilterPart" in cls["t0"], cls
    assert "_DeletePartTask" in cls["t1"], cls
    assert {"state.bloom_probe", "state.manifest_read"} <= \
        set(names["t0"]), names
    assert {"pipelines.task", "state.zones", "pipelines.write"} <= \
        set(names["t1"]), names
    assert "stages.encode_table" not in names["t1"], names


def test_a_part_without_its_manifest_is_not_committed(ray_session, webtext,
                                                      tmp_path, monkeypatch):
    """A write that dies after its part file lands and before its
    manifest is recorded leaves a part that no reader sees: count, read,
    agg and top-k answer as before the write, fsck reports the file,
    and re-running the write commits the same content-addressed part
    once."""
    import datetime

    from packcol.pipelines.encode_pipeline import write_encoded
    from packcol.sources.encoded import (agg_encoded, count_encoded,
                                         read_encoded, topk_encoded)
    from packcol.state.manifest import Manifest
    store = str(tmp_path / "enc")
    encode_files(webtext, store)
    new = pq.read_table(webtext[0]).slice(0, 20)
    t0 = datetime.datetime(2030, 1, 1)
    new = new.set_column(0, "url", pa.array(
        [f"https://new.example/{i}" for i in range(20)]))
    new = new.set_column(1, "warc_ts", pa.array(
        [t0 + datetime.timedelta(seconds=i) for i in range(20)],
        pa.timestamp("us")))

    def answers():
        return (count_encoded(store),
                sorted(read_encoded(store, columns=["url"])
                       .to_pandas()["url"]),
                agg_encoded(store, group_by="lang", aggs={"n": ("count",)})
                .to_pandas().sort_values("lang").values.tolist(),
                topk_encoded(store, "warc_ts", 5, descending=True,
                             columns=["url"]).column("url").to_pylist())

    before = answers()

    def crash(*_):
        raise OSError("crash before the manifest")

    with monkeypatch.context() as m:
        m.setattr(Manifest, "record", crash)
        with pytest.raises(OSError, match="crash before the manifest"):
            write_encoded(new, store)
    (lost,) = [os.path.basename(f) for f in part_files(store)
               if os.path.basename(f).startswith("part-w-")]
    assert answers() == before
    assert fsck.check_store(store)["issues"] == [
        [lost, "not a committed part: no reader sees it"]]
    assert write_encoded(new, store)["parts"] == 1
    assert [os.path.basename(f) for f in part_files(store)
            if os.path.basename(f).startswith("part-w-")] == [lost]
    assert count_encoded(store) == before[0] + 20
    assert topk_encoded(store, "warc_ts", 1, descending=True,
                        columns=["url"]).column("url").to_pylist() == \
        ["https://new.example/19"]
    assert fsck.check_store(store)["ok"]


def test_resume_reencodes_a_part_whose_file_is_gone(ray_session, tmp_path):
    """``encode_files`` resumes from the committed parts: a partition
    whose part file is gone is encoded again, though its manifest
    stayed."""
    from packcol.sources.encoded import count_encoded
    paths = write_webtext(str(tmp_path / "wt"), n_rows=800, n_parts=4,
                          seed=42)
    store = str(tmp_path / "enc")
    assert encode_files(paths, store)["parts"] == 4
    os.remove(part_files(store)[1])
    assert count_encoded(store) == 600
    r = encode_files(paths, store)
    assert (r["skipped_parts"], r["encoded_rows_this_run"]) == (3, 200)
    assert count_encoded(store) == 800
    assert fsck.check_store(store, deep=True)["ok"]
