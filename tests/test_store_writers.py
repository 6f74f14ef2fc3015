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
             "blooms", "codecs", "params_hash", "wall_s",
             "payload_digest"}


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


def test_trace_installs(tmp_path):
    """perfbench/trace.py resolves the engine names it wraps with
    getattr; a refactor that drops one fails here, not only in a traced
    benchmark run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; from perfbench import trace; "
            "trace.install(trace.Tracer(sys.argv[1], main=True))")
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                       cwd=root, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
