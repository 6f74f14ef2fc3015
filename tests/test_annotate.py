"""add_column_encoded / drop_column_encoded: derived-column schema
evolution over the encoded store."""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.pipelines.annotate import (add_column_encoded,
                                        drop_column_encoded)
from packcol.pipelines.encode_pipeline import encode_files
from packcol.sources.encoded import (count_encoded, encoded_schema,
                                     read_encoded)


def _make_ntok():
    # defined via a factory so cloudpickle serializes the closure by
    # VALUE (test modules are not importable from Ray workers)
    def _ntok(t: pa.Table):
        from packcol.functions.text import token_counts
        return token_counts(t.column("text"))
    return _ntok


@pytest.fixture()
def store(tmp_path, ray_session):
    rng = np.random.default_rng(13)
    n = 1200
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "text": [" ".join(rng.choice(["aa", "bb", "cc", "dd"],
                                     rng.integers(1, 9)))
                 for _ in range(n)],
        "v": rng.random(n)})
    src = tmp_path / "a.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=100)
    out = str(tmp_path / "a_store")
    encode_files([str(src)], out, target_bytes=1 << 12)
    return out, df


def test_add_column_values_and_pushdown(store):
    out, df = store
    r = add_column_encoded(out, "n_tokens", _make_ntok(), ["text"])
    assert r["parts_annotated"] == r["parts_total"] > 1
    got = read_encoded(out).to_pandas().sort_values("id")
    exp = df.text.str.count(" ") + 1
    assert (got["n_tokens"].values == exp.values).all()
    # the derived column got zone maps: predicate pushdown counts match
    truth = int((exp >= 5).sum())
    assert count_encoded(out, ("n_tokens", "between", 5, 10**9)) == truth
    assert "n_tokens" in encoded_schema(out).names


def test_add_is_resumable_then_overwrite(store):
    out, df = store
    add_column_encoded(out, "n_tokens", _make_ntok(), ["text"])
    r2 = add_column_encoded(out, "n_tokens", _make_ntok(), ["text"])
    assert r2.get("parts_annotated", 0) == 0  # default: skip existing
    r3 = add_column_encoded(out, "n_tokens",
                            lambda t: np.zeros(t.num_rows, np.int64),
                            ["text"], overwrite=True)
    assert r3["parts_annotated"] == r3["parts_total"]
    got = read_encoded(out, columns=["n_tokens"]).to_pandas()
    assert (got["n_tokens"] == 0).all()


def test_add_untouched_payloads_identical(store):
    """Existing blocks are copied verbatim — payload bytes of the old
    columns are byte-identical after annotate."""
    out, _ = store
    part = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))[0]
    before = pq.read_table(os.path.join(out, part))
    add_column_encoded(out, "n_tokens", _make_ntok(), ["text"])
    after = pq.read_table(os.path.join(out, part))
    b = {c: before.column("payload")[i].as_py()
         for i, c in enumerate(before.column("column").to_pylist())}
    a = {c: after.column("payload")[i].as_py()
         for i, c in enumerate(after.column("column").to_pylist())}
    for c in b:
        assert a[c] == b[c], c
    assert set(a) == set(b) | {"n_tokens"}
    assert set(after.column("n_cols").to_pylist()) == {len(b) + 1}


def test_drop_column_roundtrip(store):
    out, df = store
    add_column_encoded(out, "n_tokens", _make_ntok(), ["text"])
    r = drop_column_encoded(out, "n_tokens")
    assert r["parts_dropped"] == r["parts_total"]
    assert "n_tokens" not in encoded_schema(out).names
    got = read_encoded(out).to_pandas().sort_values("id") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["id", "text", "v"]],
                                  df[["id", "text", "v"]])
    # decode still verifies complete (n_cols back in sync)
    assert drop_column_encoded(out, "v")["parts_dropped"] > 0
    got2 = read_encoded(out).to_pandas()
    assert sorted(got2.columns) == ["id", "text"]


def test_add_with_bloom_sidecar(store):
    out, df = store
    add_column_encoded(out, "tag", lambda t: pa.array(
        [f"t{v}" for v in pa.compute.utf8_length(
            t.column("text").combine_chunks()).to_pylist()]),
        ["text"], bloom=True)
    from packcol.state.bloom import load_blooms
    part = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))[0]
    pid = part[len("part-"):-len(".parquet")]
    assert "tag" in load_blooms(out, pid)


def test_errors(store):
    out, _ = store
    with pytest.raises(ValueError, match="unknown input column"):
        add_column_encoded(out, "x", lambda t: [], ["nope"])
    with pytest.raises(ValueError, match="unknown column"):
        drop_column_encoded(out, "nope")
    with pytest.raises(Exception, match="returned"):
        add_column_encoded(out, "bad",
                           lambda t: np.zeros(3, np.int64), ["text"])


def test_rename_column_roundtrip(store):
    from packcol.pipelines.annotate import rename_column_encoded
    from packcol.sources.encoded import count_encoded
    out, df = store
    r = rename_column_encoded(out, "text", "body")
    assert r["parts_renamed"] == r["parts_total"]
    got = read_encoded(out).to_pandas().sort_values("id") \
        .reset_index(drop=True)
    assert sorted(got.columns) == ["body", "id", "v"]
    assert list(got["body"]) == list(df["text"])
    # pruning metadata followed the rename: zone pushdown on the new
    # name still prunes/answers
    n = count_encoded(out, ("id", "between", 0, 99))
    assert n == 100
    with pytest.raises(ValueError, match="unknown column"):
        rename_column_encoded(out, "text", "x")
    with pytest.raises(ValueError, match="already exists"):
        rename_column_encoded(out, "body", "id")
    # idempotent on a re-run target that no longer exists per part
    r2 = rename_column_encoded(out, "body", "content")
    assert r2["parts_renamed"] == r2["parts_total"]


def test_overwrite_replaces_stale_zone_and_null_metadata(store):
    """Regression: overwriting a derived column must REPLACE its
    zones/nulls manifest entries, not merge into them.  First pass
    writes a zonable int column with nulls; the overwrite produces an
    un-zonable (long-string) column with zero nulls — the stale zone
    range / null count must disappear, or zone and notnull pushdown
    wrongly prune every part."""
    from packcol.state.manifest import Manifest

    def _ints_with_nulls(t):
        n = t.num_rows
        vals = list(range(100, 100 + n))
        vals[0] = None
        return pa.array(vals, type=pa.int64())

    def _long_strings(t):
        return pa.array(["z" * 300] * t.num_rows)

    out, df = store
    add_column_encoded(out, "derived", _ints_with_nulls, ["text"])
    man = Manifest(out)
    pids = sorted(man.done_parts())
    m0 = man.load(pids[0])
    assert "derived" in (m0.get("zones") or {})
    assert (m0.get("nulls") or {}).get("derived", 0) >= 1

    add_column_encoded(out, "derived", _long_strings, ["text"],
                       overwrite=True)
    for pid in pids:
        m = Manifest(out).load(pid)
        assert "derived" not in (m.get("zones") or {}), pid
        assert "derived" not in (m.get("nulls") or {}), pid
        # codec entry is replaced, not merged-stale
        assert (m.get("codecs") or {}).get("derived") is not None
    # end-to-end: a predicate on the stale zone range must now scan,
    # not prune — every row survives a notnull count
    assert count_encoded(out, ("derived", "notnull")) == len(df)


def _store_bytes(store):
    """{relative path: bytes} of every part file and bloom sidecar, and
    {manifest file: record without wall_s}."""
    import json
    blobs, mans = {}, {}
    for root, _, files in os.walk(store):
        for f in files:
            path = os.path.join(root, f)
            rel = os.path.relpath(path, store)
            with open(path, "rb") as fh:
                data = fh.read()
            if rel.startswith("_manifest"):
                m = json.loads(data)
                m.pop("wall_s", None)
                mans[rel] = m
            else:
                blobs[rel] = data
    return blobs, mans


def test_add_column_executor_paths_agree(store, monkeypatch):
    """add_column_encoded runs in-process on a small store, and on Ray
    with the crossover at 0; both leave byte-identical part files,
    bloom sidecars and manifests (but for their wall time)."""
    import shutil

    from packcol.pipelines import encode_pipeline as ep
    from packcol.sources import plan as plan_mod
    out, _ = store
    on_ray = out + "_ray"
    shutil.copytree(out, on_ray)
    assert plan_mod.plan(out, []).executor == "local"

    def add(s):
        return add_column_encoded(s, "n_tokens", _make_ntok(), ["text"],
                                  bloom=True)

    with monkeypatch.context() as m:
        m.setattr(ep, "_part_scan_seed", None)  # no Ray Data scan
        want = add(out)
    seed, seeded = ep._part_scan_seed, []

    def counted(files):
        seeded.append(len(files))
        return seed(files)

    monkeypatch.setattr(ep, "_part_scan_seed", counted)
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
    assert add(on_ray) == want
    assert want["parts_annotated"] == want["parts_total"] > 1
    assert seeded == [want["parts_total"]]
    assert _store_bytes(on_ray) == _store_bytes(out)
