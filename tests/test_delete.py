"""Predicate-scoped deletion (pipelines/delete.py): only parts that can
match are opened; untouched / removed / rewritten-in-place semantics."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _mk_store(tmp_path, ray_session):
    from packcol.pipelines.encode_pipeline import encode_files
    rng = np.random.default_rng(3)
    src = tmp_path / "src"
    src.mkdir()
    frames = []
    for i in range(4):
        df = pd.DataFrame({
            "id": np.arange(i * 1000, (i + 1) * 1000, dtype=np.int64),
            "lang": np.array(["en", "fr", "de", "es"],
                             dtype=object)[rng.integers(0, 4, 1000)],
            "host": [f"h{i}.com"] * 1000})
        frames.append(df)
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       str(src / f"f{i}.parquet"))
    out = str(tmp_path / "store")
    encode_files([str(src / f"f{i}.parquet") for i in range(4)], out)
    return pd.concat(frames, ignore_index=True), out


def test_delete_point_range_touches_one_part(tmp_path, ray_session):
    from packcol.pipelines.delete import delete_where
    from packcol.sources.encoded import read_encoded
    full, out = _mk_store(tmp_path, ray_session)
    r = delete_where(out, ("id", "between", 1200, 1300))
    assert r["parts_scanned"] == 1 and r["parts_rewritten"] == 1
    assert r["rows_deleted"] == 101
    got = read_encoded(out).to_pandas()
    want = full[~full.id.between(1200, 1300)]
    assert sorted(got.id) == sorted(want.id)


def test_delete_whole_part_removed(tmp_path, ray_session):
    from packcol.pipelines.delete import delete_where
    from packcol.sources.encoded import count_encoded
    from packcol.state.manifest import Manifest
    full, out = _mk_store(tmp_path, ray_session)
    before = len(Manifest(out).done_parts())
    r = delete_where(out, ("host", "==", "h3.com"))
    assert r["parts_removed"] == 1 and r["parts_rewritten"] == 0
    assert len(Manifest(out).done_parts()) == before - 1
    assert count_encoded(out) == len(full) - 1000


def test_delete_idempotent_and_repruned(tmp_path, ray_session):
    """After a delete, the rebuilt zones/key sets prove absence — the
    re-run scans ZERO parts driver-side."""
    from packcol.pipelines.delete import delete_where
    full, out = _mk_store(tmp_path, ray_session)
    r1 = delete_where(out, ("lang", "==", "de"))
    assert r1["rows_deleted"] == int((full.lang == "de").sum())
    r2 = delete_where(out, ("lang", "==", "de"))
    assert r2["rows_deleted"] == 0 and r2["parts_scanned"] == 0


def test_delete_conjunction_and_store_stays_queryable(tmp_path,
                                                      ray_session):
    from packcol.pipelines.delete import delete_where
    from packcol.sources.encoded import count_encoded, read_encoded
    full, out = _mk_store(tmp_path, ray_session)
    r = delete_where(out, [("lang", "==", "en"),
                           ("id", "between", 0, 1999)])
    want_del = full[(full.lang == "en") & full.id.between(0, 1999)]
    assert r["rows_deleted"] == len(want_del)
    assert r["parts_scanned"] == 2  # id zones scope to the first two
    want = full.drop(want_del.index)
    got = read_encoded(out, columns=["id", "lang"]).to_pandas()
    assert sorted(got.id) == sorted(want.id)
    assert count_encoded(out, ("lang", "==", "en")) == \
        int((want.lang == "en").sum())


def test_delete_without_filter_raises(tmp_path, ray_session):
    """A delete names its rows: filter None is refused, not a no-op,
    and the store is left as it was."""
    from packcol.pipelines.delete import delete_where
    from packcol.sources.encoded import count_encoded
    full, out = _mk_store(tmp_path, ray_session)
    with pytest.raises(ValueError, match="needs a filter"):
        delete_where(out, None)
    with pytest.raises(ValueError, match="empty filter"):
        delete_where(out, [])
    assert count_encoded(out) == len(full)


def test_delete_no_match_leaves_bytes_identical(tmp_path, ray_session):
    from packcol.pipelines.delete import delete_where
    full, out = _mk_store(tmp_path, ray_session)
    parts = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    sizes = {f: os.path.getsize(os.path.join(out, f)) for f in parts}
    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in parts}
    r = delete_where(out, ("lang", "==", "zz-nope"))
    assert r["rows_deleted"] == 0
    for f in parts:
        assert os.path.getsize(os.path.join(out, f)) == sizes[f]
        assert os.path.getmtime(os.path.join(out, f)) == mtimes[f]


def test_delete_rewritten_part_spot_check_skipped(tmp_path, ray_session):
    """spot_check_files compares against input lineage; rewritten parts
    drop it and are skipped instead of failing on shifted rows."""
    from packcol.pipelines.delete import delete_where
    from packcol.pipelines.encode_pipeline import spot_check_files
    full, out = _mk_store(tmp_path, ray_session)
    delete_where(out, ("id", "between", 500, 700))
    res = spot_check_files(out, k=4)
    assert res["mismatches"] == 0
    assert res["checked"] > 0  # untouched parts still checked


def test_delete_randomized_vs_pandas(tmp_path, ray_session):
    """Fuzz: random predicate deletes over a typed store match pandas
    truth after each mutation (delete → verify remaining rows →
    repeat)."""
    from packcol.pipelines.delete import delete_where
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.sources.encoded import read_encoded
    rng = np.random.default_rng(77)
    n = 1500
    df = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "k_int": rng.integers(0, 10, n).astype(np.int64),
        "k_str": rng.choice(list("abcd"), n),
        "name": np.where(rng.random(n) < 0.2, None, np.char.add(
            "u", rng.integers(0, 20, n).astype(str))),
    })
    src = tmp_path / "fz.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=200)
    out = str(tmp_path / "fz_store")
    encode_files([str(src)], out, target_bytes=1 << 14)

    live = df.copy()

    def preds():
        kind = rng.integers(0, 4)
        if kind == 0:
            return ("k_int", "==", int(rng.integers(0, 10)))
        if kind == 1:
            lo, hi = sorted(rng.integers(0, 1500, 2).tolist())
            return ("rid", "between", int(lo), int(hi))
        if kind == 2:
            return ("name", "prefix", "u1")
        return ("name", "isnull")

    for _ in range(5):
        p = preds()
        col, op, *vals = p
        s = live[col]
        if op == "==":
            m = s == vals[0]
        elif op == "between":
            m = (s >= vals[0]) & (s <= vals[1])
        elif op == "prefix":
            m = s.notna() & s.astype(str).str.startswith(vals[0])
        else:
            m = s.isna()
        r = delete_where(out, p)
        assert r["rows_deleted"] == int(m.sum()), p
        live = live[~m]
        got = read_encoded(out, columns=["rid"]).to_pandas()
        rid = sorted(got["rid"]) if len(got) else []
        assert rid == sorted(live["rid"]), p
