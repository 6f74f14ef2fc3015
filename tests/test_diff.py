"""Snapshot diff (pipelines/diff.py): metadata part diff + row-level
added/removed over asymmetric parts only."""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.pipelines.diff import diff_store_parts, diff_stores
from packcol.pipelines.encode_pipeline import encode_files


def _store(tmp, name, df, target_bytes=1 << 13, raw_name="src",
           row_group_size=250):
    """Encode df into a store.  Part ids embed the SOURCE path + row-
    group range, so snapshots of the same logical source must encode
    the same raw path (the in-place-refresh scenario diff targets);
    a fixed row_group_size keeps part boundaries aligned across
    snapshots."""
    raw = os.path.join(tmp, f"{raw_name}.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), raw,
                   row_group_size=row_group_size)
    out = os.path.join(tmp, f"{name}_enc")
    encode_files([raw], out, target_bytes=target_bytes)
    return out


def _df(n=4000, seed=1):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "lang": rng.choice(["en", "de", "fr"], n),
        "val": rng.integers(0, 10**6, n).astype(np.int64)})


def test_identical_stores_share_everything(ray_session, tmp_path):
    tmp = str(tmp_path)
    df = _df()
    a = _store(tmp, "a", df)
    b = _store(tmp, "b", df)  # same rows, same plan → same part ids
    meta = diff_store_parts(a, b)
    assert meta["shared"]["parts"] > 1
    assert meta["only_a"]["parts"] == 0 and meta["only_b"]["parts"] == 0
    full = diff_stores(a, b)
    assert len(full["added_rows"].to_pandas()) == 0
    assert len(full["removed_rows"].to_pandas()) == 0


def test_mutation_diff_reads_only_changed_parts(ray_session, tmp_path):
    """Edit rows in one region: the diff must touch only the changed
    parts and surface exactly the changed rows both ways."""
    tmp = str(tmp_path)
    df = _df()
    df2 = df.copy()
    df2.loc[df2["id"].between(100, 119), "val"] += 7  # 20 changed rows
    a = _store(tmp, "a", df)
    b = _store(tmp, "b", df2)
    meta = diff_store_parts(a, b)
    assert meta["shared"]["parts"] > 0, "unchanged parts must share"
    assert 0 < meta["only_a"]["parts"] < meta["shared"]["parts"] + \
        meta["only_a"]["parts"]
    full = diff_stores(a, b)
    added = full["added_rows"].to_pandas().sort_values("id")
    removed = full["removed_rows"].to_pandas().sort_values("id")
    assert list(added["id"]) == list(range(100, 120))
    assert list(removed["id"]) == list(range(100, 120))
    assert (added["val"].values == removed["val"].values + 7).all()


def test_moved_rows_cancel(ray_session, tmp_path):
    """Repartitioning (different target_bytes → different part split)
    changes every part id but no row: the row diff must be empty."""
    tmp = str(tmp_path)
    df = _df(n=2000, seed=3)
    a = _store(tmp, "a", df, target_bytes=1 << 13)
    b = _store(tmp, "b", df, target_bytes=1 << 15)
    meta = diff_store_parts(a, b)
    assert meta["shared"]["parts"] == 0  # nothing aligns physically
    full = diff_stores(a, b)
    assert len(full["added_rows"].to_pandas()) == 0
    assert len(full["removed_rows"].to_pandas()) == 0


def test_projection_diff(ray_session, tmp_path):
    """columns= restricts the fingerprint: a change in an excluded
    column is invisible to the projected diff."""
    tmp = str(tmp_path)
    df = _df(n=1000, seed=4)
    df2 = df.copy()
    df2["val"] = df2["val"] + 1  # every row's val changed
    a = _store(tmp, "a", df)
    b = _store(tmp, "b", df2)
    full = diff_stores(a, b, columns=["id", "lang"])
    assert len(full["added_rows"].to_pandas()) == 0
    full2 = diff_stores(a, b, columns=["id", "val"])
    assert len(full2["added_rows"].to_pandas()) == 1000


def test_driver_cap_guard(ray_session, tmp_path, monkeypatch):
    import packcol.pipelines.diff as diffmod
    monkeypatch.setattr(diffmod, "_FP_DRIVER_CAP", 10)
    tmp = str(tmp_path)
    a = _store(tmp, "a", _df(n=500, seed=5))
    b = _store(tmp, "b", _df(n=500, seed=6))  # fully different
    with pytest.raises(ValueError, match="diverge too much"):
        diff_stores(a, b)


def test_diff_executor_paths_agree(ray_session, tmp_path, monkeypatch):
    """diff_stores reads the asymmetric parts in-process on small
    stores (the answers are driver tables) and on Ray with the
    crossover at 0; both give the same added and removed rows."""
    from packcol.pipelines import encode_pipeline as ep
    from packcol.sources import plan as plan_mod
    tmp = str(tmp_path)
    df = _df()
    df2 = df.copy()
    df2.loc[df2["id"].between(100, 119), "val"] += 7
    df2 = df2[df2["id"] != 3000]
    a = _store(tmp, "a", df)
    b = _store(tmp, "b", df2)

    def rows(full):
        return {k: full[k].to_pandas().sort_values("id")
                .reset_index(drop=True)
                for k in ("added_rows", "removed_rows")}

    with monkeypatch.context() as m:
        m.setattr(ep, "_part_scan_seed", None)  # no Ray Data scan
        local = diff_stores(a, b)
    assert all(isinstance(local[k], plan_mod.LocalDataset)
               for k in ("added_rows", "removed_rows"))
    local = rows(local)
    assert list(local["added_rows"]["id"]) == list(range(100, 120))
    assert list(local["removed_rows"]["id"]) == \
        list(range(100, 120)) + [3000]
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
    on_ray = rows(diff_stores(a, b))
    for k in local:
        pd.testing.assert_frame_equal(on_ray[k], local[k])
