"""upsert_encoded: key-scoped MERGE over the encoded store."""
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.pipelines.encode_pipeline import encode_files
from packcol.pipelines.upsert import upsert_encoded
from packcol.sources.encoded import read_encoded


def _mkstore(tmp_path, df, name="st", target=1 << 13):
    src = tmp_path / f"{name}.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=200)
    out = str(tmp_path / f"{name}_store")
    encode_files([str(src)], out, target_bytes=target)
    return out


@pytest.fixture()
def base_df():
    rng = np.random.default_rng(5)
    n = 1500
    return pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "v": rng.integers(0, 100, n).astype(np.int64),
        "s": rng.choice(list("xyz"), n)})


def _read_sorted(store):
    got = read_encoded(store).to_pandas()
    return got.sort_values("id").reset_index(drop=True)[["id", "v", "s"]]


def test_upsert_update_and_insert(tmp_path, ray_session, base_df):
    import ray.data as rd
    out = _mkstore(tmp_path, base_df)
    upd = base_df[(base_df.id >= 100) & (base_df.id < 300)].copy()
    upd["v"] = -1
    ins = pd.DataFrame({"id": np.arange(9000, 9020, dtype=np.int64),
                        "v": np.int64(7), "s": "new"})
    new = pd.concat([upd, ins])
    r = upsert_encoded(out, rd.from_pandas(new), "id")
    assert r["rows_inserted"] == len(new)
    assert r["rows_deleted"] == len(upd)
    exp = pd.concat([base_df[(base_df.id < 100) | (base_df.id >= 300)],
                     new]).sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(_read_sorted(out), exp[["id", "v", "s"]])
    # untouched parts are pruned, not rewritten: the update keys are a
    # contiguous id range, so most parts were never opened
    assert r["parts_scanned"] < len(
        [f for f in os.listdir(out) if f.endswith(".parquet")])


def test_upsert_idempotent_rerun(tmp_path, ray_session, base_df):
    import ray.data as rd
    out = _mkstore(tmp_path, base_df)
    new = base_df.head(50).copy()
    new["v"] = 999
    upsert_encoded(out, rd.from_pandas(new), "id")
    snap = _read_sorted(out)
    r2 = upsert_encoded(out, rd.from_pandas(new), "id")
    # same content → same content-addressed parts, shielded from the
    # retire delete → nothing changes
    assert r2["rows_deleted"] == 0
    pd.testing.assert_frame_equal(_read_sorted(out), snap)


def test_upsert_null_keys_are_inserts(tmp_path, ray_session, base_df):
    import ray.data as rd
    out = _mkstore(tmp_path, base_df)
    new = pd.DataFrame({"id": pd.array([0, None, None], dtype="Int64"),
                        "v": np.int64(5), "s": "n"})
    r = upsert_encoded(out, rd.from_pandas(new), "id")
    assert r["rows_inserted"] == 3
    assert r["rows_deleted"] == 1  # only id=0 replaced
    got = read_encoded(out).to_pandas()
    assert got["id"].isna().sum() == 2
    assert len(got) == len(base_df) + 2


def test_upsert_bad_key_raises(tmp_path, ray_session, base_df):
    import ray.data as rd
    out = _mkstore(tmp_path, base_df)
    ds = rd.from_pandas(base_df.head(3))
    with pytest.raises(ValueError, match="single column"):
        upsert_encoded(out, ds, ["id", "v"])
    with pytest.raises(ValueError, match="not in dataset schema"):
        upsert_encoded(out, ds, "nope")
    # a failed upsert must not leave a staging dir behind
    assert not [d for d in os.listdir(out) if d.startswith("_upsert-")]


def test_upsert_string_key(tmp_path, ray_session):
    import ray.data as rd
    df = pd.DataFrame({"k": [f"u{i:03d}" for i in range(400)],
                       "v": np.arange(400, dtype=np.int64)})
    out = _mkstore(tmp_path, df, name="s2")
    new = pd.DataFrame({"k": ["u005", "u399", "brand-new"],
                        "v": np.int64([-5, -399, -1])})
    upsert_encoded(out, rd.from_pandas(new), "k")
    got = read_encoded(out).to_pandas().set_index("k")["v"]
    assert got["u005"] == -5 and got["u399"] == -399
    assert got["brand-new"] == -1
    assert len(got) == 401


def _upsert_fuzz(tmp_path, turns):
    """Repeated random upserts match a pandas MERGE truth."""
    import ray.data as rd
    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "id": np.arange(800, dtype=np.int64),
        "v": rng.integers(0, 50, 800).astype(np.int64),
        "s": rng.choice(list("abc"), 800)})
    out = _mkstore(tmp_path, df, name="fz")
    live = df.copy()
    for turn in range(turns):
        ids = rng.choice(2000, size=rng.integers(10, 120), replace=False)
        new = pd.DataFrame({
            "id": np.sort(ids).astype(np.int64),
            "v": np.int64(-(turn + 1)),
            "s": rng.choice(list("abcz"), len(ids))})
        upsert_encoded(out, rd.from_pandas(new), "id")
        live = pd.concat([live[~live.id.isin(new.id)], new])
        got = _read_sorted(out)
        exp = live.sort_values("id").reset_index(drop=True)[
            ["id", "v", "s"]]
        pd.testing.assert_frame_equal(got, exp)


def test_upsert_randomized_vs_pandas(tmp_path, ray_session):
    """Fuzz: repeated random upserts match a pandas MERGE truth."""
    _upsert_fuzz(tmp_path, turns=4)


def test_upsert_randomized_vs_pandas_ray_path(tmp_path, ray_session,
                                              monkeypatch):
    """The fuzz's first turn with the key scan and retire on Ray, the
    streamed keys retired in several bounded passes."""
    from packcol.pipelines import delete, upsert
    from packcol.sources import plan as plan_mod
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
    monkeypatch.setattr(upsert, "_KEY_CHUNK", 4)
    passes, delete_where = [], delete.delete_where

    def counted(store, flt, **kw):
        passes.append(len(flt[2]))
        return delete_where(store, flt, **kw)

    monkeypatch.setattr(delete, "delete_where", counted)
    _upsert_fuzz(tmp_path, turns=1)
    assert len(passes) > 1 and max(passes) == 4


def _write_ops(store, base_df):
    """An upsert (update + insert) and two deletes; their results."""
    import ray.data as rd
    from packcol.pipelines.delete import delete_where
    upd = base_df[(base_df.id >= 100) & (base_df.id < 300)].copy()
    upd["v"] = -1
    ins = pd.DataFrame({"id": np.arange(9000, 9020, dtype=np.int64),
                        "v": np.int64(7), "s": "new"})
    return [upsert_encoded(store, rd.from_pandas(pd.concat([upd, ins])),
                           "id"),
            delete_where(store, ("s", "==", "x")),
            delete_where(store, ("id", "between", 1000, 1499))]


def _store_state(store):
    """Part files and bloom sidecars by path ({path: bytes}), and the
    manifests without their wall time ({path: dict})."""
    blobs, mans = {}, {}
    for sub in ("", "_bloom", "_manifest"):
        d = os.path.join(store, sub)
        for f in sorted(os.listdir(d)):
            if not os.path.isfile(os.path.join(d, f)):
                continue
            with open(os.path.join(d, f), "rb") as fh:
                data = fh.read()
            if sub == "_manifest":
                m = json.loads(data)
                m.pop("wall_s", None)
                mans[f] = m
            else:
                blobs[os.path.join(sub, f)] = data
    return blobs, mans


def _no_ray_data(monkeypatch):
    """Make any Ray Data scan seed or streaming execution raise."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from packcol.pipelines import encode_pipeline as ep

    def no_ray(*a, **kw):
        raise AssertionError("in-process write started Ray Data")

    monkeypatch.setattr(ep, "_part_scan_seed", no_ray)
    monkeypatch.setattr(StreamingExecutor, "execute", no_ray)


def _map_batches_fns(monkeypatch):
    """Record the type name of every ``Dataset.map_batches`` callable."""
    import ray.data as rd
    fns, map_batches = [], rd.Dataset.map_batches

    def counted(self, fn, *a, **kw):
        fns.append(type(fn).__name__)
        return map_batches(self, fn, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "map_batches", counted)
    return fns


def test_write_executor_paths_agree(tmp_path, ray_session, base_df,
                                    monkeypatch):
    """Under the crossover an upsert (staging write, key scan and
    retire) and a delete run in-process and start no Ray Data
    execution; over it (crossover 0) they run on Ray, the staging write
    as a ``map_batches`` of the part writer.  Both paths return the
    same results and leave the same bytes: part files, bloom sidecars
    and manifests (but for their wall time)."""
    import shutil
    from packcol.pipelines import encode_pipeline as ep
    from packcol.sources import plan as plan_mod
    local = _mkstore(tmp_path, base_df)
    on_ray = str(tmp_path / "ray_store")
    shutil.copytree(local, on_ray)
    assert plan_mod.plan(local, []).executor == "local"

    _no_ray_data(monkeypatch)
    want = _write_ops(local, base_df)
    assert want[0]["rows_deleted"] == 200
    assert want[1]["parts_rewritten"] and want[2]["rows_deleted"]

    monkeypatch.undo()
    seed, seeded = ep._part_scan_seed, []

    def counted(files):
        seeded.append(len(files))
        return seed(files)

    monkeypatch.setattr(ep, "_part_scan_seed", counted)
    monkeypatch.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
    fns = _map_batches_fns(monkeypatch)
    assert _write_ops(on_ray, base_df) == want
    assert len(seeded) == 4 and all(seeded)  # key scan, three retires
    assert fns[0] == "DatasetPartWriter"  # the staging write
    assert _store_state(on_ray) == _store_state(local)


@pytest.fixture(scope="module")
def webtext_table(tmp_path_factory):
    from packcol.sources.webtext import write_webtext
    paths = write_webtext(str(tmp_path_factory.mktemp("wt")), n_rows=600,
                          n_parts=2, seed=3)
    return pa.concat_tables([pq.read_table(p) for p in paths])


@pytest.mark.parametrize("src", ["rows_per_part", "blocks",
                                 "local_dataset", "table"])
def test_write_encoded_in_process_matches_ray(tmp_path, ray_session,
                                              webtext_table, monkeypatch,
                                              src):
    """A driver-sized input is written in-process, without Ray Data,
    over the batches Ray gives the same writer: ``rows_per_part``-row
    slices, one part per block, or one part for a driver table.  The
    stores are byte-identical to the Ray path's."""
    import ray.data as rd
    from packcol.pipelines.encode_pipeline import write_encoded
    from packcol.sources import plan as plan_mod
    t = webtext_table
    half = t.num_rows // 2
    inputs = {  # (in-process input, its Ray form, rows_per_part)
        "rows_per_part": (lambda: rd.from_arrow(t),
                          lambda: rd.from_arrow(t), 250),
        "blocks": (lambda: rd.from_arrow([t.slice(0, half),
                                          t.slice(half)]),
                   lambda: rd.from_arrow([t.slice(0, half),
                                          t.slice(half)]), None),
        "local_dataset": (lambda: plan_mod.LocalDataset(t),
                          lambda: rd.from_arrow(t), None),
        "table": (lambda: t, lambda: rd.from_arrow(t), None)}
    local_in, ray_in, rows_per_part = inputs[src]
    local, on_ray = str(tmp_path / "local"), str(tmp_path / "ray")
    ds = local_in()
    with monkeypatch.context() as m:
        _no_ray_data(m)
        got = write_encoded(ds, local, rows_per_part=rows_per_part)
    with monkeypatch.context() as m:
        m.setattr(plan_mod, "_LOCAL_PLAN_BYTES", 0)
        fns = _map_batches_fns(m)
        want = write_encoded(ray_in(), on_ray, rows_per_part=rows_per_part)
        assert fns == ["DatasetPartWriter"]
    n_parts = {"rows_per_part": 3, "blocks": 2}.get(src, 1)
    assert got == want and got["parts"] == n_parts
    assert got["rows"] == t.num_rows
    assert _store_state(local) == _store_state(on_ray)


def _count_column_stats(monkeypatch):
    """Count ``stages.stats.column_stats`` calls (also through the name
    ``stages/encode.py`` imported)."""
    from packcol.stages import encode as st_encode
    from packcol.stages import stats
    calls, column_stats = [], stats.column_stats

    def counted(*a, **kw):
        calls.append(1)
        return column_stats(*a, **kw)

    monkeypatch.setattr(stats, "column_stats", counted)
    monkeypatch.setattr(st_encode, "column_stats", counted)
    return calls


def _manifests(store):
    from packcol.state.manifest import Manifest
    man = Manifest(store)
    return {pid: man.load(pid) for pid in man.done_parts()}


def test_rewrites_reuse_the_recorded_codecs(tmp_path, ray_session, base_df,
                                            monkeypatch):
    """A delete's partial rewrite keeps the part's recorded codecs and
    an upsert stages with the store's codec choice: neither runs codec
    selection (no ``column_stats`` call)."""
    import ray.data as rd
    from packcol.pipelines.delete import delete_where
    from packcol.pipelines.encode_pipeline import load_store_selection
    out = _mkstore(tmp_path, base_df)
    sel = load_store_selection(out)
    assert set(sel) == {"id", "v", "s"}
    before = _manifests(out)
    calls = _count_column_stats(monkeypatch)
    r = delete_where(out, ("id", "in", [3, 700, 1400]))
    assert r["parts_rewritten"] == 3 and not calls
    after = _manifests(out)
    changed = [pid for pid in before
               if after[pid]["rows"] != before[pid]["rows"]]
    assert len(changed) == 3
    for pid in changed:
        assert after[pid]["codecs"] == before[pid]["codecs"]

    upd = base_df[(base_df.id >= 10) & (base_df.id < 40)] \
        .reset_index(drop=True)
    upd["v"] = (upd["v"] + 1) % 100
    r = upsert_encoded(out, rd.from_pandas(upd), "id")
    assert r["rows_deleted"] == 30 and r["parts_rewritten"]
    assert not calls
    new = [m for pid, m in _manifests(out).items() if pid.startswith("w-")]
    assert len(new) == 1 and new[0]["codecs"] == sel
    exp = base_df[~base_df.id.isin([3, 700, 1400])].copy()
    exp.loc[exp.id.between(10, 39), "v"] = (exp["v"] + 1) % 100
    pd.testing.assert_frame_equal(_read_sorted(out),
                                  exp.reset_index(drop=True))


def test_drifted_upsert_and_bad_recorded_codecs(tmp_path, ray_session,
                                                base_df):
    """Reused codecs are a hint, never a hazard: int values far outside
    the store's range (and negative, which a bit-pack cannot hold)
    round-trip, and a rewrite whose manifest records an unknown codec,
    or ``for`` on a string column, falls back to selection."""
    from packcol.pipelines.delete import delete_where
    from packcol.state.manifest import Manifest
    out = _mkstore(tmp_path, base_df)
    big = 1 << 60
    new = pa.table({
        "id": pa.array([5, 6, 10 ** 15, -(10 ** 15)], pa.int64()),
        "v": pa.array([big, -big, 0, 1 - big], pa.int64()),
        "s": ["far", "x", "y", "z"]})
    r = upsert_encoded(out, new, "id")
    assert r["rows_inserted"] == 4 and r["rows_deleted"] == 2
    live = pd.concat([base_df[~base_df.id.isin([5, 6])], new.to_pandas()])
    pd.testing.assert_frame_equal(
        _read_sorted(out),
        live.sort_values("id").reset_index(drop=True)[["id", "v", "s"]])

    mans = _manifests(out)
    old = sorted(pid for pid in mans if not pid.startswith("w-"))
    edits = {old[0]: ("v", "no-such-codec"), old[1]: ("s", "for")}
    man = Manifest(out)
    victims = []
    for pid, (col, codec) in edits.items():
        m = mans[pid]
        m["codecs"][col] = codec
        with open(man._path(pid), "w") as f:
            json.dump(m, f)
        victims.append(m["zones"]["id"]["min"])  # a row of the part
    r = delete_where(out, ("id", "in", victims))
    assert r["parts_rewritten"] == 2 and r["rows_deleted"] == 2
    after = _manifests(out)
    for pid, (col, codec) in edits.items():
        assert after[pid]["codecs"][col] not in (codec, None)
    live = live[~live.id.isin(victims)]
    pd.testing.assert_frame_equal(
        _read_sorted(out),
        live.sort_values("id").reset_index(drop=True)[["id", "v", "s"]])


def test_attach_store_union(tmp_path, ray_session):
    """attach_store merges two shards: metadata-first renames, dedupe
    on content-addressed ids, result readable as the union."""
    from packcol.pipelines.upsert import attach_store
    a = pd.DataFrame({"id": np.arange(0, 300, dtype=np.int64),
                      "v": np.int64(1)})
    b = pd.DataFrame({"id": np.arange(300, 500, dtype=np.int64),
                      "v": np.int64(2)})
    sa = _mkstore(tmp_path, a, name="sha")
    sb = _mkstore(tmp_path, b, name="shb")
    r = attach_store(sb, sa)
    assert r["parts_attached"] > 0 and r["parts_deduped"] == 0
    assert r["rows_attached"] == 200
    got = read_encoded(sa).to_pandas().sort_values("id") \
        .reset_index(drop=True)
    exp = pd.concat([a, b]).sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["id", "v"]], exp)
    # source drained (move=True)
    assert not [f for f in os.listdir(sb) if f.endswith(".parquet")]
    # zone pruning still works on the attached parts (manifests moved)
    from packcol.sources.encoded import count_encoded
    assert count_encoded(sa, ("id", "between", 300, 499)) == 200


def test_attach_store_dedupe_and_copy(tmp_path, ray_session):
    """encode_files part ids derive from the input's absolute path +
    row-group slice, so the SAME file encoded into two stores yields
    identical part ids — attach coalesces them instead of duplicating
    rows."""
    from packcol.pipelines.upsert import attach_store
    df = pd.DataFrame({"id": np.arange(100, dtype=np.int64),
                       "v": np.int64(3)})
    src = tmp_path / "dup.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=200)
    sa, sb = str(tmp_path / "dupa_store"), str(tmp_path / "dupb_store")
    encode_files([str(src)], sa)
    encode_files([str(src)], sb)
    r = attach_store(sb, sa, move=False)
    assert r["parts_deduped"] > 0 and r["parts_attached"] == 0
    assert len(read_encoded(sa).to_pandas()) == 100  # no duplication
    # copy mode leaves the source intact
    assert [f for f in os.listdir(sb) if f.endswith(".parquet")]


def test_attach_store_refuses_shared_vocab(tmp_path, ray_session):
    from packcol.pipelines.upsert import attach_store
    df = pd.DataFrame({"id": np.arange(10, dtype=np.int64)})
    sa = _mkstore(tmp_path, df, name="sva")
    sb = _mkstore(tmp_path, df, name="svb")
    os.makedirs(os.path.join(sb, "_shared"))
    with pytest.raises(ValueError, match="shared-vocab"):
        attach_store(sb, sa)


def test_attach_store_collision_raises(tmp_path, ray_session):
    """Same part id (same absolute input path + slice) but DIFFERENT
    bytes — the file was rewritten between the two encodes — must
    refuse: overwriting would drop the destination's rows."""
    from packcol.pipelines.upsert import attach_store
    src = tmp_path / "same.parquet"
    sa, sb = str(tmp_path / "c1_store"), str(tmp_path / "c2_store")
    for store, val in ((sa, 1), (sb, 2)):
        df = pd.DataFrame({"id": np.arange(100, dtype=np.int64),
                           "v": np.int64(val)})
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       str(src), row_group_size=200)
        encode_files([str(src)], store)
    with pytest.raises(ValueError, match="collision"):
        attach_store(sb, sa)
