"""check_store / repair_store: store consistency audit."""
import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.pipelines.encode_pipeline import encode_files
from packcol.pipelines.fsck import check_store, repair_store


@pytest.fixture()
def store(tmp_path, ray_session):
    rng = np.random.default_rng(17)
    n = 1000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "lang": rng.choice(["en", "de", "fr"], n),
        "v": rng.random(n)})
    src = tmp_path / "f.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(src), row_group_size=100)
    out = str(tmp_path / "f_store")
    encode_files([str(src)], out, target_bytes=1 << 12)
    return out


def test_clean_store_ok(store):
    r = check_store(store, deep=True)
    assert r["ok"], r["issues"]
    assert r["parts_total"] > 1


def test_detects_orphans_and_stale(store):
    # orphan manifest: remove a part file but keep its manifest
    part = sorted(f for f in os.listdir(store)
                  if f.endswith(".parquet"))[0]
    os.remove(os.path.join(store, part))
    # stale staging dir + tmp file, backdated past the liveness window
    old = time.time() - 7200
    stale_dir = os.path.join(store, "_upsert-deadbeef")
    os.makedirs(stale_dir)
    os.utime(stale_dir, (old, old))
    tmp = os.path.join(store, "part-x.parquet.tmp-12345678")
    with open(tmp, "w") as fh:
        fh.write("junk")
    os.utime(tmp, (old, old))
    r = check_store(store)
    msgs = [m for _, m in r["issues"]]
    assert any("orphan manifest" in m for m in msgs)
    assert any("stale upsert staging" in m for m in msgs)
    assert any("stale writer tmp" in m for m in msgs)
    rep = repair_store(store)
    assert len(rep["removed"]) >= 3
    r2 = check_store(store)
    assert r2["ok"], r2["issues"]


def test_reports_store_format(store):
    """A manifest that ``Manifest.load`` rejects (an older store format:
    here one without ``values``) is a "store format" issue that names
    the fix, and one that is not JSON an "unreadable manifest" issue;
    check_store never raises on either, and repair_store leaves both
    (re-encoding is the fix, not a deletion)."""
    from packcol.state.manifest import Manifest
    man = Manifest(store)
    old, bad = sorted(man.done_parts())[:2]
    m = man.load(old)
    del m["values"]
    man.record(old, m)
    with open(man._path(bad), "w") as f:
        f.write("garbage")
    for deep in (False, True):
        r = check_store(store, deep=deep)
        assert not r["ok"]
        assert r["counts"] == {"store format": 1, "unreadable manifest": 1}
        got = dict(r["issues"])
        assert got[old].startswith(f"store format: {store}: manifest of "
                                   f"part {old}: no values")
        assert got[old].endswith("re-encode it into a fresh directory")
    repair_store(store)
    assert os.path.exists(man._path(old)) and os.path.exists(man._path(bad))


def _cli_main(monkeypatch, capsys, *args):
    """(exit code, printed JSON) of ``scripts/packcol_run.py`` with
    ``args``, run in this process on the session's Ray."""
    import importlib.util
    import sys

    import ray
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "packcol_run.py")
    spec = importlib.util.spec_from_file_location("packcol_run", path)
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)
    monkeypatch.setattr(ray, "shutdown", lambda: None)
    monkeypatch.setattr(sys, "argv", ["packcol_run.py", *args])
    with pytest.raises(SystemExit) as e:
        cli.main()
    return e.value.code, json.loads(capsys.readouterr().out)


def test_cli_fsck_exit_status(store, monkeypatch, capsys):
    """``packcol_run.py fsck`` prints its report and exits 1 when the
    store is not ok (an orphan manifest here), 0 when it is."""
    code, out = _cli_main(monkeypatch, capsys, "fsck", "--encoded", store)
    assert (code, out["ok"]) == (0, True)
    part = sorted(f for f in os.listdir(store)
                  if f.endswith(".parquet"))[0]
    os.remove(os.path.join(store, part))
    code, out = _cli_main(monkeypatch, capsys, "fsck", "--encoded", store)
    assert (code, out["ok"]) == (1, False)
    assert out["counts"] == {"orphan manifest": 1}
    code, out = _cli_main(monkeypatch, capsys, "fsck", "--encoded", store,
                          "--repair")
    assert (code, out["ok"]) == (0, True)
    assert out["repair"]["removed"] == [
        os.path.join("_manifest", part[len("part-"):-len(".parquet")]
                     + ".json")]


def test_cli_fsck_reports_an_uncommitted_part(store, monkeypatch,
                                               capsys):
    """A part file without its manifest, or under a name other than
    ``part-<id>.parquet``, is no committed part: fsck reports each and
    exits 1, and repair leaves both files (they may hold the only copy
    of their rows)."""
    from packcol.state.manifest import Manifest
    man = Manifest(store)
    lost, renamed = sorted(man.done_parts())[:2]
    os.remove(man._path(lost))
    os.rename(os.path.join(store, f"part-{renamed}.parquet"),
              os.path.join(store, "extra.parquet"))
    expect = [[renamed, "orphan manifest (part file missing)"],
              ["extra.parquet", "not a committed part: no reader sees it"],
              [f"part-{lost}.parquet",
               "not a committed part: no reader sees it"]]
    code, out = _cli_main(monkeypatch, capsys, "fsck", "--encoded", store)
    assert (code, out["issues"]) == (1, expect)
    code, out = _cli_main(monkeypatch, capsys, "fsck", "--encoded", store,
                          "--repair")
    assert out["repair"]["removed"] == [
        os.path.join("_manifest", f"{renamed}.json")]
    assert (code, out["issues"]) == (1, expect[1:])


def test_detects_corrupt_zone(store):
    """A lying zone map (claims max smaller than the data) is exactly
    the corruption that silently breaks pushdown — deep check flags."""
    from packcol.state.manifest import Manifest
    man = Manifest(store)
    pid = sorted(man.done_parts())[0]
    m = man.load(pid)
    m["zones"]["id"]["max"] = -1
    man.record(pid, m)
    r_shallow = check_store(store)
    assert r_shallow["ok"]  # structural layers can't see it
    r = check_store(store, deep=True)
    assert not r["ok"]
    assert any("escape zone" in m for _, m in r["issues"])


def test_detects_wrong_value_counts(store):
    """A hand-edited value count would make a metadata COUNT wrong: the
    deep check decodes the column and reports it."""
    from packcol.state.manifest import Manifest
    man = Manifest(store)
    assert check_store(store, deep=True)["issues"] == []
    pid = sorted(man.done_parts())[0]
    m = man.load(pid)
    assert set(m["values"]["lang"]) <= {"en", "de", "fr"}
    m["values"]["lang"]["en"] = m["values"]["lang"].get("en", 0) + 1
    man.record(pid, m)
    assert check_store(store)["ok"]  # structural layers can't see it
    r = check_store(store, deep=True)
    assert not r["ok"]
    assert [list(i) for i in r["issues"]] == [[pid, (
        "lang: manifest value counts differ from the decoded column at "
        "['en'] — a metadata COUNT would be wrong")]]


def test_detects_bloom_missing_values(store):
    """A manifest key set that lacks a value of its column would make a
    point read skip the part holding it: the deep check compares every
    key set with the fingerprints of its decoded column.  A damaged
    record never prunes, and is reported too, as is a set on a column
    no set can hash (float ``v``).  A manifest without the format
    number (an older store format) is a store format issue."""
    from packcol.state.bloom import to_record
    from packcol.state.manifest import Manifest
    man = Manifest(store)
    pid = sorted(man.done_parts())[0]
    m = man.load(pid)
    assert list(m["keys"]) == ["id"]
    good = m["keys"]["id"]
    for col, tampered, msg in [
            ("id", to_record(pa.array([-5, -6], pa.int64())),
             "id: manifest key set misses "),
            ("id", {**good, "dt": "int32"},
             "id: manifest key set is not the decoded column's "),
            ("id", {**good, "n": good["n"] + 64},
             "id: unreadable manifest key"),
            ("v", {**good, "dt": "double"},
             "v: manifest key set is not the decoded column's ")]:
        m["keys"] = {"id": good, col: tampered}
        man.record(pid, m)
        assert check_store(store)["ok"]  # structural layers can't see it
        r = check_store(store, deep=True)
        assert len(r["issues"]) == 1 and r["issues"][0][0] == pid
        assert r["issues"][0][1].startswith(msg), r["issues"]
    m["keys"] = {"id": good}
    man.record(pid, m)
    assert check_store(store, deep=True)["ok"]
    del m["format"]  # written as an older engine wrote it
    with open(man._path(pid), "w") as f:
        json.dump(m, f)
    assert check_store(store, deep=True)["counts"] == {"store format": 1}


def test_detects_row_count_mismatch(store):
    from packcol.state.manifest import Manifest
    man = Manifest(store)
    pid = sorted(man.done_parts())[0]
    m = man.load(pid)
    m["rows"] = m["rows"] + 1
    man.record(pid, m)
    r = check_store(store)
    assert any("manifest rows" in msg for _, msg in r["issues"])


def test_detects_bad_n_cols(store):
    part = sorted(f for f in os.listdir(store)
                  if f.endswith(".parquet"))[0]
    p = os.path.join(store, part)
    t = pq.read_table(p)
    i = t.schema.get_field_index("n_cols")
    t = t.set_column(i, "n_cols",
                     pa.array([99] * t.num_rows, type=pa.int64()))
    pq.write_table(t, p)
    r = check_store(store)
    assert any("n_cols" in msg for _, msg in r["issues"])


def test_deep_fsck_catches_payload_tamper(ray_session, tmp_path):
    """A part file modified after its manifest was recorded (bit rot,
    foreign writer) fails the deep digest check."""
    import numpy as np
    import pandas as pd
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.pipelines.fsck import check_store
    df = pd.DataFrame({"id": np.arange(500, dtype=np.int64),
                       "v": np.arange(500, dtype=np.int64) % 7})
    raw = str(tmp_path / "t.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), raw,
                   row_group_size=100)
    out = str(tmp_path / "t_enc")
    encode_files([raw], out, target_bytes=1 << 12)
    assert check_store(out, deep=True)["ok"]
    part = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))[0]
    p = os.path.join(out, part)
    data = bytearray(open(p, "rb").read())
    data[len(data) // 2] ^= 0xFF  # flip one byte mid-file
    open(p, "wb").write(bytes(data))
    res = check_store(out, deep=True)
    assert not res["ok"]
    assert any("digest" in msg or "unreadable" in msg
               for _, msg in res["issues"])
