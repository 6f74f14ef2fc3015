"""Z-order clustering (pipelines/cluster.py::zorder_store):
multi-dimensional part pruning — range predicates on EITHER key prune,
which a lexicographic composite sort cannot give."""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from packcol.pipelines.cluster import cluster_store, zorder_store
from packcol.pipelines.encode_pipeline import encode_files
from packcol.sources.encoded import read_encoded
from packcol.sources.plan import plan


def _surviving(store, col, lo, hi):
    return plan(store, [(col, "range", lo, hi)]).parts


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("zorder"))
    rng = np.random.default_rng(17)
    n = 20_000
    df = pd.DataFrame({
        "x": rng.integers(0, 10_000, n).astype(np.int64),
        "y": rng.uniform(0, 1000.0, n),
        "payload": rng.integers(0, 100, n).astype(np.int64),
    })
    raw = os.path.join(tmp, "src.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), raw)
    src = os.path.join(tmp, "src_enc")
    encode_files([raw], src, target_bytes=1 << 15)
    zo = os.path.join(tmp, "zo")
    zorder_store(src, zo, ["x", "y"], target_bytes=1 << 13)
    lex = os.path.join(tmp, "lex")
    cluster_store(src, lex, ["x", "y"], target_bytes=1 << 13)
    return df, src, zo, lex


def _parts(store):
    return len([f for f in os.listdir(store) if f.endswith(".parquet")])


def test_roundtrip_identical_rows(stores):
    df, src, zo, _ = stores
    got = read_encoded(zo).to_pandas().sort_values(
        ["x", "y", "payload"]).reset_index(drop=True)
    want = df.sort_values(["x", "y", "payload"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_like=True)


def test_both_keys_prune(stores):
    """The Z-order property: a 10% range on x alone AND a 10% range on
    y alone each scan a small fraction of parts.  The lexicographic
    composite sort prunes x but NOT y (its secondary key spans the
    domain in every part)."""
    _, _, zo, lex = stores
    total_zo, total_lex = _parts(zo), _parts(lex)
    assert total_zo > 8 and total_lex > 8
    zx = len(_surviving(zo, "x", 0, 1000))
    zy = len(_surviving(zo, "y", 0.0, 100.0))
    lx = len(_surviving(lex, "x", 0, 1000))
    ly = len(_surviving(lex, "y", 0.0, 100.0))
    assert zx <= total_zo * 0.6, (zx, total_zo)
    assert zy <= total_zo * 0.6, (zy, total_zo)   # the new capability
    assert lx <= total_lex * 0.3                   # lex prunes primary
    assert ly == total_lex                         # ...but not secondary
    # and z-order must beat lex on the secondary by a wide margin
    assert zy / total_zo < 0.8 * ly / total_lex


def test_filtered_read_matches_pandas(stores):
    df, _, zo, _ = stores
    got = read_encoded(
        zo, filter=[("x", "between", 2000, 3000),
                    ("y", "between", 200.0, 300.0)]).to_pandas()
    want = df[(df.x.between(2000, 3000)) & (df.y.between(200.0, 300.0))]
    assert len(got) == len(want)
    assert sorted(got["payload"].sum() for _ in [0])[0] == \
        want["payload"].sum()


def test_resume_marker(stores, tmp_path):
    _, src, zo, _ = stores
    again = zorder_store(src, zo, ["x", "y"])
    assert again["skipped"] is True


def test_bad_keys_raise(stores, tmp_path):
    _, src, *_ = stores
    with pytest.raises(ValueError, match="2-4 keys"):
        zorder_store(src, str(tmp_path / "z1"), ["x"])
    with pytest.raises(ValueError, match="numeric zone"):
        zorder_store(src, str(tmp_path / "z2"), ["x", "nope"])
