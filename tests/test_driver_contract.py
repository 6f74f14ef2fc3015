"""Mimic the driver: run queries() vs oracle_sql() on sf0.01 via DuckDB.

Comparison = row count + sorted-by-all-columns value equality (the
driver's order-insensitive check)."""

import os
import sys

import duckdb
import pandas as pd
import pytest

# the checkout this file is in, whose __ray_entry__ the tests import
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SF_DIR = "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _to_pandas(res):
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    return c


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_queries_match_oracles(ray_session, con):
    import __ray_entry__ as e
    qs, oracles = e.queries(), e.oracle_sql()
    assert set(oracles) <= set(qs)
    failures = []
    for name, sql in oracles.items():
        got = _normalize(_to_pandas(qs[name](SF_DIR)))
        exp = _normalize(con.execute(sql).df())
        try:
            pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        except AssertionError as ex:
            failures.append((name, str(ex)[:500]))
    assert not failures, failures


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as e
    qs, oracles = e.queries(), e.oracle_sql()
    for name in set(qs) - set(oracles):
        df = _to_pandas(qs[name](SF_DIR))
        assert df is not None and len(df) >= 0, name


def test_entry_smoke(ray_session):
    import shutil
    shutil.rmtree("/tmp/packcol_entry", ignore_errors=True)
    import __ray_entry__ as e
    df = _to_pandas(e.entry())
    assert len(df) >= 1
    row = df.iloc[0]
    assert row["text_mismatches"] == 0
    assert row["ratio"] > 1.0
