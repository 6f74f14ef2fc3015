#!/usr/bin/env python
"""Mutation-surface soak: the round-4 store operations at multi-GB
scale — annotate (derived column), top-k pushdown, key-scoped upsert,
predicate delete, deep fsck — each timed against a freshly encoded
webtext store, with the part-touch counts that prove the O(affected
parts) contracts.  Prints one JSON line for BASELINE.md.

Usage: python scripts/soak_mutations.py [--rows 1920000] [--cpus 32]
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return round(time.perf_counter() - t0, 3), out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=1_920_000)  # ~4 GB
    ap.add_argument("--cpus", type=int, default=32)
    args = ap.parse_args()

    os.environ.setdefault("ARROW_DEFAULT_MEMORY_POOL", "system")
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR",
                 object_store_memory=4 << 30)
    import logging
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from packcol.pipelines.annotate import add_column_encoded
    from packcol.pipelines.delete import delete_where
    from packcol.pipelines.encode_pipeline import encode_files
    from packcol.pipelines.fsck import check_store
    from packcol.pipelines.upsert import upsert_encoded
    from packcol.sources.encoded import (count_encoded, read_encoded,
                                         topk_encoded)
    from packcol.sources.webtext import write_webtext

    wt_dir = f"/tmp/packcol_soak/webtext_{args.rows}"
    enc_dir = "/dev/shm/packcol_soak/encoded_mut"
    out: dict = {"rows": args.rows, "num_cpus": args.cpus}

    paths = write_webtext(wt_dir, n_rows=args.rows,
                          n_parts=max(args.rows // 3750, 4), seed=3)
    shutil.rmtree(enc_dir, ignore_errors=True)
    t, m = timed(lambda: encode_files(paths, enc_dir, resume=False))
    out["encode_s"] = t
    out["logical_GB"] = round(m["orig_bytes"] / 1e9, 3)
    out["ratio"] = m["ratio"]
    out["parts"] = m["parts"]

    # derived column over the whole corpus: the only encode work is the
    # new column's blocks (payloads copy verbatim)
    def _ntok(t_in):
        from packcol.functions.text import token_counts
        return token_counts(t_in.column("text"))

    t, r = timed(lambda: add_column_encoded(
        enc_dir, "n_tokens", _ntok, ["text"]))
    out["annotate_s"] = t
    out["annotate_parts"] = r.get("parts_annotated", 0)
    # pushdown works on the annotated column immediately
    t, n = timed(lambda: count_encoded(
        enc_dir, ("n_tokens", "between", 500, 1 << 30)))
    out["count_on_annotated_s"] = t
    out["count_on_annotated"] = n

    # top-k: arrival order is ts-correlated, so zones prune
    t, (tk, st) = timed(lambda: topk_encoded(
        enc_dir, ["warc_ts", "url"], 25, descending=True,
        columns=["url", "warc_ts"], return_stats=True))
    out["topk_s"] = t
    out["topk_parts_scanned"] = st["parts_scanned"]
    out["topk_parts_total"] = st["parts_total"]

    # upsert ~1% of rows by key
    up = read_encoded(enc_dir).limit(args.rows // 100)
    t, r = timed(lambda: upsert_encoded(enc_dir, up, "url",
                                        rows_per_part=16384))
    out["upsert_s"] = t
    out["upsert_rows"] = r["rows_inserted"]
    out["upsert_parts_touched"] = (r["parts_rewritten"]
                                   + r["parts_removed"])
    out["upsert_parts_scanned"] = r["parts_scanned"]

    # point-predicate delete: zone/key-set pruning keeps it O(1) parts
    probe = read_encoded(enc_dir, columns=["url"]).limit(1) \
        .to_pandas()["url"].iloc[0]
    t, r = timed(lambda: delete_where(enc_dir, ("url", "==", probe)))
    out["delete_point_s"] = t
    out["delete_parts_scanned"] = r["parts_scanned"]
    out["delete_parts_total"] = r["parts_total"]
    out["delete_rows"] = r["rows_deleted"]

    # deep fsck: decode every column, prove zones/nulls
    t, r = timed(lambda: check_store(enc_dir, deep=True))
    out["fsck_deep_s"] = t
    out["fsck_ok"] = r["ok"]
    if not r["ok"]:
        out["fsck_issues"] = r["issues"][:10]

    shutil.rmtree(enc_dir, ignore_errors=True)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
