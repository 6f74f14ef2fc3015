#!/usr/bin/env python
"""packcol CLI — the `ray job submit` entry point.

    ray job submit -- python scripts/packcol_run.py encode \
        --input '/data/webtext/*.parquet' --output /data/encoded
    python scripts/packcol_run.py verify --encoded /data/encoded
    python scripts/packcol_run.py compact --encoded /data/encoded \
        --dest /data/encoded_compact --merge-factor 8
    python scripts/packcol_run.py gen --output /tmp/webtext --rows 100000

Resumable: re-running `encode` skips partitions already recorded in the
output manifest.  Owns its Ray session (guarded init), per the driver
contract everything under packcol/ does not.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _ray_init(num_cpus: int | None):
    os.environ.setdefault("ARROW_DEFAULT_MEMORY_POOL", "system")
    import ray
    if not ray.is_initialized():
        kwargs = dict(address=os.environ.get("RAY_ADDRESS", "local"),
                      include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR",
                      runtime_env={"env_vars": {
                          "ARROW_DEFAULT_MEMORY_POOL": "system"}})
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    return ray


def _schema_cast(store_dir: str):
    """Literal coercion driven by the store's own logical schema: the
    manifests know each column's Arrow type, so '--where user_id 7'
    probes an int64 column with int 7, not the string '7'."""
    import pyarrow as pa
    from packcol.sources.encoded import encoded_schema
    schema = encoded_schema(store_dir)

    def cast(col: str, v: str):
        if col not in schema.names:
            raise SystemExit(
                f"unknown column {col!r}; store has {schema.names}")
        t = schema.field(col).type
        try:
            if pa.types.is_integer(t):
                return int(v)
            if pa.types.is_floating(t):
                return float(v)
            if pa.types.is_boolean(t):
                return v.lower() in ("1", "true", "t", "yes")
            if pa.types.is_timestamp(t) or pa.types.is_date(t):
                from datetime import datetime
                dt = datetime.fromisoformat(v)
                return dt.date() if pa.types.is_date(t) else dt
        except ValueError:
            raise SystemExit(
                f"predicate value {v!r} is not a valid {t} "
                f"(column {col!r})")
        return v
    cast.names = list(schema.names)
    return cast


def _build_preds(args):
    """CLI --where/--between/--where-in (all repeatable) →
    read_encoded filter: None, a single predicate tuple, or a list
    (conjunction).  --type schema (the default) coerces literals to
    each column's logical type from the store manifests."""
    def _auto(v):
        for t in (int, float):
            try:
                return t(v)
            except ValueError:
                pass
        return v
    if args.type == "schema":
        cast = _schema_cast(args.encoded)
    else:
        c = {"str": str, "int": int, "float": float,
             "auto": _auto}[args.type]
        cast = lambda col, v: c(v)  # noqa: E731
    def _check_col(col: str):
        # prefix/null predicates take no typed literal, but the column
        # name should still fail loud under --type schema
        names = getattr(cast, "names", None)
        if names is not None and col not in names:
            raise SystemExit(f"unknown column {col!r}; store has {names}")
        return col

    preds: list[tuple] = []
    for w in args.where or []:
        preds.append((w[0], "==", cast(w[0], w[1])))
    for b in args.between or []:
        preds.append((b[0], "between", cast(b[0], b[1]),
                      cast(b[0], b[2])))
    for w in getattr(args, "where_in", None) or []:
        preds.append((w[0], "in",
                      [cast(w[0], v) for v in w[1].split(",")]))
    for w in getattr(args, "prefix", None) or []:
        preds.append((_check_col(w[0]), "prefix", w[1]))
    for c in getattr(args, "null", None) or []:
        preds.append((_check_col(c), "isnull"))
    for c in getattr(args, "not_null", None) or []:
        preds.append((_check_col(c), "notnull"))
    if not preds:
        return None
    return preds[0] if len(preds) == 1 else preds


def main() -> None:
    p = argparse.ArgumentParser(prog="packcol")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("encode", help="encode parquet files (resumable)")
    e.add_argument("--input", required=True, help="glob of parquet files")
    e.add_argument("--output", required=True)
    e.add_argument("--target-mb", type=int, default=64)
    e.add_argument("--no-resume", action="store_true")
    e.add_argument("--shared-vocab", default=None, metavar="COL1,COL2",
                   help="encode these string columns against ONE "
                        "sampled token vocabulary written as a sidecar "
                        "(stages/toksep_actor.py) instead of per-part "
                        "dictionaries")
    e.add_argument("--bloom", default="auto", metavar="auto|none|COLS",
                   help="per-part bloom sidecars for point-lookup part "
                        "pruning (state/bloom.py): auto = hashable "
                        "key-shaped columns, none, or a comma list")

    v = sub.add_parser("verify", help="decode-verify an encoded dir")
    v.add_argument("--encoded", required=True)

    d = sub.add_parser("decode", help="decode to parquet")
    d.add_argument("--encoded", required=True)
    d.add_argument("--output", required=True)

    c = sub.add_parser("compact", help="merge small encoded parts")
    c.add_argument("--encoded", required=True)
    c.add_argument("--dest", required=True)
    c.add_argument("--merge-factor", type=int, default=4)

    f = sub.add_parser("filter", help="predicate pushdown over an "
                       "encoded store (zone-map part pruning + "
                       "encoded-domain filter)")
    f.add_argument("--encoded", required=True)
    f.add_argument("--column", required=True)
    f.add_argument("--eq", help="equality value")
    f.add_argument("--range", nargs=2, metavar=("LO", "HI"),
                   help="inclusive range bounds")
    f.add_argument("--out-columns", required=True,
                   help="comma-separated output columns")
    f.add_argument("--output", help="write matches to this parquet dir "
                   "(default: print row count only)")
    f.add_argument("--type", default="schema",
                   choices=["schema", "str", "int", "float"],
                   help="predicate value type (schema: coerce to the "
                   "column's logical type from the store manifests)")

    r = sub.add_parser("read", help="read an encoded store through the "
                       "generic source (projection + zone pruning + "
                       "encoded-domain predicate)")
    r.add_argument("--encoded", required=True)
    r.add_argument("--columns", help="comma-separated projection")
    r.add_argument("--where", nargs=2, metavar=("COL", "VAL"),
                   action="append",
                   help="equality predicate (repeatable: AND)")
    r.add_argument("--between", nargs=3, metavar=("COL", "LO", "HI"),
                   action="append",
                   help="inclusive range predicate (repeatable: AND)")
    r.add_argument("--where-in", nargs=2, metavar=("COL", "V1,V2,..."),
                   action="append",
                   help="IN-list predicate, comma-separated values "
                   "(repeatable: AND); bloom-pruned for point sets")
    r.add_argument("--prefix", nargs=2, metavar=("COL", "PREFIX"),
                   action="append",
                   help="string prefix predicate (SQL LIKE 'p%%'); "
                   "evaluated on the dictionary vocabulary for "
                   "dict/rle blocks, zone-pruned on the prefix "
                   "interval (repeatable: AND)")
    r.add_argument("--null", metavar="COL", action="append",
                   help="IS NULL test (repeatable: AND); prunes parts "
                   "whose manifests record zero nulls")
    r.add_argument("--not-null", dest="not_null", metavar="COL",
                   action="append", help="IS NOT NULL test "
                   "(repeatable: AND)")
    r.add_argument("--type", default="schema",
                   choices=["schema", "str", "int", "float", "auto"],
                   help="predicate value type (schema: coerce to the "
                   "column's logical type from the store manifests)")
    r.add_argument("--any", action="store_true",
                   help="combine the predicates as a DISJUNCTION (OR) "
                   "instead of the default conjunction")
    r.add_argument("--output", help="write to this parquet dir "
                   "(default: print row count + schema)")
    r.add_argument("--limit", type=int, help="LIMIT-without-ORDER "
                   "head cut (unfiltered reads plan only the covering "
                   "part prefix)")

    cl = sub.add_parser("cluster", help="sort-clustered re-encode: one "
                        "distributed sort on KEY, then parts with "
                        "(near-)disjoint key zones so eq/range pushdown "
                        "prunes to O(1) parts")
    cl.add_argument("--encoded", required=True)
    cl.add_argument("--output", required=True)
    cl.add_argument("--key", required=True,
                    help="cluster key; comma list = composite "
                    "(zones prune on the first key)")
    cl.add_argument("--target-bytes", type=int, default=64 << 20)

    de = sub.add_parser("delete", help="predicate-scoped deletion: "
                        "rewrites ONLY the zone/bloom-surviving parts "
                        "(pipelines/delete.py); idempotent")
    de.add_argument("--encoded", required=True)
    de.add_argument("--where", nargs=2, metavar=("COL", "VAL"),
                    action="append")
    de.add_argument("--between", nargs=3, metavar=("COL", "LO", "HI"),
                    action="append")
    de.add_argument("--where-in", nargs=2, metavar=("COL", "V1,V2,..."),
                    action="append")
    de.add_argument("--prefix", nargs=2, metavar=("COL", "PREFIX"),
                    action="append")
    de.add_argument("--null", metavar="COL", action="append")
    de.add_argument("--not-null", dest="not_null", metavar="COL",
                    action="append")
    de.add_argument("--type", default="schema",
                    choices=["schema", "str", "int", "float", "auto"])

    ib = sub.add_parser("ivf-build", help="build a persisted IVF ANN "
                        "index: clustered store + centroid sidecar "
                        "(pipelines/ann_index.py)")
    ib.add_argument("--input", required=True, help="glob of parquet "
                    "files with an id + embedding column")
    ib.add_argument("--output", required=True)
    ib.add_argument("--n-lists", type=int, default=64)
    ib.add_argument("--vec-col", default="embedding")
    ib.add_argument("--id-col", default="vec_id")

    iq = sub.add_parser("ivf-query", help="ANN top-k against an "
                        "ivf-build store: probes n_probe lists via the "
                        "store's IN-list pushdown")
    iq.add_argument("--encoded", required=True)
    iq.add_argument("--vector", required=True,
                    help="comma-separated floats")
    iq.add_argument("--k", type=int, default=10)
    iq.add_argument("--n-probe", type=int, default=4)

    s = sub.add_parser("stats", help="metadata-only store summary from "
                       "the lineage manifests (no payload reads)")
    s.add_argument("--encoded", required=True)

    n = sub.add_parser("count", help="COUNT over the store: manifest-"
                       "only without a predicate; zone-pruned packed-"
                       "code mask-sum with one (never decodes values)")
    n.add_argument("--encoded", required=True)
    n.add_argument("--where", nargs=2, metavar=("COL", "VAL"),
                   action="append")
    n.add_argument("--between", nargs=3, metavar=("COL", "LO", "HI"),
                   action="append")
    n.add_argument("--where-in", nargs=2, metavar=("COL", "V1,V2,..."),
                   action="append")
    n.add_argument("--prefix", nargs=2, metavar=("COL", "PREFIX"),
                   action="append")
    n.add_argument("--null", metavar="COL", action="append")
    n.add_argument("--not-null", dest="not_null", metavar="COL",
                   action="append")
    n.add_argument("--type", default="schema",
                   choices=["schema", "str", "int", "float", "auto"])
    n.add_argument("--any", action="store_true",
                   help="combine the predicates as a DISJUNCTION (OR)")

    di = sub.add_parser("distinct", help="SELECT DISTINCT over the "
                        "store: dict parts answer from their "
                        "dictionaries (no row decodes)")
    di.add_argument("--encoded", required=True)
    di.add_argument("--column", required=True)
    di.add_argument("--limit", type=int, default=20,
                    help="values printed (count is always exact)")

    se = sub.add_parser("search", help="BM25 top-k keyword retrieval "
                        "over a store text column (two streaming "
                        "passes, bounded top-k)")
    se.add_argument("--encoded", required=True)
    se.add_argument("--column", default="text")
    se.add_argument("--terms", required=True,
                    help="comma-separated query terms")
    se.add_argument("--k", type=int, default=10)
    se.add_argument("--keep", default=None,
                    help="comma-separated id columns to return")

    sg = sub.add_parser("sample-group", help="deterministic uniform "
                        "n-per-group sample (bottom-n content "
                        "hashing)")
    sg.add_argument("--encoded", required=True)
    sg.add_argument("--by", required=True)
    sg.add_argument("--n", type=int, required=True)
    sg.add_argument("--seed", type=int, default=13)
    sg.add_argument("--limit", type=int, default=20)

    ex = sub.add_parser("explain", help="what a filtered scan WOULD "
                        "read, from manifests alone: per-predicate "
                        "zone survivors, bloom prunes, row bound, "
                        "planned bytes and executor (local | ray)")
    ex.add_argument("--encoded", required=True)
    ex.add_argument("--where", nargs=2, metavar=("COL", "VAL"),
                    action="append")
    ex.add_argument("--between", nargs=3, metavar=("COL", "LO", "HI"),
                    action="append")
    ex.add_argument("--type", default="schema",
                    choices=["schema", "str", "int", "float", "auto"])

    zo = sub.add_parser("zorder", help="re-cluster on the Z-order "
                        "interleave of 2-4 numeric keys: range "
                        "predicates on ANY key prune parts")
    zo.add_argument("--encoded", required=True)
    zo.add_argument("--output", required=True)
    zo.add_argument("--keys", required=True,
                    help="comma-separated, 2-4 numeric columns")

    df_ = sub.add_parser("diff", help="snapshot diff of two stores: "
                         "part-level from manifests alone; --rows adds "
                         "added/removed row counts over the asymmetric "
                         "parts (fingerprint anti-filter)")
    df_.add_argument("--a", required=True, dest="store_a")
    df_.add_argument("--b", required=True, dest="store_b")
    df_.add_argument("--rows", action="store_true")

    cd = sub.add_parser("count-distinct", help="COUNT(DISTINCT col) "
                        "[GROUP BY g]: per-part code-domain dedup, "
                        "one shuffle of distinct pairs, merged count")
    cd.add_argument("--encoded", required=True)
    cd.add_argument("--column", required=True)
    cd.add_argument("--group-by", dest="group_by")

    ag = sub.add_parser("agg", help="aggregate pushdown: grouped "
                        "COUNT/SUM/MIN/MAX/AVG without a decoded "
                        "table scan (sources/encoded.py agg_encoded)")
    ag.add_argument("--encoded", required=True)
    ag.add_argument("--group-by", dest="group_by")
    ag.add_argument("--agg", required=True, action="append",
                    metavar="OUT=FN[:COL]",
                    help="e.g. n=count, total=sum:value, m=avg:value")
    ag.add_argument("--rollup", action="store_true",
                    help="GROUP BY ROLLUP over comma-separated "
                    "--group-by keys (decomposable aggregates only)")
    ag.add_argument("--where", nargs=2, metavar=("COL", "VAL"),
                    action="append")
    ag.add_argument("--between", nargs=3, metavar=("COL", "LO", "HI"),
                    action="append")
    ag.add_argument("--where-in", nargs=2, metavar=("COL", "V1,V2,..."),
                    action="append")
    ag.add_argument("--type", default="schema",
                    choices=["schema", "str", "int", "float", "auto"])
    ag.add_argument("--limit", type=int, default=20,
                    help="result rows printed")

    tk = sub.add_parser("topk", help="ORDER BY ... LIMIT k pushdown: "
                        "zone-ordered two-wave scan, each task returns "
                        "<=k rows (sources/encoded.py topk_encoded)")
    tk.add_argument("--encoded", required=True)
    tk.add_argument("--by", required=True,
                    help="sort key; comma list = lexicographic "
                    "multi-key (zones prune on the first)")
    tk.add_argument("-k", type=int, default=10)
    tk.add_argument("--desc", action="store_true")
    tk.add_argument("--columns", help="projection (comma list; "
                    "default: all store columns)")

    up = sub.add_parser("upsert", help="key-scoped MERGE: replace "
                        "store rows whose key appears in the input, "
                        "append the rest (pipelines/upsert.py)")
    up.add_argument("--encoded", required=True)
    up.add_argument("--input", required=True,
                    help="glob of parquet files with the new rows")
    up.add_argument("--key", required=True)

    an = sub.add_parser("annotate", help="add a derived column to "
                        "every part — existing payloads copy verbatim "
                        "(pipelines/annotate.py)")
    an.add_argument("--encoded", required=True)
    an.add_argument("--as", dest="as_name", required=True,
                    help="new column name")
    an.add_argument("--derive", required=True,
                    choices=["token_count", "char_count"],
                    help="built-in vectorized derivation")
    an.add_argument("--from", dest="from_col", required=True,
                    help="input column")
    an.add_argument("--overwrite", action="store_true")

    dc = sub.add_parser("drop-column", help="remove a column from "
                        "every part (payloads of the rest copy "
                        "verbatim)")
    dc.add_argument("--encoded", required=True)
    dc.add_argument("--column", required=True)

    rn = sub.add_parser("rename-column", help="metadata-only column "
                        "rename across every part (payloads verbatim)")
    rn.add_argument("--encoded", required=True)
    rn.add_argument("--column", required=True)
    rn.add_argument("--to", dest="to_name", required=True)

    sm = sub.add_parser("sample", help="deterministic Bernoulli row "
                        "sample: pure hash of (seed, part, row), "
                        "reproducible, streaming, no shuffle")
    sm.add_argument("--encoded", required=True)
    sm.add_argument("--fraction", type=float, required=True)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--columns")
    sm.add_argument("--output", help="write to this parquet dir "
                    "(default: print row count)")

    at = sub.add_parser("attach", help="merge one store's parts into "
                        "another: metadata-first atomic renames, zero "
                        "decode (pipelines/upsert.py attach_store)")
    at.add_argument("--src", required=True)
    at.add_argument("--dst", required=True)
    at.add_argument("--copy", action="store_true",
                    help="copy instead of move (source left intact)")

    fs = sub.add_parser("fsck", help="store consistency audit: orphan "
                        "metadata, stale staging, block structure; "
                        "--deep proves zones/nulls against decoded "
                        "values (pipelines/fsck.py)")
    fs.add_argument("--encoded", required=True)
    fs.add_argument("--deep", action="store_true")
    fs.add_argument("--repair", action="store_true",
                    help="remove provably-garbage artifacts first")

    g = sub.add_parser("gen", help="generate synthetic webtext")
    g.add_argument("--output", required=True)
    g.add_argument("--rows", type=int, default=100_000)
    g.add_argument("--parts", type=int, default=None)

    args = p.parse_args()
    ray = _ray_init(args.num_cpus)

    if args.cmd == "encode":
        from packcol.pipelines.encode_pipeline import encode_files
        paths = sorted(glob.glob(args.input))
        if not paths:
            sys.exit(f"no files match {args.input}")
        bloom = "auto" if args.bloom == "auto" else (
            None if args.bloom == "none" else args.bloom.split(","))
        m = encode_files(paths, args.output, resume=not args.no_resume,
                         target_bytes=args.target_mb << 20,
                         shared_vocab_columns=(
                             args.shared_vocab.split(",")
                             if args.shared_vocab else None),
                         bloom_columns=bloom)
        print(json.dumps(m))
    elif args.cmd == "verify":
        from packcol.pipelines.encode_pipeline import verify_files
        print(json.dumps(verify_files(args.encoded)))
    elif args.cmd == "decode":
        from packcol.pipelines.encode_pipeline import decode_files
        decode_files(args.encoded).write_parquet(args.output)
        print(json.dumps({"ok": True, "output": args.output}))
    elif args.cmd == "compact":
        from packcol.pipelines.compact import recompact
        print(json.dumps(recompact(args.encoded, args.dest,
                                   merge_factor=args.merge_factor)))
    elif args.cmd == "filter":
        from packcol.sources.encoded import read_encoded
        if args.type == "schema":
            cast = _schema_cast(args.encoded)
        else:
            c = {"str": str, "int": int, "float": float}[args.type]
            cast = lambda col, v: c(v)  # noqa: E731
        cols = args.out_columns.split(",")
        if (args.eq is None) == (args.range is None):
            sys.exit("exactly one of --eq / --range is required")
        if args.eq is not None:
            flt = (args.column, "==", cast(args.column, args.eq))
        else:
            flt = (args.column, "between",
                   cast(args.column, args.range[0]),
                   cast(args.column, args.range[1]))
        ds = read_encoded(args.encoded, columns=cols, filter=flt)
        if args.output:
            # materialize once: a lazy Dataset would re-run the whole
            # filter pipeline for write_parquet and again for count()
            ds = ds.materialize()
            ds.write_parquet(args.output)
            print(json.dumps({"rows": ds.count(), "output": args.output}))
        else:
            print(json.dumps({"rows": ds.count()}))
    elif args.cmd == "read":
        from packcol.sources.encoded import read_encoded
        flt = _build_preds(args)
        disj = getattr(args, "any", False)
        ds = read_encoded(args.encoded,
                          columns=(args.columns.split(",")
                                   if args.columns else None),
                          filter=None if disj else flt,
                          filter_any=flt if disj else None,
                          limit=args.limit)
        if args.output:
            ds = ds.materialize()
            ds.write_parquet(args.output)
            print(json.dumps({"rows": ds.count(), "output": args.output}))
        else:
            print(json.dumps({"rows": ds.count(),
                              "schema": list(ds.schema().names)}))
    elif args.cmd == "cluster":
        from packcol.pipelines.cluster import cluster_store
        key = args.key.split(",") if "," in args.key else args.key
        print(json.dumps(cluster_store(
            args.encoded, args.output, key,
            target_bytes=args.target_bytes)))
    elif args.cmd == "delete":
        from packcol.pipelines.delete import delete_where
        flt = _build_preds(args)
        if flt is None:
            raise SystemExit("delete requires at least one predicate "
                             "(--where/--between/--where-in/--prefix/"
                             "--null/--not-null)")
        print(json.dumps(delete_where(
            args.encoded, flt if isinstance(flt, list) else flt)))
    elif args.cmd == "ivf-build":
        import glob as _glob
        import ray.data as _rd
        from packcol.pipelines.ann_index import build_ivf_store
        paths = sorted(_glob.glob(args.input))
        if not paths:
            raise SystemExit(f"no parquet files match {args.input!r}")
        print(json.dumps(build_ivf_store(
            _rd.read_parquet(paths), args.output,
            n_lists=args.n_lists, vec_col=args.vec_col,
            id_col=args.id_col)))
    elif args.cmd == "ivf-query":
        import numpy as _np
        from packcol.pipelines.ann_index import (ivf_probe_stats,
                                                 ivf_query_store)
        qv = _np.array([float(x) for x in args.vector.split(",")])
        pdf = ivf_query_store(args.encoded, qv, k=args.k,
                              n_probe=args.n_probe)
        st = ivf_probe_stats(args.encoded, qv, n_probe=args.n_probe)
        print(json.dumps({
            "ids": pdf[pdf.columns[1]].tolist(),
            "cos": [round(c, 6) for c in pdf["cos"]], **st}))
    elif args.cmd == "stats":
        from packcol.sources.encoded import encoded_schema, store_stats
        st = store_stats(args.encoded)
        st["schema"] = {f.name: str(f.type)
                        for f in encoded_schema(args.encoded)}
        print(json.dumps(st))
    elif args.cmd == "count":
        from packcol.sources.encoded import count_encoded
        flt = _build_preds(args)
        disj = getattr(args, "any", False)
        print(json.dumps({"rows": count_encoded(
            args.encoded,
            filter=None if disj else flt,
            filter_any=flt if disj else None)}))
    elif args.cmd == "distinct":
        from packcol.sources.encoded import distinct_encoded
        # materialize the RESULT (O(distinct), not O(rows)) so count
        # and the value sample don't re-execute the scan
        ds = distinct_encoded(args.encoded, args.column).materialize()
        vals = [r[args.column] for r in ds.take(args.limit)]
        print(json.dumps({"column": args.column,
                          "n_distinct": ds.count(),
                          "values": [str(v) for v in vals]}))
    elif args.cmd == "search":
        from packcol.pipelines.search import bm25_topk
        from packcol.sources.encoded import read_encoded
        keep = args.keep.split(",") if args.keep else []
        cols = sorted(set(keep + [args.column]))
        res = bm25_topk(read_encoded(args.encoded, columns=cols),
                        args.column, args.terms.split(","), k=args.k,
                        keep_cols=keep)
        print(json.dumps({"hits": res.to_dict("records")},
                         default=str))
    elif args.cmd == "sample-group":
        from packcol.pipelines.window import stratified_sample
        from packcol.sources.encoded import read_encoded
        res = stratified_sample(read_encoded(args.encoded),
                                args.by, args.n,
                                seed=args.seed).to_pandas()
        print(json.dumps({"rows": len(res),
                          "head": res.head(args.limit)
                          .to_dict("records")}, default=str))
    elif args.cmd == "explain":
        from packcol.sources.encoded import explain_scan
        print(json.dumps(explain_scan(args.encoded,
                                      filter=_build_preds(args))))
    elif args.cmd == "zorder":
        from packcol.pipelines.cluster import zorder_store
        print(json.dumps(zorder_store(
            args.encoded, args.output, args.keys.split(","))))
    elif args.cmd == "diff":
        from packcol.pipelines.diff import diff_store_parts, diff_stores
        if args.rows:
            res = diff_stores(args.store_a, args.store_b)
            res["rows_added"] = res.pop("added_rows").count()
            res["rows_removed"] = res.pop("removed_rows").count()
        else:
            res = diff_store_parts(args.store_a, args.store_b)
        res.pop("only_a_parts", None)
        res.pop("only_b_parts", None)
        print(json.dumps(res))
    elif args.cmd == "count-distinct":
        from packcol.sources.encoded import count_distinct_encoded
        res = count_distinct_encoded(
            args.encoded, args.column,
            group_by=args.group_by).to_pandas()
        print(json.dumps({"column": args.column,
                          "group_by": args.group_by,
                          "result": res.to_dict("records")},
                         default=str))
    elif args.cmd == "agg":
        from packcol.sources.encoded import agg_encoded
        aggs = {}
        for spec in args.agg:
            try:
                out_name, fnspec = spec.split("=", 1)
                fn, _, col = fnspec.partition(":")
            except ValueError:
                sys.exit(f"bad --agg {spec!r}: expected OUT=FN[:COL]")
            aggs[out_name] = (fn,) if not col else (fn, col)
        flt = _build_preds(args)
        if getattr(args, "rollup", False):
            from packcol.sources.encoded import agg_encoded_rollup
            if not args.group_by:
                sys.exit("--rollup needs --group-by")
            res = agg_encoded_rollup(args.encoded,
                                     args.group_by.split(","),
                                     aggs, filter=flt)
            res = res.sort_values(args.group_by.split(","),
                                  na_position="last")
        else:
            res = agg_encoded(args.encoded, group_by=args.group_by,
                              aggs=aggs, filter=flt).to_pandas()
            if args.group_by:
                res = res.sort_values(args.group_by)
        print(json.dumps({"rows": len(res),
                          "head": res.head(args.limit)
                          .to_dict(orient="records")},
                         default=str))
    elif args.cmd == "topk":
        from packcol.sources.encoded import topk_encoded
        keys = args.by.split(",")
        cols = args.columns.split(",") if args.columns else None
        t, st = topk_encoded(args.encoded, keys, args.k,
                             descending=args.desc, columns=cols,
                             return_stats=True)
        print(json.dumps({"rows": t.num_rows,
                          "head": [str(r) for r in
                                   t.slice(0, 5).to_pylist()], **st}))
    elif args.cmd == "upsert":
        import ray.data as rd
        from packcol.pipelines.upsert import upsert_encoded
        paths = sorted(glob.glob(args.input))
        if not paths:
            sys.exit(f"no files match {args.input}")
        from packcol.sources.parquet import read_parquet_clean
        res = upsert_encoded(args.encoded, read_parquet_clean(paths),
                             args.key)
        print(json.dumps(res))
    elif args.cmd == "annotate":
        from packcol.pipelines.annotate import add_column_encoded
        col = args.from_col

        def _derive(t, _col=col, _kind=args.derive):
            import pyarrow.compute as pcx
            if _kind == "token_count":
                from packcol.functions.text import token_counts
                return token_counts(t.column(_col))
            return pcx.utf8_length(t.column(_col).combine_chunks())

        res = add_column_encoded(args.encoded, args.as_name, _derive,
                                 [col], overwrite=args.overwrite)
        print(json.dumps(res))
    elif args.cmd == "drop-column":
        from packcol.pipelines.annotate import drop_column_encoded
        print(json.dumps(drop_column_encoded(args.encoded, args.column)))
    elif args.cmd == "rename-column":
        from packcol.pipelines.annotate import rename_column_encoded
        print(json.dumps(rename_column_encoded(args.encoded,
                                               args.column,
                                               args.to_name)))
    elif args.cmd == "sample":
        from packcol.sources.encoded import sample_encoded
        ds = sample_encoded(args.encoded, args.fraction, seed=args.seed,
                            columns=(args.columns.split(",")
                                     if args.columns else None))
        if args.output:
            ds = ds.materialize()
            ds.write_parquet(args.output)
            print(json.dumps({"rows": ds.count(),
                              "output": args.output}))
        else:
            print(json.dumps({"rows": ds.count()}))
    elif args.cmd == "attach":
        from packcol.pipelines.upsert import attach_store
        print(json.dumps(attach_store(args.src, args.dst,
                                      move=not args.copy)))
    elif args.cmd == "fsck":
        from packcol.pipelines.fsck import check_store, repair_store
        out = {}
        if args.repair:
            out["repair"] = repair_store(args.encoded)
        out.update(check_store(args.encoded, deep=args.deep))
        print(json.dumps(out))
    elif args.cmd == "gen":
        from packcol.sources.webtext import write_webtext
        parts = args.parts or max(args.rows // 7500, 1)
        files = write_webtext(args.output, args.rows, parts, use_ray=True)
        print(json.dumps({"files": len(files), "rows": args.rows}))
    ray.shutdown()


if __name__ == "__main__":
    main()
