"""The packcol encoded store as a first-class Ray Data source.

:func:`read_encoded` makes a store directory written by
``pipelines.encode_pipeline.encode_files`` readable like a table format
rather than a sink: it returns a ``ray.data.Dataset`` of DECODED rows
with

* **lazy streaming decode** — one read task per part file, no shuffle,
  nothing materialized beyond the blocks in flight (a read of a small
  plan decodes in-process instead, ``plan.execute``, and returns its
  rows as a ``plan.LocalDataset``);
* **column projection at the encoded-block level** — unrequested
  columns' payloads are filtered out of the part file read and never
  decoded (``DecodePartFile``);
* **zone-map pruning** — with a predicate, whole parts whose lineage
  manifest proves no matching rows are dropped driver-side from tiny
  JSON, before any data read (``plan.plan``);
* **predicate pushdown into the encoded domain** — eq / range
  predicates evaluate on packed codes / FOR deltas / order-preserving
  dictionary codes (``codecs/access.py``) and only the matching rows of
  the projected columns decode.

This is the read half of the store contract the north rule's
encode → compact → decode-verify pipeline writes (the reference's
decode side: /root/reference/src/encoding/mod.rs:16-19 — every decoded
column bit-identical); the pruning metadata is the same per-partition
lineage manifest that makes encodes resumable.

Predicate syntax (kept deliberately tiny — the two shapes the encoded
domain can evaluate without decoding):

    read_encoded(store)                                   # full scan
    read_encoded(store, columns=["url", "lang"])          # projection
    read_encoded(store, columns=[...],
                 filter=("lang", "==", "de"))             # point
    read_encoded(store, columns=[...],
                 filter=("ts", "between", lo, hi))        # inclusive
    read_encoded(store, columns=[...],
                 filter=("url", "in", [u1, u2]))          # IN-list
    read_encoded(store, columns=[...],
                 filter=[("lang", "==", "de"),
                         ("user_id", "between", 3, 9)])   # conjunction

Point predicates (eq / in) additionally prune via the per-part bloom
sidecars (state/bloom.py) — the path that makes a ``url == x`` lookup
on an arrival-ordered store O(matching parts), since url zones don't
exist (long-string columns are not zone-mapped).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

import ray.data as rd

from .plan import (LocalDataset, as_dataset, collect, empty_block, execute,
                   parse_filter, part_files, part_id, part_mask, plan,
                   read_blocks, read_part)


def encoded_schema(store_dir: str) -> pa.Schema:
    """Logical schema of the decoded table, read from the stored
    per-block params (metadata-only columns of one or more part files;
    payloads are never touched)."""
    from ..codecs.base import str_to_type
    fields: dict[str, pa.DataType] = {}
    for path in part_files(store_dir):
        meta = read_part(path, fields=["column", "params"])
        for name, params in zip(meta.column("column").to_pylist(),
                                meta.column("params").to_pylist()):
            if name not in fields:
                p = json.loads(params)
                dt = p.get("dtype")
                if dt is not None:
                    try:
                        fields[name] = str_to_type(dt)
                    except ValueError:  # pre-r4 store-codec blocks
                        pass
                elif p.get("dtype_ipc"):  # nested logical types
                    sch = pa.ipc.read_schema(pa.BufferReader(
                        bytes.fromhex(p["dtype_ipc"])))
                    fields[name] = sch.field(0).type
        # a complete part names every column; heterogeneous stores
        # (mixed tables) keep scanning until no new names appear
        if meta.num_rows and len(fields) >= meta.num_rows:
            break
    return pa.schema(sorted(fields.items()))


def read_encoded(store_dir: str, *, columns: list[str] | None = None,
                 filter: tuple | None = None,
                 filter_any: list | None = None,
                 limit: int | None = None) -> "rd.Dataset":
    """Dataset of decoded rows from an encoded store — the generic
    source form of ``decode_files``.

    ``filter`` is one predicate (shapes in sources/plan.py) or a LIST
    of them for a conjunction (every predicate must hold).
    ``filter_any`` is a list of the same shapes combined as a
    DISJUNCTION (any predicate may hold); the two are mutually
    exclusive.  Filter columns need not be in ``columns``.  The parts
    scanned are ``plan``'s survivors (what ``explain_scan`` reports).

    ``limit`` is a LIMIT-without-ORDER head cut: unfiltered reads plan
    only the minimal prefix of parts whose manifest row counts cover
    it (a head of a 10^6-part store schedules O(1) tasks); filtered
    reads apply it post-filter (on a Ray-path plan, via the streaming
    executor's early stop).

    Returns a ``ray.data.Dataset``: a read whose plan ran in-process
    (``plan.execute``) returns its rows as a
    :class:`~packcol.sources.plan.LocalDataset` (``limit`` is a table
    slice); a Ray-path read is a lazy streaming Dataset."""
    from ..pipelines.encode_pipeline import EncodedFilterPart, decode_files
    preds, mode = parse_filter(filter, filter_any)
    schema = encoded_schema(store_dir) \
        if columns is not None or preds else None
    if columns is not None:
        # Fail loud on unknown projections: the per-part decode paths
        # would otherwise silently drop them (unfiltered) or emit zero
        # rows (filtered) — both observed via the CLI before this check.
        missing = [c for c in columns if c not in schema.names]
        if missing:
            raise ValueError(
                f"unknown column(s) {missing} in projection; "
                f"store has {sorted(schema.names)}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if not preds:
        ds = decode_files(store_dir, columns=columns, limit=limit)
        return ds.limit(limit) if limit is not None else ds
    out_columns = list(columns) if columns is not None else schema.names
    if not out_columns:
        raise ValueError(f"no encoded parts found in {store_dir}")
    out_schema = pa.schema([schema.field(c) for c in out_columns])
    p = plan(store_dir, preds, mode)
    ds = as_dataset(execute(p, EncodedFilterPart(
        preds, out_columns, mode, probes=p.task_probes,
        schema=out_schema)))
    return ds.limit(limit) if limit is not None else ds


def store_stats(store_dir: str) -> dict:
    """Metadata-only store summary from the per-partition lineage
    manifests — zero payload bytes read, O(parts) tiny JSON.  This is
    the 100 TB answer to "how big / what codecs / what ranges": the
    same manifests that make encodes resumable double as the store's
    statistics catalog (rows, logical/encoded bytes, per-column codec
    histogram, global zone spans)."""
    from ..state.manifest import Manifest
    mans = Manifest(store_dir).load_all()
    codec_hist: dict[str, dict[str, int]] = {}
    zones: dict[str, dict] = {}
    bloom_parts: dict[str, int] = {}
    rows = orig = enc = 0
    for m in mans:
        rows += m.get("rows", 0)
        orig += m.get("orig_bytes", 0)
        enc += m.get("enc_bytes", 0)
        for col, codec in m.get("codecs", {}).items():
            codec_hist.setdefault(col, {})
            codec_hist[col][codec] = codec_hist[col].get(codec, 0) + 1
        for col in m.get("blooms") or ():
            bloom_parts[col] = bloom_parts.get(col, 0) + 1
        for col, z in (m.get("zones") or {}).items():
            cur = zones.get(col)
            if cur is None:
                zones[col] = dict(z)
            elif cur.get("kind") == z.get("kind"):
                cur["min"] = min(cur["min"], z["min"])
                cur["max"] = max(cur["max"], z["max"])
    disk = sum(os.path.getsize(p) for p in part_files(store_dir))
    return {"parts": len(mans), "rows": rows, "orig_bytes": orig,
            "enc_bytes": enc, "disk_bytes": disk,
            "ratio": round(orig / enc, 4) if enc else None,
            "codecs": codec_hist, "zones": zones,
            "blooms": bloom_parts}


class _CountPart:
    """Task: matching-row COUNT of encoded parts — evaluates the
    predicates on packed codes (``part_mask``) and never decodes any
    values.  Selective counts at open scale read only the filter
    columns' blocks of the plan's parts."""

    def __init__(self, preds: list[tuple], mode: str = "and",
                 probes: list | None = None):
        self.preds = preds  # normalized, combined by mode
        self.mode = mode    # "and" conjunction / "or" disjunction
        self.probes = probes

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = 0
        for p in batch.column("path").to_pylist():
            hit = part_mask(p, self.preds, self.mode, probes=self.probes)
            if hit is not None:
                n += int(hit[1].sum())
        return pa.table({"n": pa.array([n], pa.int64())})


def count_encoded(store_dir: str, filter: tuple | None = None,
                  filter_any: list | None = None) -> int:
    """COUNT over the encoded store.

    Without a filter this is pure metadata (sum of manifest row
    counts; parts missing a manifest fall back to one n_values
    metadata read — the payload parquet column is never touched).
    With ``filter`` (AND) / ``filter_any`` (OR), manifest zone maps +
    bloom sidecars prune parts driver-side (``plan``) and the residual
    parts mask-sum on packed codes without decoding; the per-part
    counts sum on the driver."""
    import pyarrow.compute as pc
    preds, mode = parse_filter(filter, filter_any)
    p = plan(store_dir, preds, mode)
    if not preds:
        total = 0
        for path in p.parts:
            m = p.manifests.get(path)
            if m is not None and "rows" in m:
                total += m["rows"]
                continue
            t = read_part(path, fields=["column", "n_values"])
            if t.num_rows:  # rows of the part = n_values of any block
                total += int(t.column("n_values")[0].as_py())
        return total
    n = collect(execute(p, _CountPart(preds, mode,
                                      probes=p.task_probes)))
    return 0 if n is None else int(pc.sum(n.column("n")).as_py())


class _AggPart:
    """Task: grouped partial aggregates of one encoded part.

    The encoded-domain wins, in priority order:

    * predicate masks evaluate on packed codes (never decode the
      filter columns);
    * a null-free dict-codec group column groups on its INT CODES —
      only the per-part dictionary's distinct values decode (late
      materialization: O(groups) string decodes, not O(rows));
    * count-only aggregates decode no value column at all.

    ``keys`` are the group columns, [] for a global aggregate.  Emits
    one partial row per (part, group): ``{*keys, __p__<out>...}``;
    ``_agg_merged`` merges them on the driver."""

    def __init__(self, keys: list[str], aggs: dict,
                 preds: list[tuple], mode: str = "and",
                 probes: list | None = None):
        self.keys = list(keys)
        self.aggs = aggs          # {out: ("count",) | (fn, col)}
        self.preds = preds        # normalized, possibly []
        self.mode = mode          # "and" conjunction / "or" disjunction
        self.probes = probes

    def _partial_specs(self):
        """pyarrow group_by aggregation specs (deduped) + the result
        column each output draws from."""
        specs, src = [], {}
        for out, spec in self.aggs.items():
            if spec[0] == "count" and len(spec) == 1:
                s, name = ([], "count_all"), "count_all"
            else:
                fn, col = spec[0], spec[1]
                s, name = (col, fn), f"{col}_{fn}"
            if s not in specs:
                specs.append(s)
            src[out] = name
        return specs, src

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        from ..codecs import decode_any
        from ..codecs.access import _dict_codes
        from ..codecs.base import str_to_type
        from ..codecs.dictionary import ipc_deserialize_array

        val_cols = {s[1] for s in self.aggs.values() if len(s) > 1}
        hard = val_cols | set(self.keys)
        specs, src = self._partial_specs()
        outs, out_types = [], {}
        for p in batch.column("path").to_pylist():
            if not hard and not self.preds:
                # global COUNT(*) with no filter: the part's row count
                # is any block's n_values — metadata columns only, the
                # payload pages are never read
                meta = read_part(p, fields=["n_values"])
                if meta.num_rows:
                    outs.append(pa.table(
                        {f"__p__{out}": pa.array(
                            [int(meta.column("n_values")[0].as_py())],
                            pa.int64())
                         for out in self.aggs}))
                continue
            hit = part_mask(p, self.preds, self.mode, sorted(hard),
                            probes=self.probes)
            if hit is None:
                continue
            enc_of, mask = hit
            sel = pa.array(np.flatnonzero(mask)) if mask is not None \
                else None

            # group keys: dict codes when null-free (decode only the
            # distinct values after aggregation), else decoded values
            cols, mappings = {}, {}
            if not self.keys:
                # any present block carries the part's row count (an
                # OR-mode pred column may be absent from this part)
                n = next(iter(enc_of.values())).n_values if enc_of else 0
                n_rows = int(mask.sum()) if mask is not None else n
                cols["__g"] = pa.array(np.zeros(n_rows, dtype=np.int64))
            for i, key in enumerate(self.keys):
                genc = enc_of[key]
                if genc.codec == "dict" and \
                        not genc.buffers.get("validity", b""):
                    garr = pa.array(_dict_codes(genc).astype(
                        np.int64, copy=False))
                    mappings[f"__g{i}"] = ipc_deserialize_array(
                        genc.buffers["aux"])
                else:
                    garr = decode_any(genc)
                cols[f"__g{i}"] = garr.take(sel) if sel is not None \
                    else garr
                dt = genc.params.get("dtype")
                if dt is not None:
                    out_types[key] = str_to_type(dt)
            gcols = list(cols)
            for c in sorted(val_cols):
                arr = decode_any(enc_of[c])
                cols[c] = arr.take(sel) if sel is not None else arr
                out_types[c] = cols[c].type
            part = pa.table(cols).group_by(gcols).aggregate(specs)
            for name, mapping in mappings.items():
                part = part.set_column(
                    part.schema.get_field_index(name), name,
                    mapping.take(part.column(name)))
            outs.append(self._rename(part, src))
        if not outs:
            return self.empty(src, out_types)
        return pa.concat_tables(outs, promote_options="permissive")

    def _rename(self, part: pa.Table, src: dict) -> pa.Table:
        cols = {key: part.column(f"__g{i}")
                for i, key in enumerate(self.keys)}
        for out, name in src.items():
            cols[f"__p__{out}"] = part.column(name)
        return pa.table(cols)

    def empty(self, src: dict, out_types: dict) -> pa.Table:
        """A partials block with no rows, typed like a non-empty one."""
        fields = {key: out_types.get(key, pa.string())
                  for key in self.keys}
        for out, spec in self.aggs.items():
            if spec[0] == "count":
                fields[f"__p__{out}"] = pa.int64()
            else:
                fields[f"__p__{out}"] = out_types.get(spec[1],
                                                      pa.float64())
        return pa.table({n: pa.array([], type=t)
                         for n, t in fields.items()})


def agg_encoded(store_dir: str, *, group_by: str | None = None,
                aggs: dict, filter: tuple | None = None,
                filter_any: list | None = None):
    """Grouped aggregates over the encoded store WITHOUT a table scan
    of decoded rows.

    ``aggs`` maps output column name → ``("count",)`` (COUNT(*)),
    ``("count", col)`` (non-null count), ``("sum"|"min"|"max", col)``,
    or ``("avg", col)`` (decomposed into mergeable sum + non-null
    count partials; the ratio is taken after the merge — float64,
    NULL for empty groups, SQL AVG semantics).  Nulls follow SQL
    semantics (sum/min/max/avg ignore them).  Integer sums stay int64
    — overflow is the caller's concern, as in pyarrow.

    The scan prunes parts via zone maps + bloom sidecars when
    ``filter`` is given, evaluates the predicate on packed codes,
    groups dict-codec columns on their integer codes (decoding only
    the distinct group values), and skips value decodes entirely for
    count-only aggregates.  The O(parts x groups) partial rows merge on
    the driver with one ``pa.Table.group_by`` on either executor path
    (``plan.execute``); a null key forms a group, as in SQL.

    Returns a :class:`~packcol.sources.plan.LocalDataset` (the merged
    table, on either executor path) with columns ``[group_by, *aggs]``
    (one row without ``group_by``)."""
    for out, spec in aggs.items():
        if spec[0] not in ("count", "sum", "min", "max", "avg"):
            raise ValueError(f"unsupported aggregate {spec[0]!r}")
        if spec[0] != "count" and len(spec) != 2:
            raise ValueError(f"{out}: {spec[0]} needs a column")

    # AVG decomposes into mergeable sum + non-null-count partials; the
    # ratio is taken AFTER the merge (never per part)
    user_aggs = dict(aggs)
    avg_map = {}
    for out, spec in list(aggs.items()):
        if spec[0] == "avg":
            avg_map[out] = (f"__avs_{out}", f"__avc_{out}")
    if avg_map:
        aggs = {o: s for o, s in aggs.items() if s[0] != "avg"}
        for out, (s_name, c_name) in avg_map.items():
            col = user_aggs[out][1]
            aggs[s_name] = ("sum", col)
            aggs[c_name] = ("count", col)

    preds, mode = parse_filter(filter, filter_any)
    if group_by is None and not preds:
        fast = _agg_from_manifests(store_dir, aggs)
        if fast is not None:
            return LocalDataset(fast)

    def _finish_avg(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cols = {}
        if group_by is not None:
            cols[group_by] = b.column(group_by)
        for out, spec in user_aggs.items():
            if spec[0] == "avg":
                s_name, c_name = avg_map[out]
                c = b.column(c_name).cast(pa.float64())
                c = pc.if_else(pc.equal(c, 0.0),
                               pa.nulls(b.num_rows, pa.float64()), c)
                cols[out] = pc.divide(
                    b.column(s_name).cast(pa.float64()), c)
            else:
                cols[out] = b.column(out)
        return pa.table(cols)

    keys = [] if group_by is None else [group_by]
    res = _agg_merged(store_dir, keys, aggs, preds, mode)
    return LocalDataset(_finish_avg(res) if avg_map else res)


# how a partial of each aggregate merges across parts
_MERGE = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _agg_merged(store_dir: str, keys: list[str], aggs: dict,
                preds: list[tuple], mode: str) -> pa.Table:
    """``aggs`` grouped by ``keys`` ([] for a global aggregate): one
    ``_AggPart`` scan, its partials merged on the driver by one
    ``pa.Table.group_by`` (a null key forms a group, as in SQL).
    Columns ``[*keys, *aggs]``."""
    p = plan(store_dir, preds, mode)
    task = _AggPart(keys, aggs, preds, mode,
                    probes=p.task_probes)
    parts = execute(p, task)
    if not isinstance(parts, pa.Table):
        parts = collect(parts)
        if parts is None:
            parts = task.empty(task._partial_specs()[1], {})
    res = parts.group_by(keys, use_threads=False).aggregate(
        [(f"__p__{out}", _MERGE[spec[0]]) for out, spec in aggs.items()])
    return pa.table(
        {**{key: res.column(key) for key in keys},
         **{out: res.column(f"__p__{out}_{_MERGE[spec[0]]}")
            for out, spec in aggs.items()}})


class _DistinctPairsPart:
    """Task: per-part DISTINCT (group, value) pairs from the encoded
    domain — the map-side pre-reduce of COUNT(DISTINCT col).

    Encoded-domain wins mirror ``_AggPart``: predicate masks evaluate
    on packed codes; null-free dict-codec columns dedupe on their INT
    CODES and only the SURVIVING distinct codes' values decode (a part
    with 10^6 rows but 40 distinct (lang, user) pairs decodes 40
    values).  Null values drop before the shuffle (SQL
    COUNT(DISTINCT) ignores them); null GROUP keys are kept (SQL
    GROUP BY groups them).  Emits O(per-part distinct pairs) rows —
    the only data that ever shuffles."""

    def __init__(self, group_by: str | None, column: str,
                 preds: list[tuple], mode: str = "and",
                 probes: list | None = None):
        self.group_by = group_by
        self.column = column
        self.preds = preds
        self.mode = mode
        self.probes = probes

    def empty(self, out_types: dict) -> pa.Table:
        """A pairs block with no rows, typed like a non-empty one."""
        cols = {}
        if self.group_by is not None:
            cols["__gf"] = pa.array(
                [], out_types.get(self.group_by, pa.string()))
            cols["__gv"] = pa.array([], pa.bool_())
        cols[self.column] = pa.array(
            [], out_types.get(self.column, pa.string()))
        return pa.table(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        from ..codecs import decode_any
        from ..codecs.access import _dict_codes
        from ..codecs.base import str_to_type
        from ..codecs.dictionary import ipc_deserialize_array

        hard = {self.column} | \
            ({self.group_by} if self.group_by else set())
        outs, out_types = [], {}
        for p in batch.column("path").to_pylist():
            hit = part_mask(p, self.preds, self.mode, sorted(hard),
                            probes=self.probes)
            if hit is None:
                continue
            enc_of, mask = hit
            sel = pa.array(np.flatnonzero(mask)) if mask is not None \
                else None

            def _col(name):
                """(array-or-codes, mapping): dict codecs without a
                validity bitmap stay as int codes + their vocab."""
                enc = enc_of[name]
                dt = enc.params.get("dtype")
                if dt is not None:
                    out_types[name] = str_to_type(dt)
                if enc.codec == "dict" and \
                        not enc.buffers.get("validity", b""):
                    codes = _dict_codes(enc).astype(np.int64, copy=False)
                    arr = pa.array(codes)
                    mapping = ipc_deserialize_array(enc.buffers["aux"])
                else:
                    arr, mapping = decode_any(enc), None
                return (arr.take(sel) if sel is not None else arr,
                        mapping)

            varr, vmap = _col(self.column)
            cols, keys = {}, []
            if self.group_by is not None:
                garr, gmap = _col(self.group_by)
                cols["__g"], keys = garr, ["__g"]
            cols["__v"] = varr
            keys.append("__v")
            tbl = pa.table(cols)
            if varr.null_count:
                # SQL: COUNT(DISTINCT) ignores null values
                import pyarrow.compute as pc
                tbl = tbl.filter(pc.is_valid(tbl.column("__v")))
            if tbl.num_rows == 0:
                continue
            ded = tbl.group_by(keys).aggregate([])
            out_cols = {}
            if self.group_by is not None:
                import pyarrow.compute as pc
                g = ded.column("__g")
                if gmap is not None:
                    g = gmap.take(g)
                # Ray's sort-based shuffle can't order null keys: ship
                # the group as (filled value, validity bit) and let the
                # caller restore nulls after the merge — SQL GROUP BY
                # keeps the null group
                valid = pc.is_valid(g)
                out_cols["__gf"] = pc.fill_null(
                    g, _null_fill_scalar(g.type))
                out_cols["__gv"] = valid
            v = ded.column("__v")
            out_cols[self.column] = vmap.take(v) if vmap is not None \
                else v
            outs.append(pa.table(out_cols))
        if not outs:
            return self.empty(out_types)
        return pa.concat_tables(outs, promote_options="permissive")


def _null_fill_scalar(typ: pa.DataType):
    """A type-correct placeholder for null group keys while they
    transit Ray's sort-based shuffle (the validity bit travels beside
    it; the value itself never surfaces)."""
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return pa.scalar("", typ)
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        return pa.scalar(b"", typ)
    if pa.types.is_boolean(typ):
        return pa.scalar(False, typ)
    return pa.scalar(0).cast(typ)


def count_distinct_encoded(store_dir: str, column: str, *,
                           group_by: str | None = None,
                           filter: tuple | None = None,
                           filter_any: list | None = None,
                           out: str = "n_distinct"):
    """COUNT(DISTINCT column) [GROUP BY group_by] over the encoded
    store without a decoded table scan.

    Three stages:

    1. per part, distinct (group, value) pairs in the encoded domain
       (``_DistinctPairsPart`` — dict codecs dedupe on int codes and
       decode only the surviving distinct values; predicates mask on
       packed codes after zone/bloom part pruning);
    2. a groupby over the pair rows removes cross-part duplicates;
    3. a count-per-group aggregate over the now-unique pairs.

    When the plan runs in-process (``plan.execute``), stages 2 and 3
    are two ``pa.Table.group_by`` calls on the driver, over pairs
    bounded by the small plan's rows.  Otherwise they are Ray
    groupbys: the only shuffle of data is O(global distinct pairs),
    and the driver never holds a distinct set.  SQL semantics: null
    values don't count, null group keys form a group.  Returns columns
    [group_by, out] (or one row [out] without group_by): a
    :class:`~packcol.sources.plan.LocalDataset` from an in-process
    plan, else a lazy ``ray.data.Dataset``."""
    from ray.data.aggregate import Count
    preds, mode = parse_filter(filter, filter_any)
    p = plan(store_dir, preds, mode)
    pairs = execute(p, _DistinctPairsPart(group_by, column, preds, mode,
                                          probes=p.task_probes))
    # group keys travel null-safe as (__gf filled value, __gv validity)
    # — Ray's sort shuffle can't order null keys; restored below
    gkeys = ["__gf", "__gv"] if group_by is not None else []
    keys = [*gkeys, column]

    def _restore(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        g = pc.if_else(b.column("__gv"), b.column("__gf"),
                       pa.nulls(b.num_rows, b.column("__gf").type))
        return pa.table({group_by: g, out: b.column(out)})

    if isinstance(pairs, pa.Table):
        uniq = pairs.group_by(keys, use_threads=False).aggregate([])
        res = uniq.group_by(gkeys, use_threads=False).aggregate(
            [([], "count_all")])
        res = pa.table({**{k: res.column(k) for k in gkeys},
                        out: res.column("count_all")})
        return LocalDataset(_restore(res) if gkeys else res)
    uniq = pairs.groupby(keys).aggregate(Count(on=column,
                                               alias_name="__c"))
    # count the now-unique pairs per group; on=column (values are
    # non-null by stage 1) — Ray's row-count Count(on=None) returns 0
    # on globally-aggregated datasets
    if group_by is None:
        return uniq.groupby(None).aggregate(
            Count(on=column, alias_name=out))
    res = uniq.groupby(gkeys).aggregate(
        Count(on=column, alias_name=out))
    return res.map_batches(_restore, batch_format="pyarrow")


def _int64_zone_value(v: int, target: pa.DataType) -> pa.Array:
    """One physical-int64 zone bound as a 1-element array of the
    column's logical type (the unit `compute_zones` recorded it in)."""
    arr = pa.array([v], pa.int64())
    try:
        return arr.cast(target)
    except pa.ArrowNotImplementedError:
        # date32 and friends only cast from their exact-width int
        return arr.cast(pa.int32()).cast(target)


def _agg_from_manifests(store_dir: str, aggs: dict):
    """Unfiltered, ungrouped COUNT(*)/MIN/MAX answered purely from the
    per-partition lineage manifests — zero part-file reads of any kind
    (the zone maps are EXACT per-part min/max, not sketches).  Returns
    a one-row ``pa.Table`` typed like the scan path, or None when the
    metadata cannot prove the answer (a part without a manifest, a
    column some part did not zone-map — e.g. long strings, uint64,
    all-null parts — or a SUM / non-null COUNT, which manifests don't
    record): the caller falls back to the encoded-domain scan."""
    from ..state.manifest import Manifest

    for spec in aggs.values():
        if spec[0] == "sum" or (spec[0] == "count" and len(spec) > 1):
            return None
    man = Manifest(store_dir)
    done = man.done_parts()
    ids = []
    for path in part_files(store_dir):
        pid = part_id(path)
        if pid not in done:
            return None  # unmanifested part: metadata can't speak for it
        ids.append(pid)
    mans = [man.load(p) for p in sorted(ids)] if ids else \
        [man.load(p) for p in sorted(done)]
    if not mans:
        return None
    need = {spec[1] for spec in aggs.values() if spec[0] in ("min", "max")}
    rows = 0
    zlo: dict[str, object] = {}
    zhi: dict[str, object] = {}
    kind: dict[str, dict] = {}
    for m in mans:
        if "rows" not in m:
            return None
        rows += int(m["rows"])
        zones = m.get("zones") or {}
        for col in need:
            z = zones.get(col)
            if z is None or (col in kind and
                             kind[col]["kind"] != z["kind"]):
                return None  # un-mapped part could hold the true extreme
            kind.setdefault(col, z)
            zlo[col] = z["min"] if col not in zlo else min(zlo[col],
                                                           z["min"])
            zhi[col] = z["max"] if col not in zhi else max(zhi[col],
                                                           z["max"])
    schema = encoded_schema(store_dir) if need else None
    cols = {}
    for out, spec in aggs.items():
        if spec[0] == "count":
            cols[out] = pa.array([rows], pa.int64())
            continue
        col = spec[1]
        v = zlo[col] if spec[0] == "min" else zhi[col]
        z = kind[col]
        if col in schema.names:
            target = schema.field(col).type
        elif z["kind"] == "i64" and z.get("dt"):
            # part files gone (metadata-only store): the zone itself
            # recorded the logical type it was measured in
            from ..codecs.base import str_to_type
            target = str_to_type(z["dt"])
        else:
            target = pa.float64() if z["kind"] == "f64" else pa.string()
        if z["kind"] == "i64":
            cols[out] = _int64_zone_value(int(v), target)
        else:  # "f64" / "str": zone stores the logical value directly
            cols[out] = pa.array([v], type=target)
    return pa.table(cols)


class _DistinctPart:
    """Task: distinct values of one column within one encoded part.

    dict-codec blocks answer from their dictionary alone — the vocab
    IS the part's distinct non-null set (``pc.dictionary_encode``
    built it from the part's values), so no row decodes and no take
    gather happen; a non-empty validity bitmap contributes the null.
    Other codecs decode the single column and ``pc.unique`` it.
    Emits O(distinct-per-part) rows; ``distinct_encoded`` merges
    them."""

    def __init__(self, column: str, dtype: pa.DataType):
        self.column = column
        self.dtype = dtype

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..codecs import decode_any
        from ..codecs.base import str_to_type
        from ..codecs.dictionary import ipc_deserialize_array
        outs = []
        for p in batch.column("path").to_pylist():
            for enc in read_blocks(p, [self.column]).values():
                if enc.codec == "dict":
                    vals = ipc_deserialize_array(enc.buffers["aux"])
                    dt = enc.params.get("dtype")
                    if dt is not None:
                        vals = vals.cast(str_to_type(dt))
                    if isinstance(vals, pa.ChunkedArray):
                        vals = vals.combine_chunks()
                    if enc.buffers.get("validity", b""):
                        vals = pa.concat_arrays(
                            [vals, pa.nulls(1, vals.type)])
                else:
                    arr = decode_any(enc)
                    if isinstance(arr, pa.ChunkedArray):
                        arr = arr.combine_chunks()
                    vals = pc.unique(arr)
                outs.append(pa.table({self.column: vals}))
        if not outs:
            return pa.table({self.column: pa.array([], self.dtype)})
        return pa.concat_tables(outs, promote_options="permissive")


def distinct_encoded(store_dir: str, column: str) -> "rd.Dataset":
    """SELECT DISTINCT ``column`` over the encoded store.

    Per-part distinct sets come from the encoded domain (dict blocks:
    the dictionary itself, zero value decodes — see ``_DistinctPart``)
    through ``plan.execute``.  An in-process plan merges them with one
    ``pa.Table.group_by`` and returns a :class:`LocalDataset`;
    otherwise ONE distributed groupby merges them and the answer is a
    lazy ``ray.data.Dataset``, so driver state is never O(distinct).
    Either way one column, sorted by value."""
    from ray.data.aggregate import Count
    schema = encoded_schema(store_dir)
    if column not in schema.names:
        raise ValueError(f"unknown column {column!r}; store has "
                         f"{schema.names}")
    res = execute(plan(store_dir, []),
                  _DistinctPart(column, schema.field(column).type))
    if isinstance(res, pa.Table):
        return LocalDataset(res.group_by(column, use_threads=False)
                            .aggregate([]).sort_by(column))
    return res.groupby(column).aggregate(Count()) \
        .select_columns([column])


# ---------------------------------------------------------------------------
# ORDER BY ... LIMIT k pushdown
# ---------------------------------------------------------------------------

class _TopKPart:
    """Per-part local top-k: decode only the sort keys + projection,
    drop rows with a null sort key (``ORDER BY ... LIMIT`` semantics —
    nulls sort last and never enter a top-k smaller than the non-null
    count), keep the k best rows by the multi-key sort.  Each task
    emits ≤k rows, so the driver merge is O(parts_scanned × k), never
    O(rows) — the same contract as the other store-scan tasks."""

    def __init__(self, keys: list[str], k: int, descending: bool,
                 out_columns: list[str],
                 expect_dtypes: dict | None = None):
        self.keys = keys
        self.k = k
        self.order = "descending" if descending else "ascending"
        self.need = sorted(set(keys) | set(out_columns))
        # col -> dtype string from encoded_schema: a part whose block
        # stamps a DIFFERENT logical type holds another table under
        # the same column name — skip it (its rows aren't comparable
        # or concatenatable with the declared schema's)
        self.expect_dtypes = expect_dtypes or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        from ..codecs import decode_any
        outs = []
        for p in batch.column("path").to_pylist():
            hit = part_mask(p, [], "and", self.need)
            if hit is None:
                continue  # heterogeneous store: part holds another table
            enc_of = hit[0]
            if any(enc_of[c].params.get("dtype") not in
                   (None, self.expect_dtypes.get(c))
                   for c in self.need if c in self.expect_dtypes):
                continue  # same name, different logical type
            t = pa.table({n: decode_any(enc_of[n]) for n in self.need})
            mask = None
            for kc in self.keys:
                m = pc.is_valid(t.column(kc))
                mask = m if mask is None else pc.and_(mask, m)
            t = t.filter(mask)
            if t.num_rows == 0:
                continue
            idx = pc.sort_indices(
                t, sort_keys=[(kc, self.order) for kc in self.keys])
            outs.append(t.take(idx.slice(0, self.k)))
        if not outs:
            # empty blocks yield no batches downstream; types here are
            # placeholders that never meet a non-empty block's schema
            return pa.table({n: pa.array([], type=pa.string())
                             for n in self.need})
        return pa.concat_tables(outs)


def topk_encoded(store_dir: str, keys, k: int, *,
                 descending: bool = False,
                 columns: list[str] | None = None,
                 return_stats: bool = False):
    """``SELECT <columns> ORDER BY <keys> [DESC] LIMIT k`` over the
    encoded store, zone-map-driven: rows with a null sort key are
    excluded (they sort after any top-k of non-null rows).

    Two-wave scan.  Wave 1 orders parts by their manifest zone's best
    possible key value and scans the minimal prefix whose manifest
    row/null counts GUARANTEE ≥k candidate rows (parts without a zone
    on the primary key always scan — pruning is never lossy).  The kth
    candidate's key is then a proven threshold: wave 2 scans only the
    remaining parts whose zone could still beat it.  On a store
    clustered on ``keys[0]`` (``cluster_store``) this reads O(1) parts;
    on arrival-ordered stores it degrades gracefully toward a full
    scan, still returning ≤k rows per task.

    ``keys`` is a column name or list (lexicographic; one direction for
    all keys, matching ``ORDER BY a, b`` / ``ORDER BY a DESC, b DESC``).
    Returns a ``pyarrow.Table`` (the result is ≤k rows — driver-sized
    by definition); with ``return_stats=True``, ``(table, stats)``."""
    import pyarrow.compute as pc
    from .plan import _zone_bounds
    keys = [keys] if isinstance(keys, str) else list(keys)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    schema = encoded_schema(store_dir)
    out_columns = list(columns) if columns is not None else \
        list(schema.names)
    unknown = [c for c in {*keys, *out_columns} if c not in schema.names]
    if unknown:
        raise ValueError(f"unknown column(s) {sorted(unknown)}; "
                         f"store has {sorted(schema.names)}")
    key0 = keys[0]
    p_all = plan(store_dir, [], "and")
    parts = []
    for f in p_all.parts:
        m = p_all.manifests.get(f) or {}
        parts.append({
            "path": f,
            "zone": (m.get("zones") or {}).get(key0),
            "rows": m.get("rows"),
            "nulls": m["nulls"].get(key0, 0) if "nulls" in m else None})

    def empty():
        return pa.table({n: pa.array([], type=schema.field(n).type)
                         for n in out_columns})

    if not parts:
        out = empty()
        stats = {"parts_total": 0, "parts_scanned": 0}
        return (out, stats) if return_stats else out

    must = [p for p in parts if p["zone"] is None]
    known = [p for p in parts if p["zone"] is not None]
    kinds = {p["zone"]["kind"] for p in known}
    if len(kinds) > 1:
        # heterogeneous store: zone kinds aren't mutually ordered —
        # degrade to scanning everything (each task still emits ≤k)
        must, known = parts, []
    else:
        known.sort(key=lambda p: p["zone"]["max" if descending
                                           else "min"],
                   reverse=descending)
    from ..codecs.base import type_to_str
    expect = {c: type_to_str(schema.field(c).type)
              for c in {*keys, *out_columns}}
    task = _TopKPart(keys, k, descending, out_columns, expect)

    def scan(ps: list[dict]):
        return collect(execute(p_all.restrict([p["path"] for p in ps]),
                               task))

    def guaranteed(p: dict) -> int:
        if p["rows"] is None or p["nulls"] is None:
            return 0  # pre-null-aware manifest: no non-null guarantee
        return max(p["rows"] - p["nulls"], 0)

    # wave 1: zone-less parts (must scan) + minimal zone-ordered prefix
    wave = list(must)
    need = k - sum(guaranteed(p) for p in must)
    i = 0
    while i < len(known) and need > 0:
        wave.append(known[i])
        need -= guaranteed(known[i])
        i += 1
    cands = scan(wave)
    scanned = len(wave)
    # correctness net for stores whose manifests lack row/null counts:
    # keep extending in zone order until k candidates are in hand
    while (cands is None or cands.num_rows < k) and i < len(known):
        nxt = known[i:i + max(len(wave), 8)]
        i += len(nxt)
        scanned += len(nxt)
        more = scan(nxt)
        if more is not None:
            cands = more if cands is None \
                else pa.concat_tables([cands, more])
    if cands is None or cands.num_rows == 0:
        out = empty()
        stats = {"parts_total": len(parts), "parts_scanned": scanned}
        return (out, stats) if return_stats else out

    sort_keys = [(kc, "descending" if descending else "ascending")
                 for kc in keys]
    idx = pc.sort_indices(cands, sort_keys=sort_keys)
    cands = cands.take(idx)
    tau = cands.column(key0)[min(k, cands.num_rows) - 1].as_py()

    # wave 2: remaining parts whose zone could still beat the kth key
    # (ties included — a later sort key can break them into the top-k)
    wave2 = []
    for p in known[i:]:
        b = _zone_bounds(key0, tau, tau, p["zone"])
        if b is None:
            wave2.append(p)  # threshold not comparable: cannot prune
            continue
        best = p["zone"]["max" if descending else "min"]
        if (best >= b[0]) if descending else (best <= b[0]):
            wave2.append(p)
    more = scan(wave2)
    scanned += len(wave2)
    if more is not None and more.num_rows:
        cands = pa.concat_tables([cands, more])
        cands = cands.take(pc.sort_indices(cands, sort_keys=sort_keys))
    out = cands.slice(0, k).select(out_columns)
    stats = {"parts_total": len(parts), "parts_scanned": scanned,
             "candidate_rows": cands.num_rows}
    return (out, stats) if return_stats else out


# ---------------------------------------------------------------------------
# deterministic Bernoulli sample
# ---------------------------------------------------------------------------

class _SamplePart:
    """Per-part deterministic Bernoulli sample: keep row i of part p iff
    splitmix64(seed ⊕ hash(p) ⊕ i) < fraction·2⁶⁴.  Pure function of
    (seed, part id, row index) — no coordination, no RNG state, the
    same rows come back on every run and on any cluster size."""

    def __init__(self, fraction: float, seed: int,
                 out_columns: list[str],
                 out_schema: pa.Schema | None = None):
        self.fraction = fraction
        self.seed = seed
        self.out_columns = out_columns
        # logical types for the zero-match fallback block: an untyped
        # (string) empty block mixed with real-typed blocks breaks
        # schema unification downstream — sample_encoded hands the
        # Dataset straight to callers, so the fallback must carry the
        # store's real field types
        self.out_schema = out_schema

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        from ..codecs import decode_any
        from ..functions.text import _splitmix64
        # clamp: fraction*2^64 at 1.0 overflows uint64, and a <-compare
        # against 2^64-1 would still drop the one-in-2^64 max hash —
        # treat fraction >= 1 as keep-everything exactly
        keep_all = self.fraction >= 1.0
        thresh = np.uint64(0) if keep_all else \
            np.uint64(min(int(self.fraction * 2.0**64), 2**64 - 1))
        outs = []
        for p in batch.column("path").to_pylist():
            pid = part_id(p) or os.path.basename(p)
            hit = part_mask(p, [], "and", self.out_columns)
            if hit is None:
                continue  # heterogeneous store: part holds another table
            enc_of = hit[0]
            n = next(iter(enc_of.values())).n_values
            pid_h = np.uint64(
                int.from_bytes(pid.encode()[-8:].rjust(8, b"\0"),
                               "big"))
            idx = np.arange(n, dtype=np.uint64)
            if keep_all:
                keep = idx.astype(np.int64)
            else:
                h = _splitmix64(idx ^ np.uint64(self.seed) ^ pid_h)
                keep = np.flatnonzero(h < thresh)
            if not len(keep):
                continue
            sel = pa.array(keep)
            outs.append(pa.table({c: decode_any(enc_of[c]).take(sel)
                                  for c in self.out_columns}))
        if not outs:
            return empty_block(self.out_columns, self.out_schema)
        return pa.concat_tables(outs)


def sample_encoded(store_dir: str, fraction: float, *,
                   seed: int = 0,
                   columns: list[str] | None = None) -> "rd.Dataset":
    """Deterministic Bernoulli row sample of the store: every row kept
    independently with probability ``fraction``, decided by a pure
    hash of (seed, part id, row index) — reproducible across runs and
    cluster sizes, streaming, no shuffle, only the projected columns
    of kept rows decode.  Returns a
    :class:`~packcol.sources.plan.LocalDataset` when the plan ran
    in-process (``plan.execute``; always for an empty store or
    ``fraction`` 0, which scan no part), else a lazy streaming
    Dataset."""
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    schema = encoded_schema(store_dir)
    out_columns = list(columns) if columns is not None else \
        list(schema.names)
    unknown = [c for c in out_columns if c not in schema.names]
    if unknown:
        raise ValueError(f"unknown column(s) {unknown}; "
                         f"store has {sorted(schema.names)}")
    p = plan(store_dir, [])
    if fraction == 0.0:
        p = p.restrict([])
    out_schema = pa.schema([schema.field(c) for c in out_columns])
    return as_dataset(execute(
        p, _SamplePart(fraction, seed, out_columns, out_schema)))


class _KMVPart:
    """Task: per-part bottom-k DISTINCT value hashes — the map side of
    the KMV (k-minimum-values) distinct-count sketch.

    Encoded-domain win: an UNFILTERED dict-codec part answers from its
    VOCABULARY alone (the vocab IS the part's distinct set) — zero row
    decodes; other codecs / filtered scans decode the masked rows and
    hash-unique them.  Emits ≤ k uint64 rows per part."""

    def __init__(self, column: str, k: int, preds: list[tuple],
                 mode: str = "and", probes: list | None = None):
        self.column = column
        self.k = k
        self.preds = preds
        self.mode = mode
        self.probes = probes

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        from ..codecs import decode_any
        from ..codecs.dictionary import ipc_deserialize_array
        from ..stages.profile import value_hashes

        outs = []
        for p in batch.column("path").to_pylist():
            hit = part_mask(p, self.preds, self.mode, [self.column],
                            probes=self.probes)
            if hit is None:
                continue
            enc_of, mask = hit
            venc = enc_of[self.column]
            if mask is None and venc.codec == "dict":
                vals = ipc_deserialize_array(venc.buffers["aux"])
                hs = value_hashes(vals)  # vocab only — no row decode
            else:
                arr = decode_any(venc)
                if mask is not None:
                    arr = arr.take(pa.array(np.flatnonzero(mask)))
                hs = value_hashes(arr)
            if len(hs) == 0:
                continue
            hs = np.unique(hs)[:self.k]
            outs.append(pa.table({"h": pa.array(hs.view(np.int64))}))
        if not outs:
            return pa.table({"h": pa.array([], pa.int64())})
        return pa.concat_tables(outs)


def approx_distinct_encoded(store_dir: str, column: str, *,
                            k: int = 1024,
                            filter: tuple | None = None,
                            filter_any: list | None = None,
                            fanin: int = 32) -> dict:
    """Approximate COUNT(DISTINCT column) over the encoded store with
    a KMV (bottom-k hash) sketch — the sub-second path for
    ultra-high-cardinality columns where the exact
    ``count_distinct_encoded`` would shuffle the full distinct set.

    Shape mirrors the KLL tree merge: per-part bottom-k distinct
    hashes (dict parts hash their VOCAB — zero row decodes) →
    ``repartition(fanin)`` block merges → driver union of ≤ fanin
    bottom-k lists, O(k × fanin) driver rows regardless of store size.
    A plan that runs in-process (``plan.execute``) unions its per-part
    lists on the driver directly.

    EXACT when the true distinct count is < k (every distinct hash was
    collected; ``exact=True`` in the result); beyond that the standard
    KMV estimate (k-1)·2⁶⁴/h₍ₖ₎ with relative error ≈ 1/√(k-2)
    (~3.2% at k=1024).  Returns {n_distinct, exact, k}."""
    import numpy as np
    preds, mode = parse_filter(filter, filter_any)
    p = plan(store_dir, preds, mode)

    def merge_block(batch: pa.Table) -> pa.Table:
        h = batch.column("h")
        if isinstance(h, pa.ChunkedArray):
            h = h.combine_chunks()
        v = np.unique(h.to_numpy(zero_copy_only=False)
                      .view(np.uint64))[:k]
        return pa.table({"h": pa.array(v.view(np.int64))})

    rows = execute(p, _KMVPart(column, k, preds, mode,
                               probes=p.task_probes))
    if not isinstance(rows, pa.Table):
        rows = rows.repartition(fanin).map_batches(
            merge_block, batch_size=None, batch_format="pyarrow")
    rows = collect(rows)
    if rows is None:
        return {"n_distinct": 0, "exact": True, "k": k}
    hs = np.unique(rows.column("h").to_numpy().view(np.uint64))
    if len(hs) < k:
        return {"n_distinct": int(len(hs)), "exact": True, "k": k}
    kth = float(hs[k - 1])
    return {"n_distinct": int(round((k - 1) * (2.0 ** 64) / kth)),
            "exact": False, "k": k}


def query(store_dir: str, *, columns: list[str] | None = None,
          where=None, where_any=None, group_by: str | None = None,
          aggs: dict | None = None, order_by=None,
          descending: bool = False, limit: int | None = None):
    """One SELECT-shaped entry point over the encoded store that plans
    into the narrowest pushdown primitive:

    * ``aggs`` → ``agg_encoded`` (zone/bloom part pruning, packed-code
      predicates, dict-code grouping, metadata-only MIN/MAX/COUNT when
      unfiltered); ``order_by``/``limit`` then apply to the small
      aggregated result.
    * ``order_by + limit`` without a filter → ``topk_encoded`` (the
      two-wave zone-pruned top-k; each task emits ≤ limit rows).
    * anything else → ``read_encoded`` (projection + predicate
      pushdown, LIMIT plan pruning), with an optional post-filter
      ``Dataset.sort`` when ``order_by`` is combined with a filter
      (documented: the sort runs on the filtered subset — pushdown
      first, then the one inherent all-to-all).

    The translation is exactly what a user would hand-write; this
    wrapper exists so callers porting SQL-ish pipelines hit the right
    physical plan by default.  Returns what the primitive returns: a
    :class:`~packcol.sources.plan.LocalDataset` for aggregates and
    in-process filtered reads (an ``order_by`` then sorts its driver
    table in-process, with Ray's block-sort kernel), the top-k's
    ``pa.Table``, else a lazy ``ray.data.Dataset``.
    """
    order_keys = [order_by] if isinstance(order_by, str) \
        else list(order_by or [])
    if aggs:
        res = agg_encoded(store_dir, group_by=group_by, aggs=aggs,
                          filter=where, filter_any=where_any)
        if order_keys:
            res = res.sort(order_keys, descending=descending)
        return res.limit(limit) if limit is not None else res
    if group_by is not None:
        raise ValueError("group_by requires aggs")
    if order_keys and limit is not None and where is None \
            and where_any is None:
        return topk_encoded(store_dir, order_keys, limit,
                            descending=descending, columns=columns)
    ds = read_encoded(store_dir, columns=columns, filter=where,
                      filter_any=where_any,
                      limit=None if order_keys else limit)
    if order_keys:
        ds = ds.sort(order_keys, descending=descending)
        if limit is not None:
            ds = ds.limit(limit)
    return ds


def explain_scan(store_dir: str, *, filter=None, filter_any=None,
                 columns: list[str] | None = None) -> dict:
    """Planner transparency: the plan a filtered scan executes, from
    metadata alone (zero payload bytes).  Per predicate: the zone-map
    survivor count; then the survivors of the combined zone tests, the
    bloom-sidecar prune on them, and the row upper bound of the parts
    left, from their manifest row counts; the planned bytes and the
    executor they choose ("local": in-process, or "ray").  The numbers
    a user needs to see whether their layout (cluster_store /
    zorder_store / blooms) is actually pruning — and what
    `read_encoded`/`agg_encoded`/`count_encoded` will schedule."""
    return {**plan(store_dir, *parse_filter(filter, filter_any)).record,
            "columns": columns}


def _agg_finest(store_dir: str, group_by: list[str], aggs: dict,
                filter, filter_any):
    """The finest level of ROLLUP / GROUPING SETS / CUBE: ``aggs``
    grouped by every column of ``group_by``, from one encoded-domain
    scan (``_agg_merged``; a null key forms a group, as in SQL).  Only decomposable aggregates (count / sum / min / max): AVG does
    not re-aggregate from ratios.  Returns pandas."""
    for out, spec in aggs.items():
        if spec[0] not in _MERGE:
            raise ValueError(
                f"{out}: rollup needs a decomposable aggregate "
                f"(count/sum/min/max), got {spec[0]!r} — decompose avg "
                "into sum + count")
    if not group_by:
        raise ValueError("rollup needs at least one group column")
    return _agg_merged(store_dir, group_by, aggs,
                       *parse_filter(filter, filter_any)).to_pandas()


def _reaggregate(df, keys: list[str], group_by: list[str], aggs: dict):
    """``df`` (a finer level) re-aggregated by ``keys``; the other
    ``group_by`` slots are NULL, SQL's marker for a rolled-up key."""
    import pandas as pd
    spec_map = {out: _MERGE[spec[0]] for out, spec in aggs.items()}
    if keys:
        sub = df.groupby(keys, dropna=False, as_index=False).agg(spec_map)
    else:
        sub = pd.DataFrame([{out: getattr(df[out], fn)()
                             for out, fn in spec_map.items()}])
    for c in group_by:
        if c not in keys:
            sub[c] = None
    return sub[[*group_by, *aggs.keys()]]


def agg_encoded_rollup(store_dir: str, group_by: list[str], aggs: dict,
                       filter: tuple | None = None,
                       filter_any: list | None = None):
    """SQL ``GROUP BY ROLLUP(a, b, ...)`` over the encoded store with
    ONE scan: the finest level is ``_agg_finest`` (zone/bloom pruning,
    packed-code predicates, dict-code grouping), and every coarser
    subtotal level re-aggregates the finest RESULT — O(groups) rows,
    never the data.  Rolled-up key slots are NULL, matching SQL's
    marker convention.

    Only decomposable aggregates (count / sum / min / max) are
    accepted: AVG does not re-aggregate from ratios — decompose it
    into sum + count and take the ratio downstream.  Returns pandas
    with columns [group_by..., *aggs] (the grand total row has every
    key NULL)."""
    import pandas as pd
    group_by = list(group_by)
    levels = [_agg_finest(store_dir, group_by, aggs, filter, filter_any)]
    for depth in range(len(group_by) - 1, -1, -1):
        # each level from the previous one: O(groups), never the data
        levels.append(_reaggregate(levels[-1], group_by[:depth],
                                   group_by, aggs))
    return pd.concat(levels, ignore_index=True)


def agg_encoded_grouping_sets(store_dir: str, group_by: list[str],
                              sets: list[tuple], aggs: dict,
                              filter: tuple | None = None,
                              filter_any: list | None = None):
    """SQL ``GROUP BY GROUPING SETS`` / ``CUBE`` over the encoded
    store, still ONE data scan: every requested set is a subset of
    ``group_by``, so it re-aggregates from the finest level's
    O(groups) rows (decomposable aggregates only — the same contract
    as ``agg_encoded_rollup``, which is the prefix-sets special
    case)."""
    import pandas as pd
    group_by = list(group_by)
    sets = [tuple(s_) for s_ in sets]
    for s_ in sets:
        if not set(s_) <= set(group_by):
            raise ValueError(f"grouping set {s_} is not a subset of "
                             f"{group_by}")
    finest = _agg_finest(store_dir, group_by, aggs, filter, filter_any)
    return pd.concat(
        [_reaggregate(finest, [c for c in group_by if c in s_],
                      group_by, aggs) for s_ in sets],
        ignore_index=True)


def agg_encoded_cube(store_dir: str, group_by: list[str], aggs: dict,
                     filter: tuple | None = None,
                     filter_any: list | None = None):
    """SQL ``GROUP BY CUBE``: all 2^k subsets as grouping sets."""
    from itertools import chain, combinations
    sets = list(chain.from_iterable(
        combinations(group_by, r) for r in range(len(group_by), -1, -1)))
    return agg_encoded_grouping_sets(store_dir, group_by, sets, aggs,
                                     filter=filter,
                                     filter_any=filter_any)
