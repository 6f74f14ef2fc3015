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
  dictionary codes / FSST compressed bytes (``codecs/access.py``), and
  the projected columns decode at the matching rows through
  ``codecs.take_any`` (an fsst block expands only those rows).

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

Point predicates (eq / in) additionally prune via the per-part key
sets the manifests hold (state/bloom.py) — the path that makes a
``url == x`` lookup on an arrival-ordered store O(matching parts),
since url zones don't exist (long-string columns are not zone-mapped).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

import ray.data as rd

from .plan import (LocalDataset, ScanPart, as_dataset, collect, empty_block,
                   execute, parse_filter, part_id, plan, read_part)


def encoded_schema(store_dir: str) -> pa.Schema:
    """Logical schema of the decoded table, read from the stored
    per-block params (metadata-only columns of the committed parts;
    payloads are never touched): part by part, until the fields cover
    every column the manifests' ``codecs`` name, so a homogeneous store
    reads one part and a heterogeneous one as many as its tables
    need."""
    from ..codecs.base import str_to_type
    p = plan(store_dir, [])
    want = {c for m in p.manifests.values() for c in m["codecs"]}
    fields: dict[str, pa.DataType] = {}
    for path in p.listed:
        if want <= fields.keys():
            break
        meta = read_part(path, fields=["column", "params"])
        for name, params in zip(meta.column("column").to_pylist(),
                                meta.column("params").to_pylist()):
            if name not in fields:
                prm = json.loads(params)
                if prm.get("dtype") is not None:
                    fields[name] = str_to_type(prm["dtype"])
                elif prm.get("dtype_ipc"):  # nested logical types
                    sch = pa.ipc.read_schema(pa.BufferReader(
                        bytes.fromhex(prm["dtype_ipc"])))
                    fields[name] = sch.field(0).type
    return pa.schema(sorted(fields.items()))


def _projection(schema: pa.Schema, columns, *also) -> list[str]:
    """The columns a read returns: ``columns``, or every column of
    ``schema`` when None.  Raises ValueError when it or ``also`` (sort
    keys, a DISTINCT column) names a column the store lacks — the
    per-part scans would otherwise drop it or match no part — and on
    an empty ``columns``, which would return rows without columns."""
    out = list(schema.names) if columns is None else list(columns)
    unknown = [c for c in dict.fromkeys([*also, *out])
               if c not in schema.names]
    if unknown:
        raise ValueError(f"unknown column(s) {unknown}; "
                         f"store has {sorted(schema.names)}")
    if columns is not None and not out:
        raise ValueError("empty projection: name at least one column, "
                         "or pass columns=None for every column")
    return out


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
    out_columns = columns if schema is None else \
        _projection(schema, columns)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if not preds:
        ds = decode_files(store_dir, columns=out_columns, limit=limit)
        return ds.limit(limit) if limit is not None else ds
    if not out_columns:
        raise ValueError(f"no encoded parts found in {store_dir}")
    out_schema = pa.schema([schema.field(c) for c in out_columns])
    p = plan(store_dir, preds, mode)
    ds = as_dataset(execute(p, EncodedFilterPart(
        preds, out_columns, mode, schema=out_schema)))
    return ds.limit(limit) if limit is not None else ds


def store_stats(store_dir: str) -> dict:
    """Metadata-only store summary from the per-partition lineage
    manifests — zero payload bytes read, O(parts) tiny JSON.  This is
    the 100 TB answer to "how big / what codecs / what ranges": the
    same manifests that make encodes resumable double as the store's
    statistics catalog (rows, logical/encoded bytes, per-column codec
    histogram, global zone spans).  It always answers from the
    manifests; only ``disk_bytes`` stats the part files.  The
    manifests' per-part value counts (``"values"``) are not summarized
    here: ``count_encoded`` / ``agg_encoded`` answer from them."""
    p = plan(store_dir, [])
    mans = [p.manifests[f] for f in p.listed]
    codec_hist: dict[str, dict[str, int]] = {}
    zones: dict[str, dict] = {}
    key_parts: dict[str, int] = {}
    rows = orig = enc = 0
    for m in mans:
        rows += m["rows"]
        orig += m["orig_bytes"]
        enc += m["enc_bytes"]
        for col, codec in m["codecs"].items():
            codec_hist.setdefault(col, {})
            codec_hist[col][codec] = codec_hist[col].get(codec, 0) + 1
        for col in m["keys"]:
            key_parts[col] = key_parts.get(col, 0) + 1
        for col, z in m["zones"].items():
            cur = zones.get(col)
            if cur is None:
                zones[col] = dict(z)
            elif cur["kind"] == z["kind"]:
                cur["min"] = min(cur["min"], z["min"])
                cur["max"] = max(cur["max"], z["max"])
    disk = sum(os.path.getsize(f) for f in p.listed)
    return {"parts": len(mans), "rows": rows, "orig_bytes": orig,
            "enc_bytes": enc, "disk_bytes": disk,
            "ratio": round(orig / enc, 4) if enc else None,
            "codecs": codec_hist, "zones": zones,
            "keys": key_parts}


class _CountPart(ScanPart):
    """Task: matching-row COUNT of encoded parts — evaluates the
    predicates on packed codes (``part_mask``) and never decodes any
    values.  Selective counts at open scale read only the filter
    columns' blocks of the plan's parts."""

    def reduce(self, enc_of, mask, path):
        return pa.table({"n": pa.array([int(mask.sum())], pa.int64())})

    def empty(self):
        return pa.table({"n": pa.array([], pa.int64())})


def count_encoded(store_dir: str, filter: tuple | None = None,
                  filter_any: list | None = None) -> int:
    """COUNT over the encoded store.

    Without a filter this is pure metadata: the sum of the manifest
    row counts.
    With ``filter`` (AND) / ``filter_any`` (OR), the manifests' zone
    maps, value counts and key sets prune parts driver-side (``plan``).  When every
    predicate is an eq / IN / isnull / notnull on one and the same
    column whose per-part value counts every kept part's manifest
    records (``"values"``), the count is their sum and no part is
    read (``_agg_from_manifests``).  Otherwise the kept parts
    mask-sum on packed codes without decoding, and the per-part
    counts sum on the driver."""
    import pyarrow.compute as pc
    preds, mode = parse_filter(filter, filter_any)
    p = plan(store_dir, preds, mode)
    if not preds:
        return sum(p.manifests[f]["rows"] for f in p.parts)
    fast = _agg_from_manifests(store_dir, {"n": ("count",)}, p=p)
    if fast is not None:
        return int(fast.column("n")[0].as_py())
    n = collect(execute(p, _CountPart(preds, mode)))
    return 0 if n is None else int(pc.sum(n.column("n")).as_py())


def _decode_at(enc, sel):
    """The rows ``sel`` (a row-index array) of a block, or all of them
    when ``sel`` is None (a part scan without predicates)."""
    from ..codecs import decode_any, take_any
    return decode_any(enc) if sel is None else take_any(enc, sel)


class _AggPart(ScanPart):
    """Task: grouped partial aggregates of one encoded part.

    The encoded-domain wins, in priority order:

    * predicate masks evaluate on packed codes (never decode the
      filter columns);
    * a dict or rle group column groups on its row codes
      (``codecs/access.py::_code_domain``; code -1 is the NULL group)
      — only the groups' values decode (late materialization:
      O(groups) string decodes, not O(rows));
    * count-only aggregates decode no value column at all.

    ``keys`` are the group columns, [] for a global aggregate.  Emits
    one partial row per (part, group): ``{*keys, __p__<out>...}``;
    ``_agg_merged`` merges them on the driver."""

    def __init__(self, keys: list[str], aggs: dict,
                 preds: list[tuple], mode: str = "and"):
        self.keys = list(keys)
        self.aggs = aggs          # {out: ("count",) | (fn, col)}
        self.val_cols = sorted({s[1] for s in aggs.values() if len(s) > 1})
        # pyarrow group_by aggregation specs (deduped) + the result
        # column each output draws from
        self.specs, self.src = [], {}
        for out, spec in aggs.items():
            if spec[0] == "count" and len(spec) == 1:
                s, name = ([], "count_all"), "count_all"
            else:
                s, name = (spec[1], spec[0]), f"{spec[1]}_{spec[0]}"
            if s not in self.specs:
                self.specs.append(s)
            self.src[out] = name
        super().__init__(preds, mode,
                         sorted(set(self.val_cols) | set(self.keys)))

    def reduce(self, enc_of, mask, path):
        import numpy as np
        from ..codecs.access import _code_domain
        from ..codecs.base import str_to_type
        sel = np.flatnonzero(mask) if mask is not None else None
        # group keys: a dict / rle key groups on its row codes
        # (-1: NULL) and decodes only the groups it returns
        cols, mappings, out_types = {}, {}, {}
        if not self.keys:
            # any present block carries the part's row count (an
            # OR-mode pred column may be absent from this part; a bare
            # COUNT(*) is the manifests' answer and never scans)
            n = next(iter(enc_of.values())).n_values
            cols["__g"] = pa.array(np.zeros(
                n if sel is None else len(sel), dtype=np.int64))
        for i, key in enumerate(self.keys):
            genc = enc_of[key]
            dt = genc.params.get("dtype")
            if dt is not None:
                out_types[key] = str_to_type(dt)
            cd = _code_domain(genc)
            if cd is None:
                cols[f"__g{i}"] = _decode_at(genc, sel)
                continue
            codes, mappings[i] = cd
            cols[f"__g{i}"] = pa.array(codes if sel is None else codes[sel])
        gcols = list(cols)
        for c in self.val_cols:
            cols[c] = _decode_at(enc_of[c], sel)
        part = pa.table(cols).group_by(gcols).aggregate(self.specs)
        for i, mapping in mappings.items():
            name, key = f"__g{i}", self.keys[i]
            codes = part.column(name).to_numpy()
            vals = mapping.take(pa.array(codes, mask=codes < 0))
            part = part.set_column(
                part.schema.get_field_index(name), name,
                vals.cast(out_types.get(key, vals.type)))
        return pa.table({
            **{key: part.column(f"__g{i}")
               for i, key in enumerate(self.keys)},
            **{f"__p__{out}": part.column(name)
               for out, name in self.src.items()}})

    def empty(self):
        """A partials block with no rows: string keys, int64 counts
        and float64 value aggregates."""
        return pa.table({
            **{key: pa.array([], pa.string()) for key in self.keys},
            **{f"__p__{out}": pa.array(
                [], pa.int64() if spec[0] == "count" else pa.float64())
               for out, spec in self.aggs.items()}})


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

    Two shapes answer from the manifests alone, with no part read
    (``_agg_from_manifests``): an unfiltered, ungrouped COUNT(*) / MIN
    / MAX (row counts and zone maps), and COUNT(*) / COUNT(C) grouped
    by nothing or by C under eq / IN / isnull / notnull predicates on
    that same C, when every kept part records C's value counts (dict /
    rle string columns of at most 64 values per part).  Everything else
    scans: the scan prunes parts via the manifests' zones and key sets when
    ``filter`` is given, evaluates the predicate on packed codes,
    groups dict / rle columns on their row codes (decoding only the
    group values), and skips value decodes entirely for count-only
    aggregates.  The O(parts x groups) partial rows merge on the driver
    with one ``pa.Table.group_by`` on either executor path
    (``plan.execute``); a null key forms a group, as in SQL, and a
    global COUNT over no matching row is 0.

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
    """``aggs`` grouped by ``keys`` ([] for a global aggregate): the
    manifests' answer when they prove it (``_agg_from_manifests``),
    else one ``_AggPart`` scan, its partials merged on the driver by
    one ``pa.Table.group_by`` (a null key forms a group, as in SQL).
    Columns ``[*keys, *aggs]``."""
    p = plan(store_dir, preds, mode)
    fast = _agg_from_manifests(store_dir, aggs, keys, p)
    if fast is not None:
        return fast
    task = _AggPart(keys, aggs, preds, mode)
    parts = execute(p, task)
    if not isinstance(parts, pa.Table):
        parts = collect(parts)
        if parts is None:
            parts = task.empty()
    res = parts.group_by(keys, use_threads=False).aggregate(
        [(f"__p__{out}", _MERGE[spec[0]]) for out, spec in aggs.items()])
    out = {key: res.column(key) for key in keys}
    for name, spec in aggs.items():
        col = res.column(f"__p__{name}_{_MERGE[spec[0]]}")
        # a global COUNT over no matching row is 0, not NULL (SQL)
        out[name] = col.fill_null(0) if spec[0] == "count" else col
    return pa.table(out)


class _DistinctPairsPart(ScanPart):
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
                 preds: list[tuple], mode: str = "and"):
        self.group_by = group_by
        self.column = column
        super().__init__(preds, mode, sorted(
            {column} | ({group_by} if group_by else set())))

    def empty(self) -> pa.Table:
        """A pairs block with no rows (string group and value)."""
        cols = {}
        if self.group_by is not None:
            cols["__gf"] = pa.array([], pa.string())
            cols["__gv"] = pa.array([], pa.bool_())
        cols[self.column] = pa.array([], pa.string())
        return pa.table(cols)

    def reduce(self, enc_of, mask, path):
        import numpy as np
        import pyarrow.compute as pc
        from ..codecs.access import _dict_codes
        from ..codecs.dictionary import ipc_deserialize_array
        sel = np.flatnonzero(mask) if mask is not None else None

        def _col(name):
            """(array-or-codes, mapping): dict codecs without a
            validity bitmap stay as int codes + their vocab."""
            enc = enc_of[name]
            if enc.codec == "dict" and \
                    not enc.buffers.get("validity", b""):
                codes = _dict_codes(enc).astype(np.int64, copy=False)
                arr = pa.array(codes)
                mapping = ipc_deserialize_array(enc.buffers["aux"])
                return (arr.take(sel) if sel is not None else arr,
                        mapping)
            return _decode_at(enc, sel), None

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
            tbl = tbl.filter(pc.is_valid(tbl.column("__v")))
        ded = tbl.group_by(keys).aggregate([])
        out_cols = {}
        if self.group_by is not None:
            g = ded.column("__g")
            if gmap is not None:
                g = gmap.take(g)
            # Ray's sort-based shuffle can't order null keys: ship
            # the group as (filled value, validity bit) and let the
            # caller restore nulls after the merge — SQL GROUP BY
            # keeps the null group
            valid = pc.is_valid(g)
            out_cols["__gf"] = pc.fill_null(g, _null_fill_scalar(g.type))
            out_cols["__gv"] = valid
        v = ded.column("__v")
        out_cols[self.column] = vmap.take(v) if vmap is not None else v
        return pa.table(out_cols)


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
       packed codes after zone/key-set part pruning);
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
    pairs = execute(p, _DistinctPairsPart(group_by, column, preds, mode))
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


def _agg_from_manifests(store_dir: str, aggs: dict, keys=(), p=None):
    """The one metadata answer: ``aggs`` grouped by ``keys`` under the
    predicates of the plan ``p`` (None: unfiltered), from the
    per-partition lineage manifests alone — zero part-file reads of any
    kind.  Two shapes answer; for anything else it returns None and the
    caller takes the encoded-domain scan:

    * unfiltered, ungrouped COUNT(*) / MIN / MAX: the sum of the
      listed parts' manifest row counts and the extremes of their zone
      maps (EXACT per-part min/max, not sketches), from the plan's
      cached manifests.  None when the store has no part, when some
      part did not zone-map a MIN/MAX column (long strings, uint64,
      all-null parts) or for a SUM.
    * COUNT(*) / COUNT(C), grouped by nothing or by C, under
      predicates that are all eq / IN / isnull / notnull on that same
      column C: ``_value_count_answer``.

    Returns a ``pa.Table`` typed like the scan path's answer."""
    p = plan(store_dir, []) if p is None else p
    if keys or p.preds or any(
            s[0] == "count" and len(s) > 1 for s in aggs.values()):
        return _value_count_answer(aggs, list(keys), p)
    if any(spec[0] == "sum" for spec in aggs.values()):
        return None
    mans = [p.manifests[f] for f in p.parts]
    if not mans:
        return None
    need = {spec[1] for spec in aggs.values() if spec[0] in ("min", "max")}
    rows = 0
    zlo: dict[str, object] = {}
    zhi: dict[str, object] = {}
    kind: dict[str, dict] = {}
    for m in mans:
        rows += m["rows"]
        for col in need:
            z = m["zones"].get(col)
            if z is None or (col in kind and
                             kind[col]["kind"] != z["kind"]):
                return None  # un-mapped part could hold the true extreme
            kind.setdefault(col, z)
            zlo[col] = z["min"] if col not in zlo else min(zlo[col],
                                                           z["min"])
            zhi[col] = z["max"] if col not in zhi else max(zhi[col],
                                                           z["max"])
    schema = encoded_schema(store_dir) if need else None
    if need and not need <= set(schema.names):
        return None  # the scan answers, or names the unknown column
    cols = {}
    for out, spec in aggs.items():
        if spec[0] == "count":
            cols[out] = pa.array([rows], pa.int64())
            continue
        col = spec[1]
        v = zlo[col] if spec[0] == "min" else zhi[col]
        z = kind[col]
        target = schema.field(col).type
        if z["kind"] == "i64":
            cols[out] = _int64_zone_value(int(v), target)
        else:  # "f64" / "str": zone stores the logical value directly
            cols[out] = pa.array([v], type=target)
    return pa.table(cols)


def _value_count_answer(aggs: dict, keys: list[str], p):
    """COUNT(*) / COUNT(C), grouped by nothing or by C, under the plan
    ``p``'s predicates when they are all eq / IN / isnull / notnull on
    that same column C (AND intersects their value sets, OR unions
    them): the sum, over the parts the plan keeps, of the exact
    per-part value counts that ``encode_pipeline.write_part`` records
    (manifest key ``"values"``; the NULL count is ``"nulls"``).

    None, so the scan answers, when a kept part's manifest has no
    ``values[C]`` (a column that is not a dict / rle string column of
    at most ``state/manifest.py::_VALUES_MAX`` values), when the shape
    names a second column (marginal counts cannot answer a
    cross-column AND), when an eq / IN value is not a ``str``, or when
    the plan keeps no part.  A manifest can be out of date with its
    part file between a partial rewrite and its re-record
    (``delete_where``), so a concurrent count may see the old counts
    there, as the manifest-row COUNT(*) always could."""
    cols = {c for c, *_ in p.preds} | set(keys) | \
        {s[1] for s in aggs.values() if len(s) > 1}
    if len(cols) != 1 or not p.parts or \
            any(s[0] != "count" for s in aggs.values()) or \
            any(op not in ("eq", "in", "isnull", "notnull")
                for _, op, *_ in p.preds):
        return None
    (col,) = cols
    wanted = []  # per predicate: its value set, or "notnull"
    for _, op, lo, _ in p.preds:
        vals = [lo] if op == "eq" else list(lo) if op == "in" else []
        if not all(isinstance(v, str) for v in vals):
            return None  # the scan gives this value's answer or error
        wanted.append({None} if op == "isnull" else
                      op if op == "notnull" else set(vals))
    total: dict = {}  # value (None: NULL) -> matching rows
    for path in p.parts:
        m = p.manifests[path]
        counts = m["values"].get(col)
        if counts is None:
            return None
        counts = {**counts, None: m["nulls"].get(col, 0)}
        sets = [set(counts) - {None} if w == "notnull" else w
                for w in wanted]
        hit = set(counts) if not sets else \
            set.intersection(*sets) if p.mode == "and" else set.union(*sets)
        for v in counts:  # the manifest's (sorted) order, NULL last
            if v in hit and counts[v]:
                total[v] = total.get(v, 0) + counts[v]

    def n(spec, groups):  # COUNT(C) does not count the NULL group
        return sum(total[g] for g in groups
                   if len(spec) == 1 or g is not None)
    if not keys:
        return pa.table({out: pa.array([n(spec, total)], pa.int64())
                         for out, spec in aggs.items()})
    return pa.table({col: pa.array(list(total), pa.string()),
                     **{out: pa.array([n(spec, [g]) for g in total],
                                      pa.int64())
                        for out, spec in aggs.items()}})


class _DistinctPart(ScanPart):
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
        super().__init__(columns=[column])

    def reduce(self, enc_of, mask, path):
        import pyarrow.compute as pc
        from ..codecs import decode_any
        from ..codecs.base import str_to_type
        from ..codecs.dictionary import ipc_deserialize_array
        enc = enc_of[self.column]
        if enc.codec == "dict":
            vals = ipc_deserialize_array(enc.buffers["aux"])
            dt = enc.params.get("dtype")
            if dt is not None:
                vals = vals.cast(str_to_type(dt))
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            if enc.buffers.get("validity", b""):
                vals = pa.concat_arrays([vals, pa.nulls(1, vals.type)])
        else:
            arr = decode_any(enc)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            vals = pc.unique(arr)
        return pa.table({self.column: vals})

    def empty(self):
        return pa.table({self.column: pa.array([], self.dtype)})


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
    _projection(schema, [column])
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

class _TopKPart(ScanPart):
    """Per-part local top-k: decode only the sort keys, drop rows with a
    null sort key (``ORDER BY ... LIMIT`` semantics — nulls sort last
    and never enter a top-k smaller than the non-null count), keep the
    k best rows by the multi-key sort and read the projection at those
    rows only (``take_any``).  Each task emits ≤k rows, so the driver
    merge is O(parts_scanned × k), never O(rows) — the same contract
    as the other store-scan tasks."""

    def __init__(self, keys: list[str], k: int, descending: bool,
                 out_columns: list[str],
                 expect_dtypes: dict | None = None):
        self.keys = keys
        self.k = k
        self.order = "descending" if descending else "ascending"
        # col -> dtype string from encoded_schema: a part whose block
        # stamps a DIFFERENT logical type holds another table under
        # the same column name — skip it (its rows aren't comparable
        # or concatenatable with the declared schema's)
        self.expect_dtypes = expect_dtypes or {}
        super().__init__(columns=sorted(set(keys) | set(out_columns)))

    def reduce(self, enc_of, mask, path):
        import numpy as np
        import pyarrow.compute as pc
        from ..codecs import decode_any, take_any
        if any(enc_of[c].params.get("dtype") not in
               (None, self.expect_dtypes.get(c))
               for c in self.columns if c in self.expect_dtypes):
            return None  # same name, different logical type
        kt = pa.table({kc: decode_any(enc_of[kc])
                       for kc in dict.fromkeys(self.keys)})
        valid = None
        for kc in self.keys:
            m = pc.is_valid(kt.column(kc))
            valid = m if valid is None else pc.and_(valid, m)
        live = np.flatnonzero(valid.to_numpy(zero_copy_only=False))
        if not len(live):
            return None
        idx = pc.sort_indices(
            kt.take(live), sort_keys=[(kc, self.order) for kc in self.keys])
        rows = live[idx.slice(0, self.k).to_numpy()]
        return pa.table({
            n: kt.column(n).take(rows) if n in kt.column_names
            else take_any(enc_of[n], rows) for n in self.columns})

    def empty(self):
        # empty blocks yield no batches downstream; types here are
        # placeholders that never meet a non-empty block's schema
        return pa.table({n: pa.array([], type=pa.string())
                         for n in self.columns})


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
    out_columns = _projection(schema, columns, *keys)
    key0 = keys[0]
    p_all = plan(store_dir, [], "and")
    parts = []
    for f in p_all.parts:
        m = p_all.manifests[f]
        # "sure": the part's rows with a non-null key
        parts.append({"path": f, "zone": m["zones"].get(key0),
                      "sure": m["rows"] - m["nulls"].get(key0, 0)})

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

    # wave 1: zone-less parts (must scan) + minimal zone-ordered prefix
    wave = list(must)
    need = k - sum(p["sure"] for p in must)
    i = 0
    while i < len(known) and need > 0:
        wave.append(known[i])
        need -= known[i]["sure"]
        i += 1
    cands = scan(wave)
    scanned = len(wave)
    # correctness net for a manifest out of date with its part (a
    # concurrent rewrite): keep extending in zone order until k
    # candidates are in hand
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

class _SamplePart(ScanPart):
    """Per-part deterministic Bernoulli sample: keep row i of part p iff
    splitmix64(seed ⊕ hash(p) ⊕ i) < fraction·2⁶⁴.  Pure function of
    (seed, part id, row index) — no coordination, no RNG state, the
    same rows come back on every run and on any cluster size."""

    def __init__(self, fraction: float, seed: int,
                 out_columns: list[str],
                 out_schema: pa.Schema | None = None):
        self.fraction = fraction
        self.seed = seed
        # logical types for the zero-match fallback block: an untyped
        # (string) empty block mixed with real-typed blocks breaks
        # schema unification downstream — sample_encoded hands the
        # Dataset straight to callers, so the fallback must carry the
        # store's real field types
        self.out_schema = out_schema
        super().__init__(columns=out_columns)

    def reduce(self, enc_of, mask, path):
        import numpy as np
        from ..codecs import take_any
        from ..functions.text import _splitmix64
        pid = part_id(path)
        n = next(iter(enc_of.values())).n_values
        # clamp: fraction*2^64 at 1.0 overflows uint64, and a <-compare
        # against 2^64-1 would still drop the one-in-2^64 max hash —
        # treat fraction >= 1 as keep-everything exactly
        if self.fraction >= 1.0:
            keep = np.arange(n, dtype=np.int64)
        else:
            pid_h = np.uint64(int.from_bytes(
                pid.encode()[-8:].rjust(8, b"\0"), "big"))
            h = _splitmix64(np.arange(n, dtype=np.uint64)
                            ^ np.uint64(self.seed) ^ pid_h)
            keep = np.flatnonzero(h < np.uint64(
                min(int(self.fraction * 2.0**64), 2**64 - 1)))
        if not len(keep):
            return None
        return pa.table({c: take_any(enc_of[c], keep)
                         for c in self.columns})

    def empty(self):
        return empty_block(self.columns, self.out_schema)


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
    out_columns = _projection(schema, columns)
    p = plan(store_dir, [])
    if fraction == 0.0:
        p = p.restrict([])
    out_schema = pa.schema([schema.field(c) for c in out_columns])
    return as_dataset(execute(
        p, _SamplePart(fraction, seed, out_columns, out_schema)))


class _KMVPart(ScanPart):
    """Task: per-part bottom-k DISTINCT value hashes — the map side of
    the KMV (k-minimum-values) distinct-count sketch.

    Encoded-domain win: an UNFILTERED dict-codec part answers from its
    VOCABULARY alone (the vocab IS the part's distinct set) — zero row
    decodes; other codecs / filtered scans decode the masked rows and
    hash-unique them.  Emits ≤ k uint64 rows per part."""

    def __init__(self, column: str, k: int, preds: list[tuple],
                 mode: str = "and"):
        self.column = column
        self.k = k
        super().__init__(preds, mode, [column])

    def reduce(self, enc_of, mask, path):
        import numpy as np
        from ..codecs.dictionary import ipc_deserialize_array
        from ..stages.profile import value_hashes
        venc = enc_of[self.column]
        if mask is None and venc.codec == "dict":
            vals = ipc_deserialize_array(venc.buffers["aux"])
            hs = value_hashes(vals)  # vocab only — no row decode
        else:
            hs = value_hashes(_decode_at(
                venc, None if mask is None else np.flatnonzero(mask)))
        if len(hs) == 0:
            return None
        hs = np.unique(hs)[:self.k]
        return pa.table({"h": pa.array(hs.view(np.int64))})

    def empty(self):
        return pa.table({"h": pa.array([], pa.int64())})


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

    rows = execute(p, _KMVPart(column, k, preds, mode))
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

    * ``aggs`` → ``agg_encoded`` (zone/key-set part pruning, packed-code
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
    metadata alone (zero payload bytes).  Per predicate: the count of
    parts its zone map, null counts and value counts keep; then the
    survivors of the combined tests, the key-set prune on them, and the
    row upper bound of the parts
    left, from their manifest row counts; the planned bytes and the
    executor they choose ("local": in-process, or "ray").  The numbers
    a user needs to see whether their layout (cluster_store /
    zorder_store / key sets) is actually pruning — and what
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
    ONE scan: the finest level is ``_agg_finest`` (zone/key-set pruning,
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
