"""Distributed joins, Ray-Data-first.

The reference has no joins (SURVEY §2.7); these are the engine-side
operators the north rule requires.  Two physical strategies:

* ``broadcast_join`` — the 100 TB shape for fact ⋈ dim: the small side
  is collected ONCE (size-guarded), ``ray.put`` into the object store,
  and every ``map_batches`` task probes it with a zero-copy pyarrow
  hash join per batch.  No shuffle of the big side, streaming
  execution preserved.

* ``shuffle_join`` — large ⋈ large via Ray Data's native hash join
  (``Dataset.join``): both sides hash-partition on the key, each
  partition joins independently.  One all-to-all exchange; use only
  when neither side fits the broadcast guard.

Semi/anti broadcast variants filter the big side without materializing
the join output — the dedup/curation workhorses.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_DEFAULT_BROADCAST_CAP = 256 << 20  # bytes; dims beyond this → shuffle_join


def _as_table(small, max_bytes: int | None = None) -> pa.Table:
    import pandas as pd
    if isinstance(small, pa.Table):
        return small
    if isinstance(small, pd.DataFrame):
        return pa.Table.from_pandas(small, preserve_index=False)
    # ray Dataset — caller asserts it is the SMALL side.  Enforce the
    # byte cap WHILE streaming so an oversized "small" side raises the
    # clean error instead of OOMing the driver during collection.
    tbls, acc = [], 0
    for b in small.iter_batches(batch_format="pyarrow"):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        acc += t.nbytes
        if max_bytes is not None and acc > max_bytes:
            raise ValueError(
                f"small side exceeds broadcast cap "
                f"({max_bytes >> 20} MiB) during collection; "
                "use shuffle_join")
        tbls.append(t)
    if not tbls:
        raise ValueError("empty small side: schema unknown; pass a "
                         "pyarrow Table instead")
    return pa.concat_tables(tbls)


class _BroadcastProbe:
    """map_batches callable: per-batch pyarrow hash join against the
    broadcast small side.  The object-store get is free after the first
    batch on each worker (local shared-memory read)."""

    def __init__(self, small_ref, on, right_on, join_type: str,
                 right_suffix: str):
        self.small_ref = small_ref
        self.on = on
        self.right_on = right_on
        self.join_type = join_type
        self.right_suffix = right_suffix

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray
        small: pa.Table = ray.get(self.small_ref)
        return batch.join(small, keys=list(self.on),
                          right_keys=list(self.right_on),
                          join_type=self.join_type,
                          right_suffix=self.right_suffix)


def broadcast_join(big, small, on, right_on=None,
                   join_type: str = "inner", right_suffix: str = "_r",
                   max_broadcast_bytes: int = _DEFAULT_BROADCAST_CAP):
    """big ⋈ small with the small side broadcast (ray.put once, probed
    zero-copy in every task).  join_type: any pyarrow Table.join type
    ("inner", "left outer", "left semi", "left anti", ...) — joins are
    evaluated per-batch, so only types that are row-local w.r.t. the
    big side are allowed (no "right outer"/"full outer": a small-side
    row missing from one batch may match another batch).

    Raises if the small side exceeds ``max_broadcast_bytes`` —
    at that size use ``shuffle_join``."""
    import ray
    if join_type in ("right outer", "full outer", "right semi",
                     "right anti"):
        raise ValueError(f"{join_type!r} is not per-batch decomposable; "
                         "use shuffle_join")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    small_t = _as_table(small, max_bytes=max_broadcast_bytes) \
        .combine_chunks()
    if small_t.nbytes > max_broadcast_bytes:
        raise ValueError(
            f"small side is {small_t.nbytes >> 20} MiB > broadcast cap "
            f"{max_broadcast_bytes >> 20} MiB; use shuffle_join")
    ref = ray.put(small_t)
    return big.map_batches(
        _BroadcastProbe(ref, on, right_on, join_type, right_suffix),
        batch_format="pyarrow", zero_copy_batch=True)


def broadcast_semi_join(big, small, on, right_on=None, **kw):
    """Rows of `big` with a key match in `small` (no small-side columns
    added) — the blocklist/keeplist filter shape."""
    return broadcast_join(big, small, on, right_on,
                          join_type="left semi", **kw)


def broadcast_anti_join(big, small, on, right_on=None, **kw):
    """Rows of `big` with NO key match in `small` — the drop-set shape
    used by scale-safe dedup filtering."""
    return broadcast_join(big, small, on, right_on,
                          join_type="left anti", **kw)


def join_auto(left, right, on, right_on=None, join_type: str = "inner",
              num_partitions: int = 32, right_suffix: str = "_r",
              max_broadcast_bytes: int = _DEFAULT_BROADCAST_CAP):
    """Strategy-choosing join: broadcast the right side when its
    (estimated) size fits ``max_broadcast_bytes``, else the shuffle
    hash join.  The estimate is free for pyarrow/pandas inputs; for a
    Dataset it uses ``size_bytes()`` (metadata for plain reads; may
    execute a derived small side — callers pass the SMALL side as
    ``right``, so that execution is the same work the broadcast collect
    would do anyway).  This is the scale-portable default: a dim table
    that outgrows the cap silently degrades to the shuffle path instead
    of OOMing the driver."""
    import pandas as pd
    est = None
    if isinstance(right, pa.Table):
        est = right.nbytes
    elif isinstance(right, pd.DataFrame):
        est = int(right.memory_usage(deep=True).sum())
    else:
        try:
            est = right.size_bytes()
        except Exception:  # noqa: BLE001 — unknown size: assume large
            est = None
    if est is not None and est <= max_broadcast_bytes and \
            join_type not in ("right outer", "full outer", "right semi",
                              "right anti"):
        return broadcast_join(big=left, small=right, on=on,
                              right_on=right_on, join_type=join_type,
                              right_suffix=right_suffix,
                              max_broadcast_bytes=max_broadcast_bytes)
    return shuffle_join(left, right, on, right_on=right_on,
                        join_type=join_type,
                        num_partitions=num_partitions,
                        right_suffix=right_suffix)


def shuffle_aggregator_args(num_partitions: int, *,
                            cpu_fraction: float = 0.25,
                            mem_fraction: float = 0.20):
    """Remote args for one hash-shuffle operator's aggregator pool,
    clamped so the WHOLE pool reserves at most ``cpu_fraction`` of the
    cluster's CPUs and ``mem_fraction`` of its memory.

    Ray 2.49's default reserves 0.125 CPU per join partition; a plan
    with two 16-partition joins plus a hash aggregate therefore
    reserves >4 CPUs of actors on a 4-CPU cluster and the pool pends
    forever (observed: interval_count_join deadlocked under pytest's
    4-CPU session).  Clamping per-op reservations to a cluster
    fraction lets several shuffle stages coexist in one streaming
    plan at ANY cluster size; aggregators are still SPREAD across
    nodes, and the memory reservation still scales with the cluster
    so big partitions get admission control."""
    import ray
    if not ray.is_initialized():
        return None
    try:
        res = ray.cluster_resources()
    except Exception:  # pragma: no cover — no cluster: Ray defaults
        return None
    cpus = res.get("CPU") or 4
    mem = res.get("memory") or (8 << 30)
    from ray.data.context import DataContext
    cap = DataContext.get_current().max_hash_shuffle_aggregators or 64
    n_agg = max(1, min(num_partitions, cap))
    return {
        "num_cpus": max(0.01, min(1.0, (cpus * cpu_fraction) / n_agg)),
        "memory": int(min(2 << 30,
                          max(64 << 20, (mem * mem_fraction) / n_agg))),
        "scheduling_strategy": "SPREAD",
    }


def shuffle_join(left, right, on, right_on=None,
                 join_type: str = "inner", num_partitions: int = 32,
                 right_suffix: str = "_r"):
    """Large ⋈ large: Ray Data native hash join — both sides hash-
    partitioned on the key (one all-to-all exchange each), partitions
    joined independently.  num_partitions bounds per-partition memory:
    size it so (left+right)/num_partitions fits a worker's heap."""
    on = (on,) if isinstance(on, str) else tuple(on)
    right_on = on if right_on is None else (
        (right_on,) if isinstance(right_on, str) else tuple(right_on))
    return left.join(right, join_type=join_type,
                     num_partitions=num_partitions,
                     on=on, right_on=right_on,
                     right_suffix=right_suffix,
                     aggregator_ray_remote_args=shuffle_aggregator_args(
                         num_partitions))


def join_encoded(fact_store: str, dim_store: str, on, *, right_on=None,
                 join_type: str = "inner",
                 fact_columns: list[str] | None = None,
                 dim_columns: list[str] | None = None,
                 fact_filter=None, dim_filter=None,
                 right_suffix: str = "_r",
                 key_pushdown_limit: int = 65536,
                 max_broadcast_bytes: int = _DEFAULT_BROADCAST_CAP):
    """Store-native fact ⋈ dim: BOTH sides read via the encoded-store
    source (sources/encoded.py::read_encoded) so projection + predicate
    pushdown happen on packed codes before any decode, then the
    (post-filter) dim side broadcasts into a per-batch probe.

    Sideways information passing: for inner / left-semi joins on a
    single key, the dim side's distinct key set (when it is at most
    ``key_pushdown_limit`` values) is pushed INTO the fact read as an
    IN-list predicate — fact parts are pruned via bloom sidecars and
    zone maps and non-matching rows are masked on packed codes, so a
    selective dim filter shrinks the fact scan itself, not just the
    join output.  That is the store-native advantage over joining two
    parquet reads: at 100 TB a 1%-selective dim filter skips ~99% of
    fact decode work.  Disabled for outer joins (they must keep
    unmatched fact rows) and multi-key joins.

    The join key is added to each side's projection automatically.
    Falls back to shuffle_join when the dim side exceeds the broadcast
    cap (keys are then NOT pushed down; the read stays unfiltered)."""
    from ..sources.encoded import read_encoded
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    if dim_columns is not None:
        dim_columns = list(dict.fromkeys(list(dim_columns) + right_on))
    if fact_columns is not None:
        fact_columns = list(dict.fromkeys(list(fact_columns) + on))

    from ..sources.encoded import encoded_schema
    dim_ds = read_encoded(dim_store, columns=dim_columns,
                          filter=dim_filter)
    try:
        dim_t = _as_table(dim_ds, max_bytes=max_broadcast_bytes) \
            .combine_chunks()
    except ValueError as exc:
        if "empty small side" not in str(exc):
            raise
        # fully-filtered dim: probe an empty table with the projected
        # dim schema so the joined schema (and outer-join semantics)
        # stay correct
        full = encoded_schema(dim_store)
        names = dim_columns if dim_columns is not None else full.names
        dim_t = pa.table(
            {n: pa.array([], full.field(n).type) for n in names})

    facts = ([] if fact_filter is None else
             [fact_filter] if isinstance(fact_filter, tuple)
             else list(fact_filter))
    if join_type in ("inner", "left semi") and len(on) == 1:
        import pyarrow.compute as pc
        keys = pc.unique(dim_t.column(right_on[0]).combine_chunks()
                         .drop_null())
        if len(keys) == 0:
            # no dim keys: inner/semi output is exactly empty — skip
            # the fact scan entirely and return an empty typed Dataset
            # with the joined schema (an empty IN-list read would plan
            # zero tasks and lose the schema)
            import ray.data as rd
            ffull = encoded_schema(fact_store)
            fnames = (fact_columns if fact_columns is not None
                      else ffull.names)
            empty_fact = pa.table(
                {n: pa.array([], ffull.field(n).type) for n in fnames})
            return rd.from_arrow(empty_fact.join(
                dim_t, keys=list(on), right_keys=list(right_on),
                join_type=join_type, right_suffix=right_suffix))
        if len(keys) <= key_pushdown_limit:
            facts.append((on[0], "in", keys.to_pylist()))
    fact = read_encoded(fact_store, columns=fact_columns,
                        filter=(facts if len(facts) > 1
                                else facts[0] if facts else None))
    return broadcast_join(fact, dim_t, on, right_on,
                          join_type=join_type, right_suffix=right_suffix,
                          max_broadcast_bytes=max_broadcast_bytes)


# ---------------------------------------------------------------------------
# zone-aligned merge join (clustered store ⋈ clustered store, no shuffle)
# ---------------------------------------------------------------------------

def merge_join_plan(left_store: str, right_store: str, on: str,
                    right_on: str | None = None) -> dict:
    """Plan a large ⋈ large join of two encoded stores from their
    lineage manifests ALONE — zero payload reads.

    Both stores should be clustered on the join key
    (``pipelines/cluster.py::cluster_store``): each part then carries a
    (near-)disjoint key zone, and a left part can only match right
    parts whose zone interval overlaps its own.  The plan is the
    overlap pairing: one work item per left part, listing the right
    parts it may join.  Any row-level match is provably inside the
    pairing — a right part containing key k has zone.min <= k <=
    zone.max, so it overlaps every left part whose zone contains k.

    Parts without a key zone (all-null key, >256-char strings, older
    stores) are handled conservatively, never lossily: an unzoned
    right part joins EVERY left item; an unzoned left part lists every
    right part.  Zone-kind mismatches (e.g. int vs str key) degrade
    the same way.

    Returns {"items": [{"lpath", "rpaths"}], "pairs", "max_fanout",
    "left_parts", "right_parts", "unzoned_left", "unzoned_right"}.
    On two well-clustered stores max_fanout is O(1) regardless of
    store size — the all-to-all shuffle a hash join would need never
    happens; at 10^6 parts per side the plan is one manifest sweep."""
    from ..sources.plan import part_files, part_id
    from ..state.manifest import Manifest

    def _zoned(store, key):
        zones = {m["part_id"]: m.get("zones", {}).get(key)
                 for m in Manifest(store).load_all()}
        zoned, unzoned = [], []
        for path in part_files(store):
            z = zones.get(part_id(path))
            if z is None:
                unzoned.append(path)
            else:
                zoned.append((z["min"], z["max"], z.get("kind"), path))
        return zoned, unzoned

    right_on = right_on or on
    lz, lu = _zoned(left_store, on)
    rz, ru = _zoned(right_store, right_on)
    kinds = {k for _, _, k, _ in lz} | {k for _, _, k, _ in rz}
    if len(kinds) > 1:
        # physically incomparable zones: conservative all-pairs
        lu += [p for *_, p in lz]
        ru += [p for *_, p in rz]
        lz, rz = [], []
    lz.sort(key=lambda t: t[0])
    rz.sort(key=lambda t: t[0])
    items, pairs, max_fanout = [], 0, 0
    lo = 0
    rmins = [t[0] for t in rz]
    import bisect
    for lmin, lmax, _, lpath in lz:
        # rights with rmin <= lmax, front-pruned while provably dead
        # (lmin is non-decreasing, so a front right with rmax < lmin
        # can never match any later left either)
        while lo < len(rz) and rz[lo][1] < lmin:
            lo += 1
        hi = bisect.bisect_right(rmins, lmax)
        rpaths = [rz[i][3] for i in range(lo, hi) if rz[i][1] >= lmin]
        rpaths += ru
        items.append({"lpath": lpath, "rpaths": rpaths})
        pairs += len(rpaths)
        max_fanout = max(max_fanout, len(rpaths))
    all_right = [t[3] for t in rz] + ru
    for lpath in lu:
        items.append({"lpath": lpath, "rpaths": list(all_right)})
        pairs += len(all_right)
        max_fanout = max(max_fanout, len(all_right))
    return {"items": items, "pairs": pairs, "max_fanout": max_fanout,
            "left_parts": len(lz) + len(lu), "right_parts": len(all_right),
            "unzoned_left": len(lu), "unzoned_right": len(ru)}


class _MergeJoinPart:
    """Task: one work item = (left part, overlapping right parts).
    Decodes the left part (projection only), takes the RUNTIME min/max
    of its key column, and reads the right parts through the encoded
    predicate pushdown with that range — right rows outside the left
    part's actual key span are masked on packed codes and never
    decode.  One in-memory pyarrow join per item; left-row-preserving
    join types only, so per-part processing is exact (every left row
    lives in exactly one part, and the plan guarantees all its
    matching right rows are in the item)."""

    def __init__(self, on: str, right_on: str, left_columns, right_columns,
                 join_type: str, right_suffix: str,
                 left_schema: "pa.Schema", right_schema: "pa.Schema"):
        self.on, self.right_on = on, right_on
        self.left_columns = left_columns
        self.right_columns = right_columns
        self.join_type = join_type
        self.right_suffix = right_suffix
        self.left_schema = left_schema
        self.right_schema = right_schema

    def _empty(self, schema: "pa.Schema", columns) -> pa.Table:
        names = columns if columns is not None else schema.names
        return pa.table({n: pa.array([], schema.field(n).type)
                         for n in names})

    def _joined_empty(self) -> pa.Table:
        return self._empty(self.left_schema, self.left_columns).join(
            self._empty(self.right_schema, self.right_columns),
            keys=[self.on], right_keys=[self.right_on],
            join_type=self.join_type, right_suffix=self.right_suffix)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        from .encode_pipeline import DecodePartFile, EncodedFilterPart
        left_dec = DecodePartFile(self.left_columns)
        outs = []
        for row in batch.to_pylist():
            left = left_dec(pa.table({"path": [row["lpath"]]}))
            if self.left_columns is not None:
                have = set(left.column_names)
                if any(c not in have for c in self.left_columns):
                    continue  # heterogeneous store: other table's part
                left = left.select(self.left_columns)
            if left.num_rows == 0:
                continue
            key = left.column(self.on)
            nonnull = len(key) - key.null_count
            right = None
            if nonnull > 0 and row["rpaths"]:
                mm = pc.min_max(key)
                rdec = EncodedFilterPart(
                    [(self.right_on, "range",
                      mm["min"].as_py(), mm["max"].as_py())],
                    list(self.right_columns
                         if self.right_columns is not None
                         else self.right_schema.names))
                right = rdec(pa.table({"path": list(row["rpaths"])}))
            if right is None or right.num_rows == 0:
                if self.join_type in ("inner", "left semi"):
                    continue
                right = self._empty(self.right_schema, self.right_columns)
            outs.append(left.join(
                right, keys=[self.on], right_keys=[self.right_on],
                join_type=self.join_type, right_suffix=self.right_suffix))
        if not outs:
            return self._joined_empty()
        return pa.concat_tables(outs, promote_options="permissive")


_LEFT_PRESERVING = ("inner", "left outer", "left semi", "left anti")


def merge_join_clustered(left_store: str, right_store: str, on: str, *,
                         right_on: str | None = None,
                         join_type: str = "inner",
                         left_columns: list[str] | None = None,
                         right_columns: list[str] | None = None,
                         right_suffix: str = "_r",
                         max_fanout: int = 64):
    """Zone-aligned merge join: large ⋈ large over two encoded stores
    clustered on the join key, with NO shuffle — the third physical
    join strategy next to ``broadcast_join`` (small dim) and
    ``shuffle_join`` (unclustered large ⋈ large).

    The plan (``merge_join_plan``) pairs parts by manifest zone
    overlap; each task decodes one left part plus only the right rows
    inside its runtime key span (packed-code range pushdown), then
    joins in memory.  On two clustered stores each task touches O(1)
    right parts, so joining two 100 TB stores streams both sides
    exactly once with no all-to-all exchange — the map-side merge the
    classic sort-merge join does after ITS shuffle, with the sort
    amortized into the stores' physical layout (cluster_store).

    Only left-row-preserving join types are supported (inner /
    left outer / left semi / left anti): per-part processing emits
    each left row exactly once.  Right/full outer need right-row
    accounting across items — use shuffle_join.

    ``max_fanout`` guards against unclustered inputs: if any left part
    overlaps more right parts, the plan is degenerating toward
    all-pairs and the call refuses with guidance (re-cluster or use
    shuffle_join) instead of silently running an O(L x R) join."""
    import ray.data as rd
    from ..sources.encoded import encoded_schema
    from .encode_pipeline import _cluster_cpus
    if join_type not in _LEFT_PRESERVING:
        raise ValueError(
            f"merge_join_clustered supports {_LEFT_PRESERVING}; "
            f"got {join_type!r} — use shuffle_join for right/full outer")
    right_on = right_on or on
    lschema, rschema = encoded_schema(left_store), encoded_schema(right_store)
    if left_columns is not None:
        left_columns = list(dict.fromkeys(list(left_columns) + [on]))
    if right_columns is not None:
        right_columns = list(dict.fromkeys(
            list(right_columns) + [right_on]))
    plan = merge_join_plan(left_store, right_store, on, right_on)
    if plan["max_fanout"] > max_fanout:
        raise ValueError(
            f"merge join fanout {plan['max_fanout']} exceeds "
            f"max_fanout={max_fanout}: the stores are not clustered "
            f"enough on {on!r}/{right_on!r} "
            f"(unzoned_left={plan['unzoned_left']}, "
            f"unzoned_right={plan['unzoned_right']}). Re-cluster with "
            "cluster_store or use shuffle_join.")
    items = plan["items"]
    join_task = _MergeJoinPart(on, right_on, left_columns, right_columns,
                               join_type, right_suffix, lschema, rschema)
    if not items:
        return rd.from_arrow(join_task._joined_empty())
    nb = min(len(items), max(4 * _cluster_cpus(), 16))
    return rd.from_items(items, override_num_blocks=nb).map_batches(
        join_task, batch_size=None, batch_format="pyarrow")
