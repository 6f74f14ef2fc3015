"""Read-side planning of every encoded-domain scan.

One function decides which parts of a store a scan opens.
:func:`plan` lists the part files once, reads each part's lineage
manifest once, tests every predicate against the part's zone map and
null counts, combines the tests by AND or OR, and probes the bloom
sidecars (state/bloom.py) of the zone survivors on the driver while
there are at most ``_BLOOM_DRIVER_CAP`` of them.  The :class:`Plan` it
returns is both what the scan executes and what ``explain_scan``
reports.

:func:`part_mask` is the per-part half, run inside the scan tasks: the
bloom skip the driver did not do, the filtered block read (the
per-block row-group layout keeps the other columns' payload pages on
disk), the absent-column rule of heterogeneous stores and the
predicate mask on packed codes (codecs/access.py).

:func:`execute` runs a plan's per-part task: every per-part scan of
an encoded store goes through it (filtered and unfiltered reads, the
aggregates, verify, spot-check, fsck, annotate, diff, sample, and the
upsert's key scan and retire); a caller that picks the parts narrows
the plan with :meth:`Plan.restrict`.  A plan of at most
``_LOCAL_PLAN_BYTES`` planned bytes runs in-process on the driver, one
call over all its parts, and the caller merges the partials there; a
larger plan runs as a Ray Data ``map_batches`` over its parts.  A
driver-sized answer goes back to the caller as a :class:`LocalDataset`,
a ``ray.data.Dataset`` that reads its driver table without starting
Ray Data.  The write side takes the same bound the other way:
:func:`driver_blocks` hands a driver-sized input to the writer
in-process.

Pruning is never lossy: a part without a manifest, zone, null count or
bloom sidecar is kept.

Predicate shapes (``filter=`` is a conjunction, ``filter_any=`` a
disjunction; each takes one tuple or a list of them):

    (col, "==", v)              (col, "between", lo, hi)   # inclusive
    (col, "in", [v, ...])       (col, "prefix" | "like", "p" | "p%")
    (col, "isnull")             (col, "notnull")
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset

from ..state import bloom
from ..state.manifest import Manifest, zone_may_match

# IN-lists longer than this are zone-tested on their [min, max]
# envelope instead of value by value
_IN_ZONE_CAP = 1024
# the driver probes the blooms of at most this many zone survivors;
# above it every scan task probes its own parts (part_mask), so the
# driver never reads O(parts) sidecars at open scale.  Sequential on
# purpose: ~0.5-1 ms per sidecar is GIL-bound zipfile parsing (a
# 16-thread pool measured 5x slower)
_BLOOM_DRIVER_CAP = 4096
# IN-lists longer than this are never bloom-probed: at ~1% false
# positives per value, P(any of N values hits) saturates toward 1 long
# before that, so the probe disproves nothing (measured: a 19k-key
# upsert retire probed 512 sidecars for zero prunes)
_BLOOM_PROBE_VALUE_CAP = 4096
# plans of at most this many planned bytes (part file bytes) run
# in-process (execute).  Measured on one CPU over webtext stores of
# 8-128 parts (1.8-29.8 MiB planned), the in-process path beat Ray Data
# on every routed op at every size (Ray adds 0.06-0.7 s to start the
# scan and merge), so the bound is not a speed crossover: it caps the
# driver's work set.  An in-process full-width filtered read held
# 180 MiB more driver RSS at 15.7 MiB planned (290 MiB at 29.8 MiB);
# above the cap Ray streams the parts through its workers
_LOCAL_PLAN_BYTES = 16 << 20


def part_files(store_dir: str) -> list[str]:
    """Paths of the store's part files, sorted by name."""
    return [os.path.join(store_dir, f)
            for f in sorted(os.listdir(store_dir))
            if f.endswith(".parquet")]


def part_id(path: str) -> str | None:
    """The id of a ``part-<id>.parquet`` file; None for any other name
    (such a file has no manifest or sidecar and is never pruned)."""
    base = os.path.basename(path)
    if not base.startswith("part-"):
        return None
    return base[len("part-"):-len(".parquet")]


def _norm_pred(f) -> tuple:
    """User predicate → normalized (col, op, lo, hi):
    ``(col, "==", v)`` → eq, ``(col, "between", lo, hi)`` → range,
    ``(col, "in", values)`` → in (lo = value tuple, hi = None),
    ``(col, "prefix", p)`` / ``(col, "like", "p%")`` → prefix,
    ``(col, "isnull")`` / ``(col, "notnull")`` → null tests."""
    col, op, *vals = f
    if op in ("==", "eq") and len(vals) == 1:
        return (col, "eq", vals[0], vals[0])
    if op in ("between", "range") and len(vals) == 2:
        return (col, "range", vals[0], vals[1])
    if op == "in" and len(vals) == 1 and \
            isinstance(vals[0], (list, tuple, set, frozenset)):
        return (col, "in", tuple(vals[0]), None)
    if op in ("prefix", "startswith", "like") and len(vals) == 1 \
            and isinstance(vals[0], str):
        v = vals[0]
        if op == "like":
            # only the prefix shape 'p%' is pushable; other LIKE
            # patterns need a decoded-scan filter the caller owns
            if not (v.endswith("%") and "%" not in v[:-1]
                    and "_" not in v):
                raise ValueError(
                    f"LIKE pattern {v!r} is not a plain prefix 'p%'")
            v = v[:-1]
        return (col, "prefix", v, None)
    if op in ("isnull", "is_null") and not vals:
        return (col, "isnull", None, None)
    if op in ("notnull", "not_null", "is_not_null") and not vals:
        return (col, "notnull", None, None)
    raise ValueError(
        f"unsupported filter {f!r}: expected (col, '==', v), "
        "(col, 'between', lo, hi), (col, 'in', [v, ...]), "
        "(col, 'prefix'|'like', p), (col, 'isnull') or "
        "(col, 'notnull')")


def parse_filter(filter, filter_any) -> tuple[list[tuple], str]:
    """A scan call's ``filter`` (AND) or ``filter_any`` (OR) →
    (normalized predicates, "and" | "or").  Neither → ([], "and"): an
    unfiltered scan.  An empty list raises ValueError."""
    if filter is not None and filter_any is not None:
        raise ValueError("pass filter= (AND) or filter_any= (OR), "
                         "not both")
    raw, mode = (filter_any, "or") if filter_any is not None \
        else (filter, "and")
    if raw is None:
        return [], mode
    if isinstance(raw, list) and not raw:
        # an empty AND would be true and an empty OR false; neither is
        # "no filter", which only None means
        raise ValueError(f"empty {'filter_any' if mode == 'or' else 'filter'}"
                         " list: pass None for an unfiltered scan")
    return [_norm_pred(f) for f in
            (raw if isinstance(raw, list) else [raw])], mode


# ---------------------------------------------------------------------------
# zone and null-count tests
# ---------------------------------------------------------------------------

def _zone_bounds(column: str, lo, hi, zone: dict):
    """Predicate bounds in a zone's physical domain, or None if the
    value type doesn't map onto the zone kind (→ cannot prune)."""
    import datetime
    zone_kind = zone["kind"]
    if zone_kind == "i64":
        if isinstance(lo, (datetime.datetime, datetime.date)):
            # convert in the COLUMN's recorded logical type — guessing a
            # unit (us) against e.g. a timestamp[ns] zone would compare
            # microseconds to nanoseconds and prune matching parts.
            # Zones from older stores lack "dt": don't prune.
            dt = zone.get("dt")
            if dt is None:
                return None
            from ..codecs.access import _predicate_int
            try:
                return (_predicate_int(lo, dt), _predicate_int(hi, dt))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError,
                    ValueError):
                return None
        if isinstance(lo, (int, np.integer)):
            return (int(lo), int(hi))
        return None
    if zone_kind == "f64":
        try:
            return (float(lo), float(hi))
        except (TypeError, ValueError):
            return None
    if zone_kind == "str":
        return (lo, hi) if isinstance(lo, str) else None
    return None


def _prefix_upper(prefix: str) -> str | None:
    """Smallest string greater than every string with ``prefix``: the
    prefix with its last incrementable code point bumped.  None when no
    code point can be bumped (all U+10FFFF — cannot prune)."""
    for i in range(len(prefix) - 1, -1, -1):
        c = ord(prefix[i])
        if c < 0x10FFFF:
            return prefix[:i] + chr(c + 1)
    return None


def _range_ok(column: str, lo, hi, zone: dict) -> bool:
    b = _zone_bounds(column, lo, hi, zone)
    return b is None or zone_may_match(zone, *b)


def _zone_ok(pred: tuple, m: dict | None) -> bool:
    """May the part whose manifest is ``m`` hold a row matching
    ``pred``?  IN-lists test each value (a scattered set such as IVF
    probe lists {3, 47} prunes the parts between its values), or their
    [min, max] envelope beyond _IN_ZONE_CAP values; prefixes test the
    [prefix, successor(prefix)] interval; null tests read the manifest
    null counts.  Anything unprovable → True."""
    if m is None:
        return True
    col, op, lo, hi = pred
    if op in ("isnull", "notnull"):
        if "nulls" not in m:  # pre-null-aware manifest
            return True
        nn = m["nulls"].get(col, 0)
        if op == "isnull":
            return nn != 0
        return not (nn >= m.get("rows", -1) >= 0)
    zone = (m.get("zones") or {}).get(col)
    if zone is None:
        return True
    if op == "in":
        if len(lo) <= _IN_ZONE_CAP:
            return any(_range_ok(col, v, v, zone) for v in lo)
        try:
            lo, hi = min(lo), max(lo)
        except (TypeError, ValueError):
            return True
    elif op == "prefix":
        hi = _prefix_upper(lo)
        if hi is None:
            return True
    return _range_ok(col, lo, hi, zone)


# ---------------------------------------------------------------------------
# bloom probes
# ---------------------------------------------------------------------------

def _probe_values(pred: tuple) -> pa.Array | None:
    """The values an eq / IN predicate probes a bloom sidecar with;
    None when it cannot be probed (another operator, an IN-list beyond
    _BLOOM_PROBE_VALUE_CAP values, an unhashable value type)."""
    _, op, lo, _ = pred
    if op not in ("eq", "in"):
        return None
    vals = list(lo) if op == "in" else [lo]
    if len(vals) > _BLOOM_PROBE_VALUE_CAP:
        return None
    try:
        return pa.array(vals)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, TypeError):
        return None


def _bloom_ok(path: str, column: str, vals: pa.Array | None) -> bool:
    """False when the part's sidecar proves no value of ``vals`` is in
    ``column`` (~KB read; the part's parquet is never opened)."""
    pid = part_id(path)
    if vals is None or pid is None:
        return True
    return bloom.bloom_may_contain(os.path.dirname(path), pid, column,
                                   vals)


def _bloom_keeps(path: str, preds: list[tuple], probes: list,
                 mode: str, zone_ok: list[bool] | None = None) -> bool:
    """AND: no predicate is disproven.  OR: some predicate passes its
    zone test (``zone_ok``, all True when None) and is not disproven."""
    if mode == "and":
        return all(_bloom_ok(path, p[0], v) for p, v in zip(preds, probes))
    zone_ok = zone_ok or [True] * len(preds)
    return any(z and _bloom_ok(path, p[0], v)
               for z, p, v in zip(zone_ok, preds, probes))


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

def _load_manifests(store_dir: str, paths: list[str]) -> dict[str, dict]:
    """{path: manifest} for the listed parts that have one; one
    ``Manifest.load`` per part."""
    if not os.path.isdir(os.path.join(store_dir, "_manifest")):
        return {}
    man = Manifest(store_dir)
    done = man.done_parts()
    return {p: man.load(part_id(p)) for p in paths if part_id(p) in done}


@dataclasses.dataclass
class Plan:
    """One scan's pruning decision.  ``parts`` are the part paths the
    scan opens, in name order; ``listed`` every part of the store.
    ``blooms_probed`` is False only when the zone survivors were too
    many for the driver to probe, and the scan tasks must probe their
    own parts.  Manifests load lazily for unfiltered plans, which
    prune nothing."""

    store_dir: str
    preds: list[tuple]
    mode: str
    listed: list[str]
    parts: list[str]
    zone_counts: list[int]  # per predicate: parts its zone test keeps
    zone_survivors: int     # parts the combined zone tests keep
    blooms_probed: bool

    @functools.cached_property
    def manifests(self) -> dict[str, dict]:
        return _load_manifests(self.store_dir, self.listed)

    @functools.cached_property
    def planned_bytes(self) -> int:
        """Bytes of the part files to scan (one stat per part)."""
        return sum(os.path.getsize(p) for p in self.parts)

    @property
    def executor(self) -> str:
        """Where ``execute`` runs the plan: "local" (in-process) or
        "ray"."""
        return "local" if self.planned_bytes <= _LOCAL_PLAN_BYTES \
            else "ray"

    def restrict(self, parts: list[str]) -> "Plan":
        """This plan narrowed to ``parts``; the manifests are shared
        when loaded, and stay lazy otherwise."""
        out = dataclasses.replace(self, parts=list(parts))
        if "manifests" in self.__dict__:
            out.manifests = self.manifests
        return out

    @property
    def record(self) -> dict:
        """What the scan reads, from metadata alone (``explain_scan``)."""
        rows = {p: (self.manifests.get(p) or {}).get("rows", 0)
                for p in self.listed}
        return {
            "parts_total": len(self.listed),
            "rows_total": sum(rows.values()),
            "mode": self.mode,
            "predicates": [
                {"predicate": [col, op, *(str(v) for v in (lo, hi)
                                          if v is not None)],
                 "zone_survivors": n}
                for (col, op, lo, hi), n in zip(self.preds,
                                                self.zone_counts)],
            "zone_survivors": self.zone_survivors,
            "bloom_pruned": self.zone_survivors - len(self.parts),
            "parts_scanned": len(self.parts),
            "rows_upper_bound": sum(rows[p] for p in self.parts),
            "planned_bytes": self.planned_bytes,
            "executor": self.executor,
        }


def plan(store_dir: str, preds: list[tuple], mode: str = "and") -> Plan:
    """The parts of ``store_dir`` a scan with normalized ``preds``
    (combined by ``mode``, "and" | "or") must open; see the module
    docstring."""
    assert mode in ("and", "or"), mode
    listed = part_files(store_dir)
    if not preds:
        return Plan(store_dir, [], mode, listed, listed, [], len(listed),
                    True)
    mans = _load_manifests(store_dir, listed)
    ok = {p: [_zone_ok(pred, mans.get(p)) for pred in preds]
          for p in listed}
    combine = all if mode == "and" else any
    zoned = [p for p in listed if combine(ok[p])]
    probed = len(zoned) <= _BLOOM_DRIVER_CAP
    parts = zoned
    if probed:
        probes = [_probe_values(pred) for pred in preds]
        parts = [p for p in zoned
                 if _bloom_keeps(p, preds, probes, mode, ok[p])]
    out = Plan(store_dir, list(preds), mode, listed, parts,
               [sum(ok[p][i] for p in listed) for i in range(len(preds))],
               len(zoned), probed)
    out.manifests = mans
    return out


def execute(p: Plan, task):
    """Run the per-part ``task`` over the parts of ``p``.

    At most ``_LOCAL_PLAN_BYTES`` planned bytes (``p.executor`` is
    "local"): one in-process call over every part, and the result is
    the task's ``pa.Table``.  An empty plan always runs here, so
    the task returns its typed empty block.  Above it: the lazy
    ``ray.data.Dataset`` of a ``map_batches`` over the parts.
    ``blocks`` streams either to the driver, ``collect`` gathers it;
    both also take a :class:`LocalDataset`."""
    if p.executor == "local":
        return task(pa.table({"path": pa.array(p.parts, pa.string())}))
    from ..pipelines import encode_pipeline as ep
    return ep._part_scan_seed([{"path": f} for f in p.parts]).map_batches(
        task, batch_size=None, batch_format="pyarrow")


def as_dataset(res) -> "rd.Dataset":
    """An ``execute`` result as a Dataset: a driver table becomes a
    :class:`LocalDataset`, a Ray result stays the lazy Dataset."""
    return LocalDataset(res) if isinstance(res, pa.Table) else res


def empty_block(columns: list[str], schema: pa.Schema | None) -> pa.Table:
    """The block of a scan task that produced no rows (an empty plan, or
    no part matched): ``columns`` typed from ``schema``, string when it
    does not name them, so schemas unify across tasks."""
    return pa.table({
        n: pa.array([], schema.field(n).type if schema is not None and
                    n in schema.names else pa.string())
        for n in columns})


class LocalDataset(MaterializedDataset):
    """A driver-sized answer: a ``ray.data.Dataset`` that holds its
    rows as one driver ``pa.Table``.

    Every answer of an in-process plan is returned as one.  Consuming
    it through ``iter_batches``, ``to_pandas``, ``count``, ``take``,
    ``take_all``, ``limit`` or ``materialize`` reads the table and
    starts no Ray Data execution: a ``rd.from_arrow`` answer costs
    ~28 ms of ``ray.put``, stats-actor RPC and streaming-executor
    start-up to read back 25 rows, the table ~0.2 ms.  Everything
    else (``groupby``, ``sort``, ``map_batches``, ``union``,
    ``write_parquet``, ``schema``, ...) is Ray's own method, run on
    ``rd.from_arrow(table)``, built once on first use: Ray's methods
    reach its ``_plan`` and ``_logical_plan`` through ``__getattr__``.
    One difference: an empty answer's ``to_pandas`` keeps its columns
    (Ray's has none).
    """

    # Dataset.__del__ reads it; Dataset.__init__ (the stats-actor RPC)
    # never runs
    _current_executor = None

    def __init__(self, table: pa.Table):
        self._table = table

    def __getattr__(self, name: str):
        if name.startswith("__") or name in ("_table", "_built"):
            raise AttributeError(name)
        if "_built" not in self.__dict__:
            self._built = rd.from_arrow(self._table)
        return getattr(self._built, name)

    def __reduce__(self):
        # Dataset.__getstate__ would build the Ray plan and drop _table
        return LocalDataset, (self._table,)

    def iter_batches(self, *, batch_size=256, batch_format="default",
                     drop_last: bool = False, **kwargs):
        if any(v is not None for k, v in kwargs.items()
               if k != "prefetch_batches"):
            # local shuffles and collate functions stay Ray's
            return super().iter_batches(
                batch_size=batch_size, batch_format=batch_format,
                drop_last=drop_last, **kwargs)
        return self._local_batches(batch_size, batch_format, drop_last)

    def _local_batches(self, batch_size, batch_format, drop_last):
        t, n = self._table, self._table.num_rows
        step = n if batch_size is None else batch_size
        for i in range(0, n, max(step, 1)):
            if drop_last and i + step > n:
                break
            yield BlockAccessor.for_block(t.slice(i, step)) \
                .to_batch_format(batch_format)

    def to_pandas(self, limit: int | None = None):
        n = self._table.num_rows
        if limit is not None and n > limit:
            raise ValueError(
                f"the dataset has more than the given limit of {limit} "
                f"rows: {n}. If you are sure that a DataFrame with {n} "
                "rows will fit in local memory, set "
                "ds.to_pandas(limit=None) to disable limits.")
        return BlockAccessor.for_block(self._table).to_pandas()

    def count(self) -> int:
        return self._table.num_rows

    def take(self, limit: int = 20) -> list[dict]:
        return self._table.slice(0, limit).to_pylist()

    def take_all(self, limit: int | None = None) -> list[dict]:
        if limit is not None and self._table.num_rows > limit:
            raise ValueError(f"The dataset has more than the given "
                             f"limit of {limit} records.")
        return self._table.to_pylist()

    def limit(self, limit: int) -> "LocalDataset":
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        return LocalDataset(self._table.slice(0, limit))

    def materialize(self) -> "LocalDataset":
        return self


def _ray_layout(t: pa.Table) -> pa.Table:
    """``t`` as the block ``rd.from_arrow(t)`` holds.  Ray's serializer
    drops the validity bitmap of an array without nulls (a parquet read
    keeps it), and ``nbytes``, which a part's content id and
    ``orig_bytes`` count, sees the bitmap.  A table with such a bitmap
    or a nested column takes Ray's round trip (~2.6 ms for 256 webtext
    rows on one CPU); any other table is already laid out as Ray's."""
    if any(pa.types.is_nested(col.type) or
           any(c.null_count == 0 and c.buffers()[0] is not None
               for c in col.chunks) for col in t.columns):
        import ray
        return ray.get(ray.put(t))
    return t


def driver_blocks(ds) -> list[pa.Table] | None:
    """The blocks of ``ds`` as driver tables, when getting them starts
    no Ray Data execution: a ``pa.Table`` and a :class:`LocalDataset`
    are one block, laid out as ``rd.from_arrow`` would hold it; a
    ``MaterializedDataset`` (``rd.from_arrow``, ``rd.from_pandas``,
    ``materialize()``) of at most ``_LOCAL_PLAN_BYTES`` gives its
    computed blocks by one ``ray.get`` (~2 ms for 256 rows on one CPU;
    ``to_arrow_refs`` starts a streaming executor, 16-17 ms).  None for
    anything else, which stays on Ray."""
    if isinstance(ds, LocalDataset):
        ds = ds._table
    if isinstance(ds, pa.Table):
        return [_ray_layout(ds)]
    size = ds.size_bytes() if isinstance(ds, MaterializedDataset) else None
    if size is None or size > _LOCAL_PLAN_BYTES:
        return None
    import ray
    return [BlockAccessor.for_block(b).to_arrow()
            for b in ray.get(ds._plan.execute().block_refs)]


def driver_table(ds) -> pa.Table | None:
    """``ds`` as one driver table (its ``driver_blocks`` concatenated),
    or None when it has no driver-sized blocks."""
    bs = driver_blocks(ds)
    return pa.concat_tables(bs, promote_options="permissive") if bs else None


def blocks(res):
    """The non-empty blocks of an ``execute`` result, one at a time (a
    Ray result streams: the driver holds one block at once)."""
    if isinstance(res, LocalDataset):
        res = res._table
    if isinstance(res, pa.Table):
        res = [res]
    else:
        res = res.iter_batches(batch_format="pyarrow", batch_size=None)
    return (b for b in res if b.num_rows)


def collect(res) -> pa.Table | None:
    """The rows of an ``execute`` result as one driver table, or None
    when there are none."""
    tabs = list(blocks(res))
    return pa.concat_tables(tabs, promote_options="permissive") \
        if tabs else None


def read_blocks(path: str, columns=None) -> dict:
    """The blocks of one part file by column name
    (``stages/encode.py::encoded_blocks``).  With ``columns`` only
    their blocks are read: the per-block row-group layout keeps the
    other columns' payload pages on disk."""
    from ..stages.encode import encoded_blocks
    enc_rows = pq.read_table(path, filters=None if columns is None else
                             [("column", "in", sorted(columns))])
    return dict(encoded_blocks(enc_rows, os.path.dirname(path)))


def part_mask(path: str, preds: list[tuple], mode: str,
              columns=(), probe_blooms: bool = True):
    """The per-part step of every encoded-domain scan task.

    Reads the blocks of the predicate columns and ``columns`` and
    evaluates ``preds`` (combined by ``mode``) on packed codes.
    Returns ``(enc_of, mask)`` — the blocks by column name and the row
    mask, None without predicates — or None when the part holds no
    matching row: a bloom sidecar disproves it (only with
    ``probe_blooms``, i.e. when the plan left its blooms unprobed), the
    mask is empty, or the part lacks a column of ``columns`` or, under
    AND, any predicate column (a part of another table in a
    heterogeneous store).  Under OR a predicate on an absent column is
    all-false, so the part is skipped only when every predicate column
    is absent."""
    from ..codecs.access import eval_pred
    if probe_blooms and preds:
        probes = [_probe_values(pred) for pred in preds]
        # OR: skippable only when EVERY disjunct is probed and disproven
        if (mode == "and" or all(v is not None for v in probes)) and \
                not _bloom_keeps(path, preds, probes, mode):
            return None
    pred_cols = {c for c, *_ in preds}
    enc_of = read_blocks(path, pred_cols | set(columns))
    if any(c not in enc_of for c in columns):
        return None
    missing = pred_cols.difference(enc_of)
    if missing and (mode == "and" or missing == pred_cols):
        return None
    mask = None
    for pred in preds:
        if pred[0] not in enc_of:
            continue  # OR: absent-column disjunct is all-false
        m = eval_pred(enc_of[pred[0]], pred)
        mask = m if mask is None else \
            (mask & m) if mode == "and" else (mask | m)
        if mode == "and" and not mask.any():
            break  # conjunction already provably empty
        if mode == "or" and mask.all():
            break  # disjunction already provably full
    if mask is not None and not mask.any():
        return None
    return enc_of, mask
