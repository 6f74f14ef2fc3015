"""End-to-end encode → compact → decode-verify pipelines (Ray Data).

Two encode paths:

* :func:`encode_dataset` — generic streaming form over any
  ``ray.data.Dataset``: stateless ``map_batches`` encode, zero-copy Arrow
  in/out.  Content-addressed part ids; no checkpointing.
* :func:`encode_files` — the flagship checkpointed form: partition
  descriptors are planned from Parquet row-group metadata (explicit
  byte-size balancing → skew handling), completed partitions are skipped
  via the lineage manifest, each task reads its own slice, encodes,
  writes ``part-<id>.parquet`` atomically, and records lineage.  This is
  the "resumable output" layout: one file per partition, never one giant
  file.  It always runs on Ray Data, seeded by :func:`_part_scan_seed`.

The per-part scans of a written store (:func:`decode_files`,
:func:`verify_files`, :func:`spot_check_files`) run their task through
``sources/plan.py::execute``: in-process on the driver for a store of
at most ``_LOCAL_PLAN_BYTES`` of part files, a Ray Data ``map_batches``
over the parts above it, seeded by the same :func:`_part_scan_seed`.

Scale notes (100 TB design): the descriptor dataset is tiny (one row per
~64 MB of input) and fans out to stateless tasks — no shuffle anywhere
in encode.  Decode-verify is per-partition (no shuffle).  The only wide
op is the final metrics aggregate (global sum, bytes-sized).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..sources.plan import (ScanPart, as_dataset, collect, driver_blocks,
                            empty_block, execute, part_id, plan, read_part)
from ..stages.encode import (DecodeBatch, EncodeBatch, RoundtripVerify,
                             decode_rows, encode_table)
from ..state.bloom import key_columns, to_record
from ..state.manifest import (Manifest, compute_zones,
                              null_counts_of, params_hash,
                              value_counts_of)

_DEFAULT_TARGET_BYTES = 64 << 20


# ---------------------------------------------------------------------------
# partition planning (skew-aware, metadata-only)
# ---------------------------------------------------------------------------

def plan_partitions(paths: list[str],
                    target_bytes: int = _DEFAULT_TARGET_BYTES) -> list[dict]:
    """Descriptors {part_id, path, rg_start, rg_end, bytes} from Parquet
    row-group metadata.  Greedy byte-packing of row groups so every
    partition is ≈ target_bytes regardless of row-size skew; an oversized
    single row group becomes its own partition (can't split finer without
    reading it)."""
    import hashlib
    parts: list[dict] = []
    for path in sorted(paths):
        md = pq.ParquetFile(path).metadata
        sizes = [md.row_group(i).total_byte_size
                 for i in range(md.num_row_groups)]
        # the id must identify the SOURCE uniquely: basename alone
        # collides across directories (dir1/part-0 vs dir2/part-0) and a
        # manifest hit would silently skip the second file — so include
        # a short hash of the absolute path
        tag = hashlib.sha1(os.path.abspath(path).encode()) \
            .hexdigest()[:8]
        start, acc = 0, 0
        for i, sz in enumerate(sizes):
            acc += sz
            last = i == len(sizes) - 1
            if acc >= target_bytes or last:
                parts.append({
                    "part_id": f"{os.path.basename(path)}-{tag}"
                               f"-rg{start}-{i}",
                    "path": path, "rg_start": start, "rg_end": i,
                    "bytes": acc,
                    "input_bytes": os.path.getsize(path)})
                start, acc = i + 1, 0
    return parts


def _cluster_cpus() -> int:
    import ray
    try:
        return int(ray.cluster_resources().get("CPU", 0)) or \
            (os.cpu_count() or 8)
    except Exception:
        return os.cpu_count() or 8


# ---------------------------------------------------------------------------
# checkpointed flagship
# ---------------------------------------------------------------------------

class EncodePartitionWriter:
    """Stateless task: descriptor row → read slice → encode → atomic write
    + manifest record → metrics row.  Idempotent (pure function of the
    descriptor + deterministic codec selection), hence retry-safe."""

    def __init__(self, out_dir: str, codec_overrides: dict | None = None,
                 columns: list[str] | None = None,
                 shared_vocab_columns: list[str] | None = None):
        self.out_dir = out_dir
        self.codec_overrides = codec_overrides
        self.columns = columns
        self.shared_vocab_columns = shared_vocab_columns
        self._shared = None  # lazy: one sidecar load per worker process

    def _column_encoders(self) -> dict | None:
        if not self.shared_vocab_columns:
            return None
        if self._shared is None:
            from ..stages.toksep_actor import TokSepSharedEncoder
            self._shared = TokSepSharedEncoder(
                self.out_dir, self.shared_vocab_columns)
        return {c: self._shared.encode_column
                for c in self.shared_vocab_columns}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            [self._encode_one(d) for d in batch.to_pylist()])

    def _encode_one(self, d: dict) -> dict:
        t = pq.ParquetFile(d["path"]).read_row_groups(
            list(range(d["rg_start"], d["rg_end"] + 1)),
            columns=self.columns)
        return write_part(
            self.out_dir, d["part_id"], t,
            codec_overrides=self.codec_overrides,
            column_encoders=self._column_encoders(),
            meta={"input": d["path"], "rg_start": d["rg_start"],
                  "rg_end": d["rg_end"],
                  "input_bytes": d.get("input_bytes"),
                  "part_input_bytes": d.get("bytes")})


def write_part_file(path: str, enc: pa.Table) -> None:
    """Write the block rows ``enc`` of one part to ``path`` atomically.

    One row group PER BLOCK (row): projection / predicate readers
    (``sources/plan.py::read_part``) select row groups by index from
    the footer's ``column`` statistics, and the other row groups'
    payload pages never leave storage, so the part file behaves like a
    column store internally.  Statistics are kept only for that key
    (~0.1% size overhead at 64 MB parts).  The tmp name is
    writer-unique (``.tmp-<hex>``, which fsck knows): two byte-identical
    blocks map to the SAME content-addressed part id, and a shared tmp
    path would let their writes interleave; private staging plus the
    atomic rename makes last-one-wins safe."""
    import uuid
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(enc, tmp, compression="zstd", compression_level=3,
                   row_group_size=1, use_dictionary=False,
                   write_statistics=["column"])
    os.replace(tmp, path)


def write_part(store_dir: str, part_id: str, table: pa.Table, *,
               codec_overrides: dict | None = None,
               column_encoders: dict | None = None,
               meta: dict | None = None) -> dict:
    """Write decoded ``table`` as part ``part_id`` of the store: encode
    (``encode_table``), then ``record_part``.  Returns the part's stats
    row {part_id, rows, orig_bytes, enc_bytes, wall_s}."""
    t0 = time.perf_counter()
    enc = encode_table(table, part_id=part_id,
                       codec_overrides=codec_overrides,
                       column_encoders=column_encoders)
    return record_part(store_dir, part_id, enc, table,
                       null_counts_of(table), meta=meta, t0=t0)


def record_part(store_dir: str, part_id: str, enc: pa.Table,
                cols: pa.Table, nulls: dict, *,
                meta: dict | None = None, t0: float | None = None,
                only: dict | None = None) -> dict:
    """Write the encoded-block rows ``enc`` as part ``part_id``
    (``write_part_file``) and record its manifest, the part's one
    metadata file: the full metadata key set plus the caller's ``meta``
    extras (lineage such as ``input`` / ``inputs`` / ``clustered_on``).
    The zone map, the ``values`` (exact value counts of low-cardinality
    string columns, ``value_counts_of``) and the ``keys`` (key sets of
    the ``key_columns``, ``build_part_blooms``) derive from ``cols``,
    the decoded columns that carry them: every column for
    ``write_part``, only those whose entries a rewrite rebuilds for
    ``pipelines/delete.py``, which also passes ``only`` ({"zones" /
    "values" / "keys": columns}) so that a column keeps exactly the
    entries it had.  ``nulls`` is the part's
    {column: null count}.  With ``write_part``, the one writer of every
    store mutation that creates or rewrites a part."""
    t0 = time.perf_counter() if t0 is None else t0
    write_part_file(os.path.join(store_dir, f"part-{part_id}.parquet"),
                    enc)
    zones = compute_zones(cols)
    codecs = dict(zip(enc.column("column").to_pylist(),
                      enc.column("codec").to_pylist()))
    values = value_counts_of(cols, codecs)
    if only is not None:
        zones = {c: z for c, z in zones.items() if c in only["zones"]}
        values = {c: v for c, v in values.items() if c in only["values"]}
    keys = build_part_blooms(cols, key_columns(cols, values)
                             if only is None else only["keys"])
    row = {"part_id": part_id,
           "rows": enc.column("n_values")[0].as_py() if enc.num_rows
           else cols.num_rows,
           "orig_bytes": sum(enc.column("orig_bytes").to_pylist()),
           "enc_bytes": sum(enc.column("enc_bytes").to_pylist())}
    Manifest(store_dir).record(part_id, {
        **(meta or {}), **row,
        "zones": zones, "nulls": nulls, "keys": keys,
        "codecs": codecs, "values": values,
        "params_hash": params_hash(enc),
        "wall_s": round(time.perf_counter() - t0, 4)})
    return {**row, "wall_s": time.perf_counter() - t0}


def build_part_blooms(t: pa.Table, columns: list[str]) -> dict:
    """The key sets of ``columns`` of one part (state/bloom.py), as the
    manifest's ``keys`` entry {column: record}; a column without a
    non-null value gets none."""
    recs = {c: to_record(t.column(c)) for c in columns}
    return {c: r for c, r in recs.items() if r is not None}


def _selection_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_selection", "codecs.json")


def load_store_selection(out_dir: str) -> dict:
    """The store's recorded codec choice ({column: codec} from
    ``_selection/codecs.json``, written by ``store_selection``); {} when
    the store has none.  Read-only: a write into an existing store
    (an upsert's staging part) reuses the choice, it never makes one."""
    import json
    try:
        with open(_selection_path(out_dir)) as f:
            return json.load(f)["codecs"]
    except FileNotFoundError:
        return {}


def store_selection(out_dir: str, paths: list[str],
                    sample_rows: int = 4096, max_files: int = 2) -> dict:
    """Codec selection ONCE per STORE from a bounded deterministic
    sample of the sorted input files, persisted as a
    ``_selection/codecs.json`` sidecar — the same sample-once /
    sidecar / reuse-on-resume design as the shared vocabulary
    (stages/toksep_actor.py) and the reference's sample-don't-scan
    table build (/root/reference/src/naive_impl/seq_vector/
    minimizers.rs:38-142).

    Amortization: the per-part stats sampler trial-encodes three string
    codecs per column, re-deriving the SAME decision for every part of
    a homogeneous corpus — ~48% of per-part encode wall at 4 MB parts
    (profiled r4).  With the store-level decision passed as
    codec_overrides, sibling parts skip that pass entirely; a part
    where the reused codec fails (true drift) falls back to full
    per-part selection inside encode_with_guard, and the store-vs-raw
    size guard still applies per part."""
    import json as _json
    sel = load_store_selection(out_dir)
    if sel:
        return sel
    from ..stages.select import choose_codec
    from ..stages.stats import column_stats
    tabs = []
    for p in sorted(paths)[:max_files]:
        pf = pq.ParquetFile(p)
        if pf.metadata.num_row_groups:
            tabs.append(pf.read_row_groups([0]).slice(0, sample_rows))
    if not tabs:
        return {}
    if len({str(t.schema) for t in tabs}) > 1:
        # heterogeneous input (mixed tables into one store): there is
        # no single store-level decision — keep per-part selection
        return {}
    t = pa.concat_tables(tabs).combine_chunks()
    if t.num_rows < 64:  # degenerate sample: keep per-part selection
        return {}
    sel = {name: choose_codec(t.column(name).type,
                              column_stats(t.column(name).combine_chunks()))
           for name in t.column_names}
    spath = _selection_path(out_dir)
    os.makedirs(os.path.dirname(spath), exist_ok=True)
    tmp = f"{spath}.tmp{os.getpid()}"
    with open(tmp, "w") as f:
        _json.dump({"codecs": sel}, f)
    os.replace(tmp, spath)  # concurrent writers produce identical content
    return sel


def encode_files(paths: list[str], out_dir: str, resume: bool = True,
                 target_bytes: int = _DEFAULT_TARGET_BYTES,
                 codec_overrides: dict | None = None,
                 shared_vocab_columns: list[str] | None = None) -> dict:
    """Checkpointed encode of parquet files → encoded parts + manifest.
    A re-run skips the partitions committed in ``out_dir`` (a part file
    and its manifest, state/manifest.py) whose input is unchanged.

    Returns aggregate metrics {parts, rows, orig_bytes, enc_bytes, ratio,
    skipped_parts}."""
    os.makedirs(out_dir, exist_ok=True)
    # every committed manifest loads first, so a store of an older
    # format raises here, before anything is written beside its parts
    recorded = {part_id(p): m
                for p, m in plan(out_dir, []).manifests.items()}
    done = recorded if resume else {}
    if shared_vocab_columns:
        # build + write the shared vocabulary sidecars ONCE; on resume an
        # existing sidecar is REUSED, never rebuilt — already-encoded
        # parts reference it by name, so rebuilding from drifted inputs
        # would silently change their decode
        from ..stages.toksep_actor import (SHARED_DIR, build_shared_vocab,
                                           write_shared_vocab)
        missing = [c for c in shared_vocab_columns if not os.path.exists(
            os.path.join(out_dir, SHARED_DIR, f"toksep_{c}.ipc"))]
        if missing:
            write_shared_vocab(out_dir,
                               build_shared_vocab(sorted(paths), missing))
    # store-level codec selection sidecar (sample once, reuse per part;
    # explicit user overrides win)
    sel = store_selection(out_dir, paths)
    if sel:
        codec_overrides = {**sel, **(codec_overrides or {})}
    parts = plan_partitions(paths, target_bytes)

    def _unchanged(p: dict) -> bool:
        """Skip only when the recorded input still matches the file on
        disk — an in-place rewritten input (same path, same row-group
        layout) must re-encode, not silently serve stale parts.  Two
        guards: whole-file size AND this partition's row-group byte
        sum (a same-size rewrite still perturbs compressed row-group
        sizes).  A part that a delete rewrote has no ``input``
        lineage (pipelines/delete.py) and is kept as it is."""
        m = done.get(p["part_id"])
        if m is None:
            return False
        return "input" not in m or (m["input_bytes"], m["part_input_bytes"]) \
            == (p["input_bytes"], p["bytes"])

    todo = [p for p in parts if not _unchanged(p)]
    skipped = len(parts) - len(todo)
    if todo:
        metrics = _part_scan_seed(todo).map_batches(
            EncodePartitionWriter(
                out_dir, codec_overrides,
                shared_vocab_columns=shared_vocab_columns),
            batch_size=None, batch_format="pyarrow")
        mt = metrics.to_pandas()  # tiny: one row per partition
    else:
        import pandas as pd
        mt = pd.DataFrame({"rows": [], "orig_bytes": [], "enc_bytes": []})
    entries = plan(out_dir, []).manifests.values()
    orig = sum(m["orig_bytes"] for m in entries)
    enc = sum(m["enc_bytes"] for m in entries)
    return {"parts": len(entries),
            "rows": int(sum(m["rows"] for m in entries)),
            "orig_bytes": int(orig), "enc_bytes": int(enc),
            "ratio": round(orig / enc, 4) if enc else 0.0,
            "skipped_parts": skipped,
            "encoded_rows_this_run": int(mt["rows"].sum())}


# the generic read side of the store lives in sources/encoded.py:
# read_encoded(store, columns=..., filter=...) — projection + zone-map
# pruning + encoded-domain predicates over the decode paths below


class DecodePartFile:
    """Task: one encoded part file path → decoded original table.
    With `columns`, only those encoded-block rows are read and decoded —
    column pruning without touching other payloads; a part that lacks
    one of them (a part of another table in a heterogeneous store) adds
    no row, as in ``part_mask``.  A batch of no such parts gives the
    typed empty block of ``columns`` (no columns without a
    projection)."""

    def __init__(self, columns: list[str] | None = None):
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        tables = []
        for p in batch.column("path").to_pylist():
            # unrequested blocks' payload pages are never read
            enc = read_part(p, self.columns)
            if self.columns is not None and not set(self.columns) <= \
                    set(enc.column("column").to_pylist()):
                continue
            tables.append(decode_rows(
                enc, expect_complete=self.columns is None,
                base_dir=os.path.dirname(p)))
        if not tables:
            return empty_block(self.columns or [], None)
        # a full read of a heterogeneous store: a part that lacks a
        # column gives nulls there
        return pa.concat_tables(tables, promote_options="permissive")


def _part_scan_seed(files: list[dict]) -> "rd.Dataset":
    """The one Ray Data seed of a per-part job: its item rows in
    O(cluster CPUs) blocks, not one block per item (``from_items``
    block creation is serial driver work, and a 10^6-part store must
    not create 10^6 driver-side blocks); every task loops the items of
    its batch (``map_batches(batch_size=None)``), so fewer, larger
    blocks are free.  Byte balance is the planner's job: the ingest's
    descriptors are already packed to ``target_bytes``
    (``plan_partitions``).

    Two callers: ``sources/plan.py::execute_rows`` above the in-process
    bound, and ``encode_files``, which always seeds here.  A prototype
    in-process ingest wrote byte-identical parts and was faster on
    perfbench's ingest workload (1 CPU: ``ingest_mbps`` 32 → 40,
    ``peak_rss_mb`` 789 → 610).  But the first set-up build of that
    workload is where about 2 s of Ray worker and Ray Data stats-actor
    start-up falls today, and the median leaves it out.  Without it,
    the start-up lands in the warm-up upsert, whose input perfbench
    builds with ``rd.from_arrow``, and ``setup_s`` counts it: 4.9-5.4 s
    rose to 7.1-7.2 s."""
    nb = min(max(len(files), 1), max(4 * _cluster_cpus(), 16))
    return rd.from_items(files, override_num_blocks=nb)


def decode_files(out_dir: str, columns: list[str] | None = None,
                 limit: int | None = None) -> "rd.Dataset":
    """Decode of an encoded directory → Dataset of original blocks
    (one ``DecodePartFile`` call per part; no shuffle).  Pass `columns`
    to decode a projection only (pruning at the encoded-block level).
    With ``limit``, only the minimal prefix of parts whose manifest
    row counts guarantee ≥limit rows is even planned — the caller
    still applies ``Dataset.limit`` for the exact cut; this prunes the
    plan so a head-style read of a 10^6-part store schedules O(1)
    tasks.

    Returns a :class:`~packcol.sources.plan.LocalDataset` when the
    plan ran in-process (``plan.execute``), else a lazy streaming
    Dataset."""
    p = plan(out_dir, [], "and")
    if limit is not None and limit >= 0:
        prefix, got = [], 0
        for path in p.parts:
            prefix.append(path)
            got += p.manifests[path]["rows"]
            if got >= limit:
                break
        p = p.restrict(prefix)
    return as_dataset(execute(p, DecodePartFile(columns)))


# ---------------------------------------------------------------------------
# generic streaming forms
# ---------------------------------------------------------------------------

def encode_dataset(ds: "rd.Dataset",
                   codec_overrides: dict | None = None) -> "rd.Dataset":
    return ds.map_batches(EncodeBatch(codec_overrides),
                          batch_format="pyarrow", zero_copy_batch=True)


class DatasetPartWriter:
    """Stateless task: one batch of DECODED rows → one part of the
    store (``write_part``) — the generic Dataset-sink counterpart of
    EncodePartitionWriter (which reads parquet slices itself).
    Retry-safe: the part id is ``prefix`` + a pure function of the
    batch content and the write is an atomic rename.  ``meta`` is the
    lineage every part of this writer records (ClusterPartWriter,
    pipelines/cluster.py)."""

    prefix = "w-"
    meta: dict | None = None

    def __init__(self, out_dir: str, codec_overrides: dict | None = None):
        self.out_dir = out_dir
        self.codec_overrides = codec_overrides

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.encode import content_part_id
        return pa.Table.from_pylist([write_part(
            self.out_dir, self.prefix + content_part_id(batch), batch,
            codec_overrides=self.codec_overrides, meta=self.meta)])


def write_encoded(ds: "rd.Dataset | pa.Table", out_dir: str, *,
                  codec_overrides: dict | None = None,
                  rows_per_part: int | None = None) -> dict:
    """Sink: stream ANY ``ray.data.Dataset`` into an encoded store
    directory — parts + lineage manifests (zone maps, value counts,
    key sets), fully readable by ``read_encoded`` / ``agg_encoded`` /
    ``count_encoded`` / ``cluster_store``.  This closes the loop:
    pipeline output (a curated corpus, a join result) lands in the
    same store format the file-based ``encode_files`` writes.

    Content-addressed part ids make task retries idempotent (a re-run
    of the same block overwrites the same part).  Corollary: two
    byte-IDENTICAL input blocks coalesce into one part — set semantics
    for exact duplicate blocks (practically impossible at real block
    sizes unless the pipeline duplicates data wholesale).  Unlike
    ``encode_files`` there is no resume-skip — the source is a live
    Dataset, not an immutable file set; for checkpointed ingest of
    files, use ``encode_files``.

    A driver-sized input (``sources/plan.py::driver_blocks``: a
    ``pa.Table``, a ``LocalDataset`` or a materialized Dataset of at
    most ``_LOCAL_PLAN_BYTES``) is written in-process by the same
    writer over the batches Ray would give it: one per non-empty block,
    or ``rows_per_part``-row slices of the whole input.  Anything else
    runs as a Ray Data ``map_batches``.

    Returns aggregate metrics {parts, rows, orig_bytes, enc_bytes,
    ratio} for the rows written THIS call."""
    os.makedirs(out_dir, exist_ok=True)
    w = DatasetPartWriter(out_dir, codec_overrides)
    bs = driver_blocks(ds)
    if bs is None:
        parts = ds.map_batches(
            w, batch_size=rows_per_part, batch_format="pyarrow") \
            .to_pandas().to_dict("records")  # tiny: one row per part
    else:
        if rows_per_part:
            t = pa.concat_tables(bs, promote_options="permissive")
            bs = [t.slice(i, rows_per_part)
                  for i in range(0, t.num_rows, rows_per_part)]
        parts = [r for b in bs if b.num_rows for r in w(b).to_pylist()]
    orig = int(sum(r["orig_bytes"] for r in parts))
    enc = int(sum(r["enc_bytes"] for r in parts))
    return {"parts": len(parts), "rows": int(sum(r["rows"] for r in parts)),
            "orig_bytes": orig, "enc_bytes": enc,
            "ratio": round(orig / enc, 4) if enc else 0.0}


def decode_dataset(enc_ds: "rd.Dataset",
                   whole_blocks: bool | None = None) -> "rd.Dataset":
    """Decode encoded rows → original blocks.

    Default (whole_blocks=None/False): ALWAYS-correct grouped path —
    ``groupby("part_id").map_groups`` reassembles each partition's rows
    first, so arbitrarily re-split/re-shuffled encoded rows decode
    byte-identically (one shuffle of the encoded rows).

    whole_blocks=True: fast shuffle-free path for blocks known to hold
    whole partitions (anything straight out of encode_dataset).  The
    assumption is CHECKED, not trusted: each partition records its
    column count (n_cols), and a block holding a partial partition
    raises instead of silently mis-decoding."""
    if whole_blocks:
        return enc_ds.map_batches(DecodeBatch(), batch_format="pyarrow",
                                  zero_copy_batch=True)
    return enc_ds.groupby("part_id").map_groups(
        lambda g: decode_rows(g), batch_format="pyarrow")


def verify_dataset(ds: "rd.Dataset",
                   codec_overrides: dict | None = None) -> dict:
    """In-task encode→decode→compare over a Dataset; returns summary."""
    verdicts = ds.map_batches(RoundtripVerify(codec_overrides),
                              batch_format="pyarrow", zero_copy_batch=True)
    pdf = verdicts.to_pandas()  # one row per (part, column) — small
    return {
        "n_checks": len(pdf),
        "n_failed": int((~pdf["ok"]).sum()),
        "orig_bytes": int(pdf["orig_bytes"].sum()),
        "enc_bytes": int(pdf["enc_bytes"].sum()),
        "ratio": round(pdf["orig_bytes"].sum() /
                       max(pdf["enc_bytes"].sum(), 1), 4),
        "by_codec": pdf.groupby("codec")["enc_bytes"].sum().to_dict(),
    }


def text_mismatches(html, text) -> tuple[int, int]:
    """(rows, rows where extract_text(html) != text, byte-identical) of
    one block's ``html`` and ``text`` columns: the reference-parity
    invariant (BASELINE.json input_hint)."""
    import pyarrow.compute as pc
    from ..sources.webtext import extract_text_batch
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    eq = pc.equal(extract_text_batch(html).cast(pa.large_string()),
                  text.cast(pa.large_string()))
    return len(eq), len(eq) - int(
        pc.sum(pc.cast(eq, pa.int64())).as_py() or 0)


class DecodeVerifyPart:
    """Fused task: encoded part file → decode → extract_text check →
    (rows, mismatches) counts only.  Nothing big ever enters the object
    store — the 100 TB-scale shape for a full-corpus verify."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = bad = 0
        for p in batch.column("path").to_pylist():
            t = decode_rows(read_part(p), base_dir=os.path.dirname(p))
            if {"html", "text"} <= set(t.column_names):
                dn, dbad = text_mismatches(t.column("html"),
                                           t.column("text"))
                n += dn
                bad += dbad
            else:
                # generic schema: decode success + row count only
                n += t.num_rows
        return pa.table({"n": [n], "n_bad": [bad]})


def _sum_counts(res) -> tuple[int, int]:
    """The summed ``n`` and ``n_bad`` of a count task's result (one row
    per task call); (0, 0) when it has no rows."""
    t = collect(res)
    if t is None:
        return 0, 0
    return sum(t.column("n").to_pylist()), sum(t.column("n_bad").to_pylist())


def verify_files(out_dir: str) -> dict:
    """Decode every encoded part and check extract_text(html)==text,
    fused in one ``DecodeVerifyPart`` call per part (``plan.execute``);
    returns {rows, mismatches}."""
    n, bad = _sum_counts(execute(plan(out_dir, []), DecodeVerifyPart()))
    return {"rows": n, "mismatches": bad}


class EncodedFilterPart(ScanPart):
    """Task: a filtered scan of encoded parts.  ``preds`` (normalized,
    combined by ``mode``) evaluate on the filter columns' packed form
    where the codec has one (sources/plan.py::part_mask,
    codecs/access.py).  ``out_columns`` decode through ``take_any`` at
    the matching rows: an fsst block expands only those rows, other
    codecs decode the block and take them.  ``schema`` types the empty
    block of a task that matched nothing, so schemas unify across
    tasks."""

    def __init__(self, preds: list[tuple], out_columns: list[str],
                 mode: str = "and", schema: pa.Schema | None = None):
        super().__init__(preds, mode, out_columns)
        self.schema = schema

    def reduce(self, enc_of, mask, path):
        from ..codecs import take_any
        sel = np.flatnonzero(mask)
        return pa.table({name: take_any(enc_of[name], sel)
                         for name in self.columns})

    def empty(self):
        return empty_block(self.columns, self.schema)


class SpotCheckPart(ScanPart):
    """Task: sample k rows of one encoded part, read them with one
    ``take_any`` per column and compare against the original cells
    re-read from the manifested input slice (SeqVector::get-style
    sampling: an fsst block expands only the sampled rows).
    ``manifests`` is the plan's {path: manifest} (``Plan.manifests``);
    every part scanned has input lineage (``spot_check_files``)."""

    def __init__(self, manifests: dict[str, dict], k: int = 8):
        super().__init__(columns=None)
        self.manifests = manifests
        self.k = k

    def reduce(self, enc_of, mask, path):
        import hashlib
        from ..codecs import take_any
        meta = self.manifests[path]
        orig = pq.ParquetFile(meta["input"]).read_row_groups(
            list(range(meta["rg_start"], meta["rg_end"] + 1)))
        if orig.num_rows == 0:
            return None  # nothing to sample in an empty partition
        # stable digest seed: hash(str) is salted per process
        # (PYTHONHASHSEED), which would sample different rows on
        # every worker/run — not reproducible verification
        seed = int.from_bytes(
            hashlib.sha1(part_id(path).encode()).digest()[:4], "little")
        rows = np.random.default_rng(seed).integers(
            0, orig.num_rows, size=min(self.k, orig.num_rows))
        n_checked = n_bad = 0
        for name, enc in enc_of.items():
            got = take_any(enc, rows).to_pylist()
            want = orig.column(name).take(rows).to_pylist()
            n_checked += len(rows)
            n_bad += sum(g != w for g, w in zip(got, want))
        return pa.table({"n": [n_checked], "n_bad": [n_bad]})

    def empty(self):
        return pa.table({"n": pa.array([], pa.int64()),
                         "n_bad": pa.array([], pa.int64())})


def spot_check_files(out_dir: str, k: int = 8) -> dict:
    """Sampled point-access verification of the store's part files
    that have input lineage (``plan.execute``).  Parts without it are
    not checked: the Dataset sink and cluster writers record none, and
    ``delete_where`` drops it (their rows diverged from the source
    slice).  A manifest whose part file is gone is fsck's
    (``check_store``), not checked here."""
    p = plan(out_dir, [])
    p = p.restrict([f for f in p.parts
                    if p.manifests[f].get("input")])
    n, bad = _sum_counts(execute(p, SpotCheckPart(p.manifests, k)))
    return {"checked": n, "mismatches": bad}


def verify_url_text_invariant(decoded: "rd.Dataset") -> dict:
    """The reference-parity invariant: extract_text(html) == text,
    byte-identical, per url (BASELINE.json input_hint).  Vectorized
    per-batch (``text_mismatches``); global result is a cheap aggregate
    of counts."""

    def check(batch: pa.Table) -> pa.Table:
        n, n_bad = text_mismatches(batch.column("html"),
                                   batch.column("text"))
        return pa.table({"n": [n], "n_bad": [n_bad]})

    n, bad = _sum_counts(decoded.map_batches(check, batch_format="pyarrow"))
    return {"rows": n, "mismatches": bad}
