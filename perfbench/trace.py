"""Span tracer for the benchmark's traced run (``--trace 1``).

Spans come from wrappers the benchmark installs around public functions
of each packcol layer (module-attribute patches made from this file;
packcol itself is unchanged).  The main process installs them; Ray
worker processes install them through the job's
``worker_process_setup_hook`` (:func:`install_worker`).

A span is ``[id, parent, name, t0, t1, pid, label, attrs]``.  Times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so comparable
across the processes of one host); ``id``/``parent`` are unique per pid.
The layer of a span is its name up to the first dot.  The main process
labels each benchmark operation and writes the label to a flag file; a
worker reads it when a root call (a task) starts and records nothing
while the label is empty.  Workers keep spans in memory and append them
to ``spans-<pid>.jsonl`` when the root call ends; the main process keeps
its spans in memory and writes the whole trace out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import statistics
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_FLAG = "label"
COLUMNS = ("url", "warc_ts", "html", "text", "lang")


class Tracer:
    """Per-process span recorder; see the module docstring."""

    def __init__(self, trace_dir: str, main: bool):
        self.dir = trace_dir
        self.main = main
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.label = ""
        self.suppress = False
        self.next_id = 0
        # column names of the encode_table / decode_rows call in flight,
        # so per-column codec spans can be attributed by call order
        self.enc_cols: list[str] = []
        self.enc_i = 0
        self.dec_cols: list[str] = []
        self.dec_i = 0

    # -- labels --------------------------------------------------------
    def set_label(self, label: str) -> None:
        self.label = label
        path = os.path.join(self.dir, _FLAG)
        with open(path + ".tmp", "w") as f:
            f.write(label)
        os.replace(path + ".tmp", path)

    def _current_label(self) -> str:
        if self.main:
            return self.label
        try:
            with open(os.path.join(self.dir, _FLAG)) as f:
                return f.read()
        except FileNotFoundError:
            return ""

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, label: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        sp = [self.next_id, parent, name, 0.0, 0.0, self.pid, label, {}]
        self.next_id += 1
        return sp

    def _close(self, sp: list) -> None:
        self.stack.pop()
        self.spans.append(sp)
        if not self.stack and not self.main:
            self.flush()

    def wrap(self, fn, name: str, pre=None, post=None):
        """``fn`` recording a span ``name``; ``pre(tracer, span, args,
        kwargs)`` runs before the call, ``post(tracer, span, args,
        kwargs, result)`` after it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **kw):
            if tracer.suppress:
                return fn(*a, **kw)
            if tracer.stack:
                label = tracer.stack[-1][6]
            else:
                label = tracer._current_label()
                if not label:
                    tracer.suppress = True
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer.suppress = False
            sp = tracer._open(name, label)
            if pre is not None:
                pre(tracer, sp, a, kw)
            tracer.stack.append(sp)
            ok = False
            sp[3] = time.perf_counter()
            try:
                out = fn(*a, **kw)
                ok = True
            finally:
                sp[4] = time.perf_counter()
                if ok and post is not None:
                    post(tracer, sp, a, kw, out)
                tracer._close(sp)
            return out

        return traced

    @contextlib.contextmanager
    def op(self, label: str, kind: str):
        """Main-process root span around one benchmark operation."""
        self.set_label(label)
        sp = self._open(f"op.{kind}", label)
        self.stack.append(sp)
        sp[3] = time.perf_counter()
        try:
            yield sp
        finally:
            sp[4] = time.perf_counter()
            self._close(sp)
            self.set_label("")

    def flush(self) -> None:
        if not self.spans:
            return
        with open(os.path.join(self.dir, f"spans-{self.pid}.jsonl"),
                  "a") as f:
            for sp in self.spans:
                f.write(json.dumps(sp) + "\n")
        self.spans.clear()

    def collect(self) -> list[list]:
        """Main process: own spans plus every worker's flushed spans."""
        out = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.dir,
                                                  "spans-*.jsonl"))):
            with open(path) as f:
                out.extend(json.loads(line) for line in f)
        return out

    def dump(self, path: str) -> int:
        spans = self.collect()
        with open(path, "w") as f:
            for sp in spans:
                f.write(json.dumps(sp) + "\n")
        return len(spans)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _arg(a, kw, i: int, name: str):
    return a[i] if len(a) > i else kw.get(name)


def _pre_encode_table(tr, sp, a, kw):
    tr.enc_cols = list(_arg(a, kw, 0, "batch").column_names)
    tr.enc_i = 0


def _pre_encode_column(tr, sp, a, kw):
    if tr.stack and tr.stack[-1][2] == "stages.encode_table" and \
            tr.enc_i < len(tr.enc_cols):
        sp[7]["col"] = tr.enc_cols[tr.enc_i]
        tr.enc_i += 1


def _pre_decode_rows(tr, sp, a, kw):
    tr.dec_cols = _arg(a, kw, 0, "enc_rows").column("column").to_pylist()
    tr.dec_i = 0


def _pre_decode(tr, sp, a, kw):
    sp[7]["n"] = int(_arg(a, kw, 0, "enc").n_values)
    if tr.stack and tr.stack[-1][2] == "stages.decode_rows" and \
            tr.dec_i < len(tr.dec_cols):
        sp[7]["col"] = tr.dec_cols[tr.dec_i]
        tr.dec_i += 1


def _pre_seed(tr, sp, a, kw):
    sp[7]["n"] = len(_arg(a, kw, 0, "files"))


def _post_probe(tr, sp, a, kw, out):
    sp[7]["pruned"] = not out


def _post_write(tr, sp, a, kw, out):
    where = _arg(a, kw, 1, "where")
    if isinstance(where, str) and os.path.exists(where):
        sp[7]["bytes"] = os.path.getsize(where)


def _pre_task(tr, sp, a, kw):
    sp[7]["cls"] = type(a[0]).__name__


def install(tracer: Tracer) -> None:
    """Patch the traced entry points of every packcol layer."""
    import pyarrow.parquet as pq

    import packcol.codecs as codecs_pkg
    from packcol.codecs import access, all_codecs
    from packcol.codecs import base as codecs_base
    from packcol.pipelines import delete, upsert
    from packcol.pipelines import encode_pipeline as ep
    from packcol.sources import encoded
    from packcol.stages import encode as st_encode
    from packcol.stages import select, stats
    from packcol.state import bloom, manifest

    def patch(targets, name, pre=None, post=None):
        done: dict[int, object] = {}
        for owner, attr in targets:
            fn = getattr(owner, attr)
            if id(fn) not in done:
                done[id(fn)] = tracer.wrap(fn, name, pre, post)
            setattr(owner, attr, done[id(fn)])

    # codecs
    seen = set()
    for codec in all_codecs().values():
        cls = type(codec)
        if cls in seen:
            continue
        seen.add(cls)
        if "encode" in cls.__dict__:
            patch([(cls, "encode")], "codecs.encode")
    patch([(codecs_base, "decode_any"), (codecs_pkg, "decode_any"),
           (st_encode, "decode_any")], "codecs.decode", pre=_pre_decode)
    patch([(access, "eval_pred")], "codecs.access")
    # stages
    patch([(select, "encode_with_guard"), (st_encode, "encode_with_guard")],
          "stages.encode_column", pre=_pre_encode_column)
    patch([(stats, "column_stats"), (st_encode, "column_stats")],
          "stages.column_stats")
    patch([(st_encode, "encode_table"), (ep, "encode_table")],
          "stages.encode_table", pre=_pre_encode_table)
    patch([(st_encode, "decode_rows"), (ep, "decode_rows")],
          "stages.decode_rows", pre=_pre_decode_rows)
    patch([(ep, "store_selection")], "stages.select")
    # state
    patch([(manifest, "compute_zones"), (ep, "compute_zones"),
           (delete, "compute_zones")], "state.zones")
    patch([(ep, "build_part_blooms")], "state.bloom_build")
    patch([(manifest, "file_digest64")], "state.digest")
    patch([(manifest.Manifest, "record")], "state.manifest_write")
    patch([(manifest.Manifest, "load")], "state.manifest_read")
    patch([(bloom, "bloom_may_contain")], "state.bloom_probe",
          post=_post_probe)
    # sources: the scan seed is where planning hands over to Ray Data
    patch([(ep, "_part_scan_seed")], "sources.plan_seed", pre=_pre_seed)
    # pipelines: parquet I/O and the per-task callables
    patch([(pq, "read_table")], "pipelines.read")
    patch([(pq.ParquetFile, "read_row_groups")], "pipelines.read")
    patch([(pq, "write_table")], "pipelines.write", post=_post_write)
    for owner, cls_name in ((ep, "EncodePartitionWriter"),
                            (ep, "DatasetPartWriter"),
                            (ep, "DecodePartFile"),
                            (ep, "DecodeVerifyPart"),
                            (ep, "EncodedFilterPart"),
                            (encoded, "_CountPart"),
                            (encoded, "_AggPart"),
                            (encoded, "_TopKPart"),
                            (upsert, "_KeyColDistinct"),
                            (delete, "_DeletePartTask")):
        patch([(getattr(owner, cls_name), "__call__")], "pipelines.task",
              pre=_pre_task)


def install_worker() -> None:
    """``worker_process_setup_hook`` of the traced run."""
    install(Tracer(os.environ[TRACE_DIR_ENV], main=False))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _dur(sp) -> float:
    return sp[4] - sp[3]


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


class SpanIndex:
    """Spans grouped by op label, with per-span self time (duration
    minus the direct children recorded in the same process)."""

    def __init__(self, spans: list[list], main_pid: int):
        self.main_pid = main_pid
        self.by_label: dict[str, list] = {}
        child = {}
        for sp in spans:
            self.by_label.setdefault(sp[6], []).append(sp)
            if sp[1] is not None:
                key = (sp[5], sp[1])
                child[key] = child.get(key, 0.0) + _dur(sp)
        self.self_s = {(sp[5], sp[0]): _dur(sp) - child.get((sp[5], sp[0]),
                                                             0.0)
                       for sp in spans}
        self.by_key = {(sp[5], sp[0]): sp for sp in spans}

    def spans(self, label: str, name: str | None = None) -> list:
        return [sp for sp in self.by_label.get(label, ())
                if name is None or sp[2] == name]

    def self_of(self, sp) -> float:
        return self.self_s[(sp[5], sp[0])]

    def parent(self, sp):
        return None if sp[1] is None else self.by_key.get((sp[5], sp[1]))

    def worker(self, sp) -> bool:
        return sp[5] != self.main_pid


def layer_metrics(ix: SpanIndex, ops: list[dict]) -> dict[str, float]:
    """Every per-layer metric from the traced spans and the op records
    (``label``, ``kind``, ``wall_s``, ``rows_returned``, ``prefix``,
    ``primary``, and for upserts ``parts_rewritten``/``logical_bytes``)."""
    def labels(*kinds, prefix=None, primary=None):
        return [o for o in ops if o["kind"] in kinds
                and (prefix is None or o["prefix"] == prefix)
                and (primary is None or o["primary"] == primary)]

    def per_op(recs, fn):
        return _median([fn(o["label"]) for o in recs])

    def total(label, name, self_time=False, pred=None):
        return sum(ix.self_of(sp) if self_time else _dur(sp)
                   for sp in ix.spans(label, name)
                   if pred is None or pred(sp))

    m: dict[str, float] = {}
    enc_ops = labels("encode")
    ver_ops = labels("verify")
    reads = ("point", "in", "count", "range", "agg", "topk")
    block = [o for o in ops if o["prefix"]]
    block_reads = [o for o in block if o["kind"] in reads]

    def under_col(col, parent_name):
        def pred(sp):
            p = ix.parent(sp)
            return p is not None and p[2] == parent_name and \
                p[7].get("col") == col
        return pred

    for col in COLUMNS:
        m[f"codecs.encode_ms.{col}"] = 1e3 * per_op(
            enc_ops, lambda lb, c=col: total(
                lb, "codecs.encode",
                pred=under_col(c, "stages.encode_column")))
        m[f"codecs.decode_ms.{col}"] = 1e3 * per_op(
            ver_ops, lambda lb, c=col: total(
                lb, "codecs.decode",
                pred=lambda sp, c=c: sp[7].get("col") == c))
    access = [sp for o in labels("count", "range")
              for sp in ix.spans(o["label"], "codecs.access")]
    m["codecs.access_ms"] = 1e3 * (sum(map(_dur, access)) / len(access)
                                   if access else 0.0)

    m["stages.select_ms"] = 1e3 * per_op(
        enc_ops, lambda lb: total(lb, "stages.select"))
    m["stages.encode_table_self_ms"] = 1e3 * per_op(
        enc_ops, lambda lb: total(lb, "stages.encode_table", True))
    parts = fallbacks = 0
    for o in enc_ops:
        tables = ix.spans(o["label"], "stages.encode_table")
        parts += len(tables)
        hit = set()
        for sp in ix.spans(o["label"], "stages.column_stats"):
            p = ix.parent(sp)
            if p is not None and p[2] == "stages.encode_column":
                hit.add((p[5], p[1]))
        fallbacks += len(hit)
    m["stages.guard_fallbacks"] = fallbacks / parts if parts else 0.0
    m["stages.decode_rows_self_ms"] = 1e3 * per_op(
        ver_ops, lambda lb: total(lb, "stages.decode_rows", True))

    for name, span in (("state.zones_ms", "state.zones"),
                       ("state.bloom_build_ms", "state.bloom_build"),
                       ("state.digest_ms", "state.digest")):
        m[name] = 1e3 * per_op(enc_ops, lambda lb, s=span: total(lb, s))
    m["state.manifest_write_ms"] = 1e3 * per_op(
        enc_ops, lambda lb: total(lb, "state.manifest_write", True))
    nb = max(len(block), 1)
    m["state.manifest_reads_per_op"] = sum(
        len(ix.spans(o["label"], "state.manifest_read")) for o in block) / nb
    m["state.bloom_probes_per_op"] = sum(
        len(ix.spans(o["label"], "state.bloom_probe")) for o in block) / nb
    point_ops = labels("point", "in")
    m["state.bloom_probe_ms"] = 1e3 * per_op(
        point_ops, lambda lb: total(lb, "state.bloom_probe"))
    probes = [sp for o in labels("point", "in", prefix=True)
              for sp in ix.spans(o["label"], "state.bloom_probe")]
    m["state.bloom_prune_ratio"] = (
        sum(1 for sp in probes if sp[7].get("pruned")) / len(probes)
        if probes else 0.0)

    read_ops = labels(*reads)

    def plan_s(o):
        seeds = ix.spans(o["label"], "sources.plan_seed")
        root = ix.spans(o["label"], f"op.{o['kind']}")
        if not root:
            return o["wall_s"]
        if not seeds:
            return _dur(root[0])
        return min(sp[4] for sp in seeds) - root[0][3]
    m["sources.plan_ms"] = 1e3 * _median([plan_s(o) for o in read_ops])
    nr = max(len(block_reads), 1)
    m["sources.parts_planned_per_op"] = sum(
        sp[7].get("n", 0) for o in block_reads
        for sp in ix.spans(o["label"], "sources.plan_seed")) / nr
    m["sources.parts_scanned_per_op"] = sum(
        1 for o in block_reads
        for sp in ix.spans(o["label"], "pipelines.read")
        if ix.worker(sp)) / nr
    decoded = sum(sp[7].get("n", 0) for o in block_reads
                  for sp in ix.spans(o["label"], "codecs.decode")
                  if (ix.parent(sp) or [None, None, ""])[2]
                  != "codecs.decode")
    returned = sum(o["rows_returned"] for o in block_reads)
    m["sources.rows_decoded_per_row_returned"] = (
        decoded / returned if returned else 0.0)

    m["pipelines.read_ms"] = 1e3 * per_op(
        ver_ops, lambda lb: total(lb, "pipelines.read"))
    m["pipelines.write_ms"] = 1e3 * per_op(
        enc_ops, lambda lb: total(lb, "pipelines.write"))
    primary = [o for o in ops if o["primary"]]
    busy = {o["label"]: total(o["label"], "pipelines.task",
                              pred=ix.worker) for o in primary}
    m["pipelines.task_busy_s"] = _median(list(busy.values()))
    m["pipelines.ray_overhead_s"] = _median(
        [o["wall_s"] - busy[o["label"]] for o in primary])
    ups = [o for o in block if o["kind"] == "upsert"]
    m["pipelines.upsert_parts_rewritten"] = float(
        sum(o["parts_rewritten"] for o in ups))
    written = sum(sp[7].get("bytes", 0) for o in ups
                  for sp in ix.spans(o["label"], "pipelines.write"))
    logical = sum(o["logical_bytes"] for o in ups)
    m["pipelines.upsert_bytes_written_per_byte"] = (
        written / logical if logical else 0.0)
    m["pipelines.verify_check_ms"] = 1e3 * per_op(
        ver_ops, lambda lb: total(
            lb, "pipelines.task", True,
            pred=lambda sp: sp[7].get("cls") == "DecodeVerifyPart"))

    # self time per layer, per primary op of the workload
    for layer in ("op", "pipelines", "sources", "stages", "state",
                  "codecs"):
        m[f"{layer}.self_ms"] = 1e3 * per_op(primary, lambda lb, L=layer: sum(
            ix.self_of(sp) for sp in ix.spans(lb)
            if sp[2].split(".", 1)[0] == L))
    return m


def exact_counts(m: dict[str, float]) -> dict[str, float]:
    """The per-layer counts that must repeat exactly for one seed."""
    keys = ("state.manifest_reads_per_op", "state.bloom_probes_per_op",
            "state.bloom_prune_ratio", "sources.parts_planned_per_op",
            "sources.parts_scanned_per_op",
            "sources.rows_decoded_per_row_returned",
            "pipelines.upsert_parts_rewritten",
            "pipelines.upsert_bytes_written_per_byte",
            "stages.guard_fallbacks")
    return {k: m[k] for k in keys}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = []
    for kind in ("encode_ms", "decode_ms"):
        spec += [(f"codecs.{kind}.{c}", "ms", "lower") for c in COLUMNS]
    spec += [(f"codecs.enc_bytes.{c}", "bytes", "lower") for c in COLUMNS]
    spec += [
        ("codecs.access_ms", "ms", "lower"),
        ("stages.select_ms", "ms", "lower"),
        ("stages.encode_table_self_ms", "ms", "lower"),
        ("stages.guard_fallbacks", "ratio", "lower"),
        ("stages.decode_rows_self_ms", "ms", "lower"),
        ("state.zones_ms", "ms", "lower"),
        ("state.bloom_build_ms", "ms", "lower"),
        ("state.digest_ms", "ms", "lower"),
        ("state.manifest_write_ms", "ms", "lower"),
        ("state.manifest_reads_per_op", "count/op", "lower"),
        ("state.bloom_probes_per_op", "count/op", "lower"),
        ("state.bloom_probe_ms", "ms", "lower"),
        ("state.bloom_prune_ratio", "ratio", "higher"),
        ("sources.plan_ms", "ms", "lower"),
        ("sources.parts_planned_per_op", "count/op", "lower"),
        ("sources.parts_scanned_per_op", "count/op", "lower"),
        ("sources.rows_decoded_per_row_returned", "ratio", "lower"),
        ("pipelines.read_ms", "ms", "lower"),
        ("pipelines.write_ms", "ms", "lower"),
        ("pipelines.task_busy_s", "s", "lower"),
        ("pipelines.ray_overhead_s", "s", "lower"),
        ("pipelines.upsert_parts_rewritten", "count", "lower"),
        ("pipelines.upsert_bytes_written_per_byte", "ratio", "lower"),
        ("pipelines.verify_check_ms", "ms", "lower"),
    ]
    spec += [(f"{layer}.self_ms", "ms", "lower")
             for layer in ("op", "pipelines", "sources", "stages", "state",
                           "codecs")]
    spec += [("trace.overhead_ms", "ms", "lower"),
             ("trace.overhead_frac", "ratio", "lower")]
    return spec
