"""The benchmark's workloads, oracle checks and end-to-end metrics.

Every run performs the same set-up (input generation plus a store build,
three times) and warm-up, and then its workload's primary loop for
``--seconds``:

* ``ingest`` — ``encode_files`` of the generated table into a fresh store;
* ``scan``   — one ``verify_files`` pass, then one narrow
  ``read_encoded(columns=["url", "lang"])`` pass;
* ``lookup`` — a closed loop, one client, replaying the seeded op
  sequence in blocks of one key-scoped upsert and one read of each kind
  (point / IN / count / range / agg / top-k).

Every end-to-end metric is reported on every workload, so the metrics of
the other two workloads come from a fixed amount of their work done in
the same run: the ingest numbers from the warm set-up builds and three
more, the scan numbers from six scan passes, the lookup numbers from
eight blocks of the op sequence.  The primary workload is the one measured
for ``--seconds``.

Every time is taken with the hypervisor's steal taken out
(:mod:`perfbench.steal`); the raw wall medians go to the context line.

Every answer is checked against an oracle computed with numpy/pyarrow
from the generated input, amended by the benchmark's own upserts.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from packcol.pipelines.encode_pipeline import encode_files, verify_files
from packcol.pipelines.upsert import upsert_encoded
from packcol.sources.encoded import (agg_encoded, count_encoded,
                                     read_encoded, topk_encoded)
from packcol.sources.webtext import LANGS, write_webtext

from perfbench import trace as tr
from perfbench.steal import cpu_ticks, unstolen

# The table is the same for every --seed; the seed draws the lookup op
# sequence.  The store-level codec choice samples the first two input
# files, and for about one table seed in ten (13 of 130 tried) it picks
# fsst over toksep for html, halving ingest and scan throughput: a seeded
# table would make those metrics bimodal across seeds.  42 is the
# generator's default seed and takes toksep.
DATA_SEED = 42
SETUP_REPEATS = 3
ENCODE_CROSS_BUILDS = 3
SCAN_CROSS_PASSES = 6
LOOKUP_CROSS_BLOCKS = 8
# one block of the lookup op sequence: one upsert, then one read of each
# kind, so every kind gets the same number of samples, in a fixed order,
# so every read of every seed sees the same store shape and follows the
# upsert at the same distance (with a seeded order the top-k median moved
# by up to 25% from seed to seed); then
# POINT_PROBES more point lookups, which only add samples to the point
# percentiles (a p90 needs more than one sample per block) and are left
# out of lookup_ops_per_s, so the mix stays one op of each kind
READ_KINDS = ("point", "in", "count", "range", "agg", "topk")
POINT_PROBES = 2
BLOCK = len(READ_KINDS) + 1 + POINT_PROBES
BLOCK_S = 1.6  # wall of one block on one CPU, measured: 1.5-2.0 s
UPSERT_ROWS = 256
# an IN list takes IN_KEYS // IN_PARTS keys from each of IN_PARTS parts,
# so every IN op scans the same number of parts whatever the seed
IN_KEYS = 8
IN_PARTS = 4
COUNT_LANG = LANGS[0]  # the most frequent language: no part is pruned
RANGE_US = 2 * 3600 * 10**6
TOPK = 25
# the k-th upsert of a run sets warc_ts to its input value plus k years
# (the input spans weeks): each top-k is answered from the newest upserted
# part alone, with zones proving every other part out, whatever the data
YEAR_US = 365 * 86400 * 10**6
_EPOCH = datetime.datetime(1970, 1, 1)

END_TO_END = {  # name -> unit
    "setup_s": "s", "peak_rss_mb": "MB", "ingest_mbps": "MB/s",
    "stored_ratio": "ratio", "scan_mbps": "MB/s", "narrow_scan_s": "s",
    "point_p50_ms": "ms", "point_p90_ms": "ms", "in_p50_ms": "ms",
    "count_p50_ms": "ms", "range_p50_ms": "ms", "agg_p50_ms": "ms",
    "topk_p50_ms": "ms", "upsert_p50_ms": "ms", "lookup_ops_per_s": "1/s",
}


class SelfCheckError(RuntimeError):
    """Exact counts differ between two runs (or passes) of one seed."""


def _ts(us: int) -> datetime.datetime:
    return _EPOCH + datetime.timedelta(microseconds=int(us))


def _tables(ds) -> pa.Table | None:
    tabs = [b for b in ds.iter_batches(batch_format="pyarrow",
                                       batch_size=None) if b.num_rows]
    return pa.concat_tables(tabs) if tabs else None


def _dir_bytes(path: str, skip_manifests: bool = False) -> int:
    n = 0
    for d, _, files in os.walk(path):
        if skip_manifests and os.path.basename(d) == "_manifest":
            continue
        n += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return n


def store_counts(store: str) -> dict:
    """Exact byte counts of a freshly built store.  Manifests are left
    out of ``payload_bytes``: they record wall times."""
    enc = {c: 0 for c in tr.COLUMNS}
    for f in sorted(os.listdir(store)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(store, f),
                              columns=["column", "enc_bytes"])
            for c, b in zip(t.column("column").to_pylist(),
                            t.column("enc_bytes").to_pylist()):
                enc[c] = enc.get(c, 0) + b
    return {"enc_bytes": enc,
            "payload_bytes": _dir_bytes(store, skip_manifests=True)}


class RssPeak:
    """Peak resident memory of this process plus its Ray worker processes,
    from each process's VmHWM, sampled between operations."""

    def __init__(self):
        self.me = os.getpid()
        self.peak_kb: dict[int, int] = {}
        self.seen: set[int] = set()

    def _descendants(self) -> list[int]:
        parent = {}
        for p in os.listdir("/proc"):
            if not p.isdigit():
                continue
            try:
                with open(f"/proc/{p}/stat") as f:
                    parent[int(p)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
        out, frontier = [], [self.me]
        while frontier:
            nxt = [p for p, pp in parent.items() if pp in frontier]
            out.extend(nxt)
            frontier = nxt
        return out

    def sample(self) -> None:
        for pid in [self.me] + self._descendants():
            self.seen.add(pid)
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
                if pid != self.me and not (cmd.startswith(b"ray::") or
                                           b"default_worker.py" in cmd):
                    continue
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            self.peak_kb[pid] = max(self.peak_kb.get(pid, 0),
                                                    kb)
                            break
            except OSError:
                continue

    def total_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0

    def wait_gone(self, timeout_s: float = 20.0) -> list[int]:
        """After ``ray.shutdown``: wait for every process seen during the
        run to end, killing stragglers; returns the pids killed."""
        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False
        others = [p for p in self.seen if p != self.me]
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and any(map(alive, others)):
            time.sleep(0.1)
        killed = [p for p in others if alive(p)]
        for p in killed:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(alive, killed)):
            time.sleep(0.05)
        return killed


class Truth:
    """The oracle: the generated table's url / warc_ts / lang as arrays,
    amended by every upsert the benchmark makes (keys never change)."""

    def __init__(self, paths: list[str]):
        t = pq.read_table(paths, columns=["url", "warc_ts", "lang"])
        self.urls = t.column("url").to_pylist()
        self.index = {u: i for i, u in enumerate(self.urls)}
        self.ts = t.column("warc_ts").cast(pa.int64()).to_numpy().copy()
        self.lang = np.array(t.column("lang").to_pylist(), dtype=object)
        self.paths = paths
        # row offset of each input part file inside the concatenated table
        self.offsets = np.cumsum([0] + [pq.ParquetFile(p).metadata.num_rows
                                        for p in paths])

    def rows(self, keys) -> list[tuple]:
        return sorted({(u, int(self.ts[self.index[u]]),
                        self.lang[self.index[u]]) for u in keys})


def op_sequence(truth: Truth, seed: int, n_blocks: int,
                upsert_rows: int) -> list[dict]:
    """The fixed lookup op sequence of one seed (drawn from the original
    input, so it does not depend on timing)."""
    rng = np.random.default_rng([seed, 0x10C0])
    n = len(truth.urls)
    # range windows are centred on those rows of the middle half of the
    # parts that fall inside the most part zones, so every window leaves
    # the same number of parts to scan whatever the seed (each part's
    # times span weeks, so the zones of many parts overlap)
    n_parts = len(truth.paths)
    mid = np.arange(int(truth.offsets[n_parts // 4]),
                    int(truth.offsets[(3 * n_parts) // 4 or 1]))
    bounds = list(zip(truth.offsets[:-1], truth.offsets[1:]))
    zone_lo = np.array([truth.ts[a:b].min() for a, b in bounds])
    zone_hi = np.array([truth.ts[a:b].max() for a, b in bounds])
    cover = ((zone_lo[:, None] <= truth.ts[mid]) &
             (zone_hi[:, None] >= truth.ts[mid])).sum(axis=0)
    mid = mid[cover == cover.max()]
    # the k-th upsert rewrites part k of a seeded order of the parts, so
    # a run of up to one block per part rewrites every part once (which
    # parts hold heavy html rows does not depend on the seed); a part's
    # later upserts take rows not yet upserted, so each upsert finds all
    # its keys in one part, until a part runs out of fresh rows
    upsert_order = rng.permutation(n_parts)
    fresh: dict[int, list[int]] = {}
    in_parts = min(IN_PARTS, n_parts)
    seq = []
    for block in range(n_blocks):
        kinds = ["upsert", *READ_KINDS]
        for j, kind in enumerate(kinds + ["point"] * POINT_PROBES):
            op = {"kind": str(kind)}
            if j >= len(kinds):
                op["probe"] = True
            if kind == "point":
                op["url"] = truth.urls[int(rng.integers(n))]
            elif kind == "in":
                op["urls"] = [
                    truth.urls[int(rng.integers(truth.offsets[p],
                                                truth.offsets[p + 1]))]
                    for p in rng.choice(n_parts, size=in_parts,
                                        replace=False)
                    for _ in range(IN_KEYS // in_parts)]
            elif kind == "count":
                op["lang"] = COUNT_LANG
            elif kind == "range":
                centre = int(truth.ts[int(rng.choice(mid))])
                op["lo"] = centre - RANGE_US // 2
                op["hi"] = centre + RANGE_US // 2
            elif kind == "upsert":
                part = int(upsert_order[block % n_parts])
                rows = int(truth.offsets[part + 1] - truth.offsets[part])
                op["part"] = part
                op["shift"] = (block + 1) * YEAR_US
                take = min(upsert_rows, rows)
                if len(fresh.get(part, ())) < take:
                    fresh[part] = rng.permutation(rows).tolist()
                op["rows"] = sorted(fresh[part][:take])
                del fresh[part][:take]
            seq.append(op)
    return seq


def sequence_digest(seq: list[dict]) -> str:
    return hashlib.sha1(json.dumps(seq, sort_keys=True).encode()) \
        .hexdigest()[:16]


class Bench:
    """One benchmark run: set-up, the primary loop, the fixed amounts of
    the other workloads, oracle checks and metrics."""

    def __init__(self, *, workload: str, seed: int, seconds: float,
                 rows: int, parts: int, work: str,
                 tracer: tr.Tracer | None, t_boot: float, rss: RssPeak):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rows = rows
        self.parts = parts
        self.work = work
        self.tracer = tracer
        self.t_boot = t_boot
        self.in_dir = os.path.join(work, "in")
        self.ops: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self.walls: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.rss = rss
        self.counts: dict | None = None
        self.exact: dict = {}
        self.paths: list[str] = []
        self.logical_bytes = 0
        self.stored_ratio = 0.0
        self.ops_per_s = 0.0
        self.overhead: tuple[float, float] | None = None

    # -- op bookkeeping ------------------------------------------------
    def _fail(self, kind: str, msg: str) -> None:
        self.failed += 1
        print(f"perfbench: {kind} failed: {msg}", file=sys.stderr)

    def timed(self, kind: str, fn, check, *, primary: bool = False,
              prefix: bool = False, sample: bool = True,
              traced: bool = True):
        """Run one operation: time ``fn()``, then ``check(out, rec)``
        (untimed) must return True.  Returns the op record, or None when
        the op raised.  ``rec["wall_s"]`` is the wall time, ``rec["t_s"]``
        the same less the hypervisor's steal."""
        self.attempted += 1
        rec = {"label": f"{self.attempted}:{kind}", "kind": kind,
               "primary": primary, "prefix": prefix, "rows_returned": 0,
               "wall_s": 0.0, "t_s": 0.0}
        span = self.tracer.op(rec["label"], kind) \
            if self.tracer is not None and traced else contextlib.nullcontext()
        try:
            with span:
                ticks = cpu_ticks()
                t0 = time.perf_counter()
                out = fn()
                rec["wall_s"] = time.perf_counter() - t0
                rec["t_s"] = unstolen(rec["wall_s"], ticks, cpu_ticks())
        except Exception:
            self._fail(kind, traceback.format_exc())
            return None
        finally:
            self.rss.sample()
        try:
            ok = check(out, rec)
        except SelfCheckError:
            raise
        except Exception:
            ok = False
            print(traceback.format_exc(), file=sys.stderr)
        if not ok:
            self._fail(kind, f"wrong answer ({rec['label']})")
            return rec
        if sample:
            self.ops.append(rec)
            self.samples.setdefault(kind, []).append(rec["t_s"])
            self.walls.setdefault(kind, []).append(rec["wall_s"])
        return rec

    # -- set-up and ingest ---------------------------------------------
    def generate(self) -> None:
        shutil.rmtree(self.in_dir, ignore_errors=True)
        self.paths = write_webtext(self.in_dir, self.rows, self.parts,
                                   seed=DATA_SEED)

    def encode(self, store: str, *, primary: bool, sample: bool = True,
               traced: bool = True) -> dict | None:
        shutil.rmtree(store, ignore_errors=True)

        def check(r, rec):
            counts = store_counts(store)
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                raise SelfCheckError(
                    f"store bytes differ between builds of one input: "
                    f"{counts} != {self.counts}")
            self.logical_bytes = r["orig_bytes"]
            rec["mbps"] = r["orig_bytes"] / 1e6 / rec["t_s"]
            return (r["rows"] == self.rows and r["parts"] == self.parts
                    and count_encoded(store) == self.rows)

        return self.timed("encode", lambda: encode_files(self.paths, store),
                          check, primary=primary, sample=sample,
                          traced=traced)

    def setup(self) -> float:
        """Input generation + store build, ``SETUP_REPEATS`` times; the
        median unit time.  The last store is kept as ``self.store``, the
        one before it as ``self.spare`` for the warm-up upsert.  The first
        build warms the Ray workers up and is left out of the samples."""
        units = []
        for i in range(SETUP_REPEATS):
            ticks = cpu_ticks()
            t0 = time.perf_counter()
            self.generate()
            t_gen = unstolen(time.perf_counter() - t0, ticks, cpu_ticks())
            rec = self.encode(os.path.join(self.work, f"st{i}"),
                              primary=False, sample=i > 0)
            if rec is None:
                raise RuntimeError("set-up store build failed")
            units.append(t_gen + rec["t_s"])
            if i >= 2:
                shutil.rmtree(os.path.join(self.work, f"st{i - 2}"))
        self.store = os.path.join(self.work, f"st{SETUP_REPEATS - 1}")
        self.spare = os.path.join(self.work, f"st{SETUP_REPEATS - 2}")
        self.truth = Truth(self.paths)
        self.seq = op_sequence(self.truth, self.seed,
                               n_blocks=self.lookup_blocks(),
                               upsert_rows=min(UPSERT_ROWS,
                                               self.rows // self.parts // 2))
        return statistics.median(units)

    def ingest_loop(self, *, primary: bool) -> None:
        """Store builds: for ``--seconds`` as the primary loop, else
        ``ENCODE_CROSS_BUILDS`` of them."""
        t0 = time.perf_counter()
        store = os.path.join(self.work, "ingest")
        for i in itertools.count(1):
            self.encode(store, primary=primary)
            if (time.perf_counter() - t0 >= self.seconds if primary
                    else i >= ENCODE_CROSS_BUILDS):
                break
        shutil.rmtree(store, ignore_errors=True)

    # -- scan ----------------------------------------------------------
    def scan_pass(self, *, primary: bool, sample: bool = True) -> None:
        store = self.store
        expect_lang = dict(zip(*np.unique(self.truth.lang,
                                          return_counts=True)))

        def check_verify(r, rec):
            rec["mbps"] = self.logical_bytes / 1e6 / rec["t_s"]
            return r == {"rows": self.rows, "mismatches": 0}

        def narrow():
            n, langs = 0, {}
            for b in read_encoded(store, columns=["url", "lang"]) \
                    .iter_batches(batch_format="pyarrow", batch_size=None):
                n += b.num_rows
                vc = pc.value_counts(b.column("lang"))
                for v, c in zip(vc.field("values").to_pylist(),
                                vc.field("counts").to_pylist()):
                    langs[v] = langs.get(v, 0) + c
            return n, langs

        def check_narrow(r, rec):
            rec["rows_returned"] = r[0]
            return r[0] == self.rows and r[1] == expect_lang

        self.timed("verify", lambda: verify_files(store), check_verify,
                   primary=primary, sample=sample)
        self.timed("narrow", narrow, check_narrow, primary=primary,
                   sample=sample)

    def scan_loop(self, *, primary: bool) -> None:
        """Scan passes: for ``--seconds`` as the primary loop, else
        ``SCAN_CROSS_PASSES`` of them."""
        t0 = time.perf_counter()
        for i in itertools.count(1):
            self.scan_pass(primary=primary)
            if (time.perf_counter() - t0 >= self.seconds if primary
                    else i >= SCAN_CROSS_PASSES):
                break

    # -- lookup --------------------------------------------------------
    def lookup_op(self, op: dict, *, primary: bool, prefix: bool,
                  sample: bool = True, traced: bool = True):
        store, truth, kind = self.store, self.truth, op["kind"]
        cols = ["url", "warc_ts", "lang"]

        def rows_of(t):
            if t is None:
                return []
            return sorted(zip(t.column("url").to_pylist(),
                              t.column("warc_ts").cast(pa.int64())
                              .to_pylist(),
                              t.column("lang").to_pylist()))

        upsert_tbl = None
        if kind == "point":
            fn = lambda: _tables(read_encoded(  # noqa: E731
                store, columns=cols, filter=("url", "==", op["url"])))

            def check(t, rec):
                rec["rows_returned"] = 0 if t is None else t.num_rows
                return rows_of(t) == truth.rows([op["url"]])
        elif kind == "in":
            fn = lambda: _tables(read_encoded(  # noqa: E731
                store, columns=cols, filter=("url", "in", op["urls"])))

            def check(t, rec):
                rec["rows_returned"] = 0 if t is None else t.num_rows
                return rows_of(t) == truth.rows(op["urls"])
        elif kind == "count":
            fn = lambda: count_encoded(  # noqa: E731
                store, filter=("lang", "==", op["lang"]))

            def check(n, rec):
                rec["rows_returned"] = 1
                return n == int((truth.lang == op["lang"]).sum())
        elif kind == "range":
            fn = lambda: _tables(read_encoded(  # noqa: E731
                store, columns=["url", "warc_ts"],
                filter=("warc_ts", "between", _ts(op["lo"]),
                        _ts(op["hi"]))))

            def check(t, rec):
                rec["rows_returned"] = 0 if t is None else t.num_rows
                got = [] if t is None else sorted(
                    t.column("url").to_pylist())
                hit = (truth.ts >= op["lo"]) & (truth.ts <= op["hi"])
                return got == sorted(truth.urls[i]
                                     for i in np.flatnonzero(hit))
        elif kind == "agg":
            fn = lambda: _tables(agg_encoded(  # noqa: E731
                store, group_by="lang", aggs={"n": ("count",)}))

            def check(t, rec):
                rec["rows_returned"] = t.num_rows
                got = dict(zip(t.column("lang").to_pylist(),
                               t.column("n").to_pylist()))
                want = dict(zip(*np.unique(truth.lang, return_counts=True)))
                return got == {k: int(v) for k, v in want.items()}
        elif kind == "topk":
            fn = lambda: topk_encoded(  # noqa: E731
                store, "warc_ts", TOPK, descending=True,
                columns=["url", "warc_ts"])

            def check(t, rec):
                rec["rows_returned"] = t.num_rows
                got = t.column("warc_ts").cast(pa.int64()).to_pylist()
                want = np.sort(truth.ts)[::-1][:TOPK].tolist()
                return got == want
        else:  # upsert: move warc_ts years ahead and rotate lang
            src = pq.read_table(truth.paths[op["part"]]) \
                .take(pa.array(op["rows"]))
            keys = src.column("url").to_pylist()
            idx = [truth.index[u] for u in keys]
            new_ts = src.column("warc_ts").cast(pa.int64()).to_numpy() + \
                op["shift"]
            new_lang = [LANGS[(LANGS.index(truth.lang[i]) + 1) % len(LANGS)]
                        for i in idx]
            upsert_tbl = src.set_column(
                src.schema.get_field_index("warc_ts"), "warc_ts",
                pa.array(new_ts, pa.int64()).cast(pa.timestamp("us"))) \
                .set_column(src.schema.get_field_index("lang"), "lang",
                            pa.array(new_lang, pa.string()))
            fn = lambda: upsert_encoded(  # noqa: E731
                store, rd.from_arrow(upsert_tbl), "url")

            def check(r, rec):
                rec["parts_rewritten"] = int(r["parts_rewritten"])
                rec["logical_bytes"] = upsert_tbl.nbytes
                ok = (r["rows_inserted"] == len(keys) and
                      r["rows_deleted"] == len(keys))
                truth.ts[idx] = new_ts
                truth.lang[idx] = new_lang
                return ok
        rec = self.timed(kind, fn, check, primary=primary, prefix=prefix,
                         sample=sample, traced=traced)
        if rec is not None:
            rec["probe"] = op.get("probe", False)
        return rec

    def lookup_blocks(self) -> int:
        """Blocks the primary lookup loop replays: the other workloads'
        fixed amount plus about ``--seconds`` of work.  A count fixed by
        ``--seconds``, not a deadline, keeps each kind's sample count and
        the store states it sees the same in every run."""
        return LOOKUP_CROSS_BLOCKS + round(self.seconds / BLOCK_S)

    def lookup_loop(self, *, primary: bool, blocks: int) -> None:
        """Closed loop, one client: replay the first ``blocks`` blocks of
        the op sequence."""
        first = len(self.ops)
        for i, op in enumerate(self.seq[:blocks * BLOCK]):
            rec = self.lookup_op(op, primary=primary, prefix=i < BLOCK)
            if rec is not None and rec["prefix"] and \
                    rec["kind"] == "upsert":
                self.exact["upsert_parts_rewritten"] = \
                    rec.get("parts_rewritten")
        # correct ops of the mix over their own times: the point probes,
        # oracle checks, RSS sampling and upsert input building between
        # ops are left out
        done = [o for o in self.ops[first:] if not o["probe"]]
        busy = sum(o["t_s"] for o in done)
        self.ops_per_s = len(done) / busy if busy else 0.0
        self.exact["prefix_rows_returned"] = [
            o["rows_returned"] for o in self.ops if o["prefix"]]

    def warm_lookup(self) -> None:
        """One untimed op of each kind.  The upsert runs on the spare
        set-up store, with its own oracle, so the measured store stays as
        built."""
        done = set()
        for op in self.seq[:BLOCK]:
            if op["kind"] in done:
                continue
            done.add(op["kind"])
            if op["kind"] != "upsert":
                self.lookup_op(op, primary=False, prefix=False,
                               sample=False, traced=False)
                continue
            store, truth = self.store, self.truth
            self.store, self.truth = self.spare, Truth(self.paths)
            try:
                self.lookup_op(op, primary=False, prefix=False,
                               sample=False, traced=False)
            finally:
                self.store, self.truth = store, truth
        shutil.rmtree(self.spare)

    # -- the run -------------------------------------------------------
    def run(self) -> dict:
        unit = self.setup()
        ticks = cpu_ticks()
        t0 = time.perf_counter()
        self.scan_pass(primary=False, sample=False)
        self.warm_lookup()
        # process start to Ray ready, the median set-up unit, the warm-up
        self.setup_s = self.t_boot + unit + unstolen(
            time.perf_counter() - t0, ticks, cpu_ticks())
        # scan passes before the lookups, whose upserts change the store
        self.ingest_loop(primary=self.workload == "ingest")
        self.scan_loop(primary=self.workload == "scan")
        if self.workload == "lookup":
            self.lookup_loop(primary=True, blocks=self.lookup_blocks())
        else:
            self.lookup_loop(primary=False, blocks=LOOKUP_CROSS_BLOCKS)
        # every workload ends with the lookup ops on the kept store, so
        # stored_ratio includes what its upserts rewrote or left behind
        self.stored_ratio = self.logical_bytes / _dir_bytes(self.store)
        if self.tracer is not None:
            self.overhead = self.trace_overhead()
        # the reported stored_ratio also counts the manifests, whose
        # recorded wall times vary in length; these bytes repeat exactly
        self.exact["store_payload_after_ops"] = _dir_bytes(
            self.store, skip_manifests=True)
        self.exact.update(self.counts or {})
        self.exact["logical_bytes"] = self.logical_bytes
        self.exact["op_sequence"] = sequence_digest(self.seq)
        return self.exact

    def trace_overhead(self, reps: int = 3) -> tuple[float, float]:
        """Median time of the workload's reference op with recording off
        and on, alternating; these ops stay out of the metrics."""
        point = next(op for op in self.seq if op["kind"] == "point")

        def ref(traced: bool) -> float:
            if self.workload == "ingest":
                rec = self.encode(os.path.join(self.work, "probe"),
                                  primary=False, sample=False,
                                  traced=traced)
            elif self.workload == "scan":
                rec = self.timed("verify", lambda: verify_files(self.store),
                                 lambda r, rec: r["mismatches"] == 0,
                                 sample=False, traced=traced)
            else:
                rec = self.lookup_op(point, primary=False, prefix=False,
                                     sample=False, traced=traced)
            return rec["t_s"] if rec else float("nan")

        off, on = [], []
        for _ in range(reps):
            off.append(ref(False))
            on.append(ref(True))
        return statistics.median(off), statistics.median(on)

    # -- metrics -------------------------------------------------------
    def _p(self, kind: str, q: float) -> float:
        xs = self.samples.get(kind, [])
        return float(np.percentile(xs, q)) * 1e3 if xs else 0.0

    def metrics(self) -> dict[str, float]:
        enc = self.ops_of("encode")
        ing = [o["mbps"] for o in enc if o["primary"]] or \
            [o["mbps"] for o in enc]
        ver = self.ops_of("verify")
        m = {
            "setup_s": self.setup_s,
            "peak_rss_mb": self.rss.total_mb(),
            "ingest_mbps": statistics.median(ing) if ing else 0.0,
            "stored_ratio": self.stored_ratio,
            "scan_mbps": statistics.median(o["mbps"] for o in ver)
            if ver else 0.0,
            "narrow_scan_s": statistics.median(self.samples["narrow"])
            if self.samples.get("narrow") else 0.0,
            "point_p50_ms": self._p("point", 50),
            "point_p90_ms": self._p("point", 90),
            "lookup_ops_per_s": self.ops_per_s,
        }
        for kind in ("in", "count", "range", "agg", "topk", "upsert"):
            m[f"{kind}_p50_ms"] = self._p(kind, 50)
        return {k: m[k] for k in END_TO_END}

    def wall_medians_ms(self) -> dict[str, float]:
        """Per op kind, the median wall time with the steal left in."""
        return {k: round(statistics.median(v) * 1e3, 1)
                for k, v in sorted(self.walls.items())}

    def ops_of(self, kind: str) -> list[dict]:
        return [o for o in self.ops if o["kind"] == kind]

    def layer_metrics(self, spans: list[list]) -> dict[str, float]:
        ix = tr.SpanIndex(spans, os.getpid())
        m = tr.layer_metrics(ix, self.ops)
        for col, b in (self.counts or {}).get("enc_bytes", {}).items():
            m[f"codecs.enc_bytes.{col}"] = float(b)
        off, on = self.overhead or (0.0, 0.0)
        m["trace.overhead_ms"] = (on - off) * 1e3
        m["trace.overhead_frac"] = (on - off) / off if off else 0.0
        return m
