"""Store consistency check + repair (fsck for the encoded store).

``check_store`` audits the three layers that make the store a table
format — part files, lineage manifests, bloom sidecars — plus the
transient artifacts the mutation pipelines stage (``*.tmp-*`` writer
files, ``_upsert-*`` staging dirs).  Driver-side work is O(parts)
metadata only; the per-part structural checks run through
``sources/plan.py::execute`` like every other part scan (in-process
for a small store, on Ray above it).  ``deep=True``
additionally decodes every column and proves the manifest's pruning
metadata against the actual values (zone bounds contain min/max, null
counts match) — the invariant the entire pushdown layer rests on, so a
violation here means reads could silently skip matching rows.

``repair_store`` removes what is provably garbage (orphan manifests /
blooms whose part is gone, stale tmp files, stale staging dirs) and
nothing else — structural damage inside a part is reported, never
auto-"fixed".
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.plan import collect, execute, part_files, part_id, plan
from ..state.bloom import BLOOM_DIR
from ..state.manifest import Manifest

_STALE_S = 3600  # tmp/staging younger than this may be a live writer


def _part_ids(store_dir: str) -> set[str]:
    return {pid for pid in map(part_id, part_files(store_dir)) if pid}


class _CheckPart:
    """Structural (and optionally value-level) audit of one part."""

    def __init__(self, store_dir: str, manifests: dict, deep: bool):
        self.store_dir = store_dir
        self.manifests = manifests
        self.deep = deep

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs import decode_any
        from ..stages.encode import encoded_blocks
        out = {"part_id": [], "issue": []}

        def add(pid, msg):
            out["part_id"].append(pid)
            out["issue"].append(msg)

        for p in batch.column("path").to_pylist():
            pid = part_id(p) or os.path.basename(p)
            try:
                enc = pq.read_table(p)
            except Exception as e:  # unreadable part is the finding
                add(pid, f"unreadable part file: {e}")
                continue
            names = enc.column("column").to_pylist()
            if len(set(names)) != len(names):
                add(pid, f"duplicate column blocks: {sorted(names)}")
            ncols = set(enc.column("n_cols").to_pylist())
            if ncols != {len(set(names))}:
                add(pid, f"n_cols {sorted(ncols)} != column count "
                         f"{len(set(names))}")
            nvals = set(enc.column("n_values").to_pylist())
            if len(nvals) > 1:
                add(pid, f"blocks disagree on row count: {sorted(nvals)}")
            rows = next(iter(nvals)) if nvals else 0
            m = self.manifests.get(pid)
            if m is not None and m.get("rows") not in (None, rows):
                add(pid, f"manifest rows {m['rows']} != block rows {rows}")
            if self.deep and m is not None and \
                    m.get("payload_digest") is not None:
                from ..state.manifest import file_digest64
                got = file_digest64(p)
                if got != m["payload_digest"]:
                    add(pid, f"payload digest {got} != manifest "
                             f"{m['payload_digest']} — file changed "
                             "after record (bit rot / foreign write)")
            good = []
            for i, (name, params) in enumerate(
                    zip(names, enc.column("params").to_pylist())):
                try:
                    json.loads(params)
                    good.append(i)
                except ValueError:
                    add(pid, f"{name}: unparseable params")
            if not self.deep:
                continue
            for name, e in encoded_blocks(enc.take(good),
                                          os.path.dirname(p)):
                try:
                    arr = decode_any(e)
                except Exception as ex:
                    add(pid, f"{name}: decode failed: {ex}")
                    continue
                if len(arr) != rows:
                    add(pid, f"{name}: decoded {len(arr)} rows, "
                             f"expected {rows}")
                if m is None:
                    continue
                nn = (m.get("nulls") or {}).get(name)
                if nn is not None and arr.null_count != nn:
                    add(pid, f"{name}: manifest nulls {nn} != "
                             f"decoded {arr.null_count}")
                zone = (m.get("zones") or {}).get(name)
                if zone is not None and arr.null_count < len(arr):
                    from ..state.manifest import compute_zones
                    actual = compute_zones(pa.table({name: arr})) \
                        .get(name)
                    if actual is not None \
                            and actual["kind"] == zone["kind"] and (
                            actual["min"] < zone["min"]
                            or actual["max"] > zone["max"]):
                        add(pid, f"{name}: values escape zone "
                                 f"[{zone['min']}, {zone['max']}] — "
                                 "pushdown would skip matching rows")
        if not out["part_id"]:
            return pa.table({"part_id": pa.array([], pa.string()),
                             "issue": pa.array([], pa.string())})
        return pa.table(out)


def check_store(store_dir: str, *, deep: bool = False) -> dict:
    """Audit the store; returns {parts_total, issues: [(part_id|path,
    message)], counts: {...}, ok}.  Never mutates anything."""
    issues: list[tuple[str, str]] = []
    parts = _part_ids(store_dir)
    manifests: dict = {}
    if os.path.isdir(os.path.join(store_dir, "_manifest")):
        for m in Manifest(store_dir).load_all():
            manifests[m["part_id"]] = m
    for pid in sorted(set(manifests) - parts):
        issues.append((pid, "orphan manifest (part file missing)"))
    bdir = os.path.join(store_dir, BLOOM_DIR)
    if os.path.isdir(bdir):
        for f in sorted(os.listdir(bdir)):
            if f.endswith(".npz") and f[:-len(".npz")] not in parts:
                issues.append((f[:-len(".npz")],
                               "orphan bloom sidecar (part missing)"))
    now = time.time()
    for f in sorted(os.listdir(store_dir)):
        fp = os.path.join(store_dir, f)
        if ".tmp-" in f and now - os.path.getmtime(fp) > _STALE_S:
            issues.append((f, "stale writer tmp file"))
        if f.startswith("_upsert-") and os.path.isdir(fp) \
                and now - os.path.getmtime(fp) > _STALE_S:
            issues.append((f, "stale upsert staging dir"))
    res = collect(execute(plan(store_dir, []),
                          _CheckPart(store_dir, manifests, deep)))
    if res is not None:
        issues += list(zip(res.column("part_id").to_pylist(),
                           res.column("issue").to_pylist()))
    kinds: dict[str, int] = {}
    for _, msg in issues:
        k = msg.split(":")[0].split("(")[0].strip()
        kinds[k] = kinds.get(k, 0) + 1
    return {"parts_total": len(parts), "deep": deep,
            "issues": [list(i) for i in issues], "counts": kinds,
            "ok": not issues}


def repair_store(store_dir: str) -> dict:
    """Remove provably-garbage artifacts found by the metadata layer of
    ``check_store``: orphan manifests/blooms, stale tmp files, stale
    staging dirs.  Structural issues inside parts are NOT touched.
    Returns {removed: [paths]}."""
    import shutil
    removed = []
    parts = _part_ids(store_dir)
    man = Manifest(store_dir)
    if os.path.isdir(man.dir):
        for f in sorted(os.listdir(man.dir)):
            if f.endswith(".json") and f[:-len(".json")] not in parts:
                os.remove(os.path.join(man.dir, f))
                removed.append(os.path.join("_manifest", f))
    bdir = os.path.join(store_dir, BLOOM_DIR)
    if os.path.isdir(bdir):
        for f in sorted(os.listdir(bdir)):
            if f.endswith(".npz") and f[:-len(".npz")] not in parts:
                os.remove(os.path.join(bdir, f))
                removed.append(os.path.join(BLOOM_DIR, f))
    now = time.time()
    for f in sorted(os.listdir(store_dir)):
        fp = os.path.join(store_dir, f)
        if ".tmp-" in f and now - os.path.getmtime(fp) > _STALE_S:
            os.remove(fp)
            removed.append(f)
        if f.startswith("_upsert-") and os.path.isdir(fp) \
                and now - os.path.getmtime(fp) > _STALE_S:
            shutil.rmtree(fp)
            removed.append(f)
    return {"removed": removed}
