"""Store consistency check + repair (fsck for the encoded store).

``check_store`` audits the two layers that make the store a table
format — part files and their lineage manifests — plus the
transient artifacts the mutation pipelines stage (``*.tmp-*`` writer
files, ``_upsert-*`` staging dirs).  Driver-side work is O(parts)
metadata only; the per-part structural checks run through
``sources/plan.py::execute`` like every other part scan (in-process
for a small store, on Ray above it).  ``deep=True``
additionally decodes every column and proves the manifest's pruning
metadata against the actual values (zone bounds contain min/max, null
counts and value counts match, every key set is exactly the
fingerprint set of its column's values) — the invariant the entire
pushdown layer and the metadata COUNT rest on, so a violation here
means reads could silently skip matching rows or counts come out
wrong.

A manifest that ``Manifest.load`` rejects (a store written by an older
engine, state/manifest.py) is a "store format" issue: no reader
accepts the store until it is re-encoded into a fresh directory.  A
manifest that is not JSON is an "unreadable manifest" issue.  A
``*.parquet`` file that is not a committed part (no manifest, or a
name other than ``part-<id>.parquet``; state/manifest.py) is reported
too: no reader sees its rows.  Only the committed parts are audited.

``repair_store`` removes what is provably garbage (orphan manifests
whose part is gone, stale tmp files, stale staging dirs) and
nothing else — structural damage inside a part is reported, never
auto-"fixed", and an uncommitted part file is left alone: it may hold
the only copy of its rows.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa

from ..sources.plan import (collect, execute, part_files, part_id, plan,
                            read_part)
from ..state.manifest import Manifest, StoreFormatError, value_counts

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
        import numpy as np
        from ..codecs import decode_any
        from ..stages.encode import encoded_blocks
        from ..state.bloom import fingerprints, from_record, hashable
        out = {"part_id": [], "issue": []}

        def add(pid, msg):
            out["part_id"].append(pid)
            out["issue"].append(msg)

        for p in batch.column("path").to_pylist():
            pid = part_id(p)
            try:
                enc = read_part(p)
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
            m = self.manifests[pid]
            if m["rows"] != rows:
                add(pid, f"manifest rows {m['rows']} != block rows {rows}")
            if self.deep:
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
                nn = m["nulls"].get(name, 0)
                if arr.null_count != nn:
                    add(pid, f"{name}: manifest nulls {nn} != "
                             f"decoded {arr.null_count}")
                zone = m["zones"].get(name)
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
                counts = m["values"].get(name)
                if counts is not None:
                    actual = value_counts(arr)
                    if actual != counts:
                        bad = sorted((v for v in {**counts, **actual}
                                      if actual.get(v) != counts.get(v)),
                                     key=str)
                        add(pid, f"{name}: manifest value counts differ "
                                 f"from the decoded column at {bad[:3]} — "
                                 "a metadata COUNT would be wrong")
                if name not in m["keys"]:
                    continue
                s = from_record(m["keys"][name])
                if s is None:
                    add(pid, f"{name}: unreadable manifest key set")
                    continue
                foreign = f"{name}: manifest key set is not the " \
                          "decoded column's fingerprint set"
                # a set of another type, or on a column no set can
                # hash (a float column), is not hashed as the column
                if s["dt"] != str(arr.type) or not hashable(arr.type):
                    add(pid, foreign)
                    continue
                want = np.unique(fingerprints(arr))
                if missed := len(np.setdiff1d(want, s["fp"])):
                    add(pid, f"{name}: manifest key set misses {missed} "
                             "fingerprint(s) of the decoded column — "
                             "pushdown would skip matching rows")
                elif not np.array_equal(want, s["fp"]):
                    add(pid, foreign)
        if not out["part_id"]:
            return pa.table({"part_id": pa.array([], pa.string()),
                             "issue": pa.array([], pa.string())})
        return pa.table(out)


def check_store(store_dir: str, *, deep: bool = False) -> dict:
    """Audit the store; returns {parts_total, issues: [(part_id|path,
    message)], counts: {...}, ok}.  Never mutates anything."""
    issues: list[tuple[str, str]] = []
    files = part_files(store_dir)
    p = plan(store_dir, [])
    man, manifests = Manifest(store_dir), {}
    for pid in sorted(man.done_parts()):
        try:
            manifests[pid] = man.load(pid)
        except StoreFormatError as e:
            issues.append((pid, f"store format: {e}"))
        except (OSError, ValueError) as e:
            issues.append((pid, f"unreadable manifest: {e}"))
    for pid in sorted(set(manifests) - set(map(part_id, files))):
        issues.append((pid, "orphan manifest (part file missing)"))
    for f in sorted(set(files) - set(p.listed)):
        issues.append((os.path.basename(f),
                       "not a committed part: no reader sees it"))
    now = time.time()
    for f in sorted(os.listdir(store_dir)):
        fp = os.path.join(store_dir, f)
        if ".tmp-" in f and now - os.path.getmtime(fp) > _STALE_S:
            issues.append((f, "stale writer tmp file"))
        if f.startswith("_upsert-") and os.path.isdir(fp) \
                and now - os.path.getmtime(fp) > _STALE_S:
            issues.append((f, "stale upsert staging dir"))
    # a part whose manifest does not load is reported above
    res = collect(execute(
        p.restrict([f for f in p.listed if part_id(f) in manifests]),
        _CheckPart(store_dir, manifests, deep)))
    if res is not None:
        issues += list(zip(res.column("part_id").to_pylist(),
                           res.column("issue").to_pylist()))
    kinds: dict[str, int] = {}
    for _, msg in issues:
        k = msg.split(":")[0].split("(")[0].strip()
        kinds[k] = kinds.get(k, 0) + 1
    return {"parts_total": len(p.listed), "deep": deep,
            "issues": [list(i) for i in issues], "counts": kinds,
            "ok": not issues}


def repair_store(store_dir: str) -> dict:
    """Remove provably-garbage artifacts found by the metadata layer of
    ``check_store``: orphan manifests, stale tmp files, stale
    staging dirs.  Structural issues inside parts and uncommitted
    part files are NOT touched.  Returns {removed: [paths]}."""
    import shutil
    removed = []
    parts = _part_ids(store_dir)
    man = Manifest(store_dir)
    for pid in sorted(man.done_parts() - parts):
        os.remove(man._path(pid))
        removed.append(os.path.relpath(man._path(pid), store_dir))
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
