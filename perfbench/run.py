"""packcol benchmark entry point.

    python3 perfbench/run.py --workload ingest|scan|lookup --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the seeded webtext
input, builds stores under ``.bench_work/`` in the checkout, measures the
workload for ``--seconds``, checks every answer, and prints a context
line followed, as the last line of standard output, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Times are taken with the hypervisor's steal left out
(:mod:`perfbench.steal`).  Ray runs as a single local node with
``num_cpus`` = the machine's CPU count; the benchmark is the only client.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.steal import cpu_ticks, stolen_share, unstolen  # noqa: E402

TICKS_START = cpu_ticks()
DEFAULT_ROWS = 8000
DEFAULT_PARTS = 8
# Ray puts Unix sockets under its temp dir; sun_path holds 107 bytes and
# Ray appends ~62 of them (a per-run directory + "/sockets/plasma_store")
_RAY_TMP_MAX = 44


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ingest", "scan", "lookup"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                   help="rows of the generated table")
    p.add_argument("--parts", type=int, default=DEFAULT_PARTS,
                   help="input files = store parts")
    args = p.parse_args(argv)
    if args.rows < 2 * args.parts or args.parts < 1:
        p.error("need --parts >= 1 and at least 2 rows per part")
    return args


def code_digest() -> str:
    """Digest of the engine and benchmark sources: exact counts are
    compared only between runs of the same code."""
    h = hashlib.sha1()
    for top in ("packcol", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".py"):
                    h.update(f.encode())
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:12]


def check_exact(base: str, args, exact: dict) -> None:
    """Exact counts must repeat for the same seed, size and code: compare
    with the record of an earlier run in this checkout, or write one."""
    from perfbench.workloads import SelfCheckError
    d = os.path.join(base, "exact")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(
        d, f"{args.workload}-seed{args.seed}-rows{args.rows}-"
           f"parts{args.parts}-trace{args.trace}-{code_digest()}.json")
    now = json.loads(json.dumps(exact, sort_keys=True))
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != now:
            diff = sorted(k for k in set(before) | set(now)
                          if before.get(k) != now.get(k))
            raise SelfCheckError(
                f"exact counts differ from an earlier run of seed "
                f"{args.seed}: {diff}")
    else:
        with open(path + ".tmp", "w") as f:
            json.dump(now, f, sort_keys=True)
        os.replace(path + ".tmp", path)


def nproc() -> int:
    """What GNU ``nproc`` prints: the CPUs this process may run on,
    capped by ``OMP_THREAD_LIMIT`` and overridden by ``OMP_NUM_THREADS``."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_THREAD_LIMIT", True), ("OMP_NUM_THREADS", False)):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = min(n, v) if cap else v
    return n


def pagefault_mbps(mb: int = 64) -> float:
    """First-touch write bandwidth of fresh anonymous memory (context
    only: it gates nothing)."""
    import numpy as np
    t0 = time.perf_counter()
    a = np.empty(mb << 20, dtype=np.uint8)
    a.fill(1)
    return mb / (time.perf_counter() - t0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "packcol", "__init__.py")):
        print(f"perfbench: no packcol/ package in {ROOT}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Ray workers import packcol / perfbench from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    from perfbench import trace as tr
    from perfbench import workloads as wl

    ray_tmp = os.path.join(base, "ray")
    if len(ray_tmp) > _RAY_TMP_MAX:
        ray_tmp = tempfile.mkdtemp(prefix="pb-ray-")
    plasma = os.path.join(work, "plasma")
    os.makedirs(plasma)
    runtime_env = None
    tracer = None
    if args.trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        os.environ[tr.TRACE_DIR_ENV] = trace_dir
        runtime_env = {"worker_process_setup_hook":
                       "perfbench.trace.install_worker"}
        tracer = tr.Tracer(trace_dir, main=True)
        tr.install(tracer)

    import ray
    import ray.data
    rss = wl.RssPeak()
    ray.init(address="local", num_cpus=nproc(),
             include_dashboard=False, log_to_driver=False,
             logging_level=logging.WARNING, object_store_memory=256 << 20,
             _temp_dir=ray_tmp, _plasma_directory=plasma,
             runtime_env=runtime_env)
    try:
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        bench = wl.Bench(workload=args.workload, seed=args.seed,
                         seconds=args.seconds, rows=args.rows,
                         parts=args.parts, work=work, tracer=tracer,
                         t_boot=unstolen(time.perf_counter() - T_START,
                                         TICKS_START, cpu_ticks()),
                         rss=rss)
        exact = bench.run()
        if args.trace:
            spans = tracer.collect()
            values = bench.layer_metrics(spans)
            exact.update(tr.exact_counts(values))
            spec = tr.per_layer_spec()
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            trace_file = os.path.join(
                base, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            tracer.dump(trace_file)
        else:
            values = bench.metrics()
            spec = [(k, u, "") for k, u in wl.END_TO_END.items()]
        rss.sample()
    finally:
        ray.shutdown()
        rss.wait_gone()
        shutil.rmtree(ray_tmp, ignore_errors=True)
    check_exact(base, args, exact)
    shutil.rmtree(work, ignore_errors=True)

    import numpy
    import pyarrow
    context = {
        "workload": args.workload, "seed": args.seed,
        "data_seed": wl.DATA_SEED,
        "seconds": args.seconds, "trace": args.trace, "rows": args.rows,
        "parts": args.parts, "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "logical_mb": round(bench.logical_bytes / 1e6, 3),
        "samples": {k: len(v) for k, v in sorted(bench.samples.items())},
        "pagefault_mbps": round(pagefault_mbps(), 1),
        # share of the run's runnable CPU time the hypervisor gave to
        # other guests, and the medians before taking it out
        "stolen_share": round(stolen_share(TICKS_START, cpu_ticks()), 4),
        "wall_p50_ms": bench.wall_medians_ms(),
        "exact": exact,
    }
    if args.trace:
        context["trace_file"] = os.path.relpath(trace_file, ROOT)
        context["spans"] = len(spans)
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
