"""CDC-lake benchmark: run one workload for one seed, print one JSON line.

    python3 perfbench/run.py --workload trickle --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see README.md). Progress, the set-up breakdown, the
operations attempted and failed per kind, and any correctness problem
go to stderr; the last line of stdout is the JSON result. The exit
code is 0 when every engine output matched the independent replay, 1
when one did not, 2 when the engine package is missing.

Everything a run writes lives under ``.perfbench_tmp/`` next to this
directory and is removed at exit, Ray's session included (Ray's session
directory moves to the system temp dir only when the checkout path is
too long for Ray's AF_UNIX sockets).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
PACKAGE = "data_hub_ejp_xml_pipeline_ray"
#: Ray's logical CPU count: fixed here, never taken from the host
RAY_CPUS = 4
OBJECT_STORE_BYTES = 256 << 20
#: Ray's socket paths run ~64 bytes below its temp dir, and AF_UNIX
#: paths are limited to 107 bytes
MAX_RAY_DIR = 42

END_TO_END_UNITS = {
    "setup_s": "s", "ingest_events_per_s": "1/s", "commit_p50_s": "s",
    "lookup_p50_s": "s", "routed_read_p50_s": "s", "scan_p50_s": "s",
    "feed_p50_s": "s", "peak_rss_mb": "MB", "lake_mb": "MB",
}


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as f:
                    todo += [int(c) for c in f.read().split()]
        except OSError:
            continue
    return out


def rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler(threading.Thread):
    """Peak of the summed resident memory of this process and its
    descendants (the Ray head processes and workers), sampled."""

    def __init__(self, period: float = 0.25):
        super().__init__(daemon=True)
        self.period, self.peak_kb = period, 0
        self._stop_evt = threading.Event()

    def run(self):
        me = os.getpid()
        while True:
            self.peak_kb = max(self.peak_kb, sum(rss_kb(p) for p in process_tree(me)))
            if self._stop_evt.wait(self.period):
                return

    def stop(self):
        self._stop_evt.set()
        self.join()


def stop_ray(timeout: float = 20.0) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    started = [p for p in process_tree(os.getpid()) if p != os.getpid()]
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + timeout
    while True:
        alive = [p for p in started if _alive(p)]
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + 5
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def measure(args, root: str, ray_dir: str, sampler: RssSampler) -> dict:
    t_start = time.perf_counter()
    import ray

    ray.init(
        address="local", num_cpus=RAY_CPUS, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_dir, _plasma_directory=root,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)

    from oracle import Replay
    from workload import Workload, p50

    w = Workload(args.workload, args.seed, root, bool(args.trace))
    w.generate()
    setup = {"start+generate": time.perf_counter() - t_start}

    t0 = time.perf_counter()
    os.makedirs(os.path.join(root, "duck"))
    replay = Replay(w.paths, os.path.join(root, "duck"))
    w.plan_batches(replay)
    oracle_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    w.warm_up()
    setup["warm-up"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    w.build_base()
    setup["base lake"] = time.perf_counter() - t0
    setup_s = sum(setup.values())

    t0, ticks0 = time.perf_counter(), cpu_ticks()
    w.run(args.seconds)
    measured_s = time.perf_counter() - t0
    ticks1 = cpu_ticks()
    steal = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
    if args.trace:
        w.trace_kernels()
    t0 = time.perf_counter()
    w.verify(replay)
    replay.close()
    oracle_s += time.perf_counter() - t0

    res = w.res
    walls = res.walls
    attempted = {k: len(v) + res.failed.get(k, 0) for k, v in walls.items()}
    log(f"workload {args.workload} seed {args.seed}: {res.rounds} round(s) in "
        f"{measured_s:.1f} s; set-up {setup_s:.2f} s "
        + ", ".join(f"{k} {v:.2f}" for k, v in setup.items())
        + f"; oracle {oracle_s:.1f} s; steal {100 * steal:.1f}%; Ray CPUs {RAY_CPUS}, "
        f"{len(os.sched_getaffinity(0))} CPUs in affinity, "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS', '-')}")
    log("ops (attempted/failed): " + ", ".join(
        f"{k} {attempted[k]}/{res.failed.get(k, 0)}" for k in attempted))
    for p in res.problems:
        log(f"CHECK FAILED: {p}")

    if not args.trace:
        busy = sum(walls["ingest"]) + sum(walls["maintain"])
        values = {
            "setup_s": setup_s,
            "ingest_events_per_s": res.events_committed / busy if busy else 0.0,
            "commit_p50_s": p50(walls["ingest"]),
            "lookup_p50_s": p50(walls["lookup"]),
            "routed_read_p50_s": p50(walls["routed"]),
            "scan_p50_s": p50(walls["scan"]),
            "feed_p50_s": p50(walls["feed"]),
            "peak_rss_mb": sampler.peak_kb / 1024,
            "lake_mb": (res.round_lake_bytes[-1] if res.round_lake_bytes else 0) / 2**20,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = per_layer(w)
    return {
        "correct": not res.problems,
        "attempted": sum(attempted.values()),
        "failed": sum(res.failed.values()),
        "metrics": metrics,
    }


def per_layer(w) -> dict:
    from workload import mean, p50

    L, res = w.res.layers, w.res

    def get(k):
        return L.get(k, [])

    def ratio(a, b):
        return sum(a) / sum(b) if sum(b) else 0.0

    # commit.drift: p50 of the last third of a round's commits over
    # p50 of its first third
    k = len(w.steps)
    third = max(1, k // 3)
    first = [dt for pos, dt in res.commit_positions if pos < third]
    last = [dt for pos, dt in res.commit_positions if pos >= k - third]
    untraced = p50(get("ingest.untraced_s"))
    m = {
        "wal.list_s": (p50(get("wal.list_s")), "s"),
        "wal.bytes_per_commit": (mean(get("wal.bytes")), "bytes"),
        "phase1.s": (p50(get("phase1.s")), "s"),
        "phase1.events_per_s": (ratio(get("phase1.events"), get("phase1.s")), "1/s"),
        "combine.ratio": (ratio(get("combine.deltas"), get("phase1.events")), "ratio"),
        "extract.rows_per_s": (p50(get("extract.rows_per_s")), "1/s"),
        "lww.rows_per_s": (p50(get("lww.rows_per_s")), "1/s"),
        "phase2.s": (p50(get("phase2.s")), "s"),
        "merge.partitions_per_commit": (mean(get("merge.partitions")), "count"),
        "merge.skew": (p50(get("merge.skew")), "ratio"),
        "merge.bytes_per_commit": (mean(get("merge.bytes")), "bytes"),
        "merge.write_amp": (ratio(get("merge.bytes"), get("wal.bytes")), "ratio"),
        "commit.other_s": (p50(get("commit.other_s")), "s"),
        "checkpoint.commit_manifest_s": (p50(get("checkpoint.commit_manifest_s")), "s"),
        "checkpoint.lock_s": (p50(get("checkpoint.lock_s")), "s"),
        "checkpoint.gc_s": (p50(get("checkpoint.gc_s")), "s"),
        "manifest.bytes": (p50(get("manifest.bytes")), "bytes"),
        "manifest.load_s": (p50(get("manifest.load_s")), "s"),
        "commit.drift": (p50(last) / p50(first) if first else 0.0, "ratio"),
        "store.ops_per_commit": (mean(get("store.ops")), "count"),
        "store.bytes_per_commit": (mean(get("store.bytes")), "bytes"),
        "maintain.s": (p50(res.walls["maintain"]), "s"),
        "maintain.folds": (mean(get("maintain.folds")), "count"),
        "maintain.files_folded": (mean(get("maintain.files_folded")), "count"),
        "routed.parts_read": (mean(get("routed.parts_read")), "count"),
        "lookup.files_per_call": (mean(get("lookup.files_per_call")), "count"),
        "scan.rows_per_s": (p50(res.scan_rows), "1/s"),
        "feed.rows": (mean(res.feed_rows), "count"),
        "lake.data_files": (p50(res.round_data_files), "count"),
        "trace.overhead": (
            p50(get("ingest.traced_s")) / untraced if untraced else 0.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["backfill", "trickle", "rewrite"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, PACKAGE)):
        log(f"engine package {PACKAGE!r} not found in {REPO}")
        return 2

    sys.path.insert(0, REPO)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    tmp_parent = os.path.join(REPO, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    ray_dir = os.path.join(root, "ray")
    if len(ray_dir) > MAX_RAY_DIR:
        ray_dir = tempfile.mkdtemp(prefix="perfbench-ray-")
    os.environ["TMPDIR"] = root
    tempfile.tempdir = root
    signal.signal(signal.SIGTERM, _terminate)

    sampler = RssSampler()
    sampler.start()
    try:
        result = measure(args, root, ray_dir, sampler)
    finally:
        sampler.stop()
        stop_ray()
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
