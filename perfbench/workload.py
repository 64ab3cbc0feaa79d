"""The three CDC-lake workloads and their measurement loop.

A run repeats whole *rounds* until ``--seconds`` have passed. Every
round of a workload performs the same operations on the same data, so
per-round state (lake size, delta depth, manifest size) is the same in
every round and every run of a seed:

* ``backfill`` - a fresh, empty lake and ONE catch-up commit of the
  whole WAL, then repeated reads of the freshly written copy-on-write
  lake;
* ``trickle``  - a copy of a base lake built in set-up, then one
  merge-on-read commit per WAL segment, ``auto_maintain`` after every
  commit and a point-lookup batch between commits;
* ``rewrite``  - a copy of a much larger base lake, then one
  copy-on-write commit per small segment (each rewrites the partitions
  it touches) with the same reads as ``trickle``.

The engine is driven only through ``pipelines.cdc``,
``pipelines.maintenance.auto_maintain`` and
``state.checkpoint.load_manifest``; its inputs are the segment files
``sources.synthetic.generate_wal`` writes for the seed.
"""
from __future__ import annotations

import os
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

NUM_PARTITIONS = 16
#: urls per point-lookup / routed-read batch: live, deleted, never seen
BATCH_LIVE, BATCH_DELETED, BATCH_UNSEEN = 32, 8, 8
SCAN_COLUMNS = ["url", "warc_ts", "seq", "lang"]


@dataclass(frozen=True)
class Shape:
    n_urls: int
    events_per_segment: int
    #: segments committed into the base lake during set-up
    base_segments: int
    #: segments surfaced per round, ``segments_per_commit`` at a time
    round_segments: int
    segments_per_commit: int
    merge_mode: str
    hot_mass: float
    v2_from_segment: int | None
    lookups_per_commit: int
    #: commits (0-based, within a round) followed by the heavy reads:
    #: change feed, routed read, projection scan
    heavy_commits: tuple[int, ...]
    heavy_repeats: int


SHAPES = {
    "backfill": Shape(
        n_urls=24_000, events_per_segment=7_500, base_segments=0,
        round_segments=8, segments_per_commit=8, merge_mode="cow",
        hot_mass=0.5, v2_from_segment=6,
        lookups_per_commit=4, heavy_commits=(0,), heavy_repeats=2,
    ),
    "trickle": Shape(
        n_urls=6_000, events_per_segment=1_500, base_segments=8,
        round_segments=8, segments_per_commit=1, merge_mode="mor",
        hot_mass=0.5, v2_from_segment=None,
        lookups_per_commit=2, heavy_commits=(2, 5, 7), heavy_repeats=1,
    ),
    "rewrite": Shape(
        n_urls=60_000, events_per_segment=1_000, base_segments=60,
        round_segments=8, segments_per_commit=1, merge_mode="cow",
        hot_mass=0.1, v2_from_segment=None,
        lookups_per_commit=2, heavy_commits=(2, 5, 7), heavy_repeats=1,
    ),
}


def consume(ds) -> pa.Table:
    """Fully consume a Dataset into one Arrow table."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches) if batches else pa.table({})


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(d, f))
            except OSError:
                pass
    return total


def p50(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


@dataclass
class Recorded:
    """One engine read kept for the post-run check."""

    kind: str
    checkpoint: str  # last segment name committed when it ran
    urls: list | None
    table: pa.Table


@dataclass
class Results:
    walls: dict = field(default_factory=lambda: {
        k: [] for k in ("ingest", "maintain", "lookup", "routed", "scan", "feed")
    })
    failed: dict = field(default_factory=dict)
    events_committed: int = 0
    #: (position of the commit in its round, wall) for commit.drift
    commit_positions: list = field(default_factory=list)
    scan_rows: list = field(default_factory=list)
    feed_rows: list = field(default_factory=list)
    recorded: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # per-layer samples
    round_lake_bytes: list = field(default_factory=list)
    round_data_files: list = field(default_factory=list)
    rounds: int = 0

    def sample(self, key, value):
        self.layers.setdefault(key, []).append(value)


class Workload:
    """Set-up, measurement rounds and checks of one workload."""

    def __init__(self, name: str, seed: int, root: str, trace: bool):
        self.shape, self.seed = SHAPES[name], seed
        self.root, self.trace = root, trace
        self.res = Results()
        self.pool = os.path.join(root, "pool")
        self.staging = os.path.join(root, "staging")

    # ------------------------------------------------------------------
    # set-up
    def generate(self) -> None:
        from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal

        s = self.shape
        n_seg = s.base_segments + s.round_segments
        self.paths = sorted(generate_wal(
            self.pool, seed=self.seed, n_urls=s.n_urls,
            n_events=s.events_per_segment * n_seg, n_segments=n_seg,
            hot_mass=s.hot_mass, v2_from_segment=s.v2_from_segment,
        ))
        self.base_paths = self.paths[: s.base_segments]
        round_paths = self.paths[s.base_segments:]
        k = s.segments_per_commit
        self.steps = [round_paths[i:i + k] for i in range(0, len(round_paths), k)]

    def config(self, wal_dir: str, lake_dir: str, **overrides):
        from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import CdcConfig

        kw = dict(
            wal_dir=wal_dir, lake_dir=lake_dir,
            num_partitions=NUM_PARTITIONS, staging_root=self.staging,
            merge_mode=self.shape.merge_mode,
        )
        kw.update(overrides)
        return CdcConfig(**kw)

    def warm_up(self) -> None:
        """One small ingest into a throwaway lake through the same path
        as the workload, plus each read kind once, so workers have
        imported the package and constructed the extractor class."""
        from data_hub_ejp_xml_pipeline_ray.pipelines import cdc
        from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import auto_maintain
        from data_hub_ejp_xml_pipeline_ray.sources.synthetic import generate_wal

        wal = os.path.join(self.root, "warm_wal")
        lake = os.path.join(self.root, "warm_lake")
        paths = generate_wal(wal, seed=self.seed + 7919, n_urls=300,
                             n_events=2_000, n_segments=2)
        cdc.run_ingest(self.config(wal, lake))
        auto_maintain(lake)
        urls = pq.read_table(paths[0], columns=["url"]).column("url").to_pylist()[:8]
        cdc.lookup_urls(lake, urls)
        consume(cdc.read_lake(lake, constraints=[["url", "in", urls]]))
        consume(cdc.read_lake(lake, columns=SCAN_COLUMNS))
        consume(cdc.changes_between(lake, 0, 1))
        shutil.rmtree(lake, ignore_errors=True)
        shutil.rmtree(wal, ignore_errors=True)

    def build_base(self) -> None:
        from data_hub_ejp_xml_pipeline_ray.pipelines import cdc

        self.base_lake = None
        if not self.base_paths:
            return
        wal = os.path.join(self.root, "base_wal")
        os.makedirs(wal)
        for p in self.base_paths:
            link(p, wal)
        self.base_lake = os.path.join(self.root, "base_lake")
        rep = cdc.run_ingest(self.config(
            wal, self.base_lake, merge_mode="cow",
            max_segments_per_batch=len(self.base_paths),
        ))
        if rep.commits != 1 or rep.error_rows:
            raise RuntimeError(f"base lake build: {rep}")
        shutil.rmtree(wal, ignore_errors=True)

    def plan_batches(self, replay) -> None:
        """Seeded lookup batches, one per lookup of a round: urls live
        and deleted after the round's first commit, and never-seen urls.
        (Later commits may revive or delete some of them; the check
        replays each lookup at its own point.)"""
        w = replay.winners(os.path.basename(self.steps[0][-1]), with_html=False)
        ops = list(zip(w.column("url").to_pylist(), w.column("op").to_pylist()))
        live = sorted(u for u, op in ops if op != "delete")
        dead = sorted(u for u, op in ops if op == "delete")
        self.batches: dict[tuple[int, int], list[str]] = {}
        for i in range(len(self.steps)):
            for j in range(self.shape.lookups_per_commit):
                rng = random.Random(self.seed * 1_000_003 + i * 1_009 + j)
                n_dead = min(BATCH_DELETED, len(dead))
                batch = rng.sample(dead, n_dead)
                batch += rng.sample(live, BATCH_LIVE + BATCH_DELETED - n_dead)
                batch += [
                    f"https://unseen-{rng.randrange(10**9)}.example/p/{k}"
                    for k in range(BATCH_UNSEEN)
                ]
                self.batches[(i, j)] = batch

    # ------------------------------------------------------------------
    # measurement
    def timed(self, kind: str, fn, *args, **kwargs):
        """Run one operation; its wall time is a sample of ``kind``. A
        raised exception counts the operation as failed."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.res.failed[kind] = self.res.failed.get(kind, 0) + 1
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        self.res.walls[kind].append(dt)
        return out, dt

    def run(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` would be overrun by more than
        half a round (at least one round)."""
        start, took = time.perf_counter(), []
        while True:
            t0 = time.perf_counter()
            self.round(self.res.rounds)
            self.res.rounds += 1
            took.append(time.perf_counter() - t0)
            if time.perf_counter() - start + mean(took) / 2 > seconds:
                break

    def round(self, r: int) -> None:
        from data_hub_ejp_xml_pipeline_ray.pipelines import cdc
        from data_hub_ejp_xml_pipeline_ray.pipelines.maintenance import auto_maintain
        from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

        s = self.shape
        lake = os.path.join(self.root, "lakes", f"r{r}")
        if self.base_lake:
            shutil.copytree(self.base_lake, lake)
        wal = os.path.join(self.root, "wal", f"r{r}")
        os.makedirs(wal)
        cfg = self.config(wal, lake)
        round_events = 0
        for i, step in enumerate(self.steps):
            for p in step:
                link(p, wal)
            rep = self.commit(cfg, r, i, step)
            if rep is None:
                return  # the round's lake is in an unknown state
            round_events += rep.events_applied
            cp = os.path.basename(step[-1])
            heavy = i in s.heavy_commits
            if heavy:
                for k in range(s.heavy_repeats):
                    first = r == 0 and k == 0 and i == s.heavy_commits[0]
                    self.feed(lake, rep.final_version, check=first)
            acts, _ = self.timed("maintain", auto_maintain, lake)
            if acts is not None and self.trace:
                self.res.sample("maintain.folds", 1.0 if acts.get("deltas_folded") else 0.0)
                self.res.sample("maintain.files_folded", float(acts.get("delta_files_folded", 0)))
            for j in range(s.lookups_per_commit):
                urls = self.batches[(i, j)]
                out, _ = self.timed("lookup", cdc.lookup_urls, lake, urls)
                if out is not None:
                    self.res.recorded.append(Recorded("lookup", cp, urls, out))
                if self.trace:
                    self.trace_reads(lake, urls)
            if heavy:
                for j in range(s.heavy_repeats):
                    urls = self.batches[(i, j % s.lookups_per_commit)]
                    out, _ = self.timed("routed", lambda: consume(cdc.read_lake(
                        lake, constraints=[["url", "in", urls]])))
                    if out is not None:
                        self.res.recorded.append(Recorded("routed", cp, urls, out))
                    out, dt = self.timed("scan", lambda: consume(cdc.read_lake(
                        lake, columns=SCAN_COLUMNS)))
                    if out is not None:
                        self.res.scan_rows.append(out.num_rows / dt)
                        self.res.recorded.append(Recorded("scan", cp, None, out))
        # round-end properties (untimed)
        expected_events = sum(
            pq.ParquetFile(p).metadata.num_rows for st in self.steps for p in st
        )
        if round_events != expected_events:
            self.res.problems.append(
                f"round {r}: {round_events} events committed, {expected_events} generated")
        again = cdc.run_ingest(cfg)
        if again.commits != 0:
            self.res.problems.append(f"round {r}: a second run_ingest committed {again.commits}")
        m = load_manifest(lake)
        if m.counters.get("error_rows", 0):
            self.res.problems.append(f"round {r}: error_rows = {m.counters['error_rows']}")
        self.res.round_lake_bytes.append(dir_bytes(lake))
        self.res.round_data_files.append(len(m.all_data_relpaths()))
        self.final_lake, self.final_checkpoint = lake, os.path.basename(self.steps[-1][-1])
        if r > 0:
            shutil.rmtree(os.path.join(self.root, "lakes", f"r{r - 1}"), ignore_errors=True)
            shutil.rmtree(os.path.join(self.root, "wal", f"r{r - 1}"), ignore_errors=True)

    def commit(self, cfg, r: int, position: int, step: list):
        """One timed ``run_ingest``. A traced run traces every other
        commit, alternating positions between rounds; the other commits
        measure the untouched engine."""
        from data_hub_ejp_xml_pipeline_ray.pipelines import cdc
        from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

        traced = self.trace and (r + position) % 2 == 0
        before = load_manifest(cfg.lake_dir) if traced else None
        if traced:
            from tracing import CommitTracer

            with CommitTracer() as tracer:
                rep, dt = self.timed("ingest", cdc.run_ingest, cfg)
        else:
            rep, dt = self.timed("ingest", cdc.run_ingest, cfg)
        if rep is None:
            return None
        if rep.commits != 1 or rep.error_rows:
            self.res.problems.append(
                f"commit {position}: {rep.commits} commits, {rep.error_rows} error rows")
        self.res.events_committed += rep.events_applied
        self.res.commit_positions.append((position, dt))
        if self.trace:
            self.res.sample("ingest.traced_s" if traced else "ingest.untraced_s", dt)
        if traced:
            self.trace_commit(cfg.lake_dir, before, rep, dt, tracer.acc, step)
        return rep

    def feed(self, lake: str, v: int, check: bool) -> None:
        from data_hub_ejp_xml_pipeline_ray.pipelines import cdc

        out, _ = self.timed("feed", lambda: consume(cdc.changes_between(lake, v - 1, v)))
        if out is None:
            return
        self.res.feed_rows.append(out.num_rows)
        if check:
            from oracle import check_feed

            after = cdc.lake_snapshot(lake, version=v)
            before = (
                cdc.lake_snapshot(lake, version=v - 1) if v > 1
                else after.schema.empty_table()
            )
            self.res.problems += check_feed(before, out, after, f"feed v{v - 1}->v{v}")

    # ------------------------------------------------------------------
    # tracing (trace=True only; never inside a timed interval)
    def trace_commit(self, lake, before, rep, dt, acc, step) -> None:
        from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

        t0 = time.perf_counter()
        after = load_manifest(lake)
        self.res.sample("manifest.load_s", time.perf_counter() - t0)
        lin = after.lineage[-1] if after.lineage else {}
        p1 = float(lin.get("phase1_seconds", 0.0))
        p2 = float(lin.get("phase2_seconds", 0.0))
        events = int(lin.get("events_applied", rep.events_applied))
        rows = [int(x) for x in lin.get("rows_per_partition", {}).values()]
        wal_bytes = sum(os.path.getsize(p) for p in step)
        old = before.all_data_relpaths() if before is not None else set()
        written = sum(
            os.path.getsize(os.path.join(lake, rel))
            for rel in after.all_data_relpaths() - old
        )
        smp = self.res.sample
        smp("wal.list_s", acc.get("wal.list_s", 0.0))
        smp("wal.bytes", wal_bytes)
        smp("phase1.s", p1)
        smp("phase1.events", events)
        smp("phase2.s", p2)
        smp("combine.deltas", int(lin.get("deltas_merged", 0)))
        smp("merge.partitions", int(lin.get("partitions_rewritten", len(rows))))
        smp("merge.skew", max(rows) / mean(rows) if rows and mean(rows) else 1.0)
        smp("merge.bytes", written)
        smp("commit.other_s", dt - p1 - p2)
        for key in ("checkpoint.commit_manifest_s", "checkpoint.lock_s", "checkpoint.gc_s"):
            smp(key, acc.get(key, 0.0))
        smp("manifest.bytes", os.path.getsize(os.path.join(lake, "_manifest.json")))
        smp("store.ops", acc.get("store.ops", 0))
        smp("store.bytes", acc.get("store.bytes", 0))

    def trace_reads(self, lake: str, urls: list) -> None:
        from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import scan_plan
        from data_hub_ejp_xml_pipeline_ray.state.checkpoint import load_manifest

        plan = scan_plan(lake, [["url", "in", urls]])
        m = load_manifest(lake)
        self.res.sample("routed.parts_read", len(plan["parts"]))
        self.res.sample("lookup.files_per_call",
                        sum(len(m.part_files(p)) for p in plan["parts"]))

    def trace_kernels(self) -> None:
        from data_hub_ejp_xml_pipeline_ray.functions.text import extract_text_column
        from data_hub_ejp_xml_pipeline_ray.stages.merge import lww_reduce
        from tracing import kernel_rows_per_s

        wire = pa.concat_tables(
            [pq.read_table(p) for st in self.steps for p in st],
            promote_options="permissive",
        )
        self.res.sample("extract.rows_per_s", kernel_rows_per_s(
            lambda t: extract_text_column(t.column("html")), wire))
        self.res.sample("lww.rows_per_s", kernel_rows_per_s(lww_reduce, wire))

    # ------------------------------------------------------------------
    # checks against the replay (after the timed loop)
    def verify(self, replay) -> None:
        from data_hub_ejp_xml_pipeline_ray.pipelines.cdc import lake_snapshot
        from oracle import compare

        scan_cols = [c for c in SCAN_COLUMNS if c != "url"]
        scans: dict[str, pa.Table] = {}
        for rec in self.res.recorded:
            what = f"{rec.kind} after {rec.checkpoint}"
            if rec.kind == "scan":
                if rec.checkpoint not in scans:
                    scans[rec.checkpoint] = replay.expected(rec.checkpoint, columns=scan_cols)
                want, cols = scans[rec.checkpoint], scan_cols
            else:
                want, cols = replay.expected(rec.checkpoint, rec.urls), replay.columns
            self.res.problems += compare(want, rec.table, cols, what)
        if getattr(self, "final_lake", None):
            self.res.problems += compare(
                replay.expected(self.final_checkpoint),
                lake_snapshot(self.final_lake), replay.columns, "final lake")


def link(path: str, into: str) -> None:
    """Surface a segment in a WAL directory (hard link, else copy)."""
    dst = os.path.join(into, os.path.basename(path))
    try:
        os.link(path, dst)
    except OSError:
        shutil.copyfile(path, dst)
