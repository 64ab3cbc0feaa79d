"""Per-layer tracing from outside the engine.

A traced commit swaps timing and counting wrappers into the engine's
module namespaces for the duration of one ``run_ingest`` call:

* ``sources.wal.list_segments`` / ``segments_after`` (the tail listing),
* the ``state.checkpoint`` calls ``pipelines.cdc`` makes on the driver
  (``writer_lock`` acquire + release, ``commit_manifest``,
  ``gc_unreferenced``),
* every ``state.store.LocalFsStore`` operation (count and bytes).

Untraced commits run the engine untouched, so the ratio of their wall
times is the tracing overhead. Phase 1 and phase 2 come from the
commit's own lineage entry; the kernels are timed in-process on the
workload's data.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

#: LocalFsStore methods counted as store operations, with the position
#: of the argument after ``self`` (or the result) whose length is the
#: bytes moved
STORE_OPS = {
    "get_bytes": "result",
    "put_atomic": 1,
    "put_if_absent": 1,
    "replace_if_matches": 2,
    "delete_if_matches": None,
    "delete": None,
    "exists": None,
    "list_prefix": None,
    "size": None,
}


class CommitTracer:
    """Wrappers installed for one traced commit; ``acc`` holds its
    seconds and counts once the ``with`` block ends."""

    def __init__(self):
        self.acc: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, name, make):
        orig = getattr(owner, name, None)
        if orig is None:
            print(f"[perfbench] trace: {owner.__name__}.{name} not found",
                  file=sys.stderr)
            return
        self._undo.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def _timer(self, key):
        def make(orig):
            def timed(*a, **k):
                t0 = time.perf_counter()
                try:
                    return orig(*a, **k)
                finally:
                    self.acc[key] += time.perf_counter() - t0
            return timed
        return make

    def _lock_timer(self, orig):
        @contextlib.contextmanager
        def timed_lock(*a, **k):
            cm = orig(*a, **k)
            t0 = time.perf_counter()
            token = cm.__enter__()
            self.acc["checkpoint.lock_s"] += time.perf_counter() - t0
            exc = (None, None, None)
            try:
                yield token
            except BaseException:
                exc = sys.exc_info()
                raise
            finally:
                t0 = time.perf_counter()
                cm.__exit__(*exc)
                self.acc["checkpoint.lock_s"] += time.perf_counter() - t0
        return timed_lock

    def _store_counter(self, sized):
        def make(orig):
            def counted(store, *a, **k):
                out = orig(store, *a, **k)
                self.acc["store.ops"] += 1
                if sized == "result":
                    self.acc["store.bytes"] += len(out)
                elif sized is not None and len(a) > sized:
                    self.acc["store.bytes"] += len(a[sized])
                return out
            return counted
        return make

    def __enter__(self):
        from data_hub_ejp_xml_pipeline_ray.pipelines import cdc
        from data_hub_ejp_xml_pipeline_ray.sources import wal
        from data_hub_ejp_xml_pipeline_ray.state import store

        self._patch(wal, "list_segments", self._timer("wal.list_s"))
        self._patch(wal, "segments_after", self._timer("wal.list_s"))
        self._patch(cdc, "commit_manifest",
                    self._timer("checkpoint.commit_manifest_s"))
        self._patch(cdc, "gc_unreferenced", self._timer("checkpoint.gc_s"))
        self._patch(cdc, "writer_lock", self._lock_timer)
        for name, sized in STORE_OPS.items():
            self._patch(store.LocalFsStore, name,
                        self._store_counter(sized))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)
        return False


def kernel_rows_per_s(fn, table, min_seconds: float = 0.3) -> float:
    """Median rows/s of ``fn(table)`` over repeats lasting at least
    ``min_seconds`` (and at least three calls)."""
    rates = []
    start = time.perf_counter()
    while len(rates) < 3 or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn(table)
        rates.append(table.num_rows / (time.perf_counter() - t0))
    rates.sort()
    return rates[len(rates) // 2]
