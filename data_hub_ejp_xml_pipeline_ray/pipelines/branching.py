"""Write-Audit-Publish branches: zero-copy staging refs on one lake.

The WAP pattern (Iceberg's ``wap.branch`` / Nessie refs; the reference's
analog is staging S3 prefixes that only become visible when the
manifest row advances, ``ejp_xml_pipeline/etl.py:151-213``): fork a
named BRANCH off the lake head, ingest/compact/repair on the branch
while production readers keep seeing the untouched main head, AUDIT the
branch (CHECK constraints or arbitrary queries over its snapshot), then
PUBLISH — one atomic fast-forward of the main manifest pointer.

Representation — a branch is a nested VIRTUAL LAKE at
``<lake>/_branches/<name>/``:

* its manifest/snapshots/lock/zones machinery is the ordinary lake
  state (``state/checkpoint.py``), so ``run_ingest``, ``read_lake``,
  ``changes_between``, incremental views, SCD2, compaction — everything
  keyed on a lake dir — runs on a branch dir UNCHANGED;
* INHERITED data files are referenced through ``../../data/...``
  relpaths (zero copy at fork: a branch of a 100-TB lake is one JSON
  manifest); files the branch itself writes land in its own
  ``data/`` dir;
* parent GC pins every relpath a live branch references
  (``checkpoint._branch_pinned_relpaths``), so parent compaction /
  vacuum can never pull files out from under a branch — and branch GC
  only ever sweeps the branch's own ``data/`` listing, so it can never
  touch parent files;
* PUBLISH is fast-forward-only: it refuses if main advanced past the
  fork point (the WAP contract — audit ran against a state that is no
  longer main's successor). Branch-local files are copied into the
  parent ``data/`` dir under publish-qualified names (deterministic in
  (branch, fork version, branch head version) so a crashed publish
  retries idempotently and can never collide with a differently-
  contented parent file), then one CAS manifest commit makes the whole
  branch state visible. Change-feed consumers see the publish as ONE
  version whose diff is exactly what the branch did.

Branch-of-a-branch is refused (one level, like a staging area).
"""
from __future__ import annotations

import os
import re
import shutil
from functools import partial

import pyarrow as pa

from ..stages.merge import (
    map_partitions,
    read_effective_partition,
    reduce_fn_for_kind,
    write_partition,
)
from ..state.checkpoint import (
    BRANCHES_DIR,
    DATA_DIR,
    LakeManifest,
    branch_dir,
    commit_manifest,
    gc_unreferenced,
    list_branches,
    load_manifest,
    verify_lock,
    writer_lock,
)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")
#: how many path levels separate a branch dir from its parent lake dir
_UP = os.path.join("..", "..")


def _require_not_branch(lake_dir: str) -> None:
    parent = os.path.basename(os.path.dirname(os.path.abspath(lake_dir)))
    if parent == BRANCHES_DIR:
        raise ValueError(
            f"{lake_dir} is itself a branch; branch-of-a-branch is not "
            f"supported (fork from the parent lake instead)"
        )


def _to_branch_rel(rel: str) -> str:
    """Parent-relative data relpath -> the same file seen from the
    branch dir (two levels down)."""
    return os.path.join(_UP, rel)


def _rewrite_manifest_paths(m: LakeManifest, fn) -> tuple[dict, dict, dict]:
    """(partitions, delta_files, zones) with every relpath mapped
    through ``fn`` — the three places a manifest names data files."""
    parts = {p: fn(rel) for p, rel in m.partitions.items()}
    deltas = {p: [fn(r) for r in rels] for p, rels in m.delta_files.items()}
    zones = {fn(k): v for k, v in (m.zones or {}).items()}
    return parts, deltas, zones


def create_branch(
    lake_dir: str, name: str, *, version: int | None = None,
) -> dict:
    """Fork branch ``name`` off the lake head (or a retained
    ``version``): one manifest write, zero data copied. The branch
    carries the fork point's schema, partition/split map, MOR deltas,
    stats, ZONE MAPS (keys rewritten — same immutable bytes, still
    valid) and WATERMARK, so ``run_ingest`` against the branch dir
    resumes tailing the WAL exactly where the fork stood. Runs under
    the PARENT writer lock so a fork can never race a parent GC sweep
    (the sweep's branch scan and this commit are serialized)."""
    _require_not_branch(lake_dir)
    if not _NAME_RE.match(name or ""):
        raise ValueError(f"invalid branch name: {name!r}")
    with writer_lock(lake_dir):
        m = load_manifest(lake_dir, version=version)
        if m is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        bdir = branch_dir(lake_dir, name)
        if load_manifest(bdir) is not None:
            raise FileExistsError(
                f"branch {name!r} already exists at {lake_dir}; "
                f"delete_branch() it first"
            )
        parts, deltas, zones = _rewrite_manifest_paths(m, _to_branch_rel)
        bm = m.successor(
            {"op": "branch", "branch": name, "forked_from_version": m.version},
            history=LakeManifest(num_partitions=m.num_partitions),
            partitions=parts, delta_files=deltas, zones=zones,
        )
        commit_manifest(bdir, bm)
        # the parent's purge registry travels to the branch: branch
        # ingest tails the same WAL, so the ingest-edge guard must hold
        # there too (purge_urls itself refuses while branches exist, so
        # the two registries cannot diverge afterwards)
        from ..state.checkpoint import list_purged, record_purged

        purged = list_purged(lake_dir)
        if purged:
            record_purged(bdir, sorted(purged), 1)
    return {
        "branch": name, "dir": bdir, "forked_from_version": m.version,
        "watermark": m.watermark, "kind": m.kind,
    }


def delete_branch(lake_dir: str, name: str) -> dict:
    """Drop a branch: its state dir and every file the BRANCH wrote die
    with it; parent files it referenced merely lose their pin (the next
    parent vacuum may reclaim superseded ones). Runs under the parent
    writer lock so the removal never races a parent GC branch scan."""
    _require_not_branch(lake_dir)
    bdir = branch_dir(lake_dir, name)
    if not os.path.isdir(bdir):
        raise FileNotFoundError(f"no branch {name!r} at {lake_dir}")
    from ..state.checkpoint import check_no_live_writer

    with writer_lock(lake_dir):
        check_no_live_writer(bdir)  # refuse to rm under a live ingest
        shutil.rmtree(bdir)
    return {"deleted": name}


def audit_branch(
    lake_dir_or_branch: str, constraints: list,
) -> dict:
    """The AUDIT of write-audit-publish: evaluate declarative CHECK
    constraints (the ingest-expectation grammar and NULL semantics,
    ``stages.merge.check_constraints``) over the branch's committed
    snapshot, streaming — returns violation counts per constraint
    reason, no driver materialization of passing rows. Publish can be
    gated on ``audit["violations"] == 0``."""
    from ..stages.merge import check_constraints
    from .cdc import read_lake

    ds = read_lake(lake_dir_or_branch)

    def count_bad(batch: pa.Table) -> pa.Table:
        _ok, bad, _raw = check_constraints(batch, constraints)
        reasons = (
            bad.column("error").to_pylist() if bad is not None else []
        )
        return pa.table({
            "reason": pa.array(reasons, pa.string()),
            "n": pa.array([1] * len(reasons), pa.int64()),
        })

    agg = ds.map_batches(count_bad, batch_format="pyarrow")
    per_reason: dict[str, int] = {}
    for row in agg.groupby("reason").sum("n").take_all():
        per_reason[row["reason"]] = int(row["sum(n)"])
    return {
        "violations": sum(per_reason.values()),
        "by_reason": per_reason,
    }


def _publish_rel(rel: str, name: str, fork_v: int, head_v: int) -> str:
    """Deterministic parent-relative home for a branch-LOCAL data file
    at publish. Qualified by (branch, fork version, head version):
    the same publish retried after a crash rewrites the identical path
    with identical bytes, while no other writer — parent ingest,
    compaction (``compact-<v>`` tokens), split, an earlier publish of a
    re-created same-named branch (different fork version) — can ever
    produce this name with different content."""
    base = os.path.basename(rel)
    for ext in (".delta.parquet", ".parquet"):
        if base.endswith(ext):
            stem = base[: -len(ext)]
            return os.path.join(
                DATA_DIR, f"{stem}-pub-{name}-f{fork_v}h{head_v}{ext}"
            )
    raise ValueError(f"unexpected data file name: {rel!r}")


def publish_branch(
    lake_dir: str, name: str, *,
    audit_constraints: list | None = None,
    keep_branch: bool = False,
) -> dict:
    """Atomically FAST-FORWARD the main lake to the branch head.

    Steps (crash-safe at every boundary):

    1. take the parent writer lock, then the branch writer lock;
    2. refuse unless main still sits at the branch's fork version (the
       WAP contract: what was audited must be main's direct successor);
    3. optional audit gate: CHECK ``audit_constraints`` over the branch
       snapshot, refuse on any violation;
    4. copy the files the BRANCH wrote into the parent ``data/`` dir
       under publish-qualified names (idempotent: content-addressed
       targets, skip-if-present; a crash here leaves orphans that
       parent fsck/GC reports/sweeps);
    5. ONE CAS manifest commit publishes the branch's entire state —
       partitions, MOR deltas, splits, schema, zones, counters AND
       watermark (tailing resumes on main where the branch stood);
    6. drop the branch (unless ``keep_branch``) and GC.

    Consumers of the change feed see the publish as one ordinary
    version whose diff is exactly the branch's net effect."""
    _require_not_branch(lake_dir)
    bdir = branch_dir(lake_dir, name)
    if load_manifest(bdir) is None:  # before locking: the lock's
        # makedirs would otherwise leave an empty debris branch dir
        raise FileNotFoundError(f"no branch {name!r} at {lake_dir}")
    with writer_lock(lake_dir) as ptok, writer_lock(bdir):
        parent = load_manifest(lake_dir)
        branch = load_manifest(bdir)
        if parent is None:
            raise FileNotFoundError(f"no committed lake at {lake_dir}")
        if branch is None:
            raise FileNotFoundError(f"no branch {name!r} at {lake_dir}")
        fork_entry = branch.lineage[0]
        if fork_entry.get("op") != "branch":
            raise RuntimeError(
                f"branch {name!r} has no fork lineage entry; refusing"
            )
        fork_v = int(fork_entry["forked_from_version"])
        if parent.version != fork_v:
            raise RuntimeError(
                f"cannot fast-forward: {lake_dir} is v{parent.version} but "
                f"branch {name!r} forked at v{fork_v} — main advanced since "
                f"the fork; re-fork and replay, or delete the branch"
            )
        if audit_constraints:
            audit = audit_branch(bdir, audit_constraints)
            if audit["violations"]:
                raise RuntimeError(
                    f"audit gate failed for branch {name!r}: "
                    f"{audit['violations']} violating rows "
                    f"({audit['by_reason']})"
                )

        up_prefix = os.path.normpath(_UP)  # "../.."
        moved: dict[str, str] = {}  # branch rel -> parent rel

        def to_parent(rel: str) -> str:
            norm = os.path.normpath(rel)
            if norm.startswith(up_prefix + os.sep):
                return norm[len(up_prefix) + 1:]  # inherited: same file
            pr = _publish_rel(norm, name, fork_v, branch.version)
            moved[norm] = pr
            return pr

        parts, deltas, zones = _rewrite_manifest_paths(branch, to_parent)
        from ..state.iofs import copy_file, file_exists

        for brel, prel in sorted(moved.items()):
            dst = os.path.join(lake_dir, prel)
            if file_exists(dst):
                continue  # our own crashed attempt: identical bytes
            copy_file(os.path.join(bdir, brel), dst)

        new_m = branch.successor(
            {
                "op": "publish", "branch": name,
                "branch_version": branch.version,
                "forked_from_version": fork_v,
            },
            history=parent, retain_versions=parent.retain_versions,
            partitions=parts, delta_files=deltas, zones=zones,
        )
        commit_manifest(lake_dir, new_m, expected_version=parent.version)
        verify_lock(lake_dir, ptok)
        if not keep_branch:
            shutil.rmtree(bdir)
        gc_unreferenced(lake_dir, new_m, previous=parent)
    return {
        "published": name, "new_version": new_m.version,
        "branch_version": branch.version, "forked_from_version": fork_v,
        "files_copied": len(moved), "watermark": new_m.watermark,
        "kept_branch": keep_branch,
    }


def _merge_partition(
    lake_dir: str, bdir: str, token: str, schema, kind: str,
    main_files: dict[int, list[str]], branch_files: dict[int, list[str]],
    renames: list, part: int,
) -> dict:
    """One branch-written partition: LWW over main's and the branch's
    effective states, written as main's new base file."""
    sides = [
        read_effective_partition(
            d, files[part], schema, kind=kind, renames=renames,
        )
        for d, files in ((lake_dir, main_files), (bdir, branch_files))
    ]
    merged = reduce_fn_for_kind(kind)(pa.concat_tables(sides))
    return write_partition(lake_dir, part, token, merged)


def merge_branch(
    lake_dir: str, name: str, *,
    audit_constraints: list | None = None,
    keep_branch: bool = False,
) -> dict:
    """THREE-WAY MERGE of a branch onto a main that ADVANCED past the
    fork point — the case :func:`publish_branch` refuses. Last-writer-
    wins IS the merge semantics: for every partition the branch wrote
    (its non-inherited files), read main's current effective content
    and the branch's effective content, reduce under the lake's own
    LWW kernel (``(warc_ts, seq)`` decides conflicts, tombstones win
    like any row), and write a new base file; partitions the branch
    only inherited keep main's current state untouched. Because LWW is
    commutative and idempotent, the result equals replaying both
    sides' WAL streams into one lake — re-applying rows both sides saw
    is harmless (the crash/replay law), and a main-side delete newer
    than the branch's row correctly survives the merge.

    Each branch-written partition is merged on the shared partition
    tasks (``stages.merge.map_partitions``): it reads two partitions'
    files and writes one — never the whole lake; shuffle volume is
    O(branch-touched partitions). Each task gets the file lists of
    both heads as read under the locks. The new files are
    content-addressed by a token deterministic in (branch, fork, both
    head versions), so a crashed merge retries idempotently.

    Guards (refused, not guessed):

    * diverged partition SPLIT maps — residue routing would disagree;
      fold the branch or re-fork instead;
    * different ``kind`` or ``num_partitions``;
    * known hazard inherited from compaction: if MAIN compacted away a
      tombstone newer than a branch row, that row resurrects — the
      same documented late-event hazard ``compact_lake`` carries.

    The merged watermark is ``max(main, branch)`` (segment names are
    totally ordered), so tailing resumes past whatever EITHER side
    consumed."""
    from ..schemas import merge_schemas

    _require_not_branch(lake_dir)
    bdir = branch_dir(lake_dir, name)
    if load_manifest(bdir) is None:
        raise FileNotFoundError(f"no branch {name!r} at {lake_dir}")
    with writer_lock(lake_dir) as ptok, writer_lock(bdir):
        parent = load_manifest(lake_dir)
        branch = load_manifest(bdir)
        fork_entry = branch.lineage[0]
        fork_v = int(fork_entry.get("forked_from_version", -1))
        if parent.kind != branch.kind:
            raise RuntimeError(
                f"kind mismatch: main={parent.kind!r} branch={branch.kind!r}"
            )
        if (parent.num_partitions != branch.num_partitions
                or parent.split_set() != branch.split_set()):
            raise RuntimeError(
                "partition split maps diverged between main and branch "
                f"{name!r}; merge cannot route residues — re-fork, or "
                "publish before splitting"
            )
        if audit_constraints:
            audit = audit_branch(bdir, audit_constraints)
            if audit["violations"]:
                raise RuntimeError(
                    f"audit gate failed for branch {name!r}: "
                    f"{audit['violations']} violating rows "
                    f"({audit['by_reason']})"
                )

        up_prefix = os.path.normpath(_UP)
        touched = sorted(
            p for p in branch.all_parts()
            if any(
                not os.path.normpath(r).startswith(up_prefix + os.sep)
                for r in branch.part_files(p)
            )
        )
        if (parent.renames != branch.renames
                or parent.dropped != branch.dropped):
            # name-based rename mapping cannot three-way merge diverged
            # DDL logs (the same physical name could mean two columns)
            raise RuntimeError(
                f"schema DDL state diverged between main and branch "
                f"{name!r} (renames/dropped differ); run the alter on "
                "the other side too, or re-fork"
            )
        schema = merge_schemas(parent.schema, branch.schema)
        token = f"merge-{name}-f{fork_v}h{branch.version}-v{parent.version + 1}"
        stats = map_partitions(partial(
            _merge_partition, lake_dir, bdir, token, schema, parent.kind,
            {p: parent.part_files(p) for p in touched},
            {p: branch.part_files(p) for p in touched},
            parent.renames,
        ), touched)
        watermark = max(
            (w for w in (parent.watermark, branch.watermark) if w is not None),
            default=None,
        )
        new_m = parent.successor(
            {
                "op": "merge", "branch": name,
                "branch_version": branch.version,
                "forked_from_version": fork_v,
                "merged_partitions": len(touched),
            },
            watermark=watermark, schema=schema,
        )
        # each merged partition is a new base: main's pending deltas on
        # it were read into the merge and are folded in
        new_m.fold_partition_stats(stats)
        commit_manifest(lake_dir, new_m, expected_version=parent.version)
        verify_lock(lake_dir, ptok)
        if not keep_branch:
            shutil.rmtree(bdir)
        gc_unreferenced(lake_dir, new_m, previous=parent)
    return {
        "merged": name, "new_version": new_m.version,
        "branch_version": branch.version, "forked_from_version": fork_v,
        "merged_partitions": len(touched), "watermark": watermark,
        "kept_branch": keep_branch,
    }


__all__ = [
    "audit_branch", "create_branch", "delete_branch", "list_branches",
    "merge_branch", "publish_branch",
]
