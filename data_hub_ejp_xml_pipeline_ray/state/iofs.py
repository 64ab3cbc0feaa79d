"""Data-plane I/O routing: every lake DATA file (partition parquet,
delta file, dead-letter blob) read/written by the engine goes through
these helpers, so a lake whose ``lake_dir`` is an ``objstore://`` URL
streams its data through the object-store backend while POSIX lakes
keep their exact local fast path (tmp + fsync + rename publishes).

Object-store publishes need no rename: data files are immutable and
content-addressed (deterministic batch-token names, see
``checkpoint.partition_file_relpath``), so a whole-object PUT of the
final key is already atomic and idempotent. Reads are ranged GETs via
the fsspec adapter — a parquet footer probe pulls the footer, not the
object.
"""
from __future__ import annotations

import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .objstore import is_objstore_path, pyarrow_fs, strip_for_fs
from .store import resolve_store


def write_table_atomic(table: pa.Table, path: str, **write_kwargs) -> int:
    """Publish a parquet data file atomically; returns its size in
    bytes. POSIX: tmp + rename (readers never observe a partial file).
    Object store: serialize to a buffer and PUT the final key (atomic
    at object granularity)."""
    if is_objstore_path(path):
        sink = pa.BufferOutputStream()
        pq.write_table(table, sink, **write_kwargs)
        data = sink.getvalue().to_pybytes()
        resolve_store(path).put_atomic(path, data)
        return len(data)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.inprogress-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp, **write_kwargs)
    os.replace(tmp, path)
    return os.path.getsize(path)


def read_table(
    path: str, columns: list[str] | None = None, **kwargs
) -> pa.Table:
    if is_objstore_path(path):
        return pq.read_table(
            strip_for_fs(path), columns=columns,
            filesystem=pyarrow_fs(), **kwargs,
        )
    return pq.read_table(path, columns=columns, **kwargs)


def parquet_file(path: str) -> pq.ParquetFile:
    """Open for metadata/row-group reads. Object store: ranged GETs
    (footer-sized), not a whole-object download."""
    if is_objstore_path(path):
        return pq.ParquetFile(
            pyarrow_fs().open_input_file(strip_for_fs(path))
        )
    return pq.ParquetFile(path)


def file_exists(path: str) -> bool:
    if is_objstore_path(path):
        return resolve_store(path).exists(path)
    return os.path.exists(path)


def file_size(path: str) -> int:
    if is_objstore_path(path):
        return resolve_store(path).size(path)
    return os.path.getsize(path)


def delete_file(path: str) -> bool:
    if is_objstore_path(path):
        return resolve_store(path).delete(path)
    try:
        os.remove(path)
        return True
    except FileNotFoundError:
        return False


def list_data_files(dir_path: str, *, recursive: bool = False) -> list[str]:
    """Paths of files under a directory-like prefix (sorted).
    Non-recursive by default, matching ``os.listdir`` call sites."""
    if is_objstore_path(dir_path):
        if not recursive:
            return resolve_store(dir_path).list_prefix(dir_path)
        from .objstore import _actor, _call, split_objstore_path

        name, key = split_objstore_path(dir_path)
        try:
            keys = _call(_actor(name), "list_prefix", key, True)
        except FileNotFoundError:
            return []
        return sorted(f"objstore://{name}/{k}" for k in keys)
    if not os.path.isdir(dir_path):
        return []
    if not recursive:
        return sorted(
            os.path.join(dir_path, n) for n in os.listdir(dir_path)
        )
    out = []
    for root, _, files in os.walk(dir_path):
        out.extend(os.path.join(root, f) for f in files)
    return sorted(out)


def normalize_path(path: str) -> str:
    """``..``-collapse that survives URL schemes (``os.path.normpath``
    would fold ``objstore://`` to ``objstore:/``)."""
    if is_objstore_path(path):
        import posixpath

        from .objstore import split_objstore_path

        name, key = split_objstore_path(path)
        return f"objstore://{name}/{posixpath.normpath(key)}"
    return os.path.normpath(path)


def copy_file(src: str, dst: str) -> int:
    """Copy one immutable data file (scheme-mixed ok: POSIX<->store);
    returns bytes copied. Store targets are whole-object PUTs; POSIX
    targets are written to a tmp name and renamed, so a crash mid-copy
    never leaves a truncated file at ``dst`` (publish treats an existing
    ``dst`` as a finished copy)."""
    if is_objstore_path(dst):
        if is_objstore_path(src):
            data = resolve_store(src).get_bytes(src)
        else:
            with open(src, "rb") as f:
                data = f.read()
        resolve_store(dst).put_atomic(dst, data)
        return len(data)
    os.makedirs(os.path.dirname(dst) or ".", exist_ok=True)
    tmp = f"{dst}.tmp-{uuid.uuid4().hex[:8]}"
    if is_objstore_path(src):
        with open(tmp, "wb") as f:
            f.write(resolve_store(src).get_bytes(src))
    else:
        shutil.copyfile(src, tmp)
    os.replace(tmp, dst)
    return os.path.getsize(dst)


def list_files_sized(dir_path: str) -> list[tuple[str, str, int]]:
    """``(name, full_path, size_bytes)`` for files directly under a
    directory-like prefix, sorted by name — the tailer's listing shape
    (an S3 LIST returns sizes with the keys; POSIX stats them)."""
    if is_objstore_path(dir_path):
        from .objstore import _actor, _call, split_objstore_path

        name, key = split_objstore_path(dir_path)
        try:
            items = _call(_actor(name), "list_prefix", key, False, True)
        except FileNotFoundError:
            return []
        return sorted(
            (k.rsplit("/", 1)[-1], f"objstore://{name}/{k}", int(sz))
            for k, sz in items
            if not k.endswith("/")
        )
    if not os.path.isdir(dir_path):
        return []
    out = []
    for n in sorted(os.listdir(dir_path)):
        p = os.path.join(dir_path, n)
        if os.path.isfile(p):
            out.append((n, p, os.path.getsize(p)))
    return out


def open_binary(path: str):
    """Open for streaming binary read (ranged on the object store)."""
    if is_objstore_path(path):
        from .objstore import ObjStoreFileSystem

        return ObjStoreFileSystem().open(strip_for_fs(path), "rb")
    return open(path, "rb")


def list_subdirs(dir_path: str) -> list[str]:
    """Immediate subdirectory NAMES under a directory-like prefix
    (pseudo-directories on an object store)."""
    if is_objstore_path(dir_path):
        from .objstore import _actor, _call, split_objstore_path

        name, key = split_objstore_path(dir_path)
        return sorted(
            k.rstrip("/").rsplit("/", 1)[-1]
            for k in _call(_actor(name), "list_prefix", key)
            if k.endswith("/")
        )
    if not os.path.isdir(dir_path):
        return []
    return sorted(
        n for n in os.listdir(dir_path)
        if os.path.isdir(os.path.join(dir_path, n))
    )


def read_json_dataset(paths: list[str], **kwargs):
    """``ray.data.read_json`` routed by path scheme (see
    :func:`read_parquet_dataset`)."""
    import ray.data

    if paths and is_objstore_path(paths[0]):
        return ray.data.read_json(
            [strip_for_fs(p) for p in paths],
            filesystem=pyarrow_fs(), **kwargs,
        )
    return ray.data.read_json(paths, **kwargs)


def read_parquet_dataset(paths: list[str], **kwargs):
    """``ray.data.read_parquet`` routed by path scheme: objstore paths
    get the actor-backed filesystem (read tasks stream ranged GETs from
    the bucket actor — the same shape as an S3 read), local paths keep
    the native reader."""
    import ray.data

    if paths and is_objstore_path(paths[0]):
        return ray.data.read_parquet(
            [strip_for_fs(p) for p in paths],
            filesystem=pyarrow_fs(), **kwargs,
        )
    return ray.data.read_parquet(paths, **kwargs)
