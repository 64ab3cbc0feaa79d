"""Data-plane I/O routing: lake DATA files (partition parquet, delta
files, dead-letter blobs) that the engine writes, lists, copies or
deletes go through these helpers, so a lake whose ``lake_dir`` is an
``s3://<bucket>/<key>`` URL keeps its data in the bucket while POSIX
lakes keep their exact local fast path (tmp + fsync + rename
publishes).

Reads need no helper: ``pyarrow.parquet.read_table``,
``pyarrow.parquet.ParquetFile``, ``ray.data.read_parquet`` and
``ray.data.read_json`` resolve ``s3://`` URIs natively (pyarrow's
``S3FileSystem``, configured from the standard ``AWS_*`` environment),
with ranged GETs for footers and column chunks.

S3 writes are whole-object ``put_object`` calls through
:class:`~.store.S3Store`: data files are immutable and content-addressed
(deterministic batch-token names, see
``checkpoint.partition_file_relpath``), so a PUT of the final key is
already atomic and idempotent, and no rename is needed.
"""
from __future__ import annotations

import io
import os
import posixpath
import shutil
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .store import S3_SCHEME, S3_STORE, is_s3_path, resolve_store


def write_table_atomic(table: pa.Table, path: str, **write_kwargs) -> int:
    """Publish a parquet data file atomically; returns its size in
    bytes. POSIX: tmp + rename (readers never observe a partial file).
    S3: serialize to a buffer and PUT the final key (atomic at object
    granularity)."""
    if is_s3_path(path):
        sink = pa.BufferOutputStream()
        pq.write_table(table, sink, **write_kwargs)
        data = sink.getvalue().to_pybytes()
        S3_STORE.put_atomic(path, data)
        return len(data)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.inprogress-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp, **write_kwargs)
    os.replace(tmp, path)
    return os.path.getsize(path)


def file_exists(path: str) -> bool:
    return resolve_store(path).exists(path)


def file_size(path: str) -> int:
    return resolve_store(path).size(path)


def delete_file(path: str) -> bool:
    return resolve_store(path).delete(path)


def list_data_files(dir_path: str, *, recursive: bool = False) -> list[str]:
    """Paths of files under a directory-like prefix (sorted).
    Non-recursive by default, matching ``os.listdir`` call sites."""
    if not recursive:
        return resolve_store(dir_path).list_prefix(dir_path)
    if is_s3_path(dir_path):
        files, _ = S3_STORE.list_objects(dir_path, recursive=True)
        return [url for url, _ in files]
    out = []
    for root, _, files in os.walk(dir_path):
        out.extend(os.path.join(root, f) for f in files)
    return sorted(out)


def normalize_path(path: str) -> str:
    """``..``-collapse that survives URL schemes (``os.path.normpath``
    would fold ``s3://`` to ``s3:/``)."""
    if is_s3_path(path):
        return S3_SCHEME + posixpath.normpath(path[len(S3_SCHEME):])
    return os.path.normpath(path)


def copy_file(src: str, dst: str) -> int:
    """Copy one immutable data file (scheme-mixed ok: POSIX<->S3);
    returns bytes copied. S3 targets are whole-object PUTs; POSIX
    targets are written to a tmp name and renamed, so a crash mid-copy
    never leaves a truncated file at ``dst`` (publish treats an existing
    ``dst`` as a finished copy)."""
    if is_s3_path(dst):
        data = resolve_store(src).get_bytes(src)
        S3_STORE.put_atomic(dst, data)
        return len(data)
    os.makedirs(os.path.dirname(dst) or ".", exist_ok=True)
    tmp = f"{dst}.tmp-{uuid.uuid4().hex[:8]}"
    if is_s3_path(src):
        with open(tmp, "wb") as f:
            f.write(S3_STORE.get_bytes(src))
    else:
        shutil.copyfile(src, tmp)
    os.replace(tmp, dst)
    return os.path.getsize(dst)


def list_files_sized(dir_path: str) -> list[tuple[str, str, int]]:
    """``(name, full_path, size_bytes)`` for files directly under a
    directory-like prefix, sorted by name — the tailer's listing shape
    (an S3 LIST returns sizes with the keys; POSIX stats them)."""
    if is_s3_path(dir_path):
        files, _ = S3_STORE.list_objects(dir_path)
        return [(url.rsplit("/", 1)[-1], url, size) for url, size in files]
    if not os.path.isdir(dir_path):
        return []
    out = []
    for n in sorted(os.listdir(dir_path)):
        p = os.path.join(dir_path, n)
        if os.path.isfile(p):
            out.append((n, p, os.path.getsize(p)))
    return out


def open_binary(path: str):
    """Open for a line-by-line binary read (an S3 object is fetched
    whole: WAL segments are read start to end anyway)."""
    if is_s3_path(path):
        return io.BytesIO(S3_STORE.get_bytes(path))
    return open(path, "rb")


def list_subdirs(dir_path: str) -> list[str]:
    """Immediate subdirectory NAMES under a directory-like prefix
    (pseudo-directories on S3)."""
    if is_s3_path(dir_path):
        return S3_STORE.list_objects(dir_path)[1]
    if not os.path.isdir(dir_path):
        return []
    return sorted(
        n for n in os.listdir(dir_path)
        if os.path.isdir(os.path.join(dir_path, n))
    )
