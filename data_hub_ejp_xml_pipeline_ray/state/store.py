r"""Storage seam for the commit path: the small set of primitives the
manifest/lock/view publish protocol needs, with a POSIX implementation,
an S3 implementation and an in-memory CAS implementation.

The reference commits its state to S3 (one JSON object re-written per
file, ``ejp_xml_pipeline/data_store/s3_data_service.py:26-39``) and its
data the same way. ``os.replace`` does not exist on object stores, so
every metadata publish goes through a :class:`Store` whose contract is
implementable on BOTH:

===================  =========================  ===========================
primitive            POSIX (LocalFsStore)       S3 call (S3Store, boto3)
===================  =========================  ===========================
``get_bytes``        open+read                  ``get_object``
``put_atomic``       tmp + fsync + rename       ``put_object`` (atomic at
                                                object granularity)
``put_if_absent``    ``O_CREAT|O_EXCL``         ``put_object(IfNoneMatch=
                                                "*")``
``replace_if_\       rename-to-unique +         ``get_object``, compare the
matches``            content check (single      body, ``put_object(IfMatch=
                     winner)                    <that GET's ETag>)``
``delete``           unlink                     ``head_object`` +
                                                ``delete_object``
``delete_if_\        rename-claim + content     ``get_object``, compare,
matches``            check                      ``delete_object(IfMatch=
                                                <that GET's ETag>)``
``exists`` /         stat                       ``head_object``
``size``
``list_prefix``      listdir                    ``list_objects_v2``
                                                (``Delimiter="/"``)
===================  =========================  ===========================

The commit protocol built on these (``checkpoint.commit_manifest``) is
rename-free end to end: the immutable per-version snapshot is the CAS
point (``put_if_absent`` — of N racing writers of v(N) exactly one
creates it), and the current pointer is published with
``replace_if_matches`` against the bytes read at CAS-check time, so a
zombie writer can never regress the pointer over a successor's commit.
Readers that want to avoid trusting the pointer entirely can resolve
"current" as ``max(list_versions())`` — snapshots are immutable and
content-complete.

S3 lake paths are ``s3://<bucket>/<key>``. The endpoint, credentials
and region come from the standard ``AWS_*`` environment (for a local
S3-compatible server, ``AWS_ENDPOINT_URL``), which boto3 and pyarrow
both read, so Ray workers started with that environment reach the same
bucket as the driver.

Data-plane files (partition parquet, spill row groups) intentionally
stay plain-path writes: they are immutable and content-addressed by a
deterministic batch token, so on an object store a direct PUT of the
final name is already atomic and idempotent — the local ``tmp +
os.replace`` in the merge stage exists only so POSIX readers never
observe a half-written file, and is not part of this seam.
"""
from __future__ import annotations

import contextlib
import os
import threading
import uuid
from abc import ABC, abstractmethod


class InjectedFault(RuntimeError):
    """Raised by a fault-injecting store to simulate a writer crash
    mid-protocol (process death between two storage operations)."""


class Store(ABC):
    """Byte-blob store with the conditional-write primitives the commit
    protocol needs. Paths are opaque ``/``-separated keys (the local
    implementation maps them to filesystem paths verbatim)."""

    @abstractmethod
    def get_bytes(self, path: str) -> bytes:
        """Read a blob; raises FileNotFoundError when absent."""

    @abstractmethod
    def put_atomic(self, path: str, data: bytes) -> None:
        """Publish a blob atomically: a concurrent reader sees the old
        bytes or the new bytes, never a torn mix."""

    @abstractmethod
    def put_if_absent(self, path: str, data: bytes) -> bool:
        """Create-if-absent (the CAS acquire). True = we created it;
        False = it already existed (unchanged)."""

    @abstractmethod
    def replace_if_matches(self, path: str, expected: bytes, data: bytes) -> bool:
        """Atomic conditional swap: publish ``data`` iff the current
        content is exactly ``expected``. True = swapped; False = the
        content moved (or vanished) — the caller lost the race."""

    @abstractmethod
    def delete(self, path: str) -> bool:
        """Best-effort delete. True = removed; False = was absent."""

    @abstractmethod
    def exists(self, path: str) -> bool: ...

    @abstractmethod
    def list_prefix(self, prefix: str) -> list[str]:
        """Keys under a directory-like prefix (non-recursive), sorted."""

    def delete_if_matches(self, path: str, expected: bytes) -> bool:
        """Delete iff the current content matches (lock release without
        stomping a successor). Default: read-verify-delete — races are
        tolerated by callers (fencing checks backstop them)."""
        try:
            if self.get_bytes(path) != expected:
                return False
        except FileNotFoundError:
            return False
        return self.delete(path)

    def size(self, path: str) -> int:
        """Blob size in bytes; FileNotFoundError when absent. Default:
        full read (backends override with a HEAD/stat)."""
        return len(self.get_bytes(path))


class LocalFsStore(Store):
    """POSIX implementation — the default for every lake path in this
    sandbox (and for any shared-filesystem deployment)."""

    def get_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def put_atomic(self, path: str, data: bytes) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    def put_if_absent(self, path: str, data: bytes) -> bool:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        return True

    def replace_if_matches(self, path: str, expected: bytes, data: bytes) -> bool:
        # single-winner without flock: rename the blob to a unique name
        # (of N racers exactly one rename succeeds), verify the content
        # we captured, publish the replacement, or restore on mismatch.
        claimed = f"{path}.swap-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(path, claimed)
        except FileNotFoundError:
            return False
        try:
            with open(claimed, "rb") as f:
                got = f.read()
        except FileNotFoundError:  # pragma: no cover — we own `claimed`
            return False
        if got != expected:
            # content moved under us: restore unless someone already
            # re-created the path (then their version wins)
            if not os.path.exists(path):
                with contextlib.suppress(OSError):
                    os.rename(claimed, path)
                    return False
            with contextlib.suppress(FileNotFoundError):
                os.remove(claimed)
            return False
        self.put_atomic(path, data)
        with contextlib.suppress(FileNotFoundError):
            os.remove(claimed)
        return True

    def delete(self, path: str) -> bool:
        try:
            os.remove(path)
            return True
        except FileNotFoundError:
            return False

    def delete_if_matches(self, path: str, expected: bytes) -> bool:
        # ATOMIC single-winner (unlike the base read-verify-delete):
        # rename-claim the blob, verify the claimed content, then remove
        # it — a concurrent writer's fresh blob is restored, never
        # deleted. Required by the writer-lock's stale-lease break: a
        # non-atomic delete could remove a LIVE successor's lock.
        claimed = f"{path}.del-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(path, claimed)
        except FileNotFoundError:
            return False
        try:
            with open(claimed, "rb") as f:
                got = f.read()
        except FileNotFoundError:  # pragma: no cover — we own `claimed`
            return False
        if got != expected:
            if not os.path.exists(path):
                with contextlib.suppress(OSError):
                    os.rename(claimed, path)
                    return False
            with contextlib.suppress(FileNotFoundError):
                os.remove(claimed)
            return False
        with contextlib.suppress(FileNotFoundError):
            os.remove(claimed)
        return True

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def list_prefix(self, prefix: str) -> list[str]:
        if not os.path.isdir(prefix):
            return []
        return sorted(os.path.join(prefix, n) for n in os.listdir(prefix))

    def size(self, path: str) -> int:
        return os.path.getsize(path)


class InMemoryCASStore(Store):
    """Rename-free fake object store: every mutation is a dict swap
    under one lock (the moral equivalent of S3 conditional PUT/DELETE —
    ``If-None-Match: *`` / ``If-Match: <etag>``). There is deliberately
    NO rename primitive, so any protocol that passes against this store
    is proven not to depend on POSIX rename.

    ``fail_after(n)`` injects a crash: the (n+1)-th MUTATING operation
    raises :class:`InjectedFault` *before* applying, simulating a writer
    process dying between two storage calls."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._fail_after: int | None = None
        self.mutations = 0

    def fail_after(self, n: int | None) -> None:
        with self._lock:
            self._fail_after = n
            self.mutations = 0

    def _tick(self) -> None:
        if self._fail_after is not None and self.mutations >= self._fail_after:
            raise InjectedFault(
                f"injected crash after {self.mutations} mutations"
            )
        self.mutations += 1

    def get_bytes(self, path: str) -> bytes:
        with self._lock:
            if path not in self._blobs:
                raise FileNotFoundError(path)
            return self._blobs[path]

    def put_atomic(self, path: str, data: bytes) -> None:
        with self._lock:
            self._tick()
            self._blobs[path] = data

    def put_if_absent(self, path: str, data: bytes) -> bool:
        with self._lock:
            self._tick()
            if path in self._blobs:
                return False
            self._blobs[path] = data
            return True

    def replace_if_matches(self, path: str, expected: bytes, data: bytes) -> bool:
        with self._lock:
            self._tick()
            if self._blobs.get(path) != expected:
                return False
            self._blobs[path] = data
            return True

    def delete(self, path: str) -> bool:
        with self._lock:
            self._tick()
            return self._blobs.pop(path, None) is not None

    def delete_if_matches(self, path: str, expected: bytes) -> bool:
        # atomic compare-and-delete under the single lock (conditional
        # DELETE / If-Match) — the base class's read-verify-delete is
        # two operations and would let a racer's fresh blob be deleted
        with self._lock:
            self._tick()
            if self._blobs.get(path) != expected:
                return False
            del self._blobs[path]
            return True

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._blobs

    def list_prefix(self, prefix: str) -> list[str]:
        pre = prefix.rstrip("/") + "/"
        with self._lock:
            return sorted(
                p for p in self._blobs
                if p.startswith(pre) and "/" not in p[len(pre):]
            )


S3_SCHEME = "s3://"


def is_s3_path(path: str) -> bool:
    return isinstance(path, str) and path.startswith(S3_SCHEME)


def split_s3_path(path: str) -> tuple[str, str]:
    """``s3://bucket/a/b`` -> ``("bucket", "a/b")``."""
    bucket, _, key = path[len(S3_SCHEME):].partition("/")
    if not bucket:
        raise ValueError(f"s3 path missing a bucket: {path!r}")
    return bucket, key


class S3Store(Store):
    """``s3://<bucket>/<key>`` over a lazily built, process-local boto3
    client. Conditional writes are S3's own ``If-None-Match`` /
    ``If-Match`` preconditions, so single-winner arbitration happens at
    the bucket. The compare-and-swap ops GET first and condition on
    that GET's ETag rather than on an MD5 of ``expected`` (an ETag is
    not the MD5 of the body under SSE-KMS or multipart uploads)."""

    #: error codes meaning "the precondition no longer holds": another
    #: writer won the race, or the key vanished between GET and write
    _LOST_RACE = frozenset(
        {"PreconditionFailed", "ConditionalRequestConflict", "NoSuchKey"}
    )

    def __init__(self) -> None:
        self._client = None
        self._lock = threading.Lock()

    def __reduce__(self):
        # a client never crosses a process boundary: unpickling resolves
        # the receiving process's own store
        return (resolve_store, (S3_SCHEME,))

    def _s3(self):
        if self._client is None:
            with self._lock:  # boto3 client creation is not thread-safe
                if self._client is None:
                    import boto3

                    self._client = boto3.session.Session().client("s3")
        return self._client

    def _call(self, op: str, path: str, **kwargs):
        bucket, key = split_s3_path(path)
        return getattr(self._s3(), op)(Bucket=bucket, Key=key, **kwargs)

    def _get(self, path: str) -> tuple[bytes, str]:
        """(body, ETag); FileNotFoundError when absent."""
        from botocore.exceptions import ClientError

        try:
            r = self._call("get_object", path)
        except ClientError as e:
            if e.response["Error"]["Code"] == "NoSuchKey":
                raise FileNotFoundError(path) from None
            raise
        return r["Body"].read(), r["ETag"]

    def _head(self, path: str) -> int | None:
        """Object size, or None when absent."""
        from botocore.exceptions import ClientError

        try:
            return self._call("head_object", path)["ContentLength"]
        except ClientError as e:
            if e.response["Error"]["Code"] in ("404", "NoSuchKey"):
                return None
            raise

    def _conditional(self, op: str, path: str, **kwargs) -> bool:
        from botocore.exceptions import ClientError

        try:
            self._call(op, path, **kwargs)
            return True
        except ClientError as e:
            if e.response["Error"]["Code"] in self._LOST_RACE:
                return False
            raise

    def _etag_if_matches(self, path: str, expected: bytes) -> str | None:
        try:
            body, etag = self._get(path)
        except FileNotFoundError:
            return None
        return etag if body == expected else None

    def get_bytes(self, path: str) -> bytes:
        return self._get(path)[0]

    def put_atomic(self, path: str, data: bytes) -> None:
        self._call("put_object", path, Body=data)

    def put_if_absent(self, path: str, data: bytes) -> bool:
        return self._conditional("put_object", path, Body=data, IfNoneMatch="*")

    def replace_if_matches(self, path: str, expected: bytes, data: bytes) -> bool:
        etag = self._etag_if_matches(path, expected)
        return etag is not None and self._conditional(
            "put_object", path, Body=data, IfMatch=etag
        )

    def delete(self, path: str) -> bool:
        # S3 DELETE answers 204 whether or not the key existed: HEAD
        # first so callers still learn "was absent"
        if self._head(path) is None:
            return False
        self._call("delete_object", path)
        return True

    def delete_if_matches(self, path: str, expected: bytes) -> bool:
        etag = self._etag_if_matches(path, expected)
        return etag is not None and self._conditional(
            "delete_object", path, IfMatch=etag
        )

    def exists(self, path: str) -> bool:
        return self._head(path) is not None

    def size(self, path: str) -> int:
        n = self._head(path)
        if n is None:
            raise FileNotFoundError(path)
        return n

    def list_objects(
        self, prefix: str, *, recursive: bool = False
    ) -> tuple[list[tuple[str, int]], list[str]]:
        """``([(url, size)...], [subdir names...])`` under a
        directory-like prefix, both sorted. Non-recursive lists with
        ``Delimiter="/"``: immediate objects, plus the names of the
        pseudo-directories below them."""
        bucket, key = split_s3_path(prefix)
        pre = key.rstrip("/") + "/" if key else ""
        kwargs = {"Bucket": bucket, "Prefix": pre}
        if not recursive:
            kwargs["Delimiter"] = "/"
        files: list[tuple[str, int]] = []
        dirs: list[str] = []
        pages = self._s3().get_paginator("list_objects_v2").paginate(**kwargs)
        for page in pages:
            files += [
                (f"{S3_SCHEME}{bucket}/{o['Key']}", o["Size"])
                for o in page.get("Contents", ())
            ]
            dirs += [
                p["Prefix"][len(pre):].rstrip("/")
                for p in page.get("CommonPrefixes", ())
            ]
        return sorted(files), sorted(dirs)

    def list_prefix(self, prefix: str) -> list[str]:
        return [url for url, _ in self.list_objects(prefix)[0]]


#: process-wide defaults — every call site that does not pass a store
#: keeps its exact POSIX behavior
LOCAL_STORE = LocalFsStore()
S3_STORE = S3Store()


def resolve_store(path: str) -> Store:
    """Route a lake path to its storage backend by URL scheme:
    ``s3://<bucket>/<key>`` -> :data:`S3_STORE`, anything else ->
    :data:`LOCAL_STORE`. Every metadata call site resolves through
    here, so pointing ``lake_dir`` at an ``s3://`` URL moves the WHOLE
    commit protocol onto the object store with no other change."""
    return S3_STORE if is_s3_path(path) else LOCAL_STORE
