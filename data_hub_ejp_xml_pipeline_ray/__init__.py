"""ray-cdc-lake: a from-scratch, Ray-Data-native CDC / incremental-ingest engine.

Rebuilds the capability set of elifesciences/data-hub-ejp-xml-pipeline
(incremental watch -> high-watermark filter -> per-file parse/fan-out ->
normalize -> stage -> schema-unify -> append -> advance watermark) as an
idiomatic Ray Data pipeline over Parquet tables of Common-Crawl-style web
pages: WAL tail -> fused extract/combine/spill tasks -> key-partitioned
last-writer-wins merge -> exactly-once manifest-committed Parquet on a
POSIX path or ``s3://``, resumable from per-partition checkpoints.

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()`` — the
driver (bench.py, tests/conftest.py, or an external harness) owns the Ray
session.
"""

__version__ = "0.1.0"
