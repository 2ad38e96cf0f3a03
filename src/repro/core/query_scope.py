"""Spark materializations owned by the query that made them.

The DataFrame ``order by`` (§4.8) and ``count`` (§4.9) evaluate their
frame once, with an eager local checkpoint, so that the jobs that read
it share one evaluation of every upstream clause UDF. A positional
predicate persists its target RDD, so that ``zipWithIndex``'s sizing
job and its numbering read one evaluation. The blocks stay on the
executors until they are released.
``Rumble.run`` opens a scope per query on the calling thread and
releases every materialization made in it when the query ends, whether
it returned or raised. One made outside any scope lives until the JVM
garbage-collects its RDD and Spark's ContextCleaner drops it.
"""
from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar

from pyspark import StorageLevel

#: JVM RDDs materialized by the query running on this thread.
_handles: ContextVar[list | None] = ContextVar("query_scope", default=None)

#: Spark marks a checkpoint's RDD persisted before its job runs and
#: leaves it so if the job fails. Checkpoints run one at a time so that
#: the RDDs a failed one left behind can be told apart from others.
_lock = threading.Lock()


@contextlib.contextmanager
def query_scope(keep: bool = False):
    """Scope the materializations made on this thread to one query. They are
    released when the block exits; with ``keep``, only if it raises, so
    that a returned lazy RDD can still read them."""
    handles: list = []
    token = _handles.set(handles)
    ok = False
    try:
        yield
        ok = True
    finally:
        _handles.reset(token)
        if not (keep and ok):
            for rdd in handles:
                rdd.unpersist(False)


def _own(jrdd) -> None:
    handles = _handles.get()
    if handles is not None:
        handles.append(jrdd)


def persist(rdd):
    """``rdd``, kept in memory and on disk by the first job that
    evaluates it, for the jobs after it to read."""
    rdd.persist(StorageLevel.MEMORY_AND_DISK)
    _own(rdd._jrdd)
    return rdd


def checkpoint(df):
    """Evaluate ``df`` in one eager job and return a frame that reads the
    result. The job runs at the partition count adaptive execution picks
    and fills every observation on ``df``. Local-checkpoint blocks are
    not recomputed from lineage: losing an executor fails the query."""
    persisted = df.sparkSession.sparkContext._jsc.getPersistentRDDs
    with _lock:
        before = set(persisted().keys())
        try:
            out = df.localCheckpoint(eager=True)
        except BaseException:
            for rid, rdd in persisted().items():
                if rid not in before and not rdd.rdd().isCheckpointed():
                    rdd.unpersist(False)
            raise
    _own(out._jdf.queryExecution().logical().rdd())
    return out
