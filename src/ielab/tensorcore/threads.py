"""The second CPU: one persistent worker thread and OpenBLAS's thread count.

Three kinds of work use the worker. A training step of more than one
chunk's rows runs its second shard there (see trainloop.training). An
inference call (`inference`) over at least SPLIT_MIN_ROWS rows pins numpy's
OpenBLAS to one thread for its whole length, and inside it the encoder's
row-wise ops (`split_rows`, `run_halves`) run one half of their rows, or of
their attention heads, on the worker while the calling thread runs the
other half. In such a call, work that does not depend on the encoder
(`beside`: the IMAGE path's page backbones, RoIAlign and projection) runs on
the worker as one task while the calling thread runs the encoder; the op
halves the encoder hands over meanwhile wait behind it, so the calling
thread takes them back and runs them itself until the task ends. With
OpenBLAS at one thread every half and every task has the bytes of the same
work computed whole, so the call's bits depend neither on the split nor on
the process's BLAS thread count. A shorter call runs whole, on the calling
thread, at the process's BLAS thread count: short-document eval measured
slower with OpenBLAS pinned to one thread.

Work runs whole on the calling thread, in program order, when only one CPU
is usable, when OpenBLAS cannot be pinned, when a tape records, or when the
caller is the worker itself. The worker starts on first use, so importing
this module starts no thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ielab.tensorcore.engine import active_tape

# Below this many rows an op's hand-off to the worker costs about what its
# second half saves, so shorter inference calls run every op whole.
SPLIT_MIN_ROWS = 128

# (get, set) thread-count symbols of numpy's bundled OpenBLAS builds
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# per thread: is_worker, two_cpus (inside `inference` with a second CPU at
# hand), split (inside `split_rows` as well, with no active tape)
_LOCAL = threading.local()
_worker_lock = threading.Lock()
_worker: ThreadPoolExecutor | None = None


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread, restoring the old count on exit; yields
    whether it could be pinned."""
    fns = _openblas_threads()
    if fns is None:
        yield False
        return
    get, set_ = fns
    old = get()
    set_(1)
    try:
        yield True
    finally:
        set_(old)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no CPU affinity on this platform
        return os.cpu_count() or 1


def _mark_worker():
    _LOCAL.is_worker = True


def _forget_worker():
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):     # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_worker)


def worker() -> ThreadPoolExecutor:
    """The process's one worker thread, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix="ielab-worker",
                                         initializer=_mark_worker)
        return _worker


def second_cpu(pinned: bool) -> bool:
    """Whether work may go to the worker: OpenBLAS is `pinned`, two CPUs are
    usable and this thread is not the worker."""
    return (pinned and _usable_cpus() >= 2
            and not getattr(_LOCAL, "is_worker", False))


@contextlib.contextmanager
def inference(rows: int):
    """One inference call over `rows` rows (of all its chunks together): from
    SPLIT_MIN_ROWS up, OpenBLAS runs on one thread until it ends."""
    if rows < SPLIT_MIN_ROWS:
        yield
        return
    outer = getattr(_LOCAL, "two_cpus", False)
    with _one_blas_thread() as pinned:
        _LOCAL.two_cpus = second_cpu(pinned)
        try:
            yield
        finally:
            _LOCAL.two_cpus = outer


def _may_split() -> bool:
    """Inside an inference call with a second CPU and no active tape."""
    return getattr(_LOCAL, "two_cpus", False) and active_tape() is None


@contextlib.contextmanager
def split_rows():
    """Inside a pinned inference call with no active tape, let `run_halves`
    use the worker."""
    outer = getattr(_LOCAL, "split", False)
    _LOCAL.split = _may_split()
    try:
        yield
    finally:
        _LOCAL.split = outer


@contextlib.contextmanager
def beside(fn, *args):
    """Yields a zero-argument function that gives fn(*args).

    Inside a pinned inference call with a second CPU and no active tape, fn
    starts on the worker at once while the block goes on; the function waits
    for it, or runs it on this thread if the worker has not begun it (its
    CPU is busy). Anywhere else fn runs only when the function is called, on
    this thread. The block does not end before a run of fn that the worker
    has begun ends, also when the block raises, so the worker is idle again
    and fn ran with OpenBLAS pinned.
    """
    if not _may_split():
        yield functools.partial(fn, *args)
        return
    task = worker().submit(fn, *args)

    def result():
        return fn(*args) if task.cancel() else task.result()

    try:
        yield result
    finally:
        if not task.cancel():       # begun: it ends before the block does
            wait([task])


def run_halves(kernel, parts: int, *args) -> None:
    """kernel(*args, part) over everything, with `part` the Ellipsis.

    Inside `split_rows`, for at least two `parts` (leading entries of the
    kernel's arrays), the worker runs kernel(*args, slice(cut, parts)) while
    this thread runs kernel(*args, slice(0, cut)), with cut = parts // 2; if
    the worker has not begun its half when this thread's half ends (its CPU
    is busy), this thread runs that half too. The kernel writes into
    preallocated arrays, each half into its own entries.
    """
    if parts < 2 or not getattr(_LOCAL, "split", False):
        kernel(*args, ...)
        return
    cut = parts // 2
    second = worker().submit(kernel, *args, slice(cut, parts))
    try:
        kernel(*args, slice(0, cut))
    finally:
        taken_back = second.cancel()    # the worker has not begun it
        if not taken_back:
            second.result()     # the worker's half ends before anyone reads
    if taken_back:
        kernel(*args, slice(cut, parts))
