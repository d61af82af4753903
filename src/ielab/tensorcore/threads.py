"""The second CPU: one persistent worker thread and OpenBLAS's thread count.

This is the one account of the process's threading policy; the modules that
follow it point here.

Pin. `one_blas_thread(on)` pins numpy's OpenBLAS to one thread while `on`,
and restores the old count on exit, also on an exception. Two callers pass
`on`:
- an inference call (TokenTagger.predict_probs) over at least
  SPLIT_MIN_ROWS rows, counting all its chunks together. A shorter call runs
  at the process's BLAS thread count, because short-document eval measured
  slower with OpenBLAS pinned to one thread;
- a training step (trainloop.training) of more rows than one chunk
  (`max_seq_len`). A step of at most one chunk's rows runs at the process's
  BLAS thread count.
With OpenBLAS on one thread, each piece of work has the bytes of the same
work computed whole on one thread, so the bits depend neither on how work is
spread over the two threads nor on the process's BLAS thread count, which
changes the low bits of large products.

Hand-off. One rule decides where work may go: inside a pin, with two usable
CPUs, on a thread other than the worker and with no tape recording. There,
`beside(fn, *args)` starts fn on the worker while the calling thread goes
on; the caller takes fn back and runs it itself if the worker has not begun
it (its CPU is busy). `beside` is the only way work reaches the worker, and
three kinds of work use it:
- a training step of two shards runs shard 1 beside shard 0; each shard
  records its own tape, so its ops run whole on its own thread;
- every linear, gelu and attention op of a pinned inference call runs as
  two halves (`run_halves`: by rows, attention by heads), the second beside
  the first: the encoder's, the classifier head's and the image rows' when
  the calling thread runs them (on the worker they run whole);
- in an inference call IMAGE runs its image rows (page backbones, RoIAlign,
  projection) as one task beside the encoder. The op halves that the encoder
  hands over meanwhile wait behind it, so the calling thread takes them back
  and runs them itself until the task ends.
Every other op runs whole on the calling thread: at one BLAS thread inside a
pin, at the process's count outside one.

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
from concurrent.futures import ThreadPoolExecutor

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

# per thread: is_worker, two_cpus (inside `one_blas_thread` with a second
# CPU at hand)
_LOCAL = threading.local()


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no CPU affinity on this platform
        return os.cpu_count() or 1


def _mark_worker():
    _LOCAL.is_worker = True


def _new_worker():
    """A ThreadPoolExecutor starts its thread on its first task, not here."""
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="ielab-worker",
                                 initializer=_mark_worker)


_new_worker()
if hasattr(os, "register_at_fork"):     # a forked child has no worker thread
    os.register_at_fork(after_in_child=_new_worker)


def worker() -> ThreadPoolExecutor:
    """The process's one worker thread, started on first use."""
    return _worker


@contextlib.contextmanager
def one_blas_thread(on: bool):
    """While `on`, OpenBLAS runs on one thread and, with two usable CPUs and
    this thread not the worker, `beside` may hand work to the worker."""
    fns = _openblas_threads() if on else None
    if fns is None:
        yield
        return
    get, set_ = fns
    old, outer = get(), getattr(_LOCAL, "two_cpus", False)
    try:
        set_(1)
        _LOCAL.two_cpus = (_usable_cpus() >= 2
                           and not getattr(_LOCAL, "is_worker", False))
        yield
    finally:
        _LOCAL.two_cpus = outer
        set_(old)


def _may_split() -> bool:
    """Inside `one_blas_thread` with a second CPU and no active tape."""
    return getattr(_LOCAL, "two_cpus", False) and active_tape() is None


class beside:
    """`with beside(fn, *args) as result:` gives a zero-argument function
    that returns fn(*args).

    Inside `one_blas_thread` with a second CPU and no active tape, fn starts
    on the worker as the block begins; `result` waits for it, or runs it on
    this thread if the worker has not begun it (its CPU is busy). Anywhere
    else fn runs only when `result` is called, on this thread. The block
    does not end before a run of fn that the worker has begun ends, also
    when the block raises, so the worker is idle again and fn ran with
    OpenBLAS pinned. A class, not a generator: split ops enter one each,
    and this form adds the least to their hand-off.
    """

    def __init__(self, fn, *args):
        self.fn, self.args, self.task = fn, args, None

    def __enter__(self):
        if _may_split():
            self.task = worker().submit(self.fn, *self.args)
        return self.result

    def result(self):
        task, self.task = self.task, None   # collected: nothing left to wait
        if task is None or task.cancel():   # never handed over, or not begun
            return self.fn(*self.args)
        return task.result()

    def __exit__(self, *exc):
        if self.task is not None and not self.task.cancel():
            self.task.exception()   # begun: it ends before the block does


def run_halves(kernel, parts: int, *args) -> None:
    """kernel(*args, part) over everything, with `part` the Ellipsis.

    Where `beside` may hand work over, for at least two `parts` (leading
    entries of the kernel's arrays), this thread runs
    kernel(*args, slice(0, cut)) with kernel(*args, slice(cut, parts))
    `beside` it. The kernel writes into preallocated arrays, each half into
    its own entries.

    The cut is parts // 2 rounded down to a multiple of 8 (96 of 200 rows).
    Some OpenBLAS cores (Haswell, Zen, Prescott) compute the last row of a
    block whose row count is not a multiple of their unroll differently, so
    only an aligned cut gives halves with the bytes of the whole product on
    every core. Fewer than 16 parts (attention's heads, each its own
    product) cut at parts // 2.
    """
    if parts < 2 or not _may_split():
        kernel(*args, ...)
        return
    cut = parts // 2 if parts < 16 else parts // 16 * 8
    with beside(kernel, *args, slice(cut, parts)) as second:
        kernel(*args, slice(0, cut))
        second()
