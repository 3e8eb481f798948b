"""One helper runs a list of calls on a pool of forked worker processes
(``fork_map``): a seed's training-item slices and its learned strategies
in ``experiment``, and a call's DFN inference batches in ``fusion``.

The workers inherit the calls' shared input (the job) by fork instead of
receiving it pickled; only each call's arguments and result cross a
process boundary. Where the platform cannot fork, the calls run in turn in
this process. A failing call stops the other workers at once, and a worker
that dies is reported by the tasks it left unfinished. Importing the
module puts every thread on glibc's main malloc arena, which keeps the
process's peak memory from varying with the pool's threads.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

_M_ARENA_MAX = -8  # glibc's mallopt parameter


def _one_malloc_arena() -> None:
    """Serve every thread of this process from glibc's main malloc arena.

    A pool's results are unpickled by its manager thread. Under glibc each
    new thread takes a malloc arena of its own, reusing one that an ended
    thread left, and which thread of a pool takes which arena is a race.
    Freed results then stay resident in whichever arena held them, so the
    peak memory of the same sweep varied by up to 15 MB (of 90) from one
    run to the next. The pool's threads allocate little and under the GIL,
    so one arena costs no contention. A libc without ``mallopt`` is left
    alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int,
                                                       ctypes.c_int]
    mallopt(_M_ARENA_MAX, 1)


_one_malloc_arena()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()

# the job of the calls a fork pool runs, set only while they are
# submitted: the pool forks its workers at the first submit, and they
# inherit it
_WORKER_JOB = None


def _call_with_job(fn, *call):
    return fn(_WORKER_JOB, *call)


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Shut the pool down without finishing its tasks: pending ones are
    cancelled and running workers terminated, then reaped."""
    # the executor has no public way to terminate its workers before
    # Python 3.14 (terminate_workers), so this reads its process table
    for proc in list((pool._processes or {}).values()):
        proc.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


def _wait(futures: list, tasks: list[str], died: type[Exception]) -> None:
    """Wait until all ``futures`` (running ``tasks``) are done, raising the
    first failure at once; a dead worker, which fails every unfinished
    task of its pool, as a ``died`` naming them."""
    done, _ = wait(futures, return_when=FIRST_EXCEPTION)
    failed = [f for f in futures if f in done and f.exception() is not None]
    if not failed:
        return
    error = failed[0].exception()
    if isinstance(error, BrokenProcessPool):
        unfinished = [task for task, f in zip(tasks, futures)
                      if f.done() and f.exception() is not None]
        raise died(f"a worker died while {', '.join(unfinished)}: "
                   f"{error}") from error
    raise error


def fork_map(fn, job, calls: list[tuple], tasks: list[str],
             died: type[Exception], parent_work=None) -> list:
    """``fn(job, *call)`` for each of ``calls``, in order, on a fork pool
    of one worker per call up to the usable CPUs, while ``parent_work`` (a
    callable, if given) runs here; where the platform cannot fork, the
    calls and then ``parent_work`` run here.

    ``tasks`` describes each call for the error a dead worker raises, an
    instance of ``died``. The workers inherit ``job``, and this process
    drops it before ``parent_work``. Any failure, in a worker or in
    ``parent_work``, stops the workers and is raised at once; a worker's
    failure while ``parent_work`` runs surfaces when it returns.
    """
    global _WORKER_JOB
    work = parent_work or (lambda: None)
    if not _CAN_FORK:
        results = [fn(job, *call) for call in calls]
        work()
        return results
    with ProcessPoolExecutor(
            max_workers=min(len(calls), usable_cpus()),
            mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            _WORKER_JOB, job = job, None
            try:
                futures = [pool.submit(_call_with_job, fn, *call)
                           for call in calls]
            finally:
                _WORKER_JOB = None
            work()
            _wait(futures, tasks, died)
        except BaseException:
            _stop_workers(pool)
            raise
    return [f.result() for f in futures]
