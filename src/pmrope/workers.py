"""One forked worker process, for training and for ablate.

forked_worker shares the parameters (with or without a worker), pins OpenBLAS
to one thread and, where fork works and two CPUs are usable, forks one worker
that runs the functions the main process sends it on the parameters and
config it was forked with: train() sends a share of every batch's length
groups and of every evaluation but the last, ablate its rotation-off arm.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import mmap
import multiprocessing
import os
import pickle
import signal

import numpy as np

from .model import ModelConfig, ModelParams

#: seconds the main process waits for the worker's reply before naming it hung
_WORKER_TIMEOUT_S = 600.0


class WorkerError(RuntimeError):
    """Raised when the worker process dies or stops answering."""

    result = None  # train() sets its partial TrainResult


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None when none is found. A mapped path need not be UTF-8:
    its undecodable bytes pass through as surrogates, which CDLL encodes back."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = [line.split()[-1] for line in fh]
        path = next((p for p in paths if "openblas" in p.lower() and ".so" in p), None)
        lib = ctypes.CDLL(path) if path is not None else None
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def _worker_wanted(blas_pinned: bool) -> bool:
    """A second process pays only with fork, two usable CPUs and one BLAS
    thread per process (two spinning BLAS threads each would contend)."""
    return (blas_pinned and "fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def _serve(conn, params: ModelParams, config: ModelConfig) -> None:
    """The worker's loop: call each function the main process sends, with
    its arguments and the parameters, and send back the result or the
    exception it raised, until the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the main process's to handle
    # so this process's collections leave the inherited objects' pages shared; not done
    # in the main process, whose unfreeze would move its young garbage into the oldest
    # generation, which collections rarely reach
    gc.freeze()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = ("ok", fn(*args, params, config))
        except Exception as err:  # raised again in the main process
            try:
                pickle.loads(pickle.dumps(err))
            except Exception:
                err = WorkerError(f"worker raised {type(err).__name__}: {err}")
            reply = ("error", err)
        conn.send(reply)


class _Worker:
    """One forked process that runs functions on the parameters it was forked with."""

    def __init__(self, params: ModelParams, config: ModelConfig):
        # fork: the worker inherits the parameters and modules; nothing pickles to start it
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        self.process = context.Process(target=_serve, args=(child, params, config),
                                       daemon=True)
        try:
            self.process.start()
        finally:
            child.close()  # the worker's own end is then its only one, so its death reads as EOF

    def _gone(self) -> WorkerError:
        self.process.join(1.0)
        return WorkerError(f"worker (pid {self.process.pid}) exited with code "
                           f"{self.process.exitcode}")

    def submit(self, fn, *args) -> None:
        """Start fn(*args, params, config) there; fn must be a module-level
        function, so that it pickles by name."""
        try:
            self.conn.send((fn, args))
        except OSError:
            raise self._gone() from None

    def receive(self):
        """The result of the call submitted last; raises what the call raised."""
        if not self.conn.poll(_WORKER_TIMEOUT_S):
            raise WorkerError(f"worker (pid {self.process.pid}) did not answer "
                              f"within {_WORKER_TIMEOUT_S:g} s")
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            raise self._gone() from None
        if status == "error":
            raise payload
        return payload

    def stop(self) -> None:
        """End the process, which must owe no result, so that its death (a
        few ms) overlaps the main process's remaining work; close() reaps it."""
        self.process.terminate()

    def close(self) -> None:
        self.process.terminate()
        self.process.join()
        self.process.close()
        self.conn.close()


def _share(params: ModelParams) -> None:
    """Move every parameter into one anonymous shared mapping, so that the
    main process's in-place updates reach a process forked afterwards."""
    offsets, end = [], 0
    for _, t in params.items():
        offsets.append(end)
        end += -(-t.data.nbytes // 64) * 64  # each tensor 64-byte aligned
    buffer = mmap.mmap(-1, end)
    for offset, (_, t) in zip(offsets, params.items()):
        view = np.frombuffer(buffer, t.data.dtype, t.data.size, offset).reshape(t.data.shape)
        view[...] = t.data
        t.data = view


@contextlib.contextmanager
def forked_worker(params: ModelParams, config: ModelConfig):
    """Run the block with params moved into shared memory, OpenBLAS on one
    thread and a _Worker on params and config where _worker_wanted says one
    pays (else None). The worker is reaped, and the thread count restored,
    however the block ends."""
    _share(params)
    threads = _openblas_threads()
    if threads is not None:
        get, put = threads
        before = get()
        put(1)
    worker = None
    try:
        worker = _Worker(params, config) if _worker_wanted(threads is not None) else None
        yield worker
    finally:
        if worker is not None:
            worker.close()
        if threads is not None:
            put(before)
