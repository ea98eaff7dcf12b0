"""Native threads and the producer/consumer hub.

A hub is the only data path between threads: every term is deep-copied at
put time, collected by at most one consumer, FIFO per producer. A consumer
that waits longer than the hub's timeout signals failure; timeout 0 means
wait indefinitely. Handing an engine to run_bg transfers ownership: the
handle stops resolving for the caller, so no client operation can reach an
engine that is running on its own thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .engines import EngineRef, Handle, handle_id
from .machine import MachineFault, builtin, _int_arg
from .terms import Symbol, copy_term, deref, unify


class Hub(Handle):
    """M-producer/N-consumer term exchanger with consumer timeout."""

    __slots__ = ("timeout_ms", "_queue", "_cond")
    FUNCTOR = Symbol("$hub")

    def __init__(self, timeout_ms: int):
        self.id = 0
        self.timeout_ms = timeout_ms
        self._queue: deque = deque()
        self._cond = threading.Condition()

    def put(self, term) -> None:
        item = copy_term(term)
        with self._cond:
            self._queue.append(item)
            self._cond.notify()

    def collect(self):
        """Next term in FIFO order, or None after `timeout_ms` of waiting.

        Measured with the monotonic clock; granularity is >= 1ms.
        """
        deadline = None
        if self.timeout_ms > 0:
            deadline = time.monotonic() + self.timeout_ms / 1000.0
        with self._cond:
            while not self._queue:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
            return self._queue.popleft()


class ThreadRef(Handle):
    """Handle for a launched or adopted thread; join is idempotent."""

    __slots__ = ("thread",)
    FUNCTOR = Symbol("$thread")

    def __init__(self, thread: threading.Thread):
        self.id = 0
        self.thread = thread

    def join(self):
        if self.thread is threading.current_thread():
            raise MachineFault("type_error", self.term)
        self.thread.join()


@builtin("bg", 1)
def _bi_bg(m, args, rest):
    return m.session.bg(args[0]) is not None


@builtin("run_bg", 2)
def _bi_run_bg(m, args, rest):
    tref = m.session.run_bg_id(handle_id(args[0], EngineRef))
    if tref is None:
        return False
    return unify(args[1], tref.term, m.trail)


@builtin("hub_ms", 2)
def _bi_hub_ms(m, args, rest):
    timeout = _int_arg(args[0])
    if timeout < 0:
        raise MachineFault("type_error", deref(args[0]))
    hub = m.session.hub(timeout)
    return unify(args[1], hub.term, m.trail)


@builtin("put", 2)
def _bi_put(m, args, rest):
    hub = m.session.lookup(handle_id(args[0], Hub), Hub)
    if hub is None:
        return False
    hub.put(args[1])
    return True


@builtin("collect", 2)
def _bi_collect(m, args, rest):
    hub = m.session.lookup(handle_id(args[0], Hub), Hub)
    if hub is None:
        return False
    item = hub.collect()
    if item is None:
        return False
    return unify(args[1], item, m.trail)


@builtin("current_thread", 1)
def _bi_current_thread(m, args, rest):
    return unify(args[0], m.session.current_thread().term, m.trail)


@builtin("join_thread", 1)
def _bi_join_thread(m, args, rest):
    tref = m.session.lookup(handle_id(args[0], ThreadRef), ThreadRef)
    if tref is None:
        return False
    tref.join()
    return True


@builtin("sleep_ms", 1)
def _bi_sleep_ms(m, args, rest):
    ms = _int_arg(args[0])
    if ms < 0:
        raise MachineFault("type_error", deref(args[0]))
    time.sleep(ms / 1000.0)
    return True
