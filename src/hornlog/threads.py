"""Native threads and the producer/consumer hub.

A hub is the only data path between threads: every term is copied at put
time, sharing only its variable-free subterms, which never change; it is
collected by at most one consumer, FIFO per producer. A hub is a
`queue.SimpleQueue` of such copies, so a waiting consumer blocks in the
queue's own timed get. A consumer that waits longer than the hub's timeout
signals failure; timeout 0 means wait indefinitely. Handing an engine to
run_bg transfers ownership: the handle stops resolving for the caller, so
no client operation can reach an engine that is running on its own thread.
"""

from __future__ import annotations

import queue
import threading

from .machine import Handle, Machine, MachineError, builtin, handle_id, _int_arg
from .terms import Atom, copy_term, deref, unify


class Hub(Handle):
    """M-producer/N-consumer term exchanger: a queue of copies, from which
    a consumer waits at most timeout_ms for the next (0: no limit)."""

    __slots__ = ("_timeout", "_queue")
    FUNCTOR = Atom("$hub")

    def __init__(self, timeout_ms: int):
        self.id = 0
        self._timeout = timeout_ms / 1000.0 if timeout_ms > 0 else None  # None: no limit
        self._queue = queue.SimpleQueue()

    def put(self, term) -> None:
        self._queue.put(copy_term(term))

    def collect(self):
        """Next term in FIFO order, or None after `timeout_ms` of waiting."""
        try:
            return self._queue.get(timeout=self._timeout)
        except queue.Empty:
            return None


class ThreadRef(Handle):
    """Handle for a launched or adopted thread; join is idempotent."""

    __slots__ = ("thread",)
    FUNCTOR = Atom("$thread")

    def __init__(self, thread: threading.Thread):
        self.id = 0
        self.thread = thread

    def join(self):
        if self.thread is threading.current_thread():
            raise MachineError("type_error", self.term)
        self.thread.join()


def _ms_arg(t) -> int:
    """A count of milliseconds the host can wait: from 0 up to
    threading.TIMEOUT_MAX seconds; any other integer is a type error."""
    ms = _int_arg(t)
    if not 0 <= ms <= threading.TIMEOUT_MAX * 1000:
        raise MachineError("type_error", deref(t))
    return ms


@builtin("bg", 1)
def _bi_bg(m, args, rest):
    m.session.bg(args[0])
    return True


@builtin("run_bg", 2)
def _bi_run_bg(m, args, rest):
    machine = m.session.lookup(handle_id(args[0], Machine), Machine)
    tref = None if machine is None else m.session.run_bg(machine)
    if tref is None:
        return False
    return unify(args[1], tref.term, m.trail)


@builtin("hub_ms", 2)
def _bi_hub_ms(m, args, rest):
    hub = m.session.hub(_ms_arg(args[0]))
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
    # an event that is never set waits up to TIMEOUT_MAX; time.sleep may
    # reject a shorter wait that would end past the monotonic clock's range
    threading.Event().wait(_ms_arg(args[0]) / 1000.0)
    return True
