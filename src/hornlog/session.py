"""A session: one frozen program plus the handle table engines live in.

An engine is its Machine, and the Machine is its own handle: new_engine
returns it, the table holds it, and a handle term's id holds it as its
owner. Hubs and threads are handles the same way.

The database is built once (prelude, then user files, then inline text) and
frozen before any engine runs; all dynamic behavior happens inside engines.
The prelude is read and compiled once per process, and every session
appends those same Clause objects to its own records, so only its own
program is parsed and compiled.
Machine faults never unwind into the caller: they are printed as one-line
diagnostics on the error channel and the offending engine answers NO.
"""

from __future__ import annotations

import functools
import sys
import threading
import weakref
from importlib import resources

from . import engines  # registers its builtins before any session makes a record
from .machine import NO, Clause, Database, Handle, Machine, MachineError, compile_clause
from .reader import parse_program, parse_term
from .terms import Atom, Int, Struct, Var, deref
from .threads import Hub, ThreadRef
from .writer import write_term

PRELUDE_FILES = ("lists.pl", "engines.pl", "control.pl", "db.pl", "generators.pl")


def prelude_sources() -> list[tuple[str, str]]:
    """The embedded prelude as (name, source) pairs, in load order."""
    root = resources.files(__package__) / "prelude"
    return [(name, (root / name).read_text(encoding="utf-8")) for name in PRELUDE_FILES]


def _load(db: Database, source: str, name: str) -> None:
    for cl in parse_program(source, name):
        db.add(cl.head, cl.body, cl.origin)


@functools.cache
def prelude_clauses() -> tuple[Clause, ...]:
    """The prelude's clauses in load order, read and compiled once per
    process; every Session appends these same objects to its database.
    Threads that race on the first call may each compile a tuple."""
    return tuple(
        compile_clause(cl.head, cl.body, cl.origin) for name, src in prelude_sources() for cl in parse_program(src, name)
    )


class _Entry(weakref.ref):
    """An entry of a session's handle table: a weak reference to a handle
    that carries the handle's id."""

    __slots__ = ("id",)


class Session:
    """A frozen program and the engines, hubs and threads that run it.

    The database holds the prelude (unless prelude is False), the clauses
    of each file in files, then those of text, in that order: clauses of a
    prelude predicate in a file or text come after the prelude's own. The
    prelude is not read again: the database holds the very Clause objects
    of prelude_clauses(). Faults go to on_error as one line each (stderr by
    default); on_event(id, event) is called with each event a resume
    returns."""

    def __init__(
        self,
        files=(),
        text: str | None = None,
        prelude: bool = True,
        on_error=None,
        on_event=None,
    ):
        self.db = Database()
        self.on_error = on_error
        self.on_event = on_event
        self.error_count = 0
        self._lock = threading.Lock()
        # one id sequence and one weak table for engines (each a Machine),
        # hubs and threads, each its own handle: an entry lives while its
        # object is reachable.
        # _pins keeps the handles answered to the host until their engine's
        # stop. _thread holds each thread's own ThreadRef.
        self.last_id = 0
        handles: dict[int, _Entry] = {}
        self._handles = handles
        self._drop = lambda entry: handles.pop(entry.id, None)  # the callback of every entry
        self._pins: dict[int, Handle] = {}
        self._thread = threading.local()
        if prelude:
            for cl in prelude_clauses():
                self.db.add_clause(cl)
        for path in files:
            with open(path, "r", encoding="utf-8") as fh:
                _load(self.db, fh.read(), str(path))
        if text is not None:
            _load(self.db, text, "<text>")
        self.db.freeze()

    # -- engine operations (host mirror of the builtins) ----------------------

    def new_engine(self, pattern, goal) -> Machine:
        """Boot a fresh engine; nothing is executed yet.

        pattern and goal may be terms, or both strings that are parsed as one
        unit so variable names are shared between them.
        """
        if isinstance(pattern, str) or isinstance(goal, str):
            if not (isinstance(pattern, str) and isinstance(goal, str)):
                raise TypeError("pattern and goal must both be text or both be terms")
            spec = parse_term(f"'$spec'(({pattern}),({goal}))")
            pattern, goal = spec.args
        g = deref(goal)
        if type(g) not in (Atom, Struct):
            raise TypeError("engine goal must be an atom or compound term")
        return self.spawn(pattern, goal)

    def spawn(self, pattern, goal) -> Machine:
        return self._add(Machine(self, pattern, goal))

    def get_by_id(self, eid: int):
        entry = self._handles.get(eid)
        machine = None if entry is None else entry()
        if type(machine) is not Machine:
            return NO
        if machine.running:
            self.report_error(eid, "reentrant_get")
            return NO
        # resume is called straight from here: a nested get adds no other
        # host frame per level
        ev = machine.resume()
        if self.on_event is None and type(ev) is not MachineError:
            return ev
        return self._outcome(machine, ev)

    def _outcome(self, machine: Machine, ev):
        """What a client gets for the event machine's resume returned: the
        event itself, a The or NO, or NO for a fault, which it reports.
        Calls on_event first."""
        if self.on_event is not None:
            self.on_event(machine.id, ev)
        if type(ev) is MachineError:
            self.report_error(machine.id, ev.kind, culprit=ev.culprit)
            return NO
        return ev

    def stop_id(self, eid: int) -> None:
        """Kill the engine and unpin it; while reachable it answers NO."""
        machine = self.lookup(eid, Machine)
        if machine is not None:
            machine.kill()
            self._pins.pop(eid, None)

    def to_id(self, eid: int, data) -> bool:
        machine = self.lookup(eid, Machine)
        if machine is None:
            return False
        return machine.deposit(data)

    def engine_count(self) -> int:
        """The engines still reachable that are not dead."""
        return sum(type(m := r()) is Machine and not m.dead for r in list(self._handles.values()))

    # -- the handle table ------------------------------------------------------

    def _add(self, obj):
        """Enter obj under a fresh id, which becomes obj.id; returns obj.
        The entry is an _Entry, a weak reference that carries the id, so
        the one callback of the session takes it out of the table when obj
        is freed."""
        with self._lock:
            obj.id = hid = self.last_id = self.last_id + 1
        entry = _Entry(obj, self._drop)
        entry.id = hid
        self._handles[hid] = entry
        return obj

    def lookup(self, hid: int, kind: type):
        """The entry with id hid if it is a kind (Machine, Hub or ThreadRef), else None."""
        ref = self._handles.get(hid)
        obj = None if ref is None else ref()
        return obj if type(obj) is kind else None

    def pin(self, t) -> None:
        """Keep each handle in the answer t (a copy: no bound Var) until its engine's stop."""
        todo = [t]
        while todo:
            x = todo.pop()
            if type(x) is Struct:
                todo.extend(x.args)
            elif type(x) is Int and hasattr(x, "owner"):
                self._pins[x.owner.id] = x.owner

    # -- hubs and threads ------------------------------------------------------

    def hub(self, timeout_ms: int) -> Hub:
        if not 0 <= timeout_ms <= threading.TIMEOUT_MAX * 1000:
            raise ValueError("hub timeout must be from 0 to threading.TIMEOUT_MAX seconds")
        return self._add(Hub(timeout_ms))

    def run_bg(self, machine: Machine) -> ThreadRef | None:
        """Move an engine onto its own thread; the handle stops resolving.
        Fails on an engine its table entry no longer holds (moved already,
        or of another session), on a dead one, and on a running one, such
        as one given its own handle, whose resume is still on a host stack."""
        eid = machine.id
        if self.lookup(eid, Machine) is not machine or machine.running or machine.dead:
            return None
        if self._handles.pop(eid, None) is None:
            return None  # another thread moved it first
        self._pins.pop(eid, None)

        def drive():
            self._thread.ref = tref
            while self._outcome(machine, machine.resume()) is not NO:
                pass
            machine.kill()

        tref = self._add(ThreadRef(threading.Thread(target=drive, daemon=True)))
        tref.thread.start()
        return tref

    def bg(self, goal) -> ThreadRef:
        """Run a goal to exhaustion on a fresh engine and thread."""
        if isinstance(goal, str):
            goal = parse_term(goal)
        return self.run_bg(self.spawn(Var(), goal))

    def current_thread(self) -> ThreadRef:
        """The calling thread's record, made on first use."""
        tref = getattr(self._thread, "ref", None)
        if tref is None:
            tref = self._thread.ref = self._add(ThreadRef(threading.current_thread()))
        return tref

    # -- conveniences ----------------------------------------------------------

    def answers(self, pattern, goal, limit: int | None = None) -> list:
        """Collect answer instances of goal until exhaustion or limit."""
        e = self.new_engine(pattern, goal)
        out = []
        while limit is None or len(out) < limit:
            ans = e.get()
            if ans is NO:
                break
            out.append(ans.value)
        if limit is not None:
            e.stop()
        return out

    def first(self, pattern, goal):
        """First answer instance of goal, or None."""
        got = self.answers(pattern, goal, limit=1)
        return got[0] if got else None

    # -- diagnostics -----------------------------------------------------------

    def report_error(self, eid: int, kind: str, culprit=None) -> None:
        self.error_count += 1
        detail = "" if culprit is None else f": {write_term(culprit)}"
        line = f"engine {eid}: {kind}{detail}"
        if self.on_error is not None:
            self.on_error(line)
        else:
            print(f"! {line}", file=sys.stderr)
