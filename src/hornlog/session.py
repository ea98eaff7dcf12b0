"""A session: one frozen program plus the handle table engines live in.

The database is built once (prelude, then user files, then inline text) and
frozen before any engine runs; all dynamic behavior happens inside engines.
Machine faults never unwind into the caller: they are printed as one-line
diagnostics on the error channel and the offending engine answers NO.
"""

from __future__ import annotations

import itertools
import sys
import threading
from importlib import resources

from .engines import NO, EngineRef, The
from .machine import EXHAUSTED, Database, Machine, MachineError
from .reader import parse_program, parse_term
from .terms import Atom, Struct, Var, deref
from .threads import Hub, ThreadRef
from .writer import write_term

PRELUDE_FILES = ("lists.pl", "engines.pl", "control.pl", "db.pl", "generators.pl")


def prelude_sources() -> list[tuple[str, str]]:
    """The embedded prelude as (name, source) pairs, in load order."""
    root = resources.files(__package__) / "prelude"
    return [(name, (root / name).read_text(encoding="utf-8")) for name in PRELUDE_FILES]


class Session:
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
        # one id sequence and one table for engines (as their Machine),
        # hubs and threads; _live counts the entries of each kind. _thread
        # holds each thread's own ThreadRef and dies with its thread.
        self._ids = itertools.count(1)
        self._handles: dict[int, Machine | Hub | ThreadRef] = {}
        self._live = dict.fromkeys((Machine, Hub, ThreadRef), 0)
        self._thread = threading.local()
        if prelude:
            for name, src in prelude_sources():
                self._load(src, name)
        for path in files:
            with open(path, "r", encoding="utf-8") as fh:
                self._load(fh.read(), str(path))
        if text is not None:
            self._load(text, "<text>")
        self.db.freeze()

    def _load(self, source: str, name: str) -> None:
        for cl in parse_program(source, name):
            self.db.add(cl.head, cl.body, cl.origin)

    # -- engine operations (host mirror of the builtins) ----------------------

    def new_engine(self, pattern, goal) -> EngineRef:
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

    def spawn(self, pattern, goal) -> EngineRef:
        machine = self._add(Machine(self, self.db, pattern, goal))
        return EngineRef(machine.id, self)

    def get_by_id(self, eid: int):
        machine = self.lookup(eid, Machine)
        if machine is None:
            return NO
        if machine.running:
            self.report_error(eid, "reentrant_get")
            return NO
        # resume is called straight from here: a nested get adds no other
        # host frame per level
        ans = self._outcome(machine, machine.resume())
        if ans is NO:
            self.stop_id(eid)  # exhausted or failed: release promptly
        return ans

    def _outcome(self, machine: Machine, ev):
        """What a client gets for the event machine's resume returned: The
        value of an answer or a yield, else NO. Calls on_event first and
        reports a fault."""
        if self.on_event is not None:
            self.on_event(machine.id, ev)
        if ev is EXHAUSTED:
            return NO
        if type(ev) is MachineError:
            self.report_error(machine.id, ev.kind, culprit=ev.culprit)
            return NO
        return The(ev.value)

    def stop_id(self, eid: int) -> None:
        machine = self._remove(eid, Machine)
        if machine is not None:
            machine.kill()

    def to_id(self, eid: int, data) -> bool:
        machine = self.lookup(eid, Machine)
        if machine is None:
            return False
        return machine.deposit(data)

    def engine_count(self) -> int:
        return self._live[Machine]

    # -- the handle table ------------------------------------------------------

    def _add(self, obj):
        """Enter obj under a fresh id, which becomes obj.id; returns obj."""
        with self._lock:
            obj.id = next(self._ids)
            self._handles[obj.id] = obj
            self._live[type(obj)] += 1
        return obj

    def lookup(self, hid: int, kind: type):
        """The entry with id hid if it is a kind (Machine, Hub or ThreadRef), else None."""
        obj = self._handles.get(hid)
        return obj if type(obj) is kind else None

    def _remove(self, hid: int, kind: type):
        """Take the entry with id hid out of the table if it is a kind."""
        obj = self.lookup(hid, kind)
        if obj is None:
            return None
        with self._lock:
            if self._handles.pop(hid, None) is None:
                return None  # another thread took it first
            self._live[kind] -= 1
        return obj

    # -- hubs and threads ------------------------------------------------------

    def hub(self, timeout_ms: int) -> Hub:
        if not 0 <= timeout_ms <= threading.TIMEOUT_MAX * 1000:
            raise ValueError("hub timeout must be from 0 to threading.TIMEOUT_MAX seconds")
        return self._add(Hub(timeout_ms))

    def run_bg(self, ref: EngineRef) -> ThreadRef | None:
        return self.run_bg_id(ref.id)

    def run_bg_id(self, eid: int) -> ThreadRef | None:
        """Move an engine onto its own thread; the handle stops resolving.
        Fails on a running engine, such as one given its own handle, whose
        resume is still on a host stack."""
        machine = self.lookup(eid, Machine)
        if machine is None or machine.running:
            return None
        machine = self._remove(eid, Machine)
        if machine is None or machine.dead:
            return None
        return self._launch(machine)

    def bg(self, goal) -> ThreadRef:
        """Run a goal to exhaustion on a fresh engine and thread."""
        if isinstance(goal, str):
            goal = parse_term(goal)
        machine = Machine(self, self.db, Var(), goal)
        with self._lock:
            machine.id = next(self._ids)  # named in diagnostics, never looked up
        return self._launch(machine)

    def _launch(self, machine: Machine) -> ThreadRef:
        def drive():
            self._thread.ref = tref
            while self._outcome(machine, machine.resume()) is not NO:
                pass
            machine.kill()

        tref = self._add(ThreadRef(threading.Thread(target=drive, daemon=True)))
        tref.thread.start()
        return tref

    def current_thread(self) -> ThreadRef:
        """The calling thread's record, made on first use."""
        tref = getattr(self._thread, "ref", None)
        if tref is None:
            tref = self._thread.ref = self._add(ThreadRef(threading.current_thread()))
        return tref

    # -- conveniences ----------------------------------------------------------

    def answers(self, pattern, goal, limit: int | None = None) -> list:
        """Collect answer instances of goal until exhaustion or limit."""
        ref = self.new_engine(pattern, goal)
        out = []
        while limit is None or len(out) < limit:
            ans = ref.get()
            if ans is NO:
                break
            out.append(ans.value)
        if limit is not None:
            ref.stop()
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
