"""A session: one frozen program plus the handle table engines live in.

The database is built once (prelude, then user files, then inline text) and
frozen before any engine runs; all dynamic behavior happens inside engines.
Machine faults never unwind into the caller: they are printed as one-line
diagnostics on the error channel and the offending engine answers NO.
"""

from __future__ import annotations

import sys
import threading
import weakref
from importlib import resources

from .engines import NO, EngineRef, Handle, The
from .machine import EXHAUSTED, Database, Machine, MachineError
from .reader import parse_program, parse_term
from .terms import Atom, Int, Struct, Var, deref
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
        # one id sequence and one weak table for engines (as their Machine),
        # hubs and threads: an entry lives while its object is reachable.
        # _pins keeps the handles answered to the host until their engine's
        # stop. _thread holds each thread's own ThreadRef.
        self.last_id = 0
        self._handles: dict[int, weakref.ref] = {}
        self._pins: dict[int, Handle] = {}
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
        return EngineRef(self._add(Machine(self, self.db, pattern, goal)))

    def get_by_id(self, eid: int):
        machine = self.lookup(eid, Machine)
        if machine is None:
            return NO
        if machine.running:
            self.report_error(eid, "reentrant_get")
            return NO
        # resume is called straight from here: a nested get adds no other
        # host frame per level
        return self._outcome(machine, machine.resume())

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
        """Enter obj under a fresh id, which becomes obj.id; returns obj. The
        entry leaves the table when obj is freed."""
        handles = self._handles
        with self._lock:
            obj.id = hid = self.last_id = self.last_id + 1
        handles[hid] = weakref.ref(obj, lambda _, hid=hid: handles.pop(hid, None))
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

    def run_bg(self, ref: EngineRef) -> ThreadRef | None:
        return self.run_bg_id(ref.id)

    def run_bg_id(self, eid: int) -> ThreadRef | None:
        """Move an engine onto its own thread; the handle stops resolving.
        Fails on a running engine, such as one given its own handle, whose
        resume is still on a host stack."""
        machine = self.lookup(eid, Machine)
        if machine is None or machine.running or machine.dead:
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
        machine = self._add(Machine(self, self.db, Var(), goal))
        return self.run_bg_id(machine.id)

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
