"""A session: one frozen program plus the registries engines live in.

The database is built once (prelude, then user files, then inline text) and
frozen before any engine runs; all dynamic behavior happens inside engines.
Machine faults never unwind into the caller: they are printed as one-line
diagnostics on the error channel and the offending engine answers NO.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from importlib import resources

from .engines import NO, EngineRef, The
from .machine import (
    EXHAUSTED,
    AnswerReady,
    Database,
    Machine,
    MachineError,
    Yielded,
)
from .reader import parse_program, parse_term
from .terms import Atom, Struct, Var, deref
from .threads import Hub, HubRef, ThreadRef
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
        self._engines: dict[int, Machine] = {}
        self._engine_ids = itertools.count(1)
        self._hubs: dict[int, object] = {}
        self._hub_ids = itertools.count(1)
        self._threads: dict[int, ThreadRef] = {}
        self._thread_ids = itertools.count(1)
        self._tid_of_ident: dict[int, int] = {}
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
        machine = Machine(self, self.db, pattern, goal)
        with self._lock:
            eid = next(self._engine_ids)
            machine.id = eid
            self._engines[eid] = machine
        return EngineRef(eid, self)

    def get(self, ref: EngineRef):
        return self.get_by_id(ref.id)

    def stop(self, ref: EngineRef) -> None:
        self.stop_id(ref.id)

    def to_engine(self, ref: EngineRef, data) -> bool:
        return self.to_id(ref.id, data)

    def get_by_id(self, eid: int):
        machine = self._engines.get(eid)
        if machine is None:
            return NO
        if machine.running:
            self.report_error(eid, "reentrant_get")
            return NO
        ev = machine.resume()
        if self.on_event is not None:
            self.on_event(eid, ev)
        t = type(ev)
        if t is AnswerReady or t is Yielded:
            return The(ev.value)
        if t is MachineError:
            self.report_error(eid, ev.kind, culprit=ev.culprit)
        self.stop_id(eid)  # exhausted or failed: release promptly
        return NO

    def stop_id(self, eid: int) -> None:
        machine = self._engines.pop(eid, None)
        if machine is not None:
            machine.kill()

    def to_id(self, eid: int, data) -> bool:
        machine = self._engines.get(eid)
        if machine is None:
            return False
        return machine.deposit(data)

    def engine_count(self) -> int:
        return len(self._engines)

    # -- hubs and threads ------------------------------------------------------

    def hub(self, timeout_ms: int) -> HubRef:
        if timeout_ms < 0:
            raise ValueError("hub timeout must be >= 0")
        with self._lock:
            hid = next(self._hub_ids)
            hub = Hub(timeout_ms)
            self._hubs[hid] = hub
        return HubRef(hid, hub)

    def hub_by_id(self, hid: int):
        return self._hubs.get(hid)

    def run_bg(self, ref: EngineRef) -> ThreadRef | None:
        return self.run_bg_id(ref.id)

    def run_bg_id(self, eid: int) -> ThreadRef | None:
        """Move an engine onto its own thread; the handle stops resolving."""
        machine = self._engines.pop(eid, None)
        if machine is None or machine.dead:
            return None
        return self._launch(machine)

    def bg(self, goal) -> ThreadRef | None:
        """Run a goal to exhaustion on a fresh engine and thread."""
        if isinstance(goal, str):
            goal = parse_term(goal)
        machine = Machine(self, self.db, Var(), goal)
        with self._lock:
            machine.id = next(self._engine_ids)
        return self._launch(machine)

    def _launch(self, machine: Machine) -> ThreadRef:
        box: dict = {}

        def drive():
            with self._lock:
                self._tid_of_ident[threading.get_ident()] = box["ref"].id
            while True:
                ev = machine.resume()
                if self.on_event is not None:
                    self.on_event(machine.id, ev)
                t = type(ev)
                if t is MachineError:
                    self.report_error(machine.id, ev.kind, culprit=ev.culprit)
                    break
                if ev is EXHAUSTED:
                    break
            machine.kill()

        thread = threading.Thread(target=drive, daemon=True)
        with self._lock:
            tid = next(self._thread_ids)
            tref = ThreadRef(tid, thread)
            self._threads[tid] = tref
        box["ref"] = tref
        thread.start()
        return tref

    def current_thread(self) -> ThreadRef:
        cur = threading.current_thread()
        with self._lock:
            tid = self._tid_of_ident.get(cur.ident)
            if tid is not None:
                return self._threads[tid]
            tid = next(self._thread_ids)
            tref = ThreadRef(tid, cur)
            self._threads[tid] = tref
            self._tid_of_ident[cur.ident] = tid
        return tref

    def thread_by_id(self, tid: int) -> ThreadRef | None:
        return self._threads.get(tid)

    def join_thread(self, tref: ThreadRef) -> None:
        tref.join()

    @staticmethod
    def sleep_ms(ms: int) -> None:
        time.sleep(ms / 1000.0)

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
