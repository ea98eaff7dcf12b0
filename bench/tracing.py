"""Run-time tracing of hornlog's layers from outside the package.

`Tracer.install` replaces public entry points of each module with wrappers
and `uninstall` puts the originals back; hornlog itself is not edited. A
spanned entry point records (id, name, start_ns, end_ns, parent id, op id,
thread) per call, kept in memory until the run ends. The hot functions
(`unify`, `Database.lookup` and every builtin) are only counted, because a
span per call would swamp what it measures.

A span's self time is its duration minus the durations of its direct
children; children of one span never overlap, since each thread keeps its
own span stack.
"""

from __future__ import annotations

import gc
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

from hornlog import engines, machine, reader, session, terms, threads, writer
from hornlog.machine import AnswerReady, Database, Exhausted, Machine, MachineError, Yielded
from hornlog.session import Session
from hornlog.terms import Struct
from hornlog.threads import Hub

# (module, attribute) pairs naming every binding of a traced function,
# including the names the package imported from the defining module
UNIFY_NAMES = [(m, "unify") for m in (terms, machine, engines, threads)]
COPY_NAMES = [(m, "copy_term") for m in (terms, machine, threads)]
PARSE_PROGRAM_NAMES = [(m, "parse_program") for m in (reader, session)]
PARSE_TERM_NAMES = [(m, "parse_term") for m in (reader, session)]
WRITE_NAMES = [(m, "write_term") for m in (writer, session)]

EVENT_NAMES = {AnswerReady: "answer", Yielded: "yield", Exhausted: "exhausted", MachineError: "error"}


class _Stack(threading.local):
    def __init__(self):
        self.spans: list[int] = []  # ids of the open spans, innermost last
        self.get_depth = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None  # id of the op the host is running; None during set-up
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_pause_ns = 0
        self._gc_start = 0
        self._stack = _Stack()
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    # -- wrappers ----------------------------------------------------------------

    def _spanned(self, name, fn, after=None, nests_gets=False):
        """fn wrapped in a span; after(result, args) runs once the span closes."""
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        tracer = self

        def wrapped(*args, **kwargs):
            open_spans = stack.spans
            sid = next(ids)
            parent = open_spans[-1] if open_spans else 0
            open_spans.append(sid)
            if nests_gets:
                stack.get_depth += 1
                if stack.get_depth > tracer.counts["get_depth_max"]:
                    tracer.counts["get_depth_max"] = stack.get_depth
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                if nests_gets:
                    stack.get_depth -= 1
                spans.append((sid, name, t0, t1, parent, tracer.op, get_ident()))
            if after is not None:
                after(result, args)
            return result

        return wrapped

    def _counted(self, name, fn):
        counts = self.counts

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    def _counted_unify(self, fn):
        counts = self.counts

        def unify(a, b, trail):
            counts["unify"] += 1
            if fn(a, b, trail):
                counts["unify_ok"] += 1
                return True
            return False

        return unify

    def _spanned_copy(self, fn):
        counts = self.counts
        spanned = self._spanned("terms.copy_term", fn)

        def copy_term(t, vmap=None):
            if vmap is None:
                vmap = {}
            fresh_vars = len(vmap)
            result = spanned(t, vmap)
            # cells produced: new variables plus every Struct of the copy,
            # which shares no Struct with its source or with itself
            cells = len(vmap) - fresh_vars
            todo = [result]
            while todo:
                node = todo.pop()
                if type(node) is Struct:
                    cells += 1
                    todo.extend(node.args)
            counts["copy_cells"] += cells
            return result

        return copy_term

    # -- hooks ---------------------------------------------------------------------

    def _after_parse_program(self, clauses, args):
        self.counts["clauses_parsed"] += len(clauses)

    def _after_write(self, text, args):
        self.counts["chars"] += len(text)

    def _after_resume(self, event, args):
        self.counts["event_" + EVENT_NAMES[type(event)]] += 1

    def _after_spawn(self, ref, args):
        live = args[0].engine_count()
        if live > self.counts["live_engines_peak"]:
            self.counts["live_engines_peak"] = live

    def _after_collect(self, item, args):
        if item is None:
            self.counts["collect_timeouts"] += 1

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.counts["gc_collections"] += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start

    # -- install / uninstall ---------------------------------------------------------

    def _replace(self, owner, key, new):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def install(self):
        sp = self._spanned
        for owner, name, wrapper in (
            (Session, "spawn", sp("session.spawn", Session.spawn, self._after_spawn)),
            (Session, "get_by_id", sp("session.get", Session.get_by_id, nests_gets=True)),
            (Session, "stop_id", sp("session.stop", Session.stop_id)),
            (Session, "to_id", sp("session.to_engine", Session.to_id)),
            (Session, "bg", sp("threads.bg", Session.bg)),
            (Machine, "resume", sp("machine.resume", Machine.resume, self._after_resume)),
            (Database, "add", sp("machine.compile", Database.add)),
            (Database, "lookup", self._counted("lookup", Database.lookup)),
            (Hub, "put", sp("threads.put", Hub.put)),
            (Hub, "collect", sp("threads.collect", Hub.collect, self._after_collect)),
        ):
            self._replace(owner, name, wrapper)
        for key, fn in list(machine.BUILTINS.items()):
            self._replace(machine.BUILTINS, key, self._counted("builtin", fn))
        for names, wrapper in (
            (UNIFY_NAMES, self._counted_unify(terms.unify)),
            (COPY_NAMES, self._spanned_copy(terms.copy_term)),
            (PARSE_PROGRAM_NAMES, sp("reader.parse_program", reader.parse_program, self._after_parse_program)),
            (PARSE_TERM_NAMES, sp("reader.parse_term", reader.parse_term)),
            (WRITE_NAMES, sp("writer.write_term", writer.write_term, self._after_write)),
        ):
            for module, attr in names:
                self._replace(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ---------------------------------------------------------------------

    def summary(self, op_walls_ns: dict, host_thread: int) -> dict:
        """Per-layer metrics of the traced run.

        op_walls_ns maps each op id to its host-side wall time; coverage is
        the share of that time spent inside top-level spans on the host
        thread.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for sid, name, t0, t1, parent, op, tid in self.spans:
            if parent:
                child_ns[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        covered = 0
        for sid, name, t0, t1, parent, op, tid in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            self_ns[name] += t1 - t0 - child_ns[sid]
            if not parent and op is not None and tid == host_thread:
                covered += t1 - t0
        c = self.counts
        s = 1e-9
        inferences = c["lookup"] + c["builtin"]
        resume_self = self_ns["machine.resume"] * s
        return {
            "reader.parse_program_s": total["reader.parse_program"] * s,
            "reader.clauses_parsed": c["clauses_parsed"],
            "reader.parse_term_calls": calls["reader.parse_term"],
            "reader.parse_term_us": total["reader.parse_term"] / 1e3 / max(calls["reader.parse_term"], 1),
            "machine.compile_s": total["machine.compile"] * s,
            "machine.pred_calls": c["lookup"],
            "machine.builtin_calls": c["builtin"],
            "machine.inferences": inferences,
            "machine.resume_calls": calls["machine.resume"],
            "machine.resume_self_s": resume_self,
            "machine.lips": inferences / resume_self if resume_self else 0.0,
            "machine.events_answer": c["event_answer"],
            "machine.events_yield": c["event_yield"],
            "machine.events_exhausted": c["event_exhausted"],
            "machine.events_error": c["event_error"],
            "terms.unify_calls": c["unify"],
            "terms.unify_success_ratio": c["unify_ok"] / c["unify"] if c["unify"] else 0.0,
            "terms.copy_term_calls": calls["terms.copy_term"],
            "terms.copy_term_s": total["terms.copy_term"] * s,
            "terms.copy_cells": c["copy_cells"],
            "session.spawn_calls": calls["session.spawn"],
            "session.spawn_s": total["session.spawn"] * s,
            "session.get_calls": calls["session.get"],
            "session.get_self_s": self_ns["session.get"] * s,
            "session.stop_calls": calls["session.stop"],
            "session.to_engine_calls": calls["session.to_engine"],
            "session.get_depth_max": c["get_depth_max"],
            "session.live_engines_peak": c["live_engines_peak"],
            "threads.put_calls": calls["threads.put"],
            "threads.put_s": total["threads.put"] * s,
            "threads.collect_calls": calls["threads.collect"],
            "threads.collect_wait_s": total["threads.collect"] * s,
            "threads.collect_timeouts": c["collect_timeouts"],
            "threads.bg_calls": calls["threads.bg"],
            "writer.write_calls": calls["writer.write_term"],
            "writer.write_s": total["writer.write_term"] * s,
            "writer.chars": c["chars"],
            "gc.collections": c["gc_collections"],
            "gc.pause_s": self.gc_pause_ns * s,
            "trace.coverage": covered / sum(op_walls_ns.values()) if op_walls_ns else 0.0,
        }

    def write_spans(self, path) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "op", "thread")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
