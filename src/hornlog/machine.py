"""Stepwise Horn-clause interpreter with explicit stacks.

A Machine runs left-to-right, depth-first resolution over a frozen clause
database. Its goal stack is a persistent cons chain and its choice points
live in an explicit list, so a run can pause at any answer or yield and be
resumed later exactly where it stopped. Nothing recurses on the host stack
per resolution step; deep deterministic recursion therefore runs in
constant space (old goal cells become garbage as soon as no choice point
references them).

Every call site is resolved once, when its clause is added, to the
database's record (Pred) for its name/arity, so a goal on the stack is a
(record, argument tuple) pair, with no goal term built and no key or table
lookup per call. Every record carries an entry with the builtin signature
fn(machine, args, rest), and running a goal is one call of its record's
entry: a builtin, the clause entry of a predicate with clauses, or an
entry that faults unknown_predicate. The machine's own steps are goals of
internal records too: a body cut carries its clause's barrier, the goal
below a query's goal hands out its answer, and an answered machine is left
a fail goal, so resuming it backtracks into its choice points. A clause
entry runs a deterministic call of its own predicate in place: when the
one candidate clause's body starts with a call of the same record, the
entry goes on with that call instead of returning it to the run loop, so
app/3 over a list is one entry call.

A clause is tried by one Python function generated for it, in the spirit
of the WAM's get/unify/put instructions: the function unifies the head
with the goal's arguments, with a test specialised to each head node, and
returns the goal chain with the body pushed. It is generated the first
time the clause is tried, so loading a program compiles nothing and a
clause never called costs nothing. Its source names every term and record
as a closure value, so compiling it is kept for the process: another
session over the same program compiles nothing.

Bindings are trailed conditionally: a variable younger than the newest
choice point would die with the backtrack anyway, so it is not recorded.
With no choice points at all nothing is trailed, and a cut drops the
entries no remaining choice point can undo, which is what keeps infinite
server loops memory-flat.
"""

from __future__ import annotations

import math
import threading
from collections import deque

from .terms import (
    TRUE,
    Atom,
    Int,
    Struct,
    Trail,
    Var,
    bind,
    copy_term,
    deref,
    next_stamp,
    term_equal,
    unify,
)

# ---------------------------------------------------------------------------
# events delivered by Machine.resume()


class AnswerReady:
    """A computed answer: an instance of the machine's answer pattern."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"AnswerReady({self.value!r})"


class Yielded:
    """An intermediate result handed out by the yield builtin."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Yielded({self.value!r})"


class Exhausted:
    __slots__ = ()

    def __repr__(self):
        return "Exhausted"


EXHAUSTED = Exhausted()


class MachineError:
    """A runtime fault; the machine that produced it is dead."""

    __slots__ = ("kind", "culprit")

    def __init__(self, kind, culprit):
        self.kind = kind
        self.culprit = culprit

    def __repr__(self):
        return f"MachineError({self.kind}, {self.culprit!r})"


class MachineFault(Exception):
    """Internal signal raised by builtins; normalized to a MachineError event."""

    def __init__(self, kind, culprit):
        super().__init__(kind)
        self.kind = kind
        self.culprit = culprit


# ---------------------------------------------------------------------------
# clause compilation


class VarSlot:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


class Clause:
    """A clause as loaded: head-argument and body templates, compiled to a
    Python function the first time the clause is tried.

    Templates are ordinary terms except that variables are VarSlot markers
    and any compound containing one is a (functor, args) pair. Ground
    subterms are shared, never rebuilt. Each body goal is (pred, args): the
    record it calls and its argument templates. A cut has args None: it is
    pushed with its clause's barrier as its argument.

    run(args, trail, rest, barrier), made by compile() and None until then,
    unifies the head with a goal's arguments and returns rest with the body
    pushed onto it, or False when the head does not match. The generated
    code is named after key (the predicate) and origin (source, line).
    """

    __slots__ = ("key", "args", "body", "origin", "run")

    def __init__(self, key, args, body, origin=None):
        self.key = key
        self.args = args
        self.body = body
        self.origin = origin
        self.run = None

    def source(self) -> tuple[str, list]:
        """The source of a function make(k0, k1, ...) that returns run, and
        the values to call it with: the terms and records run uses."""
        src = _ClauseSource(self)
        return src.text(), src.values()

    def compile(self):
        """Generate run, keep it, and return it. The source is compiled
        once per process: a clause of another session with the same code
        name and source reuses its make. Threads that race here each keep
        an equivalent function; the last one stays."""
        text, values = self.source()
        name, arity = self.key
        where = "" if self.origin is None else " at {}:{}".format(*self.origin)
        key = (f"<{name.name}/{arity}{where}>", text)
        make = _makes.get(key)
        if make is None:
            code = compile(text, key[0], "exec", dont_inherit=True)
            ns: dict = {}
            exec(code, globals(), ns)  # unify and the rest are read from this module
            make = ns["make"]
            if len(_makes) >= _MAKES_MAX:
                # drop the oldest, as re's cache does; another thread may
                # be adding or dropping one at the same time
                try:
                    del _makes[next(iter(_makes))]
                except (StopIteration, RuntimeError, KeyError):
                    pass
            _makes[key] = make
        self.run = run = make(*values)
        return run


# (code name, source) -> the make function it compiles to: code only, no
# term, record or session, so a dropped session is freed as before
_MAKES_MAX = 512
_makes: dict[tuple[str, str], object] = {}


new = object.__new__  # generated code makes a Struct without running __init__


class _ClauseSource:
    """The source of one clause's run function.

    Every term and record reaches the function as a closure value k<n>;
    the source names nothing else but numbered temporaries and this
    module's globals, so no clause text can end up in it. Each template
    node adds a few lines, nested at most three blocks deep in run whatever
    the depth of its term, so the source is linear in the clause and meets
    none of the compiler's nesting limits.

    The head is matched in pre-order. A compound's goal subterm is checked
    and its arguments are unpacked into the temporaries of the steps below
    it. Where that subterm is an unbound variable, or the compound lies
    inside one being built, the compound is built instead: its arguments'
    first slot occurrences get new variables, the steps below it see None
    and skip, and a closing step after them makes the Struct and binds the
    goal variable to it.
    """

    def __init__(self, cl: Clause):
        self.lines: list[str] = []
        self.consts: dict[int, tuple[str, object]] = {}  # id -> (name, value)
        self.ntemps = 0
        self.built: dict[int, str] = {}  # id of a compound template -> its Struct's name
        self.first = _first_occurrences(cl.args)
        self.head(cl.args)
        self.body(cl.body)

    def text(self) -> str:
        names = ", ".join(name for name, _ in self.consts.values())
        return "\n".join(
            [f"def make({names}):", "    def run(args, trail, rest, barrier):", *self.lines, "    return run", ""]
        )

    def values(self) -> list:
        return [value for _, value in self.consts.values()]

    def const(self, value) -> str:
        entry = self.consts.get(id(value))
        if entry is None:
            entry = self.consts[id(value)] = (f"k{len(self.consts)}", value)
        return entry[0]

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * (depth + 2) + line)

    def bind(self, depth: int, name: str, value: str) -> None:
        """Bind the unbound variable name to value, trailed as bind trails."""
        self.emit(depth, f"{name}.ref = {value}")
        self.emit(depth, f"if {name}.serial < trail.boundary:")
        self.emit(depth + 1, f"trail.entries.append({name})")

    def struct(self, depth: int, t) -> str:
        """Make the Struct of compound template t, whose compound arguments
        are made already, without running Struct.__init__; return its name."""
        functor, targs = t
        parts = [
            f"v{a.index}" if type(a) is VarSlot else self.built[id(a)] if type(a) is tuple else self.const(a)
            for a in targs
        ]
        self.ntemps += 1
        b = self.built[id(t)] = f"b{self.ntemps}"
        self.emit(depth, f"{b} = new(Struct)")
        self.emit(depth, f"{b}.functor = {self.const(functor)}")
        self.emit(depth, f"{b}.args = {', '.join(parts)},")
        return b

    # -- head ----------------------------------------------------------------

    def unpacked(self, parent, tpls):
        """Names to unpack a compound's goal arguments into, the slots that
        occur first there, and the (name, template) of each argument that
        needs a step: a slot's first occurrence just takes its subterm."""
        names, firsts, steps = [], [], []
        for i, t in enumerate(tpls):
            if type(t) is VarSlot and self.first[t.index] == (parent, i):
                names.append(f"v{t.index}")
                firsts.append(names[-1])
            else:
                self.ntemps += 1
                names.append(f"a{self.ntemps}")
                steps.append((names[-1], t))
        return names, firsts, steps

    def head(self, tpls) -> None:
        names, _, steps = self.unpacked(None, tpls)
        if names:
            self.emit(0, f"{', '.join(names)}, = args")
        # (temporary, template, is a head argument, is a closing step)
        work = [(name, t, True, False) for name, t in reversed(steps)]
        while work:
            name, t, root, closing = work.pop()
            if closing:
                self.emit(0, f"if type({name}) is not Struct:")
                b = self.struct(1, t)
                if not root:
                    self.emit(1, f"if {name} is not None:")
                self.bind(1 if root else 2, name, b)
                continue
            live = "" if root else f"{name} is not None and "  # None: inside a built compound
            if type(t) is VarSlot:  # a later occurrence
                self.emit(0, f"if {live}not unify(v{t.index}, {name}, trail):")
                self.emit(1, "return False")
                continue
            self.emit(0, f"while type({name}) is Var and {name}.ref is not None:")
            self.emit(1, f"{name} = {name}.ref")
            if type(t) is tuple:
                steps = self.open(name, t, root)
                work.append((name, t, root, True))
                work.extend((n, a, False, False) for n, a in reversed(steps))
                continue
            k = self.const(t)
            self.emit(0, f"if type({name}) is Var:")
            self.bind(1, name, k)
            if type(t) is Atom:  # interned: distinct objects are distinct atoms
                self.emit(0, f"elif {live}{name} is not {k}:")
            else:  # an integer or a ground compound
                self.emit(0, f"elif {live}not unify({k}, {name}, trail):")
            self.emit(1, "return False")

    def open(self, name: str, t, root: bool) -> list:
        """A compound's check: unpack a matching goal subterm, or start
        building where the subterm is an unbound variable or None. Returns
        the steps of its arguments."""
        functor, targs = t
        names, firsts, steps = self.unpacked(id(t), targs)
        self.emit(
            0,
            f"if type({name}) is Struct and {name}.functor is {self.const(functor)}"
            f" and len({name}.args) == {len(targs)}:",
        )
        self.emit(1, f"{', '.join(names)}, = {name}.args")
        self.emit(0, f"elif type({name}) is Var{'' if root else f' or {name} is None'}:")
        for v in firsts:
            self.emit(1, f"{v} = Var()")
        if steps:
            self.emit(1, f"{' = '.join(n for n, _ in steps)} = None")
        elif not firsts:
            self.emit(1, "pass")
        self.emit(0, "else:")
        self.emit(1, "return False")
        return steps

    # -- body ----------------------------------------------------------------

    def body(self, goals) -> None:
        """Push the goals from the last to the first, each with its
        argument tuple built; a slot the head did not bind gets a new
        variable where it is first met."""
        assigned = set(self.first)
        chain = "rest"
        for pred, args in reversed(goals):
            if args is None:  # a cut carries its clause's barrier
                goal = f"({self.const(pred)}, barrier)"
            elif not any(type(a) in (VarSlot, tuple) for a in args):
                goal = self.const((pred, args))
            else:
                parts = [self.build(a, assigned) for a in args]
                goal = f"({self.const(pred)}, ({', '.join(parts)},))"
            self.emit(0, f"g = {goal}, {chain}")
            chain = "g"
        self.emit(0, f"return {chain}")

    def build(self, tpl, assigned: set) -> str:
        """Emit the statements that build tpl and return its name: new
        variables in pre-order, then the Structs bottom-up."""
        if type(tpl) is not VarSlot and type(tpl) is not tuple:
            return self.const(tpl)
        work = [tpl]
        while work:
            t = work.pop()
            if type(t) is VarSlot:
                if t.index not in assigned:
                    assigned.add(t.index)
                    self.emit(0, f"v{t.index} = Var()")
            elif type(t) is tuple:
                work.extend(reversed(t[1]))
        if type(tpl) is VarSlot:
            return f"v{tpl.index}"
        work = [(tpl, False)]
        while work:
            t, done = work.pop()
            if done:
                self.struct(0, t)
            else:
                work.append((t, True))
                work.extend((a, False) for a in t[1] if type(a) is tuple)
        return self.built[id(tpl)]


def _first_occurrences(tpls) -> dict:
    """Where each head slot occurs first, in pre-order: (id of the
    enclosing compound template, or None for a head argument; position)."""
    first: dict[int, tuple] = {}
    work = [(None, i, t) for i, t in reversed(list(enumerate(tpls)))]
    while work:
        parent, i, t = work.pop()
        if type(t) is VarSlot:
            first.setdefault(t.index, (parent, i))
        elif type(t) is tuple:
            work.extend((id(t), j, t[1][j]) for j in reversed(range(len(t[1]))))
    return first


ATOM_CUT = Atom("!")


def compile_clause(head, body, db: "Database", origin=None) -> Clause:
    """Compile a clause to templates, resolving each body call site to its
    record in db. Terms are walked with explicit stacks, so a clause may
    hold a list of any length the reader accepts."""
    slots: dict[Var, VarSlot] = {}

    def slot(v):
        s = slots.get(v)
        if s is None:
            s = slots[v] = VarSlot(len(slots))
        return s

    def tpl(t):
        t = deref(t)
        if type(t) is Var:
            return slot(t)
        if type(t) is not Struct:
            return t
        # frames of the compounds being converted: [term, converted
        # arguments, whether one of them holds a slot]
        stack = [[t, [], False]]
        while True:
            frame = stack[-1]
            node, done, has_slot = frame
            if len(done) == len(node.args):
                stack.pop()
                res = (node.functor, tuple(done)) if has_slot else node
                if not stack:
                    return res
                stack[-1][1].append(res)
                if has_slot:
                    stack[-1][2] = True
                continue
            a = deref(node.args[len(done)])
            ta = type(a)
            if ta is Var:
                done.append(slot(a))
                frame[2] = True
            elif ta is Struct:
                stack.append([a, [], False])
            else:
                done.append(a)

    head = deref(head)
    if type(head) is Struct:
        key = (head.functor, len(head.args))
        cargs = tuple(tpl(a) for a in head.args)
    else:
        key = (head, 0)
        cargs = ()
    goals: list = []
    work = [body]
    while work:
        b = deref(work.pop())
        tb = type(b)
        if tb is Struct and b.name == "," and len(b.args) == 2:
            work.append(b.args[1])
            work.append(b.args[0])
        elif b is TRUE:
            pass
        elif b is ATOM_CUT:
            goals.append((_CUT, None))
        elif tb is Struct:
            t = tpl(b)
            goals.append((db.pred((b.functor, len(b.args))), t[1] if type(t) is tuple else b.args))
        elif tb is Atom:
            goals.append((db.pred((b, 0)), ()))
        else:  # a variable, or a term that faults only when it is reached
            goals.append((_METACALL, (tpl(b),)))
    return Clause(key, cargs, tuple(goals), origin)


class Pred:
    """A predicate record: what every call site of one name/arity resolves
    to. fn is its entry, called as fn(machine, args, rest): the builtin of
    the key, read from BUILTINS when the record is made, which takes
    precedence over clauses (None if there are none); otherwise link()
    makes the record a ClausePred or an UnknownPred as the database
    freezes. Their fn is a method, so a record never refers to itself and
    is freed with its session. A ClausePred's entry runs its calls of
    itself in place while each has one candidate clause, and still asks
    Database.lookup once per call. index holds the first-argument index once the
    database freezes: (clauses per first-argument key, clauses with a
    variable first argument)."""

    __slots__ = ("key", "clauses", "index", "fn")

    def __init__(self, key, fn):
        self.key = key
        self.clauses = None
        self.index = None
        self.fn = fn

    def link(self) -> None:
        if self.fn is None:
            self.__class__ = UnknownPred if self.clauses is None else ClausePred


class ClausePred(Pred):
    __slots__ = ()

    def fn(self, m: "Machine", args, rest):
        """Run the one candidate clause, or try several from a choice point.
        While the one candidate's body starts with a call of this record,
        that call, which the machine would run next, runs here in place. A
        fact hands back its caller's continuation, and that goes back to
        _run: _run still holds the chain it called with, so running on into
        it here would keep every goal done meanwhile alive."""
        lookup = m.db.lookup  # read through the class: a tracer may wrap it
        trail = m.trail
        barrier = len(m.cps)  # a clause run pushes no choice point
        while True:
            clauses = lookup(self, args)
            if len(clauses) != 1:
                break
            cl = clauses[0]
            goals = (cl.run or cl.compile())(args, trail, rest, barrier)
            if goals is False:
                return False
            if goals is rest or goals[0][0] is not self:
                m.goals = goals
                return None
            goal, rest = goals
            args = goal[1]
        if not clauses:
            return False
        # the choice point must exist before head unification so that the
        # bindings it makes are trailed against this choice point
        cp = ClauseCP(args, rest, clauses, trail.mark(), barrier)
        m._push_cp(cp)
        return None if cp.retry(m) else False


class UnknownPred(Pred):
    __slots__ = ()

    def fn(self, m, args, rest):
        name, arity = self.key
        raise MachineFault("unknown_predicate", Struct("/", (name, Int(arity))))


class Database:
    """One predicate record per functor/arity, each multi-clause predicate
    indexed on its first argument once frozen; immutable once frozen."""

    def __init__(self):
        self._preds: dict[tuple[Atom, int], Pred] = {}
        self.frozen = False

    def pred(self, key) -> Pred:
        """The record of key, made on first use while the database is open."""
        p = self._preds.get(key)
        if p is None:
            p = self._preds[key] = Pred(key, BUILTINS.get(key))
        return p

    def add(self, head, body, origin=None):
        if self.frozen:
            raise RuntimeError("database is frozen")
        if type(deref(head)) not in (Atom, Struct):
            raise ValueError("clause head must be an atom or compound")
        cl = compile_clause(head, body, self, origin)
        p = self.pred(cl.key)
        if p.clauses is None:
            p.clauses = []
        p.clauses.append(cl)

    def freeze(self):
        self.frozen = True
        for p in self._preds.values():
            p.link()
            clauses = p.clauses
            if clauses is None or len(clauses) < 2 or p.key[1] == 0:
                continue
            table: dict = {}
            unkeyed: list[Clause] = []
            for cl in clauses:
                t = cl.args[0]  # a template, keyed as lookup keys a term
                tt = type(t)
                if tt is VarSlot:
                    unkeyed.append(cl)
                    for candidates in table.values():
                        candidates.append(cl)
                    continue
                if tt is tuple:  # a compound holding a slot
                    k = (t[0], len(t[1]))
                elif tt is Struct:
                    k = (t.functor, len(t.args))
                elif tt is Int:
                    k = t.value
                else:  # an atom
                    k = t
                if k in table:
                    table[k].append(cl)
                else:
                    table[k] = unkeyed + [cl]
            if table:
                p.index = (table, unkeyed)

    def resolve(self, t, extra=()):
        """The goal (record, args) that calls term t with extra appended to
        its arguments; faults on a variable or a non-callable term. A key
        with no record gets a transient one: the frozen table, which
        threads share without a lock, never grows."""
        t = deref(t)
        tt = type(t)
        if tt is Struct:
            args = t.args + extra if extra else t.args
            key = (t.functor, len(args))
        elif tt is Atom:
            args = extra
            key = (t, len(args))
        elif tt is Var:
            raise MachineFault("instantiation_error", t)
        else:
            raise MachineFault("type_error", t)
        p = self._preds.get(key)
        if p is None:
            p = Pred(key, BUILTINS.get(key))
            p.link()
        return p, args

    def lookup(self, pred: Pred, args):
        """Clauses that may match a call of a predicate with clauses, in
        source order; its clause entry asks once per call. A bound first
        argument selects only the clauses whose first argument has its key
        (the atom itself, the integer's value, or functor and arity) or is
        a variable."""
        index = pred.index
        if index is None:
            return pred.clauses
        t = args[0]
        while type(t) is Var:
            t = t.ref
            if t is None:
                return pred.clauses
        tt = type(t)
        if tt is Struct:
            k = (t.functor, len(t.args))
        elif tt is Int:
            k = t.value
        else:
            k = t
        return index[0].get(k, index[1])


# ---------------------------------------------------------------------------
# choice points


class ClauseCP:
    __slots__ = ("args", "rest", "clauses", "cursor", "trailmark", "barrier", "stamp")

    def __init__(self, args, rest, clauses, trailmark, barrier):
        self.args = args
        self.rest = rest
        self.clauses = clauses
        self.cursor = 0
        self.trailmark = trailmark
        self.barrier = barrier
        self.stamp = 0

    def retry(self, m: "Machine") -> bool:
        clauses = self.clauses
        n = len(clauses)
        i = self.cursor
        args = self.args
        trail = m.trail
        while i < n:
            cl = clauses[i]
            i += 1
            if i == n:
                # the last alternative runs without this choice point, so
                # its bindings are trailed only against older ones
                m._cut(self.barrier)
            goals = (cl.run or cl.compile())(args, trail, self.rest, self.barrier)
            if goals is not False:
                self.cursor = i
                m.goals = goals
                return True
            trail.undo_to(self.trailmark)
        return False


class BetweenCP:
    __slots__ = ("var", "next", "hi", "rest", "trailmark", "stamp")

    def __init__(self, var, nxt, hi, rest, trailmark):
        self.var = var
        self.next = nxt
        self.hi = hi
        self.rest = rest
        self.trailmark = trailmark
        self.stamp = 0

    def retry(self, m: "Machine") -> bool:
        v = self.next
        self.next = v + 1
        if v == self.hi:
            m._cut(len(m.cps) - 1)  # before binding, as in ClauseCP.retry
        bind(self.var, Int(v), m.trail)
        m.goals = self.rest
        return True


# ---------------------------------------------------------------------------
# the machine

_mailbox_lock = threading.Lock()


class Machine:
    """One suspendable resolution engine over a shared database.

    Owned and advanced by exactly one thread at a time; terms enter only as
    copies (boot, deposit) and leave only as copies (answers, yields).
    """

    __slots__ = (
        "session",
        "db",
        "trail",
        "goals",
        "cps",
        "mailbox",
        "pattern",
        "dead",
        "running",
        "id",
        "__weakref__",  # the session's handle table refers to it weakly
    )

    def __init__(self, session, db: Database, pattern, goal):
        g = deref(goal)
        if type(g) not in (Atom, Struct):
            raise MachineFault("type_error", g)
        self.session = session
        self.db = db
        self.trail = Trail()
        self.trail.boundary = 0  # no choice points yet: trail nothing
        if goal is pattern:  # new_engine(G,G,E), as if/3 and catch/3 boot
            self.pattern = g = copy_term(g)
        else:
            vmap: dict = {}
            self.pattern = copy_term(pattern, vmap)
            g = copy_term(g, vmap)
        self.goals = (db.resolve(g), _ANSWER)
        self.cps: list = []
        self.mailbox: deque | None = None  # made by the first deposit
        self.dead = False
        self.running = False
        self.id = 0

    # -- client operations ---------------------------------------------------

    def resume(self):
        """Run until the next event. Total: a dead machine reports Exhausted."""
        if self.dead:
            return EXHAUSTED
        self.running = True
        try:
            return self._run()
        except MachineFault as f:
            self.kill()
            return MachineError(f.kind, f.culprit)
        finally:
            self.running = False

    def deposit(self, t) -> bool:
        """Queue a copy of t for from_engine. Reports failure on a dead machine."""
        if self.dead:
            return False
        item = copy_term(t)
        mailbox = self.mailbox
        if mailbox is None:
            with _mailbox_lock:  # two threads may deposit first at once
                mailbox = self.mailbox
                if mailbox is None:
                    mailbox = self.mailbox = deque()
        mailbox.append(item)
        return True

    def kill(self):
        """Release all state; idempotent. Any later resume reports Exhausted."""
        self.dead = True
        self.goals = None
        self.cps.clear()
        self.trail.entries.clear()
        self.mailbox = None
        self.pattern = None

    # -- resolution ----------------------------------------------------------

    def _run(self):
        while True:
            (pred, args), rest = self.goals
            res = pred.fn(self, args, rest)
            if res is None:  # fn updated self.goals itself, as a clause entry does
                continue
            if res is True:
                self.goals = rest
            elif res is False:
                if not self._backtrack():
                    return self._exhaust()
            else:  # an event
                return res

    def _backtrack(self) -> bool:
        # a choice point pops itself before its last alternative (WAM
        # trust_me), so a failed retry has already left the stack
        cps = self.cps
        trail = self.trail
        while cps:
            cp = cps[-1]
            trail.undo_to(cp.trailmark)
            if cp.retry(self):
                return True
        return False

    def _push_cp(self, cp):
        cp.stamp = next_stamp()
        self.cps.append(cp)
        self.trail.boundary = cp.stamp

    def _cut(self, height: int) -> None:
        """Drop the choice points from height up, and the trail entries no
        remaining one can undo: those of variables younger than the newest
        remaining one, which die with the backtrack to it."""
        cps = self.cps
        trail = self.trail
        entries = trail.entries
        mark = cps[height].trailmark  # entries below it are kept tidy already
        del cps[height:]
        if not cps:
            trail.boundary = 0
            entries.clear()
            return
        stamp = trail.boundary = cps[-1].stamp
        if len(entries) > mark:
            entries[mark:] = [v for v in entries[mark:] if v.serial < stamp]

    def _exhaust(self):
        self.kill()
        return EXHAUSTED


# ---------------------------------------------------------------------------
# arithmetic

_SQRT = Atom("sqrt")


def eval_arith(t) -> int:
    """Evaluate a ground integer expression: + - * / mod, unary -, and
    integer(sqrt(N)) as the floor of the exact integer square root. An
    expression of one operator on two integers, such as N-1, is evaluated
    directly, dereferenced inline; any other over an explicit stack, so
    depth costs no host stack."""
    while type(t) is Var and t.ref is not None:
        t = t.ref
    tt = type(t)
    if tt is Int:
        return t.value
    if tt is Struct and len(t.args) == 2:
        a, b = t.args
        while type(a) is Var and a.ref is not None:
            a = a.ref
        while type(b) is Var and b.ref is not None:
            b = b.ref
        if type(a) is Int and type(b) is Int:
            return _binary(t, a.value, b.value)
    return _eval_stack(t)


def _eval_stack(t) -> int:
    # work holds (term, False) to evaluate and (compound, True) to apply
    # to the values of its operands, which are on top of values by then
    values: list[int] = []
    work = [(t, False)]
    while work:
        t, apply = work.pop()
        if apply:
            if len(t.args) == 2:
                b = values.pop()
                values.append(_binary(t, values.pop(), b))
            elif t.name == "-":
                values.append(-values.pop())
            else:  # integer(sqrt(N))
                n = values.pop()
                if n < 0:
                    raise MachineFault("arith_error", t)
                values.append(math.isqrt(n))
            continue
        t = deref(t)
        tt = type(t)
        if tt is Int:
            values.append(t.value)
            continue
        if tt is Var:
            raise MachineFault("instantiation_error", t)
        if tt is Struct:
            name = t.name
            args = t.args
            if len(args) == 2:
                work.append((t, True))
                work.append((args[1], False))
                work.append((args[0], False))
                continue
            if len(args) == 1 and name == "-":
                work.append((t, True))
                work.append((args[0], False))
                continue
            if len(args) == 1 and name == "integer":
                inner = deref(args[0])
                if type(inner) is Struct and inner.functor is _SQRT and len(inner.args) == 1:
                    work.append((t, True))
                    work.append((inner.args[0], False))
                else:
                    work.append((inner, False))
                continue
        raise MachineFault("type_error", t)
    return values[0]


def _binary(t, a: int, b: int) -> int:
    name = t.name
    if name == "+":
        return a + b
    if name == "-":
        return a - b
    if name == "*":
        return a * b
    if name == "/":
        if b == 0:
            raise MachineFault("arith_error", t)
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q
    if name == "mod":
        if b == 0:
            raise MachineFault("arith_error", t)
        return a % b
    raise MachineFault("type_error", t)


def _int_arg(t) -> int:
    t = deref(t)
    if type(t) is Int:
        return t.value
    if type(t) is Var:
        raise MachineFault("instantiation_error", t)
    raise MachineFault("type_error", t)


# ---------------------------------------------------------------------------
# builtin predicates (engine and thread builtins register from their modules)

BUILTINS: dict = {}


def builtin(name: str, arity: int):
    def register(fn):
        BUILTINS[(Atom(name), arity)] = fn
        return fn

    return register


@builtin("true", 0)
def _bi_true(m, args, rest):
    return True


@builtin("fail", 0)
def _bi_fail(m, args, rest):
    return False


@builtin("!", 0)
def _bi_metacut(m, args, rest):
    # only reachable through a metacall; transparent there, like call(!)
    return True


@builtin("=", 2)
def _bi_unify(m, args, rest):
    return unify(args[0], args[1], m.trail)


@builtin("==", 2)
def _bi_eq(m, args, rest):
    return term_equal(args[0], args[1])


@builtin("\\==", 2)
def _bi_neq(m, args, rest):
    return not term_equal(args[0], args[1])


@builtin("var", 1)
def _bi_var(m, args, rest):
    return type(deref(args[0])) is Var


@builtin("nonvar", 1)
def _bi_nonvar(m, args, rest):
    return type(deref(args[0])) is not Var


@builtin("is", 2)
def _bi_is(m, args, rest):
    return unify(args[0], Int(eval_arith(args[1])), m.trail)


def _arith_cmp(name, op):
    def fn(m, args, rest):
        return op(eval_arith(args[0]), eval_arith(args[1]))

    BUILTINS[(Atom(name), 2)] = fn


_arith_cmp("=:=", lambda a, b: a == b)
_arith_cmp("=\\=", lambda a, b: a != b)
_arith_cmp("<", lambda a, b: a < b)
_arith_cmp(">", lambda a, b: a > b)
_arith_cmp("=<", lambda a, b: a <= b)
_arith_cmp(">=", lambda a, b: a >= b)


@builtin(",", 2)
def _bi_conj(m, args, rest):
    # conjunctions reach dispatch only through metacalls; the right-hand
    # goal is resolved when it is reached, after the left one has run
    m.goals = (m.db.resolve(args[0]), ((_METACALL, args[1:]), rest))
    return None


def _bi_call(m, args, rest):
    m.goals = (m.db.resolve(args[0], args[1:]), rest)
    return None


for _n in range(1, 6):
    BUILTINS[(Atom("call"), _n)] = _bi_call


def _body_cut(m, barrier, rest):
    if len(m.cps) > barrier:
        m._cut(barrier)
    return True


def _answer(m, args, rest):
    m.goals = _REDO
    return AnswerReady(copy_term(m.pattern))


# records of the body cut and of a body goal that is a variable or not
# callable, and the one-goal chains below a query's goal that answer it and
# then backtrack; no record of theirs is in BUILTINS, so no tracer counts
# them as builtins
_CUT = Pred((ATOM_CUT, 0), _body_cut)
_METACALL = Pred((Atom("call"), 1), _bi_call)
_ANSWER = (Pred((Atom("$answer"), 0), _answer), ()), None
_REDO = (Pred((Atom("fail"), 0), _bi_fail), ()), None


@builtin("between", 3)
def _bi_between(m, args, rest):
    lo = _int_arg(args[0])
    hi = _int_arg(args[1])
    x = deref(args[2])
    if type(x) is Int:
        return lo <= x.value <= hi
    if type(x) is not Var:
        raise MachineFault("type_error", x)
    if lo > hi:
        return False
    if lo < hi:
        m._push_cp(BetweenCP(x, lo + 1, hi, rest, m.trail.mark()))
    bind(x, Int(lo), m.trail)
    return True


@builtin("return", 1)
def _bi_return(m, args, rest):
    m.goals = rest
    return Yielded(copy_term(args[0]))


@builtin("from_engine", 1)
def _bi_from_engine(m, args, rest):
    if not m.mailbox:
        raise MachineFault("mailbox_empty", Struct("from_engine", args))
    return unify(args[0], m.mailbox.popleft(), m.trail)
