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
(record, argument tuple) pair: running it reads the record's builtin or
asks the database for its candidate clauses, with no goal term built and
no key or table lookup per call. A body cut is a goal of an internal
record that carries its clause's barrier.

Bindings are trailed conditionally: a variable younger than the newest
choice point would die with the backtrack anyway, so it is not recorded.
With no choice points at all nothing is trailed, which is what keeps
infinite server loops memory-flat.
"""

from __future__ import annotations

import math
from collections import deque

from .terms import (
    Atom,
    Int,
    Struct,
    Symbol,
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
    """A compiled clause: head-argument and body templates plus the frame size.

    Templates are ordinary terms except that variables are VarSlot markers
    and any compound containing one is a (functor, args) pair. Ground
    subterms are shared, never rebuilt. Each body goal is (pred, args,
    build): the record it calls and its argument templates, which are the
    ready argument tuple when build is false. A cut has args None: it is
    pushed with its clause's barrier as its argument.
    """

    __slots__ = ("args", "body", "nvars", "origin")

    def __init__(self, args, body, nvars, origin=None):
        self.args = args
        self.body = body
        self.nvars = nvars
        self.origin = origin


def _build(tpl, fresh):
    """Instantiate a template; a slot not yet filled gets a new Var."""
    t = type(tpl)
    if t is VarSlot:
        v = fresh[tpl.index]
        if v is None:
            v = fresh[tpl.index] = Var()
        return v
    if t is tuple:
        args = []
        for a in tpl[1]:  # leaves inline: most arguments are slots or constants
            ta = type(a)
            if ta is VarSlot:
                v = fresh[a.index]
                if v is None:
                    v = fresh[a.index] = Var()
                args.append(v)
            elif ta is tuple:
                args.append(_build(a, fresh))
            else:
                args.append(a)
        return Struct(tpl[0], args)
    return tpl


def _unify_head(tpls, args, fresh, trail) -> bool:
    """Unify head-argument templates with a goal's arguments in place.

    A slot's first occurrence takes the goal subterm as it is; only later
    occurrences unify. A compound template is built only where it meets an
    unbound goal variable. On failure, bindings already made are left for
    the caller's backtrack to undo.
    """
    for tpl, a in zip(tpls, args):
        t = type(tpl)
        if t is VarSlot:
            i = tpl.index
            v = fresh[i]
            if v is None:
                fresh[i] = a
            elif not unify(v, a, trail):
                return False
            continue
        a = deref(a)
        ta = type(a)
        if ta is Var:
            bind(a, _build(tpl, fresh) if t is tuple else tpl, trail)
        elif t is tuple:
            if (
                ta is not Struct
                or a.functor is not tpl[0]
                or len(a.args) != len(tpl[1])
                or not _unify_head(tpl[1], a.args, fresh, trail)
            ):
                return False
        elif t is Atom:  # interned: distinct objects are distinct atoms
            if a is not tpl:
                return False
        elif not unify(tpl, a, trail):  # an integer or a ground compound
            return False
    return True


ATOM_TRUE = Atom("true")
ATOM_CUT = Atom("!")


def compile_clause(head, body, db: "Database", origin=None) -> Clause:
    """Compile a clause, resolving each body call site to its record in db."""
    slots: dict[Var, VarSlot] = {}

    def tpl(t):
        t = deref(t)
        tt = type(t)
        if tt is Var:
            s = slots.get(t)
            if s is None:
                s = slots[t] = VarSlot(len(slots))
            return s
        if tt is Struct:
            args = tuple(tpl(a) for a in t.args)
            if any(type(a) in (VarSlot, tuple) for a in args):
                return (t.functor, args)
            return t
        return t

    head = deref(head)
    cargs = tuple(tpl(a) for a in head.args) if type(head) is Struct else ()
    goals: list = []

    def flatten(b):
        b = deref(b)
        tb = type(b)
        if tb is Struct and b.name == "," and len(b.args) == 2:
            flatten(b.args[0])
            flatten(b.args[1])
        elif b is ATOM_TRUE:
            pass
        elif b is ATOM_CUT:
            goals.append((_CUT, None, False))
        elif tb is Struct:
            t = tpl(b)
            build = type(t) is tuple  # else t is the ground goal b itself
            goals.append((db.pred((b.functor, len(b.args))), t[1] if build else b.args, build))
        elif tb is Atom:
            goals.append((db.pred((b.sym, 0)), (), False))
        else:  # a variable, or a term that faults only when it is reached
            a = tpl(b)
            goals.append((_METACALL, (a,), type(a) is VarSlot))

    flatten(body)
    return Clause(cargs, tuple(goals), len(slots), origin)


def _index_key(t):
    """First-argument index key of a bound term: the atom itself, the
    integer's value, or (functor, arity); None for an unbound variable or
    a head slot."""
    t = deref(t)
    tt = type(t)
    if tt is Atom:
        return t
    if tt is Int:
        return t.value
    if tt is Struct:
        return (t.functor, len(t.args))
    if tt is tuple:  # a compound template
        return (t[0], len(t[1]))
    return None


class Pred:
    """A predicate record: what every call site of one name/arity resolves
    to. fn is the builtin of the key, read from BUILTINS when the record is
    made, and takes precedence over clauses, which is None for a predicate
    with no clauses. index holds the first-argument index once the
    database freezes: (clauses per first-argument key, clauses with a
    variable first argument)."""

    __slots__ = ("key", "clauses", "index", "fn")

    def __init__(self, key, fn):
        self.key = key
        self.clauses = None
        self.index = None
        self.fn = fn


class Database:
    """One predicate record per functor/arity, each multi-clause predicate
    indexed on its first argument once frozen; immutable once frozen."""

    def __init__(self):
        self._preds: dict[tuple[Symbol, int], Pred] = {}
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
        head = deref(head)
        th = type(head)
        if th is Atom:
            key = (head.sym, 0)
        elif th is Struct:
            key = (head.functor, len(head.args))
        else:
            raise ValueError("clause head must be an atom or compound")
        cl = compile_clause(head, body, self, origin)
        p = self.pred(key)
        if p.clauses is None:
            p.clauses = []
        p.clauses.append(cl)

    def freeze(self):
        self.frozen = True
        for p in self._preds.values():
            clauses = p.clauses
            if clauses is None or len(clauses) < 2 or p.key[1] == 0:
                continue
            table: dict = {}
            unkeyed: list[Clause] = []
            for cl in clauses:
                k = _index_key(cl.args[0])
                if k is None:
                    unkeyed.append(cl)
                    for candidates in table.values():
                        candidates.append(cl)
                elif k in table:
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
            key = (t.sym, len(args))
        elif tt is Var:
            raise MachineFault("instantiation_error", t)
        else:
            raise MachineFault("type_error", t)
        p = self._preds.get(key)
        if p is None:
            p = Pred(key, BUILTINS.get(key))
        return p, args

    def lookup(self, pred: Pred, args):
        """Clauses that may match a call, in source order; None when the
        predicate has none. A bound first argument selects only the
        clauses whose first argument has its key or is a variable."""
        index = pred.index
        if index is not None:
            k = _index_key(args[0])
            if k is not None:
                table, unkeyed = index
                return table.get(k, unkeyed)
        return pred.clauses


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
                m._pop_cp()
            fresh = [None] * cl.nvars
            if _unify_head(cl.args, args, fresh, trail):
                self.cursor = i
                m.goals = m._push_body(cl, fresh, self.rest, self.barrier)
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
            m._pop_cp()  # before binding, as in ClauseCP.retry
        bind(self.var, Int(v), m.trail)
        m.goals = self.rest
        return True


# ---------------------------------------------------------------------------
# the machine


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
        "_awaiting_redo",
    )

    def __init__(self, session, db: Database, pattern, goal):
        g = deref(goal)
        if type(g) not in (Atom, Struct):
            raise MachineFault("type_error", g)
        self.session = session
        self.db = db
        self.trail = Trail()
        self.trail.boundary = 0  # no choice points yet: trail nothing
        vmap: dict = {}
        self.pattern = copy_term(pattern, vmap)
        self.goals = (db.resolve(copy_term(g, vmap)), None)
        self.cps: list = []
        self.mailbox: deque = deque()
        self.dead = False
        self.running = False
        self.id = 0
        self._awaiting_redo = False

    # -- client operations ---------------------------------------------------

    def resume(self):
        """Run until the next event. Total: a dead machine reports Exhausted."""
        if self.dead:
            return EXHAUSTED
        self.running = True
        try:
            if self._awaiting_redo:
                self._awaiting_redo = False
                if not self._backtrack():
                    return self._exhaust()
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
        self.mailbox.append(copy_term(t))
        return True

    def kill(self):
        """Release all state; idempotent. Any later resume reports Exhausted."""
        self.dead = True
        self.goals = None
        self.cps.clear()
        self.trail.entries.clear()
        self.mailbox.clear()

    # -- resolution ----------------------------------------------------------

    def _run(self):
        lookup = self.db.lookup
        while True:
            goals = self.goals
            if goals is None:
                self._awaiting_redo = True
                return AnswerReady(copy_term(self.pattern))
            (pred, args), rest = goals
            fn = pred.fn
            if fn is not None:
                res = fn(self, args, rest)
                if res is True:
                    self.goals = rest
                    continue
                if res is False:
                    if not self._backtrack():
                        return self._exhaust()
                    continue
                if res is None:  # builtin updated self.goals itself
                    continue
                return res  # a Yielded event
            clauses = lookup(pred, args)
            if clauses is None:
                name, arity = pred.key
                raise MachineFault("unknown_predicate", Struct("/", (Atom(name.text), Int(arity))))
            if not self._call_pred(args, rest, clauses):
                if not self._backtrack():
                    return self._exhaust()

    def _call_pred(self, args, rest, clauses) -> bool:
        n = len(clauses)
        if n == 1:
            cl = clauses[0]
            fresh = [None] * cl.nvars
            if _unify_head(cl.args, args, fresh, self.trail):
                self.goals = self._push_body(cl, fresh, rest, len(self.cps))
                return True
            return False
        if n == 0:
            return False
        # the choice point must exist before head unification so that the
        # bindings it makes are trailed against this choice point
        cp = ClauseCP(args, rest, clauses, self.trail.mark(), len(self.cps))
        self._push_cp(cp)
        return cp.retry(self)

    def _push_body(self, cl: Clause, fresh, rest, barrier):
        g = rest
        for pred, args, build in reversed(cl.body):
            if build:
                # _build's loop without the goal Struct, inline: a helper
                # call would deepen the host stack where nested gets overflow
                built = []
                for a in args:
                    ta = type(a)
                    if ta is VarSlot:
                        v = fresh[a.index]
                        if v is None:
                            v = fresh[a.index] = Var()
                        built.append(v)
                    elif ta is tuple:
                        built.append(_build(a, fresh))
                    else:
                        built.append(a)
                args = tuple(built)
            elif args is None:  # a cut carries its clause's barrier
                args = barrier
            g = ((pred, args), g)
        return g

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

    def _pop_cp(self):
        cps = self.cps
        cps.pop()
        self.trail.boundary = cps[-1].stamp if cps else 0

    def _exhaust(self):
        self.kill()
        return EXHAUSTED


# ---------------------------------------------------------------------------
# arithmetic

_SQRT = Symbol("sqrt")


def eval_arith(t) -> int:
    """Evaluate a ground integer expression: + - * / mod, unary -, and
    integer(sqrt(N)) as the floor of the exact integer square root."""
    t = deref(t)
    tt = type(t)
    if tt is Int:
        return t.value
    if tt is Var:
        raise MachineFault("instantiation_error", t)
    if tt is Struct:
        name = t.name
        args = t.args
        if len(args) == 2:
            a = eval_arith(args[0])
            b = eval_arith(args[1])
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
        elif len(args) == 1:
            if name == "-":
                return -eval_arith(args[0])
            if name == "integer":
                inner = deref(args[0])
                if type(inner) is Struct and inner.functor is _SQRT and len(inner.args) == 1:
                    n = eval_arith(inner.args[0])
                    if n < 0:
                        raise MachineFault("arith_error", t)
                    return math.isqrt(n)
                return eval_arith(inner)
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
        BUILTINS[(Symbol(name), arity)] = fn
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

    BUILTINS[(Symbol(name), 2)] = fn


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
    BUILTINS[(Symbol("call"), _n)] = _bi_call


def _cut(m, barrier, rest):
    cps = m.cps
    if len(cps) > barrier:
        del cps[barrier:]
        m.trail.boundary = cps[-1].stamp if cps else 0
    return True


# records of the body cut and of a body goal that is a variable or not
# callable; they are not in BUILTINS, so no tracer counts them as builtins
_CUT = Pred((Symbol("!"), 0), _cut)
_METACALL = Pred((Symbol("call"), 1), _bi_call)


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
