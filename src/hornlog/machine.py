"""Stepwise Horn-clause interpreter with explicit stacks.

A Machine runs left-to-right, depth-first resolution over a frozen clause
database. Its goal stack is a persistent cons chain and its choice points
live in an explicit list, so a run can pause at any answer or yield and be
resumed later exactly where it stopped. Nothing recurses on the host stack
per resolution step; deep deterministic recursion therefore runs in
constant space (old goal cells become garbage as soon as no choice point
references them).

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


Failed = Exhausted  # failure of an injected goal is indistinguishable from exhaustion

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
    subterms are shared, never rebuilt.
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
ATOM_NO = Atom("no")


def compile_clause(head, body, origin=None) -> Clause:
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
        if type(b) is Struct and b.name == "," and len(b.args) == 2:
            flatten(b.args[0])
            flatten(b.args[1])
        elif b is ATOM_TRUE:
            pass
        else:
            goals.append(tpl(b))

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


class Database:
    """Clause store indexed by functor/arity and, once frozen, by the first
    argument of each multi-clause predicate; immutable once frozen."""

    def __init__(self):
        self._preds: dict[tuple[Symbol, int], list[Clause]] = {}
        # key -> (clauses per first-argument key, clauses with a variable first argument)
        self._index: dict[tuple[Symbol, int], tuple[dict, list[Clause]]] = {}
        self.frozen = False

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
        self._preds.setdefault(key, []).append(compile_clause(head, body, origin))

    def freeze(self):
        self.frozen = True
        for key, clauses in self._preds.items():
            if len(clauses) < 2 or key[1] == 0:
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
                self._index[key] = (table, unkeyed)

    def lookup(self, key, args):
        """Clauses that may match a call, in source order; None when the
        predicate is unknown. A bound first argument selects only the
        clauses whose first argument has its key or is a variable."""
        index = self._index.get(key)
        if index is not None:
            k = _index_key(args[0])
            if k is not None:
                table, unkeyed = index
                return table.get(k, unkeyed)
        return self._preds.get(key)


# ---------------------------------------------------------------------------
# choice points


class _Cut:
    """Goal-stack marker: prune choice points above `height`."""

    __slots__ = ("height",)

    def __init__(self, height):
        self.height = height


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
            fresh = [None] * cl.nvars
            if _unify_head(cl.args, args, fresh, trail):
                self.cursor = i
                if i >= n:
                    m._pop_cp()
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
        if v > self.hi:
            return False
        self.next = v + 1
        bind(self.var, Int(v), m.trail)
        if v == self.hi:
            m._pop_cp()
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
        "status",
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
        self.goals = (copy_term(g, vmap), None)
        self.cps: list = []
        self.mailbox: deque = deque()
        self.dead = False
        self.running = False
        self.status = "ready"
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
            ev = self._run()
            if not self.dead:
                self.status = "suspended"
            return ev
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
        self.status = "dead"
        self.goals = None
        self.cps.clear()
        self.trail.entries.clear()
        self.mailbox.clear()

    # -- resolution ----------------------------------------------------------

    def _run(self):
        builtins = BUILTINS
        db = self.db
        while True:
            goals = self.goals
            if goals is None:
                self._awaiting_redo = True
                return AnswerReady(copy_term(self.pattern))
            goal, rest = goals
            goal = deref(goal)
            tg = type(goal)
            if tg is Struct:
                key = (goal.functor, len(goal.args))
                args = goal.args
            elif tg is Atom:
                key = (goal.sym, 0)
                args = ()
            elif tg is _Cut:
                self._cut_to(goal.height)
                self.goals = rest
                continue
            elif tg is Var:
                raise MachineFault("instantiation_error", goal)
            else:
                raise MachineFault("type_error", goal)
            fn = builtins.get(key)
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
            clauses = db.lookup(key, args)
            if clauses is None:
                raise MachineFault(
                    "unknown_predicate", Struct("/", (Atom(key[0].text), Int(key[1])))
                )
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
        if cp.retry(self):
            return True
        self._pop_cp()
        return False

    def _push_body(self, cl: Clause, fresh, rest, barrier):
        g = rest
        for tpl in reversed(cl.body):
            if tpl is ATOM_CUT:
                g = (_Cut(barrier), g)
            else:
                g = (_build(tpl, fresh), g)
        return g

    def _backtrack(self) -> bool:
        cps = self.cps
        trail = self.trail
        while cps:
            cp = cps[-1]
            trail.undo_to(cp.trailmark)
            if cp.retry(self):
                return True
            self._pop_cp()
        return False

    def _push_cp(self, cp):
        cp.stamp = next_stamp()
        self.cps.append(cp)
        self.trail.boundary = cp.stamp

    def _pop_cp(self):
        cps = self.cps
        cps.pop()
        self.trail.boundary = cps[-1].stamp if cps else 0

    def _cut_to(self, height):
        cps = self.cps
        if len(cps) > height:
            del cps[height:]
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
    # conjunctions reach dispatch only through metacalls
    m.goals = (args[0], (args[1], rest))
    return None


def _bi_call(m, args, rest):
    g = deref(args[0])
    tg = type(g)
    if tg is Var:
        raise MachineFault("instantiation_error", g)
    extra = args[1:]
    if extra:
        if tg is Atom:
            g = Struct(g.sym, extra)
        elif tg is Struct:
            g = Struct(g.functor, g.args + extra)
        else:
            raise MachineFault("type_error", g)
    elif tg not in (Atom, Struct):
        raise MachineFault("type_error", g)
    m.goals = (g, rest)
    return None


for _n in range(1, 6):
    BUILTINS[(Symbol("call"), _n)] = _bi_call


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
