"""Seeded random programs answered by hornlog and by a naive SLD solver.

The reference below shares no code with the machine: terms are Python
values (str atoms, int integers, RVar variables, (functor, *args) tuples),
substitutions are dicts copied on each binding, and resolution is a
recursive generator. hornlog must give the same answers, in the same order
and number, with the same bindings up to variable renaming, and fault with
the same kinds at the same points. Each program runs twice: at the
default entry budget, and with the budget so low that every list of two or
more clauses is tried through a chain of entries, so choice points re-enter
mid-chain.

A second set of programs also calls the prelude's findall/3, if/3 and
not/1 on calls of lower predicates, so no cut is metacalled. Their
reference is plain: findall/3 lists every answer, each renamed fresh;
if/3 commits to the first answer of its condition; not/1 succeeds when
its goal has none. Each goal runs in an engine of its own, so a fault
there ends that engine's answers with one diagnostic, as get never raises.

A third set draws its terms mostly from variables and integers, so that
the arithmetic guards at a clause's neck, which an entry compiles into
Python integer arithmetic, mostly run that code on integer operands;
the other sets mostly run the call those guards fall back to.

Every program also holds lp, a predicate whose last clause calls itself
on the tail of its output list, in one of three shapes (app/3's, an
integer countdown, a void element), and two more queries call it: an
entry runs such a loop in place and builds the list once. It holds lq
too, a self-looping predicate of one of the other LOOP_SHAPES, each
made to reach a form of loop the generated code tells apart, and two
queries call that.

The plain and integer sets run twice more with Database.lookup wrapped by
a pass-through, as the benchmark's tracer wraps it: an entry then asks
lookup for each call it hands on, where it otherwise selects the callee's
candidate list in its own code, so both forms are judged.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

import hornlog.machine as machine
from hornlog import Atom, Int, Session, Struct, Var, deref
from hornlog.machine import NO


class RVar:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Fault(Exception):
    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


class Cut(Exception):
    def __init__(self, token):
        super().__init__()
        self.token = token


class Skip(Exception):
    """The reference cannot judge this query: a binding would build a
    cyclic term, the search goes too deep or takes too many steps, or a
    walk meets too many nodes of a term that shares its subterms."""


COMPARE = {
    "<": operator.lt,
    ">": operator.gt,
    "=<": operator.le,
    ">=": operator.ge,
    "=:=": operator.eq,
    "=\\=": operator.ne,
}
GUARDS = {"=", "==", "\\==", "var", "nonvar", "is", *COMPARE}
CONSTRUCTS = ("findall", "if", "not")
MAX_DEPTH = 200
MAX_STEPS = 4000
MAX_NODES = 5000  # per walk of a term: a clause such as p([X|T]):-p(T,[X|X]) doubles one
LIMIT = 12  # answers compared per query


def walk(t, s):
    while type(t) is RVar and t in s:
        t = s[t]
    return t


def occurs(v, t, s) -> bool:
    work = [t]
    for _ in range(MAX_NODES):
        if not work:
            return False
        t = walk(work.pop(), s)
        if t is v:
            return True
        if type(t) is tuple:
            work.extend(t[1:])
    raise Skip


def unify(a, b, s):
    """A new substitution that unifies a and b under s, or None."""
    s = dict(s)
    work = [(a, b)]
    for _ in range(MAX_NODES):
        if not work:
            return s
        a, b = work.pop()
        a, b = walk(a, s), walk(b, s)
        if a is b:
            continue
        if type(b) is RVar:
            a, b = b, a
        if type(a) is RVar:
            if occurs(a, b, s):
                raise Skip
            s[a] = b
        elif type(a) is not type(b):
            return None
        elif type(a) is tuple:
            if a[0] != b[0] or len(a) != len(b):
                return None
            work.extend(zip(a[1:], b[1:]))
        elif a != b:
            return None
    raise Skip


def renamed(t, fresh):
    """t with each variable replaced by its own in fresh, made on first use."""
    if type(t) is RVar:
        return fresh.setdefault(t, RVar(t.name))
    if type(t) is tuple:
        return (t[0], *(renamed(a, fresh) for a in t[1:]))
    return t


def resolved(t, s):
    """t with each bound variable replaced by its value."""
    met = 0

    def value(t):
        nonlocal met
        met += 1
        if met > MAX_NODES:
            raise Skip
        t = walk(t, s)
        return (t[0], *(value(a) for a in t[1:])) if type(t) is tuple else t

    return value(t)


def evaluate(t, s) -> int:
    t = walk(t, s)
    if type(t) is int:
        return t
    if type(t) is RVar:
        raise Fault("instantiation_error")
    if type(t) is tuple and len(t) == 2 and t[0] == "-":
        return -evaluate(t[1], s)
    if type(t) is tuple and len(t) == 3:  # its operands first, then its operator
        a, b = evaluate(t[1], s), evaluate(t[2], s)
        if t[0] == "+":
            return a + b
        if t[0] == "-":
            return a - b
        if t[0] == "*":
            return a * b
        if t[0] in ("/", "mod"):
            if b == 0:
                raise Fault("arith_error")
            # / truncates toward zero; mod takes the sign of the divisor
            return int(Fraction(a, b)) if t[0] == "/" else a - b * math.floor(Fraction(a, b))
    raise Fault("type_error")


class Reference:
    def __init__(self, program):
        self.program = program  # (name, arity) -> [(head, body)]
        self.steps = 0
        self.faults: list[str] = []  # the kind of each fault, in order

    @staticmethod
    def rename(clause):
        fresh: dict = {}
        head, body = clause
        return renamed(head, fresh), [renamed(g, fresh) for g in body]

    def solve(self, goals, s, depth):
        """Each substitution that proves goals, a chain (goal, cut token,
        next goals) or None."""
        if goals is None:
            yield s
            return
        self.steps += 1
        if self.steps > MAX_STEPS or depth > MAX_DEPTH:
            raise Skip
        g, token, rest = goals
        if g == "!":
            yield from self.solve(rest, s, depth + 1)
            raise Cut(token)
        if g == "true":
            yield from self.solve(rest, s, depth + 1)
            return
        if g == "fail":
            return
        name, args = g[0], g[1:]
        if name in CONSTRUCTS:
            yield from self.construct(name, args, rest, s, depth)
            return
        if name in GUARDS:
            s = self.guard(name, args, s)
            if s is not None:
                yield from self.solve(rest, s, depth + 1)
            return
        mine = object()
        for clause in self.program[(name, len(args))]:
            head, body = self.rename(clause)
            s2 = unify(head, g, s)
            if s2 is None:
                continue
            chain = rest
            for b in reversed(body):
                chain = (b, mine, chain)
            try:
                yield from self.solve(chain, s2, depth + 1)
            except Cut as c:
                if c.token is mine:
                    return
                raise

    def engine(self, goal, s, depth):
        """Each substitution that proves goal in an engine of its own: a
        fault ends them, and is noted."""
        try:
            yield from self.solve((goal, object(), None), s, depth + 1)
        except Fault as f:
            self.faults.append(f.kind)

    def construct(self, name, args, rest, s, depth):
        """Each substitution that proves findall/3, if/3 or not/1, then rest."""
        if name == "findall":
            template, goal, result = args
            answers = [renamed(resolved(template, s1), {}) for s1 in self.engine(goal, s, depth)]
            found = "[]"
            for answer in reversed(answers):
                found = (".", answer, found)
            s = unify(result, found, s)
        else:
            cond, then, other = args if name == "if" else (args[0], "fail", "true")
            s1 = next(self.engine(cond, s, depth), None)
            if s1 is None:
                rest = (other, object(), rest)
            else:  # the condition's bindings are those of its answer's copy
                s = unify(cond, renamed(resolved(cond, s1), {}), s)
                rest = (then, object(), rest)
        if s is not None:
            yield from self.solve(rest, s, depth + 1)

    @staticmethod
    def guard(name, args, s):
        if name == "=":
            return unify(args[0], args[1], s)
        if name in ("==", "\\=="):
            same = resolved(args[0], s) == resolved(args[1], s)
            # resolved terms compare variables by identity: RVar has no __eq__
            return s if same == (name == "==") else None
        if name in ("var", "nonvar"):
            return s if (type(walk(args[0], s)) is RVar) == (name == "var") else None
        if name == "is":
            return unify(args[0], evaluate(args[1], s), s)
        a, b = evaluate(args[0], s), evaluate(args[1], s)
        return s if COMPARE[name](a, b) else None

    def answers(self, goal):
        """Up to LIMIT resolved instances of goal, and the kind of each
        fault in order: an inner engine's, and last the one that ended the
        search early, if one did."""
        self.steps = 0
        self.faults = []
        out = []
        for s in self.engine(goal, {}, -1):
            out.append(resolved(goal, s))
            if len(out) == LIMIT:
                break
        return out, self.faults


# -- random programs -------------------------------------------------------------


class Gen:
    """Random programs; with constructs, bodies also call findall/3, if/3
    and not/1 on calls of lower predicates."""

    CONSTANTS = ["a", "b", "[]", 0, 1]  # a term's constants
    LEAVES = 0.6  # the share of a term's nodes, below its depth, that are leaves
    VARIABLES = 4  # the most variables of a clause
    GUARD_MENU = ["=", "=", "==", "\\==", "var", "nonvar", "is", "<", "=:="]  # what a guard draws from

    def __init__(self, rng: random.Random, constructs: bool = False):
        self.rng = rng
        self.constructs = constructs
        self.serial = itertools.count()

    def term(self, pool, depth=2):
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < self.LEAVES:
            return rng.choice(pool) if roll < 0.35 else rng.choice(self.CONSTANTS)
        if roll < self.LEAVES + (1 - self.LEAVES) / 2:
            return (".", self.term(pool, depth - 1), self.term(pool, depth - 1))
        return ("f", self.term(pool, depth - 1))

    def expr(self, pool):
        rng = self.rng
        roll = rng.random()
        if roll < 0.2:
            return rng.choice(pool)
        if roll < 0.6:
            return rng.randint(0, 3)
        if roll < 0.64:
            return "a"
        return (rng.choice("+-"), rng.choice([*pool, 1, 2]), rng.randint(0, 2))

    def is_goal(self, pool):
        return ("is", self.rng.choice(pool), self.expr(pool))

    def call(self, pool, lower):
        rng = self.rng
        name, arity = rng.choice(lower)
        return (name, *(rng.choice(pool) if rng.random() < 0.6 else self.term(pool, 1) for _ in range(arity)))

    def engine_call(self, pool, lower):
        """A call of a lower predicate whose arguments are mostly variables
        of its own, so that it answers more often than a call over the
        clause's variables; and those variables."""
        rng = self.rng
        name, arity = rng.choice(lower)
        own = [RVar(f"W{next(self.serial)}") for _ in range(arity)]
        return (name, *(w if rng.random() < 0.7 else self.term(pool, 1) for w in own)), own

    def goal(self, pool, lower):
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            if lower:
                return self.call(pool, lower)
        elif roll < 0.5:
            return "!"
        elif roll < 0.52:
            return rng.choice(["true", "fail"])
        elif self.constructs and lower and roll < 0.72:
            name = rng.choice(CONSTRUCTS)
            goal, own = self.engine_call(pool, lower)
            if name == "findall":
                return (name, self.term(own, 1), goal, rng.choice(pool))
            if name == "if":
                return (name, goal, *(self.call(pool + own, lower) for _ in range(2)))
            return (name, goal)
        op = rng.choice(self.GUARD_MENU)
        if op in ("var", "nonvar"):
            return (op, rng.choice(pool))
        if op == "is":
            return self.is_goal(pool)
        if op in COMPARE:
            return (op, self.expr(pool), self.expr(pool))
        v = rng.choice(pool)
        # the other side holds no v, so that = builds no cyclic term
        return (op, v, self.term([w for w in pool if w is not v] or ["a"], 1))

    def clause(self, key, lower):
        rng = self.rng
        name, arity = key
        pool = [RVar(f"V{i}") for i in range(rng.randint(1, self.VARIABLES))]
        args = [self.term(pool) for _ in range(arity)]
        body = [self.goal(pool, lower) for _ in range(rng.randint(0, 3))]
        if self.constructs and not lower and rng.random() < 0.5:
            # the lowest predicate is mostly facts, so that its calls from
            # an engine answer often, and differently
            body = []
        if rng.random() < 0.25:
            # a call of itself on the tail of a list, past any guards: the
            # entry runs it in place when this clause runs without a choice point
            tail = RVar("T")
            args[0] = (".", rng.choice(pool), tail)
            guards = [g for g in body if type(g) is tuple and g[0] in GUARDS]
            body = guards + [(name, tail, *(self.term(pool, 1) for _ in range(arity - 1)))] + body[len(guards):]
        return (name, *args), body

    def program(self):
        rng = self.rng
        keys = [(f"p{i}", rng.randint(1, 3)) for i in range(rng.randint(2, 4))]
        program = {}
        for i, key in enumerate(keys):
            program[key] = [self.clause(key, keys[:i]) for _ in range(rng.randint(1, 5))]
        return keys, program


class IntegerGen(Gen):
    """Random programs whose terms are mostly variables and integers,
    whose clauses have at most two variables, and whose guards are mostly
    arithmetic: heads and queries mostly bind variables to integers, so an
    arithmetic guard at a neck mostly runs inline, with integer operands."""

    CONSTANTS = [-2, -1, 0, 1, 2]
    LEAVES = 0.9
    VARIABLES = 2
    GUARD_MENU = ["=", "var", "is", "is", "is", *COMPARE]

    def expr(self, pool, depth=3):
        """An arithmetic expression nested at most depth deep over the
        pool's variables, integers from -3 to 3 and rarely an atom or a
        compound: + - * / mod and unary -. A product's right operand is an
        integer, so that no value doubles its digits at each step of a
        recursion."""
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.45:
            roll = rng.random()
            if roll < 0.35:
                return rng.choice(pool)
            if roll < 0.92:
                return rng.randint(-3, 3)
            return rng.choice(["a", ("f", 1)])
        op = rng.choice(["+", "+", "-", "-", "*", "*", "neg", "neg", "/", "mod"])
        if op == "neg":
            return ("-", self.expr(pool, depth - 1))
        if op == "*":
            return (op, self.expr(pool, depth - 1), rng.randint(-2, 2))
        return (op, self.expr(pool, depth - 1), self.expr(pool, depth - 1))

    def is_goal(self, pool):
        """Mostly a variable, which the head may bind, on the left; else an
        integer, or the right side itself, which when it is a compound no
        integer unifies with, whatever its value."""
        rng = self.rng
        roll, right = rng.random(), self.expr(pool)
        if roll < 0.7:
            return ("is", rng.choice(pool), right)
        return ("is", rng.randint(-3, 3) if roll < 0.85 else right, right)


def text(t) -> str:
    if type(t) is RVar:
        return t.name
    if type(t) is tuple:
        if t[0] == ".":
            return f"[{text(t[1])}|{text(t[2])}]"
        if t[0] in GUARDS and len(t) == 3:
            return f"({text(t[1])} {t[0]} {text(t[2])})"
        return f"{t[0]}({','.join(text(a) for a in t[1:])})"
    return str(t)


def program_text(program) -> str:
    lines = []
    for clauses in program.values():
        for head, body in clauses:
            lines.append(f"{text(head)}:-{','.join(text(g) for g in body) or 'true'}.")
    return "\n".join(lines) + "\n"


def canonical(t, numbers=None):
    """A term of either solver with its variables numbered in order of
    first occurrence, so that answers compare up to renaming."""
    if numbers is None:
        numbers = {}
    if type(t) in (Var, Atom, Int, Struct):
        t = deref(t)
        if type(t) is Var:
            return ("var", numbers.setdefault(id(t), len(numbers)))
        if type(t) is Atom:
            return t.name
        if type(t) is Int:
            return t.value
        return (t.functor.name, *(canonical(a, numbers) for a in t.args))
    if type(t) is RVar:
        return ("var", numbers.setdefault(id(t), len(numbers)))
    if type(t) is tuple:
        return (t[0], *(canonical(a, numbers) for a in t[1:]))
    return t


class Runaway(Exception):
    """hornlog made far more predicate calls or retries than the
    reference's step limit allows it: a fault that would otherwise loop
    without end."""


def bounded_steps(monkeypatch, through_lookup=False) -> list[int]:
    """Make ClauseCP.retry, and each call of Database.lookup through_lookup
    or else each run of a generated entry, raise Runaway once the count in
    the returned cell passes 50,000; a test resets it before each query.
    Only a wrapped lookup is asked for the calls an entry hands on, so
    without it the entries they run are counted; the rounds an entry goes
    of its own loop are not."""
    calls = [0]

    def bounded(real):
        def step(*args):
            calls[0] += 1
            if calls[0] > 50_000:
                raise Runaway
            return real(*args)

        return step

    if through_lookup:
        monkeypatch.setattr(machine.Database, "lookup", bounded(machine.Database.lookup))
    else:
        compile_entry = machine.Candidates.compile

        def compile_bounded(candidates, db):
            candidates.run = bounded(compile_entry(candidates, db))
            return candidates.run

        monkeypatch.setattr(machine.Candidates, "compile", compile_bounded)
    monkeypatch.setattr(machine.ClauseCP, "retry", bounded(machine.ClauseCP.retry))
    return calls


def hornlog_answers(session, goal):
    """What hornlog answers, as Reference.answers gives it. At each answer
    the trail is checked too: its boundary is the newest choice point's
    stamp, and with no choice point nothing is trailed."""
    lines: list[str] = []
    session.on_error = lines.append
    g = text(goal)
    e = session.new_engine(g, g)
    got = []
    while len(got) < LIMIT:
        ans = e.get()
        if ans is NO:
            break
        got.append(canonical(ans.value))
        assert e.trail.boundary == (e.cps[-1].stamp if e.cps else 0)
        assert e.cps or not e.trail.entries
    e.stop()
    return got, [line.split(": ")[1] for line in lines]


# lp's shape is one of the first three, by seed; lq's one of the others
LOOP_SHAPES = ("app", "count", "void", "atoms", "codes", "others", "twice", "checked", "given")
LP_SHAPES = 3


def looping(shape):
    """The clauses of a self-looping predicate of one shape, lp's or lq's.

    lp's last clause calls itself on the tail of its output list: app/3's,
    a countdown as positive_ints/2's, or length_of/2's, whose list
    elements are variables of their own. An entry runs such a loop in
    place and builds the list once, after its last round.

    lq's shapes run a list of states, each the next one's key: atoms and
    codes, each key's list a register loop that leaves its head's atom or
    integer test out (and the list of every clause one that loops past a
    fact), where codes' atom a takes the next state less one, an integer;
    others, whose loop is the list of the keys the index lacks.
    The last three are countdowns whose output is not built once: a head
    argument repeated, a guard that is no arithmetic, and an is/2 whose
    target is a head argument."""
    h, t, l, r, n, m, x = (RVar(v) for v in "HTLRNMX")
    if shape == "app":
        return [(("lp", "[]", l, l), []), (("lp", (".", h, t), l, (".", h, r)), [("lp", t, l, r)])]
    if shape in ("count", "void"):
        element = n if shape == "count" else RVar("_")
        step = [(">", n, 0), ("is", m, ("-", n, 1)), ("lp", m, r)]
        return [(("lp", 0, "[]"), []), (("lp", n, (".", element, r)), step)]
    if shape in ("atoms", "codes", "others"):
        first, second = {"atoms": ("b", "a"), "codes": (0, 1), "others": ("a", n)}[shape]
        clauses = [(("lq", first, "[]"), []), (("lq", second, (".", x, t)), [("lq", x, t)])]
        if shape == "codes":  # an atom's loop whose call's first argument is an integer
            clauses.append((("lq", "a", (".", x, t)), [("is", m, ("-", x, 1)), ("lq", m, t)]))
        return clauses
    step = [(">", n, 0), ("is", m, ("-", n, 1))]
    if shape == "twice":
        return [(("lq", 0, 0, "[]"), []), (("lq", n, n, (".", n, r)), [*step, ("lq", m, m, r)])]
    if shape == "checked":
        return [(("lq", 0, "[]"), []), (("lq", n, (".", n, r)), [("nonvar", n), *step, ("lq", m, r)])]
    return [(("lq", 0, RVar("_"), "[]"), []), (("lq", n, m, (".", n, r)), [*step, ("lq", m, RVar("_"), r)])]


def loop_query(rng, gen, shape, serial):
    """A call of lp: an input list, maybe open, or a count, maybe no
    integer; the output a variable, a partial list or a list."""

    def var():
        return RVar(f"Q{next(serial)}")

    def items(n, tail):
        for _ in range(n):
            tail = (".", gen.term([var()], 1), tail)
        return tail

    roll = rng.random()
    out = var() if roll < 0.6 else items(rng.randint(1, 2), var()) if roll < 0.8 else items(rng.randint(0, 4), "[]")
    if shape == "app":
        return ("lp", items(rng.randint(0, 5), var() if rng.random() < 0.3 else "[]"), gen.term([var()], 1), out)
    if shape in ("count", "void"):
        return ("lp", rng.choice([-1, 0, 1, 2, 3, 5, "a", var()]), out)
    if shape in ("atoms", "codes", "others"):
        # mostly the states the clauses know, the last mostly their end
        states = {"atoms": ["a", "a", "b"], "codes": [1, 1, "a", 2, 0], "others": ["b", 1, ("f", "a"), "a"]}[shape]
        pick = [*states, "c", var()]
        tail = var() if rng.random() < 0.3 else "[]"
        run = [rng.choice(pick) for _ in range(rng.randint(0, 5))]
        for state in reversed(run + [states[-1]] * (rng.random() < 0.7)):
            tail = (".", state, tail)
        return ("lq", rng.choice(pick), tail)
    n = rng.choice([-1, 0, 1, 2, 3, 5, "a", var()])
    if shape == "checked":
        return ("lq", n, out)
    if shape == "twice":
        return ("lq", n, rng.choice([n, n, 2, var()]) if type(n) is not RVar else var(), out)
    return ("lq", n, rng.choice([var(), var(), 1, 2]), out)


def judged_queries(seed, constructs=False, integers=False):
    """A seeded program, and each of its queries the reference judges with
    what it answers. Each program also holds lp, a self-looping predicate
    of one of LOOP_SHAPES, and two more queries call it; they draw from a
    random sequence of their own, so the other queries are as they were.
    So do lq, of one of the other shapes, and its two queries."""
    rng = random.Random(seed)
    gen = IntegerGen(rng) if integers else Gen(rng, constructs)
    keys, program = gen.program()
    goals = []
    for i in range(4):
        name, arity = rng.choice(keys[-2:])
        # no variable shared between arguments: a head such as p(X,f(X))
        # would otherwise often build a cyclic term
        goals.append((name, *(gen.term([RVar(f"Q{j}")]) for j in range(arity))))
    shape = LOOP_SHAPES[seed % LP_SHAPES]
    program[("lp", 3 if shape == "app" else 2)] = looping(shape)
    gen.rng = random.Random(f"lp:{seed}")
    goals += [loop_query(gen.rng, gen, shape, itertools.count()) for _ in range(2)]
    gen.rng = random.Random(f"lq:{seed}")
    shape = gen.rng.choice(LOOP_SHAPES[LP_SHAPES:])
    program[("lq", 3 if shape in ("twice", "given") else 2)] = looping(shape)
    goals += [loop_query(gen.rng, gen, shape, itertools.count()) for _ in range(2)]
    judged, skipped = [], 0
    for goal in goals:
        try:
            want, fault = Reference(program).answers(goal)
        except Skip:
            skipped += 1
            continue
        judged.append((goal, ([canonical(a) for a in want], fault)))
    return program, judged, skipped


def check_block(block, monkeypatch, constructs=False, integers=False, through_lookup=False):
    """Check the seeds of block against the reference, with the prelude
    loaded where the programs call its constructs, and through_lookup
    with Database.lookup wrapped."""
    checked = skipped = 0
    budgets = (machine._ENTRY_LINES, 40)
    calls = bounded_steps(monkeypatch, through_lookup)
    assert (machine.Database.lookup is machine._LOOKUP) is not through_lookup
    for seed in range(block, 320, 8):
        program, judged, n = judged_queries(seed, constructs, integers)
        skipped += n
        checked += len(judged)
        for budget in budgets:
            monkeypatch.setattr(machine, "_ENTRY_LINES", budget)
            s = Session(text=program_text(program), prelude=constructs)
            for goal, want in judged:
                calls[0] = 0
                assert hornlog_answers(s, goal) == want, f"seed {seed}, budget {budget}, goal {text(goal)}\n{program_text(program)}"
    # the reference judges most queries it is given
    assert skipped < checked // 3, (checked, skipped)


@pytest.mark.parametrize("block", range(8))
def test_hornlog_answers_as_the_reference_solver_does(block, monkeypatch):
    check_block(block, monkeypatch)


@pytest.mark.parametrize("block", range(8))
def test_findall_if_and_not_answer_as_the_reference_solver_does(block, monkeypatch):
    check_block(block, monkeypatch, constructs=True)


@pytest.mark.parametrize("block", range(8))
def test_integer_guards_answer_as_the_reference_solver_does(block, monkeypatch):
    check_block(block, monkeypatch, integers=True)


@pytest.mark.parametrize("block", range(8))
def test_hornlog_answers_as_the_reference_solver_does_through_lookup(block, monkeypatch):
    check_block(block, monkeypatch, through_lookup=True)


@pytest.mark.parametrize("block", range(8))
def test_integer_guards_answer_as_the_reference_solver_does_through_lookup(block, monkeypatch):
    check_block(block, monkeypatch, integers=True, through_lookup=True)
