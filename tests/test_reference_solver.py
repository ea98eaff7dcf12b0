"""Seeded random programs answered by hornlog and by a naive SLD solver.

The reference below shares no code with the machine: terms are Python
values (str atoms, int integers, RVar variables, (functor, *args) tuples),
substitutions are dicts copied on each binding, and resolution is a
recursive generator. hornlog must give the same answers, in the same order
and number, with the same bindings up to variable renaming, and fault with
the same kind at the same point. Each program runs twice: at the default
entry budget, and with the budget so low that every list of two or more
clauses is tried through a chain of entries, so choice points re-enter
mid-chain.
"""

from __future__ import annotations

import random

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
    cyclic term, or the search goes too deep or takes too many steps."""


GUARDS = {"=", "==", "\\==", "var", "nonvar", "is", "<", "=:="}
MAX_DEPTH = 200
MAX_STEPS = 4000
LIMIT = 12  # answers compared per query


def walk(t, s):
    while type(t) is RVar and t in s:
        t = s[t]
    return t


def occurs(v, t, s) -> bool:
    work = [t]
    while work:
        t = walk(work.pop(), s)
        if t is v:
            return True
        if type(t) is tuple:
            work.extend(t[1:])
    return False


def unify(a, b, s):
    """A new substitution that unifies a and b under s, or None."""
    s = dict(s)
    work = [(a, b)]
    while work:
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
    return s


def resolved(t, s):
    t = walk(t, s)
    if type(t) is tuple:
        return (t[0], *(resolved(a, s) for a in t[1:]))
    return t


def evaluate(t, s) -> int:
    t = walk(t, s)
    if type(t) is int:
        return t
    if type(t) is RVar:
        raise Fault("instantiation_error")
    if type(t) is tuple and len(t) == 3:  # its operands first, then its operator
        a, b = evaluate(t[1], s), evaluate(t[2], s)
        if t[0] in ("+", "-"):
            return a + b if t[0] == "+" else a - b
    raise Fault("type_error")


class Reference:
    def __init__(self, program):
        self.program = program  # (name, arity) -> [(head, body)]
        self.steps = 0

    def rename(self, clause):
        fresh: dict = {}

        def copy(t):
            if type(t) is RVar:
                return fresh.setdefault(t, RVar(t.name))
            if type(t) is tuple:
                return (t[0], *(copy(a) for a in t[1:]))
            return t

        head, body = clause
        return copy(head), [copy(g) for g in body]

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
        return s if (a < b if name == "<" else a == b) else None

    def answers(self, goal):
        """Up to LIMIT resolved instances of goal, and the fault kind that
        ended the search early, or None."""
        self.steps = 0
        out = []
        try:
            for s in self.solve((goal, object(), None), {}, 0):
                out.append(resolved(goal, s))
                if len(out) == LIMIT:
                    break
        except Fault as f:
            return out, f.kind
        return out, None


# -- random programs -------------------------------------------------------------


class Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def term(self, pool, depth=2):
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.6:
            return rng.choice(pool) if roll < 0.35 else rng.choice(["a", "b", "[]", 0, 1])
        if roll < 0.8:
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

    def goal(self, pool, lower):
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            if lower:
                name, arity = rng.choice(lower)
                return (name, *(rng.choice(pool) if rng.random() < 0.6 else self.term(pool, 1) for _ in range(arity)))
        elif roll < 0.5:
            return "!"
        elif roll < 0.52:
            return rng.choice(["true", "fail"])
        op = rng.choice(["=", "=", "==", "\\==", "var", "nonvar", "is", "<", "=:="])
        if op in ("var", "nonvar"):
            return (op, rng.choice(pool))
        if op == "is":
            return (op, rng.choice(pool), self.expr(pool))
        if op in ("<", "=:="):
            return (op, self.expr(pool), self.expr(pool))
        v = rng.choice(pool)
        # the other side holds no v, so that = builds no cyclic term
        return (op, v, self.term([w for w in pool if w is not v] or ["a"], 1))

    def clause(self, key, lower):
        rng = self.rng
        name, arity = key
        pool = [RVar(f"V{i}") for i in range(rng.randint(1, 4))]
        args = [self.term(pool) for _ in range(arity)]
        body = [self.goal(pool, lower) for _ in range(rng.randint(0, 3))]
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


def bounded_steps(monkeypatch) -> list[int]:
    """Make Database.lookup and ClauseCP.retry raise Runaway once the count
    in the returned cell passes 50,000; a test resets it before each query."""
    calls = [0]

    def bounded(real):
        def step(*args):
            calls[0] += 1
            if calls[0] > 50_000:
                raise Runaway
            return real(*args)

        return step

    monkeypatch.setattr(machine.Database, "lookup", bounded(machine.Database.lookup))
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
    assert len(lines) <= 1, lines
    return got, lines[0].split(": ")[1] if lines else None


def judged_queries(seed):
    """A seeded program, and each of its queries the reference judges with
    what it answers."""
    rng = random.Random(seed)
    gen = Gen(rng)
    keys, program = gen.program()
    judged, skipped = [], 0
    for i in range(4):
        name, arity = rng.choice(keys[-2:])
        # no variable shared between arguments: a head such as p(X,f(X))
        # would otherwise often build a cyclic term
        goal = (name, *(gen.term([RVar(f"Q{j}")]) for j in range(arity)))
        try:
            want, fault = Reference(program).answers(goal)
        except Skip:
            skipped += 1
            continue
        judged.append((goal, ([canonical(a) for a in want], fault)))
    return program, judged, skipped


@pytest.mark.parametrize("block", range(8))
def test_hornlog_answers_as_the_reference_solver_does(block, monkeypatch):
    checked = skipped = 0
    budgets = (machine._ENTRY_LINES, 40)
    calls = bounded_steps(monkeypatch)
    for seed in range(block, 320, 8):
        program, judged, n = judged_queries(seed)
        skipped += n
        checked += len(judged)
        for budget in budgets:
            monkeypatch.setattr(machine, "_ENTRY_LINES", budget)
            s = Session(text=program_text(program), prelude=False)
            for goal, want in judged:
                calls[0] = 0
                assert hornlog_answers(s, goal) == want, f"seed {seed}, budget {budget}, goal {text(goal)}\n{program_text(program)}"
    # the reference judges most queries it is given
    assert skipped < checked // 3, (checked, skipped)
