"""Stepwise Horn-clause interpreter with explicit stacks.

A Machine runs left-to-right, depth-first resolution over a frozen clause
database. Its goal stack is a persistent cons chain and its choice points
live in an explicit list, so a run can pause at any answer or yield and be
resumed later exactly where it stopped. Nothing recurses on the host stack
per resolution step; deep deterministic recursion therefore runs in
constant space (old goal cells become garbage as soon as no choice point
references them).

A compiled clause belongs to no database: each call in its body names its
name/arity key, so one Clause serves every session that loads it. A call
is bound to its session's record (Pred) of that key when the code of a
list of candidate clauses is generated, as the WAM binds a call when its
code is loaded, so a goal on the stack is a (record, argument tuple) pair,
with no goal term built and no key or table lookup per call. Every record
carries an entry with the builtin signature fn(machine, args, rest), and
running a goal is one call of its record's entry: a builtin, the clause
entry of a predicate with clauses, or an entry that faults
unknown_predicate. The machine's own steps are goals of process-wide
internal records: a body cut carries the height the choice-point stack
had when its call was entered, the goal below a query's goal hands out
its answer, and an answered machine is left a fail goal, so resuming it
backtracks into its choice points.

Clauses are tried by generated Python code, in the spirit of the WAM's
get/unify/put instructions and its try_me_else/retry_me_else/trust_me
sequences: each list of candidate clauses the first-argument index can
select gets one function, its entry, with the candidates' code inline, in
order. It unifies each head with the goal's arguments, with a test
specialised to each head node, and pushes the body onto the goal chain. A
clause has no other code: the entry is the only place it runs. A clause's
neck is after the leading calls in its body of builtins that can only
succeed, fail or fault (=, is, var, the arithmetic comparisons and the
like, and new_engine, to_engine and from_engine, which boot an engine or
pass it a copy but never resume one), and an entry backtracks shallowly
up to it: it tries each candidate's head and then those guards, undoing a
candidate that fails either, and makes a choice point only when a
candidate passes its neck with candidates left; the last candidate runs
without one. A choice point takes its call up again by running the same
entry from its cursor, as retry_me_else and trust_me enter one code
sequence per procedure. So if/3, catch/3 and findall/3 boot their engine
in their entry, and only its get returns to the run loop.

A guard is a call of its record's fn, except that the six arithmetic
comparisons, and is/2 with a variable or an integer on its left, compile
to Python integer arithmetic in the entry, as Aquarius compiles
arithmetic to native operations, where the record's fn is the builtin
itself and the expressions are made of integers, the clause's variables
that hold a value and binary + - * and unary -. One test that each
variable's value is an integer guards that code; an operand that is not
runs the guard's call instead, so answers and faults are the call's. A
record whose fn is another function, such as the benchmark tracer's
wrapper of a builtin, keeps the call, so every guard it counts is still
one call.

When a candidate's body starts past its neck with a call of a predicate
with clauses, the entry selects the callee's list as Database.lookup
would, as the WAM's execute jumps to switch_on_term: a constant for an
atom, integer or compound first argument, else one dereference and one
read of the callee's index. It hands the list, the call's arguments and
the rest of the body back to the record's fn, which runs that list's entry
in the same loop, after a choice point if candidates are left; the last
candidate's call of its own record goes round the entry's own loop while
it selects the same list, which it tests the call's first argument for
before it reads the callee's index. So app/3 over a list, member/2's
scan, or a chain of calls p to q to r, is one call of fn. Where that
list makes no choice point, the loop keeps the head's arguments in
locals and builds an argument tuple only to hand on; where the clause's
output is a list whose tail it passes to its call, as app/3's [H|R], the
loop collects each round's element and builds the cells once, innermost
first, as tail recursion modulo cons does: no Var, tuple or binding per
round. Where Database.lookup is not the method defined here, as where
the benchmark's tracer wraps it to count predicate calls, each selection
asks it instead, once per call, and a loop takes none of those
shortcuts. A list too long for one entry of _ENTRY_LINES lines is tried
through a chain of entries, each handing the call on in the same way.

Code is generated the first time it is run, so loading a program compiles
nothing and a predicate never called costs nothing. Its source names every
term and record as a parameter default bound when the code is made, and
its code name is only its predicate's, so what it compiles to is kept for
the process in a least-recently-used cache of 512 sources: another session
over the same program, or another link of a chain over same-shape clauses,
compiles nothing.

resume returns the client's answer itself, as the paper's get returns
the(X) or no: The(copy) for an answer, a Yielded, which is a The, for a
return/1, and NO once the machine is exhausted or dead. A fault is one
MachineError: a builtin raises it, and resume kills the machine and
returns the same instance, which get turns into NO. A machine's mailbox,
the copies deposited for from_engine, is made with the machine.

Bindings are trailed conditionally: a variable younger than the newest
choice point would die with the backtrack anyway, so it is not recorded.
With no choice points at all nothing is trailed, and a cut drops the
entries no remaining choice point can undo, which is what keeps infinite
server loops memory-flat.
"""

from __future__ import annotations

import functools
import math
import operator
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
# what Machine.resume returns, and what get hands its client


class The:
    """An answer, holding a standalone copy of an instance of the machine's
    answer pattern. resume returns it and get hands the same object on."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"{type(self).__name__}({self.value!r})"


class Yielded(The):
    """A copy of the term a return/1 handed out; its client gets it as an
    answer."""

    __slots__ = ()


class Exhausted:
    __slots__ = ()

    def __repr__(self):
        return "NO"


NO = Exhausted()  # the end: of an engine's answers, or of a dead engine

# bench/tracing.py counts answer events under this name
AnswerReady = The


class MachineError(Exception):
    """A runtime fault: what went wrong (kind) and the term at fault
    (culprit). A builtin raises it; resume kills the machine and returns
    the same instance as the fault event, without its traceback, so the
    event keeps no frame of the run alive."""

    def __init__(self, kind, culprit):
        super().__init__(kind)
        self.kind = kind
        self.culprit = culprit

    def __repr__(self):
        return f"MachineError({self.kind}, {self.culprit!r})"


# ---------------------------------------------------------------------------
# clause compilation


class VarSlot:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


class Clause:
    """A clause as compiled: its predicate's key, head-argument and body
    templates, and where it was read (source, line), or None.

    Templates are ordinary terms except that variables are VarSlot markers
    and any compound containing one is a (functor, args) pair. Ground
    subterms are shared, never rebuilt. Each body goal is (key, args): the
    key it calls, or the internal record _CUT or _METACALL, and its argument
    templates. A cut has args None: it is pushed with its call's barrier.

    A clause belongs to no database, so many hold the same Clause. It runs
    only inside the entry of a Candidates that holds it, which matches its
    head, runs its neck's guards inline and calls that database's records.
    """

    __slots__ = ("key", "args", "body", "origin")

    def __init__(self, key, args, body, origin=None):
        self.key = key
        self.args = args
        self.body = body
        self.origin = origin


@functools.lru_cache(maxsize=512)
def _make(name: str, text: str):
    """The make function that source text compiles to under code name
    name: code only, no term, record or session, so a dropped session is
    freed as before."""
    ns: dict = {}
    # unify and the rest are read from this module
    exec(compile(text, name, "exec", dont_inherit=True), globals(), ns)
    return ns["make"]


new = object.__new__  # generated code makes a Struct without running __init__


class _OverBudget(Exception):
    """Raised by _Source.emit past its line limit."""


class _Source:
    """Generated source: a function make(k0, k1, ...) that defines a
    function run(params) and returns it, and the values to call make with.

    Every term and record reaches the function as k<n>, a default of run's
    parameters that make binds: a made function is one object and its
    defaults tuple, with no cell per value. The source names nothing else
    but numbered temporaries, its own locals and this module's globals, so
    no clause text can end up in it. emit raises _OverBudget once the body
    passes limit lines, if one is set."""

    def __init__(self, params: str, limit: int | None = None):
        self.params = params
        self.limit = limit
        self.lines: list[str] = []
        self.consts: dict[int, tuple[str, object]] = {}  # id -> (name, value)

    def text(self) -> str:
        names = [name for name, _ in self.consts.values()]
        params = ", ".join([self.params, *(f"{k}={k}" for k in names)])
        return "\n".join([f"def make({', '.join(names)}):", f"    def run({params}):", *self.lines, "    return run", ""])

    def values(self) -> list:
        return [value for _, value in self.consts.values()]

    def const(self, value) -> str:
        entry = self.consts.get(id(value))
        if entry is None:
            entry = self.consts[id(value)] = (f"k{len(self.consts)}", value)
        return entry[0]

    def emit(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)
        if self.limit is not None and len(self.lines) > self.limit:
            raise _OverBudget


class _ClauseCode:
    """One clause's head match and body pushes, written into a _Source at
    an indent, with fail as the statement a failed match runs.

    Each template node adds a few lines, nested at most three blocks deep
    below the indent whatever the depth of its term, so the source is
    linear in the clause and meets none of the compiler's nesting limits.

    The head is matched in one pre-order walk, which also decides where
    each slot occurs first: where the walk first unpacks it, as the WAM
    emits get_variable for the first occurrence its instruction order
    meets. The head's own arguments are unpacked first, then each
    compound's arguments as the walk opens it, so an argument comes before
    its subterms: q([X|_],X) takes X from its second argument and builds
    [X|_] around it. A compound's goal subterm is checked and its arguments
    are unpacked into the temporaries of the steps below it. Where that
    subterm is an unbound variable, or the compound lies inside one being
    built, the compound is built instead: its arguments' first slot
    occurrences get new variables, the steps below it see None and skip,
    and a closing step after them makes the Struct and binds the goal
    variable to it. Once the head is done, assigned holds exactly its
    slots, and the body makes the others where it first meets them.

    In a register loop (see Candidates) the head's argument names are the
    loop's registers, unpacked before it, and the clause's call of itself
    sets them at the bottom of each round. In a fused one the output
    argument's match runs only while out is None, and each call the
    clause makes, a guard's or a fallback's, builds the collected cells
    first (flush).
    """

    def __init__(
        self,
        src: _Source,
        cl: Clause,
        db: "Database",
        indent: int,
        fail: str,
        keyed: bool = False,
        loop: bool = False,
    ):
        self.src = src
        self.const = src.const
        self.preds = db._preds
        self.indent = indent
        self.fail = fail
        self.ntemps = 0
        self.built: dict[int, str] = {}  # id of a compound template -> its Struct's name
        self.assigned: set[int] = set()  # slots that hold a value
        self.derefs: dict[int, str] = {}  # slot index -> its dereferenced value's temporary
        self.ints: set[int] = set()  # slots whose temporary in derefs holds an Int
        self.registers: list | None = None  # a register loop's head argument names, None: not one
        self.inline = type(db).lookup is _LOOKUP  # else select() asks the lookup put in its place
        # a fused loop's output argument, as _output() gives it; only inline
        self.output = _output(cl, db._preds, keyed) if loop and self.inline else None
        self.head(cl.args, keyed, loop)

    def emit(self, depth: int, line: str) -> None:
        self.src.emit(self.indent + depth, line)

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

    def unpacked(self, tpls):
        """Names to unpack a compound's goal arguments into, the slots that
        occur first there, and the (name, template) of each argument that
        needs a step: a slot's first occurrence just takes its subterm. A
        slot is first where it is first unpacked, and it is marked as
        holding a value here: the caller assigns it before any step."""
        names, firsts, steps = [], [], []
        assigned = self.assigned
        for t in tpls:
            if type(t) is VarSlot and t.index not in assigned:
                assigned.add(t.index)
                names.append(f"v{t.index}")
                firsts.append(names[-1])
            else:
                self.ntemps += 1
                names.append(f"a{self.ntemps}")
                steps.append((names[-1], t))
        return names, firsts, steps

    def head(self, tpls, keyed: bool, loop: bool) -> None:
        """keyed: the goal's first argument is bound to a term with the key
        of tpls[0], when that is not a slot, as lookup selected it: the
        same atom, an integer of the same value, or a compound of the same
        functor and arity; so that test is left out. It relies on freeze
        keying templates as lookup keys terms; leaving the test out
        measured 3-4% of resolve's ops_per_s.

        loop: the head's arguments are unpacked once, before the register
        loop's while True, and registers names them. A fused output's
        match runs while out is None; otherwise the round only collects
        its cell's element."""
        names, _, steps = self.unpacked(tpls)
        if names:
            self.emit(-1 if loop else 0, f"{', '.join(names)}, = args")
        if loop:
            self.registers = names
            if self.output:
                self.emit(-1, "out = None")
            self.emit(-1, "while True:")
        # (temporary, template, holds a goal subterm, is a closing step):
        # the temporary of a step that does not hold one may be None
        work = [(name, t, True, False) for name, t in reversed(steps)]
        if keyed and type(tpls[0]) in (Atom, Int, tuple):
            # an atom or an integer matches already; a compound has its
            # functor and arity
            name, t, _, _ = work.pop()
            if type(t) is tuple:
                self.emit(0, f"while type({name}) is Var:")
                self.emit(1, f"{name} = {name}.ref")
                names, _, steps = self.unpacked(t[1])
                self.emit(0, f"{', '.join(names)}, = {name}.args")
                work.extend((n, a, True, False) for n, a in reversed(steps))
            elif loop:
                self.registers[0] = None  # never read
        if self.output:  # the output's are the only steps left
            self.emit(0, "if out is None:")
            self.indent += 1
        while work:
            name, t, root, closing = work.pop()
            if closing:
                self.emit(0, f"if type({name}) is not Struct:")
                b = self.struct(1, t)
                if not root:
                    self.emit(1, f"if {name} is not None:")
                self.bind(1 if root else 2, name, b)
                if self.output and t is self.output[1]:  # the goal's output is this cell: collect the rest
                    self.emit(1, f"out, cells = v{self.output[2].index}, []")
                continue
            live = "" if root else f"{name} is not None and "  # None: inside a built compound
            if type(t) is VarSlot:  # a later occurrence
                self.emit(0, f"if {live}not unify(v{t.index}, {name}, trail):")
                self.emit(1, self.fail)
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
            self.emit(1, self.fail)
        if self.output:
            _, (_, (element, _)), _, void = self.output
            if void:
                element = "Var()"
            else:
                element = f"v{element.index}" if type(element) is VarSlot else self.const(element)
            self.indent -= 1
            self.emit(0, "else:")
            self.emit(1, f"cells.append({element})")

    def open(self, name: str, t, root: bool) -> list:
        """A compound's check: unpack a matching goal subterm, or start
        building where the subterm is an unbound variable or None. Returns
        the steps of its arguments."""
        functor, targs = t
        names, firsts, steps = self.unpacked(targs)
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
        self.emit(0, "else:")
        self.emit(1, self.fail)
        return steps

    # -- body ----------------------------------------------------------------

    def guards(self, goals) -> int:
        """Emit each of goals' leading guards, which runs fail when it
        fails, and return how many there are. A guard over integer
        arithmetic is compiled inline where arithmetic() can; any other is
        a call of its record's fn."""
        n = _neck(goals)
        for key, args in goals[:n]:
            fn = self.preds[key].fn
            if not self.arithmetic(fn, args):
                self.call(fn, args)
        return n

    def call(self, fn, args) -> None:
        """Emit a call of fn that runs fail when it fails. In a fused loop
        the cells collected so far are built first, as the call may read
        them."""
        self.flush(0)
        self.emit(0, f"if not {self.const(fn)}(m, {self.arguments(args)}, rest):")
        self.emit(1, self.fail)

    def flush(self, depth: int) -> None:
        """In a fused loop, emit the statements that build the cells
        collected, if any, and bind the variable out to them; the output's
        tail slot then holds the new variable that ends them."""
        if self.output:
            _, (functor, _), tail, _ = self.output
            self.emit(depth, "if out is not None:")
            self.emit(depth + 1, f"v{tail.index} = _cons(out, cells, {self.const(functor)}, trail)")
            self.emit(depth + 1, "out = None")

    def arithmetic(self, fn, args) -> bool:
        """Emit a guard whose record's fn is is/2's or a comparison's own
        builtin as Python integer arithmetic where _inline() allows it;
        return whether it did. A record whose fn is another function, such
        as a tracer's wrapper, keeps its call.

        Each slot of the expressions is dereferenced into a temporary once
        in the clause (deref), and one test that every such value is an Int
        guards the arithmetic.
        is/2 gives a slot that holds no value yet its Int directly, with no
        Var, Struct, argument tuple, eval_arith or unify, and that Int is
        the slot's dereferenced temporary too; a slot that holds one is
        unified with that Int, and an integer left side is compared with
        it, as unify compares two integers. When the test fails, a
        non-integer or unbound operand, the guard's call runs instead: the
        same call that the guard compiles to when it is not inlined, so
        every answer and fault is as that call gives it."""
        if not _inline(fn, args, self.assigned):
            return False
        op = _ARITH_GUARDS[fn]
        target = args[0] if fn is _bi_is and type(args[0]) is VarSlot else None
        leaves: dict[int, str] = {}  # slot index -> its dereferenced value's temporary
        steps: list[str] = []
        texts = [self.integral(t, leaves, steps) for t in (args if target is None else args[1:])]
        for index, name in leaves.items():
            self.deref(index, name)
        depth = 0
        if leaves:
            self.emit(0, f"if {' and '.join(f'type({name}) is Int' for name in leaves.values())}:")
            depth = 1
        for step in steps:
            self.emit(depth, step)
        if target is None:
            self.emit(depth, f"if not ({texts[0]} {op} {texts[1]}):")
            self.emit(depth + 1, self.fail)
        elif target.index in self.assigned:
            self.emit(depth, f"if not unify(v{target.index}, Int({texts[0]}), trail):")
            self.emit(depth + 1, self.fail)
            target = None
        else:
            self.ntemps += 1
            value = self.derefs[target.index] = f"a{self.ntemps}"
            self.ints.add(target.index)
            self.emit(depth, f"v{target.index} = {value} = Int({texts[0]})")
        if leaves:
            self.emit(0, "else:")
            self.indent += 1
            self.call(fn, args)
            if target is not None:  # bound to an Int by the call
                self.emit(0, f"{value} = v{target.index}")
                self.emit(0, f"while type({value}) is Var:")
                self.emit(1, f"{value} = {value}.ref")
            self.indent -= 1
        if fn is _bi_is and type(args[0]) is VarSlot:
            self.assigned.add(args[0].index)
        return True

    def deref(self, index: int, name: str | None = None) -> str:
        """The temporary, name if given, that holds slot index's value
        dereferenced (None if unbound), emitted on the slot's first use:
        a bound value never changes, and a guard that finds None faults."""
        if index not in self.derefs:
            if name is None:
                self.ntemps += 1
                name = f"a{self.ntemps}"
            self.derefs[index] = name
            self.emit(0, f"{name} = v{index}")
            self.emit(0, f"while type({name}) is Var:")  # an unbound variable ends at None
            self.emit(1, f"{name} = {name}.ref")
        return self.derefs[index]

    def integral(self, tpl, leaves: dict[int, str], steps: list[str]) -> str:
        """The Python text of integer expression template tpl, which
        _integral() accepts. A slot's text reads the value of its
        temporary in leaves: its deref's if it has one, else a new name.
        Each operator below the root goes into steps as a statement that
        computes it into a temporary of its own, so the text nests no
        operator in another, whatever the depth of tpl; the walk uses an
        explicit stack too."""
        texts: list[str] = []
        work: list = [(tpl, None)]
        while work:
            t, op = work.pop()
            if op is not None:  # t is an operator's arity; its operands' texts are on top
                operands = texts[-t:]
                del texts[-t:]
                text = f"-{operands[0]}" if t == 1 else f"{operands[0]} {op} {operands[1]}"
                if work:  # the root's own entry is the last one popped
                    self.ntemps += 1
                    steps.append(f"a{self.ntemps} = {text}")
                    text = f"a{self.ntemps}"
                texts.append(text)
            elif type(t) is Int:
                texts.append(self.const(t.value))
            elif type(t) is VarSlot:
                name = leaves.get(t.index) or self.derefs.get(t.index)
                if name is None:
                    self.ntemps += 1
                    name = f"a{self.ntemps}"
                leaves[t.index] = name
                texts.append(f"{name}.value")
            else:
                functor, targs = t if type(t) is tuple else (t.functor, t.args)
                op = _INLINE_OPS[functor] if len(targs) == 2 else "-"
                work.append((len(targs), op))
                work.extend((a, None) for a in reversed(targs))
        return texts[0]

    def proceed(self, goals, push: str | None, own: Candidates | None) -> None:
        """Emit the clause's goals past its neck: push, its ClauseCP if
        any, once the body is built, so a body cut gets the height before
        it; then the goals pushed as the machine's, or a first call of a
        ClausePred handed on as (its list, args, rest of the body), or,
        where own is given, the bottom of own's loop (repeat)."""
        callee = self.preds.get(goals[0][0]) if goals else None  # _CUT and _METACALL are no keys
        if type(callee) is not ClausePred:
            chain = self.body(goals)
            if push:
                self.emit(0, push)
            self.emit(0, f"m.goals = {chain}")
            self.emit(0, "return None")
            return
        args = goals[0][1]
        # a slot the head and guards left unassigned is a new variable
        fresh = not args or type(args[0]) is VarSlot and args[0].index not in self.assigned
        tpl = None if fresh else args[0]
        select = self.select(callee, tpl)
        chain = self.body(goals[1:])
        if own is not None:
            self.repeat(callee, args, tpl, select, chain, own)
            return
        call = self.arguments(args)
        if push:
            self.emit(0, push)
        self.emit(0, f"args = {call}")
        self.emit(0, f"return {select}, args, {chain}")

    def repeat(self, callee: Pred, args, tpl, select: str, chain: str, own: Candidates) -> None:
        """Emit the bottom of a loop, whose call is of own's record: while
        the call selects own, set the next round's input from its
        arguments, the head's registers or else args, and go round; else
        build the argument tuple and hand on. Inline, a constant selection
        takes no test, a call whose first argument has own's key goes
        round before the callee's table is read, and a fused loop builds
        its cells before any other selection, which may read them. args is
        built before a selection where it or the next round reads it."""
        if chain != "rest":
            self.emit(0, f"rest = {chain}")
        values = [self.build(a) for a in args]
        call = self.const(args) if _ground(args) else f"({', '.join(values)},)"
        first = tpl if self.inline and type(tpl) is VarSlot and callee.index is not None else None
        if self.inline and first is None and select == self.const(own):  # a constant selection of own
            self.reassign(0, values)
            self.emit(0, "continue")
            return
        # whether the call may still select own; whether out may have been its value
        again, moved = not self.inline, False  # inline, a constant selection is another list
        if first is not None:
            t = self.deref(first.index)
            test = self.owns(callee, own, first.index)
            if test:
                self.emit(0, f"if {test}:")
                self.reassign(1, [t, *values[1:]])
                self.emit(1, "continue")
            moved = bool(self.output) and first.index not in self.ints
            again = not test or moved
        self.flush(0)
        if again and moved:
            self.emit(1, f"{t} = v{first.index}")
            self.emit(1, f"while type({t}) is Var:")
            self.emit(2, f"{t} = {t}.ref")
        early = not again or not self.inline or self.registers is None  # args is read at once
        if early:
            self.emit(0, f"args = {call}")
        if not again:
            self.emit(0, f"return {select}, args, rest")
            return
        self.emit(0, f"candidates = {select}")
        self.emit(0, f"if candidates is not {self.const(own)}:")
        if not early:
            self.emit(1, f"args = {call}")
        self.emit(1, "return candidates, args, rest")
        if self.registers is not None:
            self.reassign(0, values)

    def reassign(self, depth: int, values: list[str]) -> None:
        """Emit the statement that sets the next round's input to values:
        each register read, or args where the loop has no registers."""
        if self.registers is None:
            self.emit(depth, f"args = ({', '.join(values)},)")
            return
        pairs = [(r, v) for r, v in zip(self.registers, values) if r is not None and r != v]
        if pairs:
            self.emit(depth, f"{', '.join(r for r, _ in pairs)} = {', '.join(v for _, v in pairs)}")

    def owns(self, callee: Pred, own: Candidates, index: int) -> str | None:
        """The test that slot index's dereferenced value selects own from
        callee's index: it has own's key, or, for the list of the keys the
        table lacks, a key the table lacks. None where no value can, or
        only an unbound one."""
        table, unkeyed = callee.index
        t = self.derefs[index]
        known = index in self.ints  # an Int
        if own is unkeyed:
            if known:
                return f"{t}.value not in {self.const(table)}"
            return f"{t} is not None and ({self.key_of(t)}) not in {self.const(table)}"
        key = next((k for k, c in table.items() if c is own), None)
        if type(key) is int:
            return f"{'' if known else f'type({t}) is Int and '}{t}.value == {self.const(key)}"
        if known or key is None:  # never own, or own for an unbound argument only
            return None
        if type(key) is tuple:
            return f"type({t}) is Struct and {t}.functor is {self.const(key[0])} and len({t}.args) == {key[1]}"
        return f"{t} is {self.const(key)}"

    def select(self, callee: Pred, tpl) -> str:
        """The expression of the list lookup selects for a call of callee
        with first argument tpl (None: a new variable): inline, constant
        unless tpl is a slot; else the lookup's call, which reads args."""
        if not self.inline:
            return f"m.db.lookup({self.const(callee)}, args)"
        if callee.index is None or tpl is None:
            return self.const(callee.clauses)
        table, unkeyed = callee.index
        if type(tpl) is not VarSlot:
            return self.const(table.get(_key(tpl), unkeyed))
        t = self.deref(tpl.index)
        if tpl.index in self.ints:
            return f"{self.const(table)}.get({t}.value, {self.const(unkeyed)})"
        every = self.const(callee.clauses)
        return f"{every} if {t} is None else {self.const(table)}.get({self.key_of(t)}, {self.const(unkeyed)})"

    @staticmethod
    def key_of(t: str) -> str:
        """The expression of the index key of the bound value t names."""
        return f"({t}.functor, len({t}.args)) if type({t}) is Struct else {t}.value if type({t}) is Int else {t}"

    def body(self, goals) -> str:
        """Push goals onto rest from the last to the first, each with its
        record and argument tuple, and return the name of the chain; a slot
        the head did not bind gets a new variable where it is first met. A
        cut gets len(m.cps), its call's barrier, as ClauseCP tells."""
        chain = "rest"
        for pred, args in reversed(goals):
            if type(pred) is tuple:  # a key; never look _CUT or _METACALL up by theirs
                pred = self.preds[pred]
            if args is None:  # a cut carries its call's barrier
                goal = f"({self.const(pred)}, len(m.cps))"
            elif _ground(args):
                goal = self.const((pred, args))
            else:
                goal = f"({self.const(pred)}, {self.arguments(args)})"
            self.emit(0, f"g = {goal}, {chain}")
            chain = "g"
        return chain

    def arguments(self, args) -> str:
        """Emit the statements that build an argument tuple; return it."""
        if _ground(args):
            return self.const(args)
        return f"({', '.join(self.build(a) for a in args)},)"

    def build(self, tpl) -> str:
        """Emit the statements that build tpl and return its name, in one
        post-order walk: a slot gets a new variable where the walk first
        meets it, and each Struct is made once its compound arguments are."""
        assigned = self.assigned
        work = [(tpl, False)]
        while work:
            t, made = work.pop()
            if made:
                self.struct(0, t)
            elif type(t) is tuple:
                work.append((t, True))
                work.extend((a, False) for a in reversed(t[1]))
            elif type(t) is VarSlot and t.index not in assigned:
                assigned.add(t.index)
                self.emit(0, f"v{t.index} = Var()")
        if type(tpl) is VarSlot:
            return f"v{tpl.index}"
        return self.built[id(tpl)] if type(tpl) is tuple else self.const(tpl)


def _inline(fn, args, assigned) -> bool:
    """Whether a guard of fn over args compiles to integer arithmetic,
    given the slots that hold a value: fn is is/2's or a comparison's own
    builtin, is/2's left side is a slot or an integer, and each expression
    template passes _integral()."""
    if fn not in _ARITH_GUARDS:
        return False
    if fn is _bi_is and type(args[0]) is not Int:
        if type(args[0]) is not VarSlot:
            return False
        args = args[1:]
    return all(_integral(t, assigned) for t in args)


def _integral(tpl, assigned) -> bool:
    """Whether expression template tpl holds only integers, slots that
    hold a value, the binary operators of _INLINE_OPS and unary -."""
    work = [tpl]
    while work:
        t = work.pop()
        if type(t) is VarSlot:
            if t.index not in assigned:
                return False
        elif type(t) is tuple or type(t) is Struct:
            functor, targs = t if type(t) is tuple else (t.functor, t.args)
            if not (len(targs) == 2 and functor in _INLINE_OPS or len(targs) == 1 and functor is _MINUS):
                return False
            work.extend(targs)
        elif type(t) is not Int:
            return False
    return True


def _slots(tpls) -> list[int]:
    """The index of each slot occurrence in templates tpls, in no order."""
    out, work = [], list(tpls)
    while work:
        t = work.pop()
        if type(t) is VarSlot:
            out.append(t.index)
        elif type(t) is tuple:
            work.extend(t[1])
    return out


def _output(cl: Clause, preds, keyed: bool):
    """The output argument of a self-looping clause that a fused loop
    builds once, as (its position, its template, the template's tail slot,
    whether the cell's element is a slot of its own), or None.

    The argument is past the first, and its template is a binary compound
    whose second argument is a slot that occurs only there and as the same
    argument of the clause's call of itself past its neck. The element, the
    template's first argument, is a constant, a slot of another head
    argument, or a slot that occurs nowhere else. Each other head argument
    is a slot that occurs first there, or the keyed first argument, whose
    compound's arguments are such slots; so no head step but the output's
    reads a term. Each guard compiles inline with no unify: its is/2
    targets hold no value yet."""
    neck = _neck(cl.body)
    call = cl.body[neck][1]
    counts: dict[int, int] = {}
    for i in _slots([*cl.args, *(a for _, args in cl.body if args for a in args)]):
        counts[i] = counts.get(i, 0) + 1
    for j in range(1, len(cl.args)):
        t, tail = cl.args[j], call[j]
        if type(t) is tuple and len(t[1]) == 2 and t[1][1] is tail:
            if type(tail) is VarSlot and counts[tail.index] == 2:
                break
    else:
        return None
    held: set[int] = set()  # the slots the other head arguments unpack
    for i, a in enumerate(cl.args):
        if i == j:
            continue
        if type(a) is VarSlot:
            parts = [a]
        elif i == 0 and keyed and type(a) in (Atom, Int, tuple):
            parts = a[1] if type(a) is tuple else []
        else:
            return None
        for p in parts:
            if type(p) is not VarSlot or p.index in held:
                return None
            held.add(p.index)
    element = t[1][0]
    void = type(element) is VarSlot and counts[element.index] == 1
    if type(element) is tuple or type(element) is VarSlot and not void and element.index not in held:
        return None
    assigned = set(_slots(cl.args))
    for key, args in cl.body[:neck]:
        fn = preds[key].fn
        if not _inline(fn, args, assigned):
            return None
        if fn is _bi_is and type(args[0]) is VarSlot:
            if args[0].index in assigned:
                return None
            assigned.add(args[0].index)
    return j, t, tail, void


def _cons(out: Var, cells: list, functor: Atom, trail: Trail) -> Var:
    """Bind out to the chain of functor/2 compounds whose first arguments
    are cells, made innermost first so that each Struct is whole when made,
    and return the new variable that ends it; with no cells, out itself."""
    if not cells:
        return out
    end = tail = Var()
    for x in reversed(cells):
        cell = new(Struct)
        cell.functor = functor
        cell.args = x, tail
        tail = cell
    out.ref = tail
    if out.serial < trail.boundary:
        trail.entries.append(out)
    return end


def _ground(tpls) -> bool:
    return not any(type(t) is VarSlot or type(t) is tuple for t in tpls)


def _key(t):
    """The index key of a first-argument template that is not a slot, as
    Database.lookup keys a term: the atom itself, an integer's value, or a
    compound's functor and arity."""
    if type(t) is tuple:  # a compound holding a slot
        return t[0], len(t[1])
    if type(t) is Struct:
        return t.functor, len(t.args)
    return t.value if type(t) is Int else t


def _neck(goals) -> int:
    """How many of goals' leading calls are of guard builtins."""
    n = 0
    for key, _ in goals:
        if key not in _GUARDS:  # _CUT and _METACALL are records, never keys
            break
        n += 1
    return n


ATOM_CUT = Atom("!")


def compile_clause(head, body, origin=None) -> Clause:
    """Compile a clause to templates, each body call naming its key. Terms
    are walked with explicit stacks, so a clause may hold a list of any
    length the reader accepts. The head must be an atom or a compound."""
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
    elif type(head) is Atom:
        key = (head, 0)
        cargs = ()
    else:
        raise ValueError("clause head must be an atom or compound")
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
            goals.append(((b.functor, len(b.args)), t[1] if type(t) is tuple else b.args))
        elif tb is Atom:
            goals.append(((b, 0), ()))
        else:  # a variable, or a term that faults only when it is reached
            goals.append((_METACALL, (tpl(b),)))
    return Clause(key, cargs, tuple(goals), origin)


class Pred:
    """A database's predicate record of one name/arity: what a generated
    entry binds each call of that key to, and what Database.resolve turns a
    goal term into. fn is its entry, called as fn(machine, args, rest): the
    builtin of the key, read from BUILTINS when the record is made, which
    takes precedence over clauses (None if there are none); otherwise
    link() makes the record a ClausePred or an UnknownPred as the database
    freezes. Their fn is a method, so a record never refers to itself and
    is freed with its session. A ClausePred's fn asks Database.lookup for a
    call's Candidates and runs their generated entry, and runs in place
    each call an entry hands on with the Candidates it selected. clauses
    is the Candidates of all the clauses, in source order (None if there
    are none). As the database freezes, index is set to the first-argument
    index of a predicate of two or more clauses whose first arguments are
    not all variables: (Candidates per first-argument key, Candidates of
    the clauses with a variable first argument)."""

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

    def fn(self, m: "Machine", args, rest, candidates=None, start=0):
        """Run a call: ask Database.lookup for its Candidates and run their
        entry, or, for a ClauseCP's retry, run the list given from start.
        A call that an entry hands on, its body's first call past the neck
        with the list the entry selected for it, or the call an over-budget
        list hands on to the next link of its chain, comes back as
        (candidates, args, rest) and runs here in place, of whatever
        record; so app/3 over a list is one call of fn, and so is a chain
        of calls p to q to r.

        lookup is asked here only for a call that _run dispatches, such as
        a goal a fact's entry leaves on the goal chain: that goes back to
        _run, which still holds the chain it called with, so running on
        into it here would keep every goal done meanwhile alive."""
        if candidates is None:
            candidates = m.db.lookup(self, args)  # read through the class: a tracer may wrap it
        while True:
            res = (candidates.run or candidates.compile(m.db))(m, args, rest, start)
            if type(res) is not tuple:
                return res
            candidates, args, rest = res
            start = 0


class UnknownPred(Pred):
    __slots__ = ()

    def fn(self, m, args, rest):
        name, arity = self.key
        raise MachineError("unknown_predicate", Struct("/", (name, Int(arity))))


# the most lines an entry's source has, unless a single clause passes it:
# a longer list is tried through a chain of entries
_ENTRY_LINES = 300


class Candidates(list):
    """A list of clauses Database.lookup can return, in source order, and
    its entry, the only code a clause runs in. A record's clauses are one,
    and freeze makes the index's; being the list itself, it costs no object
    beside it. pred is the record whose calls select it; a list lookup
    returns has more None.

    The entry is generated on the list's first selection: run(m, args,
    rest, start=0), None until then. In the manner of the WAM's
    try_me_else/retry_me_else/trust_me sequence it holds its clauses' code
    inline, in order, and backtracks shallowly up to each clause's neck:
    under a new trail stamp it tries each candidate but the last, its head
    and then its guards, undoing a failed one to the mark taken on entry,
    and makes a ClauseCP over the same list only when a candidate passes
    its neck. The last candidate runs without a choice point, trailed
    against the older ones only; when none passes the entry returns False.
    A ClauseCP takes the call up again by running the same entry from its
    cursor: start skips the candidates before it.

    A passed candidate's body past the neck is pushed onto rest as the
    machine's goals and the entry returns None, except where it starts
    with a call of a ClausePred: then the entry selects that call's list,
    inline as lookup would or by asking a lookup put in its place, and
    returns (candidates, args, rest), with the rest of the body as rest
    and no goal cell made for the call, which ClausePred.fn runs in place;
    a non-last candidate makes its ClauseCP first. Where the last
    candidate's call is of pred, the entry goes round again from the first
    candidate while the call selects this list: inline, a call whose
    first argument has this list's key (or, for the list of the other
    keys, a key the index lacks) goes round at once, and the callee's
    table is read only where the loop may hand on. A keyed list, which
    lookup selects only for a first argument of its key, leaves that
    argument's functor, atom or integer test out of its heads.

    A list of one clause that calls itself past its neck makes no choice
    point, and its entry is a register loop: it unpacks args into the
    head's argument names once, before its while True, and at the bottom
    of each round sets them from the call's arguments, built as values;
    inline, the argument tuple is built only to hand on. A register loop
    is fused where _output() finds the clause's output argument: the
    first round matches it as any head does, and once that binds the
    goal's variable to a new cell, later rounds only append each cell's
    element to cells; before the loop hands on, and before any call that
    may read them, _cons builds the cells, binds that first cell's tail
    variable out to them and ends them with one new variable. Asking a
    lookup put in place of Database.lookup, a loop is never fused, and
    builds the tuple each round to ask it.

    Where the inlined clauses would take the source past _ENTRY_LINES, the
    entry holds the first n that fit, at least one, and hands the call on
    to more, a chain of lists of n candidates each made when the entry is
    generated, in the same way: it returns (more, args, rest). Each link's
    entry is generated on its first run, and links of the same shape have
    the same source, so a table of facts compiles two: a full link's, and
    the last one's. The source names every term, record and list as a
    value make binds, so it goes through the code cache under the name
    <name/arity entry>."""

    __slots__ = ("pred", "keyed", "more", "run")

    def __init__(self, pred: Pred, keyed: bool = False, more: Candidates | None = None):  # an empty list
        self.pred = pred
        self.keyed = keyed
        self.more = more
        self.run = None

    def source(self, db: "Database") -> tuple[str, list]:
        """The source of this list's entry, and the values to call its
        make with, each call of a key bound to db's record of it. A list
        over the budget gets a new chain each time."""
        params = "m, args, rest, start=0"
        if not self:
            src = _Source(params)
            src.emit(2, "return False")
            return src.text(), src.values()
        src = _Source(params, _ENTRY_LINES - 3)  # make's own three
        ends: list[int] = []
        try:
            self.tries(src, db, len(self), self.more, ends)
        except _OverBudget:
            # as many tries as fit with the three lines that hand on
            n = max(1, sum(end + 3 <= src.limit for end in ends))
            more = self.more
            for i in reversed(range(n, len(self), n)):
                more = Candidates(self.pred, self.keyed, more)
                more += self[i : i + n]
            src = _Source(params)
            self.tries(src, db, n, more, [])
        return src.text(), src.values()

    def tries(self, src: _Source, db: "Database", n: int, more: Candidates | None, ends: list[int]) -> None:
        """Emit an entry that tries the first n candidates and then hands
        the call on to more, or, with more None, that runs the nth without
        a choice point. ends gets the length of the source after each try
        made with one."""
        last = n if more is not None else n - 1  # how many tries make a choice point
        body = self[n - 1].body
        neck = _neck(body)
        loops = more is None and neck < len(body) and body[neck][0] == self.pred.key
        src.emit(2, "trail = m.trail")
        top = 2
        if loops and last:
            src.emit(2, "while True:")
            top = 3
        if last:
            # the stamp is the choice point's if a candidate passes: the
            # bindings of older variables are trailed against it
            src.emit(top, "mark = len(trail.entries)")
            src.emit(top, "outer = trail.boundary")
            src.emit(top, "trail.boundary = stamp = next_stamp()")
        for i in range(last):
            cl = self[i]
            src.emit(top, f"while start <= {i}:")  # a failed head or guard breaks out
            code = _ClauseCode(src, cl, db, top + 1, "break", self.keyed)
            neck = code.guards(cl.body)
            push = f"m.cps.append(ClauseCP(args, rest, {src.const(self)}, {i + 1}, mark, stamp))"
            code.proceed(cl.body[neck:], push, None)
            src.emit(top, "trail.undo_to(mark)")
            ends.append(len(src.lines))
        if last:
            src.emit(top, "trail.boundary = outer")
        if more is not None:
            src.emit(top, f"return {src.const(more)}, args, rest")
            return
        if loops and last:  # the next round tries every candidate
            src.emit(top, "start = 0")
        cl = self[last]
        if loops and not last:  # a register loop, which emits its own while True
            code = _ClauseCode(src, cl, db, 3, "return False", self.keyed, True)
        else:
            code = _ClauseCode(src, cl, db, top, "return False", self.keyed)
        neck = code.guards(cl.body)
        code.proceed(cl.body[neck:], None, self if loops else None)

    def compile(self, db: "Database"):
        """Generate run over db's records, keep it, and return it. The
        source is compiled once per process while it stays in the cache: a
        list of another session, or another link, with the same source
        reuses its make. Threads that race here each keep an equivalent
        function; the last one stays."""
        text, values = self.source(db)
        name, arity = self.pred.key
        self.run = run = _make(f"<{name.name}/{arity} entry>", text)(*values)
        return run


class Database:
    """One predicate record per functor/arity, each multi-clause predicate
    indexed on its first argument once frozen; immutable once frozen."""

    def __init__(self):
        self._preds: dict[tuple[Atom, int], Pred] = {}
        self._metacalled: dict[tuple[Atom, int], Pred] = {}  # see resolve
        self.frozen = False

    def pred(self, key) -> Pred:
        """The record of key, made on first use while the database is open."""
        p = self._preds.get(key)
        if p is None:
            p = self._preds[key] = Pred(key, BUILTINS.get(key))
        return p

    def add(self, head, body, origin=None):
        self.add_clause(compile_clause(head, body, origin))

    def add_clause(self, cl: Clause) -> None:
        """Make a record for each key cl's body calls, which freeze links,
        so the frozen table never grows; then append cl, which any other
        database may hold too, to its key's record."""
        if self.frozen:
            raise RuntimeError("database is frozen")
        for key, _ in cl.body:
            if type(key) is tuple:
                self.pred(key)
        p = self.pred(cl.key)
        if p.clauses is None:
            p.clauses = Candidates(p)
        p.clauses.append(cl)

    def freeze(self):
        self.frozen = True
        for p in self._preds.values():
            p.link()
            clauses = p.clauses
            if clauses is None or len(clauses) < 2 or p.key[1] == 0:
                continue
            table: dict = {}
            unkeyed = Candidates(p)
            for cl in clauses:
                if type(cl.args[0]) is VarSlot:
                    unkeyed.append(cl)
                    for candidates in table.values():
                        candidates.append(cl)
                    continue
                k = _key(cl.args[0])
                candidates = table.get(k)
                if candidates is None:
                    candidates = table[k] = Candidates(p, True)
                    candidates += unkeyed
                candidates.append(cl)
            if table:
                p.index = (table, unkeyed)

    def resolve(self, t, extra=()):
        """The goal (record, args) that calls term t with extra appended to
        its arguments; faults on a variable or a non-callable term. The
        frozen table, which threads share without a lock, never grows: a
        builtin's key that no clause calls, such as the true/0 or fail/0 a
        metacall runs, gets a record of its own the first time, kept for
        the database beside the table (threads that race on its first
        time each make an equivalent one; the last stays), and any other
        key with no record gets a transient one, which faults
        unknown_predicate only when it is called."""
        t = deref(t)
        tt = type(t)
        if tt is Struct:
            args = t.args + extra if extra else t.args
            key = (t.functor, len(args))
        elif tt is Atom:
            args = extra
            key = (t, len(args))
        elif tt is Var:
            raise MachineError("instantiation_error", t)
        else:
            raise MachineError("type_error", t)
        p = self._preds.get(key)
        if p is None:
            p = self._metacalled.get(key)
            if p is None:
                fn = BUILTINS.get(key)
                p = Pred(key, fn)
                p.link()
                if fn is not None:
                    self._metacalled[key] = p
        return p, args

    def lookup(self, pred: Pred, args):
        """The Candidates of a call of a predicate with clauses: the
        clauses that may match it, in source order. ClausePred.fn asks for
        a call _run dispatches; an entry selects as it does, inline, for a
        call it hands on. A bound first argument selects only the clauses
        whose first argument has its key (the atom itself, the integer's
        value, or functor and arity) or is a variable."""
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


# an entry selects lists inline only while this is Database.lookup
_LOOKUP = Database.lookup


# ---------------------------------------------------------------------------
# choice points


class ClauseCP:
    """A choice point made by a Candidates' entry: the call's args and
    rest, the list, the cursor of the next candidate to try, and the trail
    mark and stamp the entry took. Its own height is its call's barrier,
    as the WAM's cut register is its choice-point register at the call:
    every entry a call runs starts with the stack at that height, and
    pushes a ClauseCP only after the body it goes with. retry pops it and
    runs the call again through the same entry from the cursor, as
    retry_me_else and trust_me go on in one code sequence: a later
    candidate that passes its neck with others left makes a new ClauseCP,
    and the last runs without one, its bindings trailed against the older
    choice points only."""

    __slots__ = ("args", "rest", "clauses", "cursor", "trailmark", "stamp")

    def __init__(self, args, rest, clauses, cursor, trailmark, stamp):
        self.args = args
        self.rest = rest
        self.clauses = clauses
        self.cursor = cursor
        self.trailmark = trailmark
        self.stamp = stamp

    def retry(self, m: "Machine") -> bool:
        m._cut(len(m.cps) - 1)
        return ClausePred.fn(self.clauses.pred, m, self.args, self.rest, self.clauses, self.cursor) is None


class BetweenCP:
    __slots__ = ("var", "next", "hi", "rest", "trailmark", "stamp")

    def __init__(self, var, nxt, hi, rest, trailmark, stamp):
        self.var = var
        self.next = nxt
        self.hi = hi
        self.rest = rest
        self.trailmark = trailmark
        self.stamp = stamp

    def retry(self, m: "Machine") -> bool:
        v = self.next
        self.next = v + 1
        if v == self.hi:
            m._cut(len(m.cps) - 1)  # before binding, as in ClauseCP.retry
        bind(self.var, Int(v), m.trail)
        m.goals = self.rest
        return True


# ---------------------------------------------------------------------------
# handles


class Handle:
    """An object of a session's handle table, which is its own handle: an
    engine (its Machine), a hub or a thread. It has an id (0 until a
    session enters it), drawn from the one sequence they all share, and
    the object-language term FUNCTOR(Id).

    The table refers to its objects weakly, so an object lives only while
    something reaches it: the host, or a handle term, whose Int holds the
    object as its owner. A handle read back from text holds nothing and
    resolves only while its object is alive."""

    __slots__ = ("id", "__weakref__")
    FUNCTOR: Atom

    @property
    def term(self) -> Struct:
        i = Int(self.id)
        i.owner = self
        t = new(Struct)
        t.functor = self.FUNCTOR
        t.args = (i,)
        return t

    def __repr__(self):
        return f"{type(self).__name__}({self.id})"


def handle_id(t, kind: type[Handle]) -> int:
    """The id in a handle term of kind, such as '$engine'(Id); faults otherwise."""
    t = deref(t)
    if type(t) is Struct and t.functor is kind.FUNCTOR and len(t.args) == 1:
        i = deref(t.args[0])
        if type(i) is Int:
            return i.value
    raise MachineError("type_error", t)


# ---------------------------------------------------------------------------
# the machine

class Machine(Handle):
    """One suspendable resolution engine over a shared database, and the
    handle its clients hold: get, stop and to_engine are the host's side of
    the builtins of the same names.

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
    )
    FUNCTOR = Atom("$engine")

    def __init__(self, session, pattern, goal):
        g = deref(goal)
        if type(g) not in (Atom, Struct):
            raise MachineError("type_error", g)
        self.session = session
        self.db = db = session.db  # read on the hot path
        self.trail = Trail(0)  # no choice points yet: trail nothing
        if goal is pattern:  # new_engine(G,G,E), as if/3 and catch/3 boot
            self.pattern = g = copy_term(g)
        else:
            vmap: dict = {}
            self.pattern = copy_term(pattern, vmap)
            g = copy_term(g, vmap)
        self.goals = (db.resolve(g), _ANSWER)
        self.cps: list = []
        self.mailbox = deque()
        self.dead = False
        self.running = False
        self.id = 0

    # -- client operations ---------------------------------------------------

    def get(self):
        """Next answer: the The (or Yielded) resume returned, or NO; NO
        forever once produced. Each handle in an answer made after this
        engine was spawned is pinned until its stop, so it still resolves
        when the host writes it and reads it back."""
        session = self.session
        ans = session.get_by_id(self.id)
        if ans is not NO and session.last_id > self.id:  # it may hold a newer handle
            session.pin(ans.value)
        return ans

    def stop(self):
        self.session.stop_id(self.id)

    def to_engine(self, data) -> bool:
        return self.session.to_id(self.id, data)

    def resume(self):
        """Run until the next event: The(copy) for an answer, Yielded(copy)
        for a return/1, or NO. Total: a dead machine reports NO, and a
        fault kills the machine and is returned as its event."""
        if self.dead:
            return NO
        self.running = True
        try:
            return self._run()
        except MachineError as fault:
            self.kill()
            return fault.with_traceback(None)
        finally:
            self.running = False

    def deposit(self, t) -> bool:
        """Queue a copy of t for from_engine; one append, so threads may
        deposit at once. Reports failure on a dead machine."""
        if self.dead:
            return False
        self.mailbox.append(copy_term(t))
        return True

    def kill(self):
        """Release all state, the mailbox's copies too; idempotent. Any
        later resume reports NO and any deposit fails."""
        self.dead = True
        self.goals = None
        self.cps.clear()
        self.trail.entries.clear()
        self.mailbox.clear()
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
                    self.kill()
                    return NO
            else:  # an event
                return res

    def _backtrack(self) -> bool:
        # a choice point pops itself before it retries, so a failed retry
        # has already left the stack
        cps = self.cps
        trail = self.trail
        while cps:
            cp = cps[-1]
            trail.undo_to(cp.trailmark)
            if cp.retry(self):
                return True
        return False

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


# ---------------------------------------------------------------------------
# arithmetic

_SQRT = Atom("sqrt")
_MINUS = Atom("-")
_INTEGER = Atom("integer")


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
            elif t.functor is _MINUS:
                values.append(-values.pop())
            else:  # integer(sqrt(N))
                n = values.pop()
                if n < 0:
                    raise MachineError("arith_error", t)
                values.append(math.isqrt(n))
            continue
        t = deref(t)
        tt = type(t)
        if tt is Int:
            values.append(t.value)
            continue
        if tt is Var:
            raise MachineError("instantiation_error", t)
        if tt is Struct:
            functor = t.functor
            args = t.args
            if len(args) == 2:
                work.append((t, True))
                work.append((args[1], False))
                work.append((args[0], False))
                continue
            if len(args) == 1 and functor is _MINUS:
                work.append((t, True))
                work.append((args[0], False))
                continue
            if len(args) == 1 and functor is _INTEGER:
                inner = deref(args[0])
                if type(inner) is Struct and inner.functor is _SQRT and len(inner.args) == 1:
                    work.append((t, True))
                    work.append((inner.args[0], False))
                else:
                    work.append((inner, False))
                continue
        raise MachineError("type_error", t)
    return values[0]


def _divide(a: int, b: int) -> int:
    """a / b, truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# the operation of each binary operator; / and mod raise ZeroDivisionError
# on a zero divisor
_BINARY = {
    Atom("+"): operator.add,
    _MINUS: operator.sub,
    Atom("*"): operator.mul,
    Atom("/"): _divide,
    Atom("mod"): operator.mod,
}
# the binary operators a guard compiled inline evaluates, as Python writes
# them: the ones that cannot fault on integers
_INLINE_OPS = {Atom("+"): "+", _MINUS: "-", Atom("*"): "*"}


def _binary(t, a: int, b: int) -> int:
    op = _BINARY.get(t.functor)
    if op is None:
        raise MachineError("type_error", t)
    try:
        return op(a, b)
    except ZeroDivisionError:
        raise MachineError("arith_error", t) from None


def _int_arg(t) -> int:
    t = deref(t)
    if type(t) is Int:
        return t.value
    if type(t) is Var:
        raise MachineError("instantiation_error", t)
    raise MachineError("type_error", t)


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


# the Python operator of each builtin a guard may compile inline over
# integers, keyed by the builtin's own function: is/2 compares an integer
# left side with its value, as =:= does
_ARITH_GUARDS = {_bi_is: "=="}
# the operation of each Python comparison operator
_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def _arith_cmp(name, symbol):
    op = _COMPARE[symbol]

    def fn(m, args, rest):
        return op(eval_arith(args[0]), eval_arith(args[1]))

    BUILTINS[(Atom(name), 2)] = fn
    _ARITH_GUARDS[fn] = symbol


_arith_cmp("=:=", "==")
_arith_cmp("=\\=", "!=")
_arith_cmp("<", "<")
_arith_cmp(">", ">")
_arith_cmp("=<", "<=")
_arith_cmp(">=", ">=")

# the builtins a clause runs at its neck, inside its entry: each only
# succeeds, fails or faults, binding through the trail, and touches neither
# the goals nor the choice points. new_engine/3, to_engine/2 and
# from_engine/1 are among them: they boot an engine, deposit a copy or take
# one, and never resume an engine, so no engine runs inside an entry
_GUARDS = frozenset(
    [(Atom("true"), 0), (Atom("fail"), 0), (Atom("var"), 1), (Atom("nonvar"), 1)]
    + [(Atom(name), 2) for name in ("=", "==", "\\==", "is", "=:=", "=\\=", "<", ">", "=<", ">=")]
    + [(Atom("new_engine"), 3), (Atom("to_engine"), 2), (Atom("from_engine"), 1)]
)


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
    return The(copy_term(m.pattern))


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
        raise MachineError("type_error", x)
    if lo > hi:
        return False
    trail = m.trail
    if lo < hi:
        trail.boundary = stamp = next_stamp()
        m.cps.append(BetweenCP(x, lo + 1, hi, rest, trail.mark(), stamp))
    bind(x, Int(lo), trail)
    return True


@builtin("return", 1)
def _bi_return(m, args, rest):
    m.goals = rest
    return Yielded(copy_term(args[0]))


@builtin("from_engine", 1)
def _bi_from_engine(m, args, rest):
    if not m.mailbox:
        raise MachineError("mailbox_empty", Struct("from_engine", args))
    return unify(args[0], m.mailbox.popleft(), m.trail)
