"""Logical terms: interned atoms, variables, destructive unification, copying.

Terms belong to one engine at a time; they cross engine boundaries only as
copies, which share a source's variable-free subterms. Destructive variable
binding plus an undo trail is the single mutable mechanism in the term
layer: a Struct never changes once made.
"""

from __future__ import annotations

import itertools
import threading

_serial = itertools.count(1)
_intern_lock = threading.Lock()


def next_stamp() -> int:
    """Creation-order stamp shared by variables and choice points."""
    return next(_serial)


class Var:
    """A logic variable: a mutable binding slot with a creation stamp."""

    __slots__ = ("ref", "serial")

    def __init__(self):
        self.ref = None
        self.serial = next(_serial)

    def __repr__(self) -> str:
        return f"_G{self.serial}" if self.ref is None else f"_G{self.serial}={self.ref!r}"


class Atom:
    """An interned name: equal name implies identical object. A term when
    it stands alone, and the functor of every Struct."""

    __slots__ = ("name",)
    _table: dict[str, "Atom"] = {}

    def __new__(cls, name: str) -> "Atom":
        a = cls._table.get(name)
        if a is None:
            with _intern_lock:  # threads may intern concurrently
                a = cls._table.get(name)
                if a is None:
                    a = object.__new__(cls)
                    a.name = name
                    cls._table[name] = a
        return a

    def __repr__(self) -> str:
        return self.name


class Int:
    """A signed integer constant. The id in a handle term also holds its
    handle as `owner` (unset on every other Int), so the term keeps the
    handle's object alive."""

    __slots__ = ("value", "owner")

    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        try:
            return str(self.value)
        except ValueError:  # past the host's int/str digit limit
            from .writer import _long_int_text  # the writer imports this module

            return _long_int_text(self.value)


class Struct:
    """A compound term: an atom as its functor plus at least one argument.
    A functor given as a string is interned as an Atom."""

    __slots__ = ("functor", "args")

    def __init__(self, functor, args):
        self.functor = functor if type(functor) is Atom else Atom(functor)
        self.args = tuple(args)

    @property
    def name(self) -> str:
        return self.functor.name

    def __repr__(self) -> str:
        return f"{self.functor.name}({', '.join(map(repr, self.args))})"


NIL = Atom("[]")
TRUE = Atom("true")
DOT = Atom(".")


def deref(t):
    """Follow the binding chain of a variable to its value or final unbound Var."""
    while type(t) is Var:
        r = t.ref
        if r is None:
            return t
        t = r
    return t


class Trail:
    """Undo log of bound variables.

    `boundary` is a creation-order stamp: only variables created before it are
    recorded. Anything younger than the newest choice point dies with the
    backtrack it would be undone by, so skipping it keeps deterministic loops
    trail-free. The default boundary records everything (standalone use).
    """

    __slots__ = ("entries", "boundary")

    def __init__(self, boundary: float = float("inf")):
        self.entries: list[Var] = []
        self.boundary = boundary

    def mark(self) -> int:
        return len(self.entries)

    def undo_to(self, mark: int) -> None:
        entries = self.entries
        while len(entries) > mark:
            entries.pop().ref = None


def bind(var: Var, value, trail: Trail) -> None:
    var.ref = value
    if var.serial < trail.boundary:
        trail.entries.append(var)


def unify(a, b, trail: Trail) -> bool:
    """Destructively unify a and b, trailing new bindings.

    On failure the trail is rolled back to its state at entry. No occurs
    check: unifying a variable with a term containing it builds a cyclic
    term, as in mainstream Prolog. Dereferencing, binding and the undo are
    inline. Two compounds' arguments are taken left to right in place, as
    the WAM's get_structure/unify sequence takes them: the loop goes on at
    the first pair and stacks the rest, so a clash in the first argument
    fails before any later argument is bound, and no pair list is made per
    compound. The stack is made only when a compound of arity 2 or more is
    met; unifying two lists holds one pending pair, not one per element.
    """
    entries = trail.entries
    boundary = trail.boundary
    mark = len(entries)
    stack = None
    while True:
        while type(a) is Var and a.ref is not None:
            a = a.ref
        while type(b) is Var and b.ref is not None:
            b = b.ref
        if a is not b:
            ta = type(a)
            tb = type(b)
            if ta is Var:
                if tb is Var and b.serial > a.serial:
                    a, b = b, a  # point the younger at the older
                a.ref = b
                if a.serial < boundary:
                    entries.append(a)
            elif tb is Var:
                b.ref = a
                if b.serial < boundary:
                    entries.append(b)
            elif (
                ta is Struct
                and tb is Struct
                and a.functor is b.functor
                and len(aa := a.args) == len(ba := b.args)
            ):
                n = len(aa)
                if n:
                    if n == 2:
                        if stack is None:
                            stack = [(aa[1], ba[1])]
                        else:
                            stack.append((aa[1], ba[1]))
                    elif n > 2:
                        # reversed, so that the pairs pop left to right
                        if stack is None:
                            stack = list(zip(aa[:0:-1], ba[:0:-1]))
                        else:
                            stack.extend(zip(aa[:0:-1], ba[:0:-1]))
                    a = aa[0]
                    b = ba[0]
                    continue
            # any other meeting fails but that of two equal integers (atoms
            # are interned: distinct objects are distinct atoms)
            elif ta is not Int or tb is not Int or a.value != b.value:
                while len(entries) > mark:
                    entries.pop().ref = None
                return False
        if not stack:
            return True
        a, b = stack.pop()


def copy_term(t, vmap: dict | None = None):
    """Copy of t with unbound variables consistently renamed, holding no Var of t.

    Bound variables are dereferenced and replaced by copies of their values;
    sharing of variables within t is preserved. A compound with no variable
    anywhere below it, bound or not, is returned as it is: a Struct never
    changes, so sharing it is as good as a copy. Assumes an acyclic term.
    """
    t = deref(t)
    tt = type(t)
    if tt is Var:
        if vmap is None:
            return Var()
        c = vmap.get(t)
        if c is None:
            c = vmap[t] = Var()
        return c
    if tt is not Struct:
        return t
    if vmap is None:
        vmap = {}
    # explicit stack, one frame per open compound: runtime lists can be
    # deeper than the host recursion limit
    new = object.__new__
    stack = []
    node = t
    args = t.args
    n = len(args)
    i = 0
    out = []
    changed = False  # whether out differs from args
    while True:
        while i < n:
            a = args[i]
            i += 1
            ta = type(a)
            if ta is Var:
                changed = True
                a = deref(a)
                ta = type(a)
                if ta is Var:
                    c = vmap.get(a)
                    if c is None:
                        c = vmap[a] = Var()
                    out.append(c)
                    continue
            if ta is Struct:
                stack.append((node, i, out, changed))
                node = a
                args = a.args
                n = len(args)
                i = 0
                out = []
                changed = False
                continue
            out.append(a)
        if changed:
            result = new(Struct)
            result.functor = node.functor
            result.args = tuple(out)
        else:
            result = node
        if not stack:
            return result
        node, i, out, changed = stack.pop()
        args = node.args
        n = len(args)
        out.append(result)
        if result is not args[i - 1]:
            changed = True


def term_equal(a, b) -> bool:
    """Structural identity of the dereferenced terms (Prolog ==), including
    variable identity.

    Walks the two terms as `unify` does: arguments left to right in place,
    the rest stacked, so the first difference answers at once and no pair
    list is made per compound."""
    stack = None
    while True:
        while type(a) is Var and a.ref is not None:
            a = a.ref
        while type(b) is Var and b.ref is not None:
            b = b.ref
        if a is not b:
            ta = type(a)
            tb = type(b)
            if (
                ta is Struct
                and tb is Struct
                and a.functor is b.functor
                and len(aa := a.args) == len(ba := b.args)
            ):
                n = len(aa)
                if n:
                    if n == 2:
                        if stack is None:
                            stack = [(aa[1], ba[1])]
                        else:
                            stack.append((aa[1], ba[1]))
                    elif n > 2:
                        if stack is None:
                            stack = list(zip(aa[:0:-1], ba[:0:-1]))
                        else:
                            stack.extend(zip(aa[:0:-1], ba[:0:-1]))
                    a = aa[0]
                    b = ba[0]
                    continue
            # any other meeting differs but that of two equal integers
            elif ta is not Int or tb is not Int or a.value != b.value:
                return False
        if not stack:
            return True
        a, b = stack.pop()


def make_list(items, tail=NIL):
    out = tail
    for x in reversed(items):
        out = Struct(DOT, (x, out))
    return out
