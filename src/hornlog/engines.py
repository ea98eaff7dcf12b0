"""Engine handles and the answer protocol.

The host-level surface mirrors the object-language builtins one-to-one:
new_engine, get, stop, to_engine (return/from_engine run inside engine
code). get never raises: every outcome is normalized to The(term) or NO,
and machine faults are reported on the session's diagnostic channel.
"""

from __future__ import annotations

from .machine import MachineFault, builtin
from .terms import Atom, Int, Struct, Symbol, deref, unify


class The:
    """A successful answer holding a standalone copy of the instance."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"The({self.value!r})"


class _No:
    __slots__ = ()

    def __repr__(self):
        return "NO"


NO = _No()


class Handle:
    """An entry of a session's handle table as the host sees it: its id
    (0 until a session enters it), drawn from the one sequence engines,
    hubs and threads share, and the object-language term FUNCTOR(Id)."""

    __slots__ = ("id",)
    FUNCTOR: Symbol

    @property
    def term(self) -> Struct:
        return Struct(self.FUNCTOR, (Int(self.id),))

    def __repr__(self):
        return f"{type(self).__name__}({self.id})"


def handle_id(t, kind: type[Handle]) -> int:
    """The id in a handle term of kind, such as '$engine'(Id); faults otherwise."""
    t = deref(t)
    if type(t) is Struct and t.functor is kind.FUNCTOR and len(t.args) == 1:
        i = deref(t.args[0])
        if type(i) is Int:
            return i.value
    raise MachineFault("type_error", t)


class EngineRef(Handle):
    """Per-boot handle for one engine; the table holds its Machine."""

    __slots__ = ("session",)
    FUNCTOR = Symbol("$engine")

    def __init__(self, eid: int, session):
        self.id = eid
        self.session = session

    def get(self):
        """Next answer: The(term) or NO; NO forever once produced."""
        return self.session.get_by_id(self.id)

    def stop(self):
        self.session.stop_id(self.id)

    def to_engine(self, data) -> bool:
        return self.session.to_id(self.id, data)


@builtin("new_engine", 3)
def _bi_new_engine(m, args, rest):
    ref = m.session.spawn(args[0], args[1])
    return unify(args[2], ref.term, m.trail)


@builtin("get", 2)
def _bi_get(m, args, rest):
    ans = m.session.get_by_id(handle_id(args[0], EngineRef))
    t = Atom("no") if ans is NO else Struct("the", (ans.value,))
    return unify(args[1], t, m.trail)


@builtin("stop", 1)
def _bi_stop(m, args, rest):
    m.session.stop_id(handle_id(args[0], EngineRef))
    return True


@builtin("to_engine", 2)
def _bi_to_engine(m, args, rest):
    return m.session.to_id(handle_id(args[0], EngineRef), args[1])
