"""Engine handles and the answer protocol.

The host-level surface mirrors the object-language builtins one-to-one:
new_engine, get, stop, to_engine (return/from_engine run inside engine
code). get never raises: every outcome is normalized to The(term) or NO,
and machine faults are reported on the session's diagnostic channel.
"""

from __future__ import annotations

from .machine import EXHAUSTED, MachineError, builtin
from .terms import Atom, Int, Struct, deref, unify


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
    hubs and threads share, and the object-language term FUNCTOR(Id).

    The table refers to its objects weakly, so an object lives only while
    something reaches it: a host handle, or a handle term, whose Int holds
    the handle as its owner. A handle read back from text holds nothing and
    resolves only while its object is alive."""

    __slots__ = ("id", "__weakref__")
    FUNCTOR: Atom

    @property
    def term(self) -> Struct:
        i = Int(self.id)
        i.owner = self
        return Struct(self.FUNCTOR, (i,))

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


class EngineRef(Handle):
    """Per-boot handle for one engine. It holds the engine's Machine, which
    lives while this handle, or a term made by its `term`, is reachable."""

    __slots__ = ("machine",)
    FUNCTOR = Atom("$engine")

    def __init__(self, machine):
        self.id = machine.id
        self.machine = machine

    def get(self):
        """Next answer: The(term) or NO; NO forever once produced. Each
        handle in an answer is pinned until its engine's stop, so it still
        resolves when the host writes it and reads it back."""
        session = self.machine.session
        ans = session.get_by_id(self.id)
        if ans is not NO and session.last_id > self.id:  # it may hold a newer handle
            session.pin(ans.value)
        return ans

    def stop(self):
        self.machine.session.stop_id(self.id)

    def to_engine(self, data) -> bool:
        return self.machine.session.to_id(self.id, data)


@builtin("new_engine", 3)
def _bi_new_engine(m, args, rest):
    ref = m.session.spawn(args[0], args[1])
    return unify(args[2], ref.term, m.trail)


_THE = Atom("the")
_ATOM_NO = Atom("no")


@builtin("get", 2)
def _bi_get(m, args, rest):
    ans = m.session.get_by_id(handle_id(args[0], EngineRef))
    t = _ATOM_NO if ans is NO else Struct(_THE, (ans.value,))
    return unify(args[1], t, m.trail)


@builtin("stop", 1)
def _bi_stop(m, args, rest):
    m.session.stop_id(handle_id(args[0], EngineRef))
    # an engine that stopped itself runs none of the rest of its goal
    return EXHAUSTED if m.dead else True


@builtin("to_engine", 2)
def _bi_to_engine(m, args, rest):
    return m.session.to_id(handle_id(args[0], EngineRef), args[1])
