"""hornlog: an embeddable Horn-clause logic engine with first-class,
suspendable engine instances.

Engines are booted over a goal and an answer pattern, stream answers on
demand, can yield intermediate results from anywhere in their computation,
and accept goals injected by their clients. A source-level prelude rebuilds
the usual control constructs (findall, if-then-else, exceptions, a dynamic
clause store) purely out of engines.

    >>> from hornlog import Session, write_term
    >>> s = Session(text="edge(a,b). edge(b,c).")
    >>> e = s.new_engine("X-Y", "edge(X,Y)")
    >>> write_term(e.get().value)
    'a-b'
"""

from .machine import NO, Machine, MachineError, The, Yielded
from .reader import ParseError, parse_program, parse_term
from .session import Session
from .terms import (
    Atom,
    Int,
    Struct,
    Trail,
    Var,
    copy_term,
    deref,
    make_list,
    term_equal,
    unify,
)
from .threads import Hub, ThreadRef
from .writer import write_term

__version__ = "0.1.0"

# the names README documents
__all__ = [
    "Session",
    "Machine",
    "The",
    "Yielded",
    "NO",
    "MachineError",
    "Hub",
    "ThreadRef",
    "Atom",
    "Int",
    "Struct",
    "Var",
    "Trail",
    "unify",
    "copy_term",
    "term_equal",
    "deref",
    "make_list",
    "parse_term",
    "parse_program",
    "ParseError",
    "write_term",
]
