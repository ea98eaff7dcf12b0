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

from .engines import NO, EngineRef, The
from .machine import (
    EXHAUSTED,
    AnswerReady,
    Database,
    Exhausted,
    Machine,
    MachineError,
    MachineFault,
    Yielded,
    eval_arith,
)
from .reader import ParseError, parse_program, parse_term, parse_term_with_names
from .session import Session, prelude_sources
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
    variant,
)
from .threads import Hub, ThreadRef
from .writer import write_term

__version__ = "0.1.0"

__all__ = [
    "Session",
    "EngineRef",
    "The",
    "NO",
    "Atom",
    "Int",
    "Struct",
    "Var",
    "Trail",
    "unify",
    "copy_term",
    "term_equal",
    "variant",
    "deref",
    "make_list",
    "parse_term",
    "parse_term_with_names",
    "parse_program",
    "ParseError",
    "write_term",
    "Machine",
    "Database",
    "MachineError",
    "MachineFault",
    "AnswerReady",
    "Yielded",
    "Exhausted",
    "EXHAUSTED",
    "eval_arith",
    "Hub",
    "ThreadRef",
    "prelude_sources",
    "__version__",
]
