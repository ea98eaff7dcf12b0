"""Command-line front end: interactive query loop and batch runner.

The front end adds no semantics: every query runs on a fresh engine over
the same frozen program, and what it prints per answer is exactly the
engine's answer stream.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .machine import NO, MachineError, Yielded
from .reader import ParseError, parse_term_with_names
from .session import PRELUDE_FILES, Session, prelude_sources
from .terms import Atom, Struct, deref
from .writer import write_term

_QWRAP = "$q"


def _query_pattern(names):
    """Answer pattern carrying the query's named variables as Name=Var pairs."""
    if not names:
        return Atom(_QWRAP)
    pairs = tuple(Struct("=", (Atom(n), v)) for n, v in names if not n.startswith("_"))
    if not pairs:
        return Atom(_QWRAP)
    return Struct(_QWRAP, pairs)


def _format_answer(value) -> str:
    """Bindings as `Name=Value, ...`; `yes` for a ground query; anything that
    is not an instance of the query pattern (a yield) prints as itself."""
    value = deref(value)
    if type(value) is Atom and value.name == _QWRAP:
        return "yes"
    if type(value) is Struct and value.name == _QWRAP:
        out = []
        for pair in value.args:
            pair = deref(pair)
            name = deref(pair.args[0])
            out.append(f"{name.name}={write_term(pair.args[1])}")
        return ", ".join(out)
    return write_term(value)


def _trace(eid: int, ev) -> None:
    """Print an engine event on stderr as its kind and, for an answer or a
    yield, its term as the CLI writes answers; a fault as its kind and
    culprit, as the error line that follows it does."""
    if ev is NO:
        text = "exhausted"
    elif type(ev) is MachineError:
        text = f"error {ev.kind}: {write_term(ev.culprit)}"
    else:
        text = f"{'yield' if type(ev) is Yielded else 'answer'} {_format_answer(ev.value)}"
    print(f"% engine {eid}: {text}", file=sys.stderr)


def _parse_query(text: str):
    term, names = parse_term_with_names(text)
    if type(term) not in (Atom, Struct):
        raise ParseError("query must be an atom or compound", 1, 1)
    return term, names


def run_batch(session: Session, goal_text: str, limit) -> int:
    try:
        goal, names = _parse_query(goal_text)
    except ParseError as e:
        print(f"! {e}", file=sys.stderr)
        return 2
    engine = session.spawn(_query_pattern(names), goal)
    count = 0
    while limit is None or count < limit:
        ans = engine.get()
        if ans is NO:
            break
        print(_format_answer(ans.value))
        count += 1
    engine.stop()
    if session.error_count:
        return 2
    return 0 if count else 1


def repl(session: Session, limit) -> int:
    print("hornlog: type a query ending with '.'  (';' for more answers)")
    while True:
        try:
            line = input("?- ")
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            return 0
        text = line.strip()
        if not text:
            continue
        while not text.endswith("."):
            try:
                more = input("   ")
            except EOFError:
                break
            text += "\n" + more.strip()
        try:
            goal, names = _parse_query(text)
        except ParseError as e:
            print(f"! {e}", file=sys.stderr)
            continue
        errors_before = session.error_count
        engine = session.spawn(_query_pattern(names), goal)
        shown = 0
        while True:
            ans = engine.get()
            if ans is NO:
                if session.error_count == errors_before:  # a fault printed its own line
                    print("no")
                break
            shown += 1
            sys.stdout.write(_format_answer(ans.value))
            sys.stdout.flush()
            if limit is not None and shown >= limit:
                print()
                break
            try:
                key = input(" ")
            except EOFError:
                print()
                engine.stop()
                return 0
            if key.strip() != ";":
                print()
                break
        engine.stop()


def extract_prelude(directory: str) -> int:
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    for name, src in prelude_sources():
        (target / name).write_text(src, encoding="utf-8")
    print(f"wrote {', '.join(PRELUDE_FILES)} to {target}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hornlog",
        description="Horn-clause logic engine with suspendable, resumable engines",
    )
    ap.add_argument(
        "--consult",
        action="append",
        default=[],
        metavar="FILE",
        help="load a source file after the prelude (repeatable)",
    )
    ap.add_argument("--goal", metavar="G", help="run one goal in batch mode and exit")
    ap.add_argument("--limit", type=int, metavar="N", help="stop after N answers (N >= 1)")
    ap.add_argument("--trace", action="store_true", help="print engine events one per line")
    ap.add_argument(
        "--extract-prelude", metavar="DIR", help="write the embedded prelude files to DIR"
    )
    args = ap.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        ap.error(f"argument --limit: must be at least 1, not {args.limit}")

    if args.extract_prelude:
        return extract_prelude(args.extract_prelude)

    on_event = _trace if args.trace else None

    try:
        session = Session(files=args.consult, on_event=on_event)
    except (OSError, ParseError) as e:
        print(f"! {e}", file=sys.stderr)
        return 2

    if args.goal is not None:
        return run_batch(session, args.goal, args.limit)
    return repl(session, args.limit)


if __name__ == "__main__":
    sys.exit(main())
