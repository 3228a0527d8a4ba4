"""Parser for spec files and process expressions.

Spec file format: optional ``alphabet {a,b,...}`` header, optional
``channel`` lines (accepted and ignored, so emitted simulation scripts can
be read back), comments, and one definition per line::

    NAME = PROC
    NAME(x, y) = PROC

Expression grammar, loosest to tightest:

    par    := choice (("|||" | "[{A} || {B}]") choice)*      left-assoc
    choice := pre (OP pre)*   OP one of "[]", "|~|", "[>"    one n-ary node,
              mixing different choice operators requires parentheses
    pre    := EVENT "->" pre | "? x : {..} ->" pre
            | "mu X @" par | "|~| x : {..} @" par            body extends right
    post   := atom ("\\ {..}" | "[[a <- b, ...]]")*
    atom   := "STOP" | "DIV" | NAME | NAME "(" args ")" | "(" par ")"

A ``#`` that begins a token starts a comment, in a spec and in a process
expression alike, and the comment ends with its line.
``STOP``, ``DIV``, ``mu``, ``alphabet``, and ``channel`` are reserved words.
Renaming is relational and not implicitly completed with identity: an event
with no image is blocked.

``mu X @ P`` is read as a call of a definition of its own, kept in the
spec's ``recursions``: its parameters are the enclosing event binders ``P``
mentions, and ``X`` inside ``P`` reads as that same call.

How it reads:

* **One scan.**  A spec is cut into tokens by one ``findall``, which gives
  ``""`` for each line end (a comment ends with its line), so the token list
  holds every line in turn, and two more ``""`` close it so that a look one
  token ahead never runs off the end.  A process expression is cut by the
  same scan and read as one line, however many line ends it holds: its
  ``""`` tokens are dropped.  A character that starts no token is a token of
  its own, found by one look at the distinct tokens, and reported when its
  line is reached.  Positions are not kept: an error counts the line ends
  before its token for its line, and scans that line (all of an
  expression) again for its column.
* **A stack, not a frame per level.**  ``_Parser.expr`` reads an operand's
  prefixes and input prefixes in a loop and keeps the choice and parallel
  operands of each open parenthesis or indexed choice on an explicit stack,
  so a long prefix chain or deep nesting costs no Python frame.  Only a
  ``mu`` recurses, since its body is read twice (``_Parser.recursion``).
* **One walk.**  ``_walk`` checks a spec's definitions, an expression and
  the body of each ``mu`` alike, reading each recursion's body where it is
  first called: it lists the events in order of first mention (pre-order,
  so a hidden or synchronised set comes before its body) and keeps the
  first bad call of each body.  An undeclared event is raised before a bad
  call, and a bad call for the first body in definition order (an
  expression is one definition), then recursion order.  The same walk gives
  a ``mu`` its free events.
"""
from __future__ import annotations

import re

from .errors import ParseError, SpecError
from .kernel import Alphabet
from .process import (
    Call, Definition, Div, ExtChoice, Hide, InputPrefix, IntChoice,
    Interleave, Parallel, Prefix, Rename, SpecEnv, Stop, Timeout,
    pretty, subst_events,
)

_RESERVED = frozenset({"STOP", "DIV", "mu", "alphabet", "channel"})
_PUNCT = frozenset({"|||", "|~|", "[[", "]]", "[]", "[>", "||", "->", "<-",
                    *"()[]{},:@=?\\"})
_CHOICE = {"[]": ExtChoice, "|~|": IntChoice, "[>": Timeout}

_IDENT = "[A-Za-z][A-Za-z0-9_.]*"
# the tokens of _PUNCT, longest first where one begins another
_PUNCT_RE = r"\|(?:\|\|?|~\|)|\[[\[\]>]?|\]\]?|->|<-|[(){},:@=?\\]"
# where str.splitlines cuts, but for "\u2028" and "\u2029", which both
# parsers read as "\n": one character for one keeps lines and columns, and
# classes of Latin-1 characters compile several times faster
_BREAK = "\n\r\v\f\x1c\x1d\x1e\x85"
_BLANK = rf"[^\S{_BREAK}]"
# a line end, with the comment of the next line if nothing comes before it
_END = rf"(?:\r\n|[{_BREAK}])(?:{_BLANK}*#[^{_BREAK}]*)?"
# Over "\n" + spec: a token, or a character that starts none, in group 1,
# and "" for each line end.  A comment after a token takes its line end
# along.  Every alternative starts with a fixed character, so the scan skips
# blanks without trying each one.
_SPEC_SCAN = re.compile(rf"({_IDENT}|{_PUNCT_RE}|[^\s#])|#[^{_BREAK}]*(?:{_END})?|{_END}")


def _names(toks: list):
    """The distinct names among the tokens, and the index of the first
    character that starts no token, or None."""
    names = set(toks).difference(_PUNCT)
    names.discard("")
    stray = [t for t in names if not (t[0].isalpha() and t.isascii())]
    names.difference_update(stray)
    return names, min(map(toks.index, stray)) if stray else None


class _Parser:
    """Reads process expressions from a scanned token list, in which ``""``
    ends a line.  Methods take the index of a token and return what they
    read with the index after it."""

    def __init__(self, toks: list, names: set, lines: list, recursions: dict):
        self.toks = toks
        self.names, self.events = names, names - _RESERVED
        self.lines = lines                    # read again only on an error
        self.recursions = recursions          # filled in; None on a first reading
        self.binders = []                     # event binders in scope, outermost first
        self.rec_vars = {}                    # recursion variable -> the call it reads as

    # -- errors ---------------------------------------------------------

    def where(self, i: int):
        """The line of token i, and (start, end) of each token on it."""
        before = self.toks[:i]
        line, k = before.count(""), before[::-1].index("")
        spans = [m.span(1) for m in _SPEC_SCAN.finditer(self.lines[line - 1])
                 if m.start(1) >= 0]
        return line, spans[:k + 1]

    def fail(self, msg: str, i: int):
        """Raise ``msg`` at token i: its column, or 0 at the end of the line."""
        line, spans = self.where(i)
        raise ParseError(msg, line, spans[-1][0] + 1 if self.toks[i] else 0)

    def stray(self, i: int):
        """Raise for the character at token i, at the column after the token
        before it, where reading that token stopped."""
        line, spans = self.where(i)
        col = spans[-2][1] + 1 if len(spans) > 1 else 1
        raise ParseError(f"bad character {self.toks[i]!r}", line, col)

    # -- small pieces ---------------------------------------------------

    def expect(self, value: str, i: int) -> int:
        tok = self.toks[i]
        if tok != value:
            got = repr(tok) if tok else "end of line"
            self.fail(f"expected {value!r}, got {got}", i)
        return i + 1

    def ident(self, what: str, i: int):
        tok = self.toks[i]
        if tok not in self.names:
            self.fail(f"expected {what}", i)
        return tok, i + 1

    def event_name(self, i: int):
        name = self.toks[i]
        if name not in self.events:
            self.ident("event name", i)
            raise ParseError(f"{name!r} is a reserved word", self.where(i)[0], 0)
        return name, i + 1

    def event_names(self, i: int, close: str):
        """``name ("," name)*`` up to ``close``, which is read too."""
        toks, events, names = self.toks, self.events, []
        while True:
            if toks[i] not in events:
                self.event_name(i)
            names.append(toks[i])
            if toks[i + 1] != ",":
                return names, self.expect(close, i + 1)
            i += 2

    def event_list(self, i: int):
        """``{a, b, ...}``, repeats dropped, in order."""
        i = self.expect("{", i)
        if self.toks[i] == "}":
            return [], i + 1
        names, i = self.event_names(i, "}")
        return list(dict.fromkeys(names)), i

    # -- expressions ----------------------------------------------------

    def expr(self, i: int):
        """A ``par`` from token i.  Each open parenthesis or indexed choice
        suspends the operands read around it on ``outer``."""
        toks, binders, events = self.toks, self.binders, self.events
        outer = []
        left = join = op = None        # par operand and operator, choice operator
        branches = []
        while True:
            # an operand: its prefixes, outermost first, then what they guard
            wraps = []
            while True:
                tok = toks[i]
                if toks[i + 1] == "->" and tok in events:
                    wraps.append(tok)
                    i += 2
                elif tok == "?":
                    binder, i = self.event_name(i + 1)
                    i = self.expect(":", i)
                    offered, i = self.event_list(i)
                    i = self.expect("->", i)
                    wraps.append((binder, frozenset(offered)))
                    binders.append(binder)
                else:
                    break
            if tok == "(" or tok == "|~|":
                inner = None
                if tok == "|~|":
                    at = i
                    binder, i = self.event_name(i + 1)
                    members, i = self.event_list(self.expect(":", i))
                    i = self.expect("@", i)
                    binders.append(binder)
                    inner = (at, binder, members)
                else:
                    i += 1
                outer.append((inner, wraps, left, join, branches, op))
                left = join = op = None
                branches = []
                continue
            if tok == "mu":
                var, i = self.ident("recursion variable", i + 1)
                p, i = self.recursion(var, self.expect("@", i))
            else:
                p, i = self.atom(i)
                if toks[i] == "\\" or toks[i] == "[[":
                    p, i = self.postfix(p, i)
            # the operand is whole: wrap it in its prefixes and join it to the
            # choice or parallel it is in; where the next token continues
            # neither, close the innermost open parenthesis or indexed choice
            while True:
                while wraps:
                    w = wraps.pop()
                    if type(w) is str:
                        p = Prefix(w, p)
                    else:
                        p = InputPrefix(w[0], w[1], p)
                        binders.pop()
                tok = toks[i]
                if tok in _CHOICE:
                    if op is not None and tok != op:
                        self.fail(f"mixing {op!r} and {tok!r} needs parentheses", i)
                    op = tok
                    branches.append(p)
                    i += 1
                    break
                if op is not None:
                    branches.append(p)
                    p = _CHOICE[op](tuple(branches))
                    branches, op = [], None
                if join is not None:
                    p = Interleave(left, p) if join == "|||" else Parallel(left, *join, p)
                    left = join = None
                if tok == "|||":
                    left, join, i = p, tok, i + 1
                    break
                if tok == "[" and toks[i + 1] == "{":
                    a, i = self.event_list(i + 1)
                    b, i = self.event_list(self.expect("||", i))
                    left, join, i = p, (frozenset(a), frozenset(b)), self.expect("]", i)
                    break
                if not outer:
                    return p, i
                inner, wraps, left, join, branches, op = outer.pop()
                if inner is None:
                    i = self.expect(")", i)
                    if toks[i] == "\\" or toks[i] == "[[":
                        p, i = self.postfix(p, i)
                else:
                    at, binder, members = inner
                    binders.pop()
                    if not members:
                        self.fail("indexed internal choice over an empty set", at)
                    p = IntChoice(tuple(subst_events(p, {binder: e}) for e in members))

    def recursion(self, var: str, i: int):
        """``mu X @ P`` as a call of a definition.  A first reading of P,
        with X a bare name, gives the parameters (the binders in scope that
        P mentions) and the name: the term's text with parameter i shown as
        the hole ``$i``.  That text is closed, so it names one process, and
        no definition name can equal it.  A second reading, with X a call
        passing binders of its own (``$X.i``, which no binder in P can
        shadow), gives the body; a ``mu`` nested in it that names X is then
        closed too."""
        start, rec_vars, recursions = i, self.rec_vars, self.recursions
        self.rec_vars, self.recursions = {**rec_vars, var: Call(var)}, None
        draft, i = self.expr(start)
        self.recursions = recursions
        params = ()
        if self.binders:
            free = _walk({var: Definition((), draft)}, {}, {})[0]
            params = tuple(dict.fromkeys(b for b in self.binders if b in free))
        holes = {b: f"${k}" for k, b in enumerate(params)}
        name = f"mu {var} @ {pretty(subst_events(draft, holes))}"
        if recursions is not None:
            own = tuple(f"${var}.{k}" for k in range(len(params)))
            outer = self.binders
            self.rec_vars[var] = Call(name, own)
            self.binders = outer + list(own)
            body, _ = self.expr(start)
            self.binders = outer
            body = subst_events(body, {**holes, **dict(zip(own, holes.values()))})
            recursions[name] = Definition(tuple(holes.values()), body)
        self.rec_vars = rec_vars
        return Call(name, params), i

    def atom(self, i: int):
        tok = self.toks[i]
        if tok == "STOP":
            return Stop(), i + 1
        if tok == "DIV":
            return Div(), i + 1
        if tok not in self.names:
            self.fail("expected a process", i)
        if tok in _RESERVED:
            self.fail(f"{tok!r} is a reserved word", i)
        if tok in self.rec_vars:
            return self.rec_vars[tok], i + 1
        if self.toks[i + 1] == "(":
            args, i = self.event_names(i + 2, ")")
            return Call(tok, tuple(args)), i
        return Call(tok), i + 1

    def postfix(self, p, i: int):
        toks = self.toks
        while True:
            tok = toks[i]
            if tok == "\\":
                events, i = self.event_list(i + 1)
                p = Hide(p, frozenset(events))
            elif tok == "[[":
                i += 1
                pairs = []
                if toks[i] != "]]":
                    while True:
                        a, i = self.event_name(i)
                        b, i = self.event_name(self.expect("<-", i))
                        pairs.append((a, b))
                        if toks[i] != ",":
                            break
                        i += 1
                i = self.expect("]]", i)
                p = Rename(p, frozenset(pairs))
            else:
                return p, i


def _walk(roots: dict, definitions: dict, recursions: dict):
    """One pre-order walk of the bodies of ``roots`` (name -> Definition),
    each recursion's body read where it is first called.  Returns the events
    named outside the binders that bind them, in order of first mention, and
    the first call of each body to a name that neither ``definitions`` nor
    ``recursions`` holds or with the wrong number of arguments, keyed by the
    body's name.  A tuple on the stack names the body and the bound events
    of what follows it.  Dispatched on the exact node type, with no
    generator."""
    mentioned, faults, walked = {}, {}, set()
    stack = []
    for name, d in reversed(roots.items()):
        stack += (d.body, (name, frozenset(d.params)))
    pop, push = stack.pop, stack.append
    owner = bound = None
    while stack:
        t = pop()
        kind = type(t)
        if kind is Prefix:
            if t.event not in bound:
                mentioned[t.event] = None
            push(t.body)
            continue
        if kind is Stop:
            continue
        if kind is tuple:
            owner, bound = t
            continue
        if kind is Call:
            named = t.args
            callee = definitions.get(t.name) or recursions.get(t.name)
            if owner in faults:
                pass
            elif callee is None:
                faults[owner] = f"undefined process name: {t.name}"
            elif len(named) != len(callee.params):
                faults[owner] = (f"{t.name} takes {len(callee.params)} argument(s), "
                                 f"got {len(named)}")
            if t.name in recursions and t.name not in walked:
                walked.add(t.name)
                stack += ((owner, bound), callee.body, (t.name, frozenset(callee.params)))
        elif kind is ExtChoice or kind is IntChoice or kind is Timeout:
            stack.extend(reversed(t.branches))
            continue
        elif kind is InputPrefix:
            named = sorted(t.events)
            stack += ((owner, bound), t.body)
        elif kind is Hide:
            named = sorted(t.events)
            push(t.body)
        elif kind is Parallel:
            named = sorted(t.left_events | t.right_events)
            stack += (t.right, t.left)
        elif kind is Interleave:
            stack += (t.right, t.left)
            continue
        elif kind is Rename:
            named = [e for pair in sorted(t.pairs) for e in pair]
            push(t.body)
        else:
            continue
        for e in named:
            if e not in bound:
                mentioned[e] = None
        if kind is InputPrefix:
            bound = bound | {t.binder}
    return list(mentioned), faults


def parse_spec(text: str) -> SpecEnv:
    toks = _SPEC_SCAN.findall("\n" + text.replace("\u2028", "\n").replace("\u2029", "\n"))
    toks += ("", "")
    names, stray = _names(toks)
    parser = _Parser(toks, names, text.splitlines(), {})
    declared, definitions, duplicate = None, {}, None
    i, last = 1, len(toks) - 1
    while i < last:
        tok = toks[i]
        if not tok:
            i += 1
            continue
        if stray is not None and stray < toks.index("", i):
            parser.stray(stray)
        if tok == "alphabet":
            if declared is not None:
                raise ParseError("duplicate alphabet header", parser.where(i)[0], 1)
            declared, i = parser.event_list(i + 1)
            if toks[i]:
                parser.fail("trailing input after alphabet header", i)
        elif tok == "channel":
            i = toks.index("", i)
        else:
            if tok not in parser.events:
                parser.fail("expected a definition name", i)
            params, j = (), i + 1
            if toks[j] == "(":
                params, j = parser.event_names(j + 1, ")")
                params = tuple(params)
                if len(set(params)) != len(params):
                    parser.fail(f"duplicate parameter in {tok}", i)
            if tok in definitions and duplicate is None:
                duplicate = (f"duplicate definition of {tok}", parser.where(i)[0], 1)
            parser.binders = list(params)
            body, i = parser.expr(parser.expect("=", j))
            if toks[i]:
                parser.fail("trailing input after process expression", i)
            definitions[tok] = Definition(params, body)
        i += 1
    if duplicate:
        raise ParseError(*duplicate)

    recursions = parser.recursions
    mentioned, faults = _walk(definitions, definitions, recursions)
    if declared is not None:
        extra = [e for e in mentioned if e not in declared]
        if extra:
            raise SpecError(
                f"events used but not declared in the alphabet: {', '.join(extra)}"
            )
        events = declared
    else:
        events = mentioned
    if not events:
        raise SpecError(
            "empty alphabet: declare events in an alphabet header or use them"
        )
    env = SpecEnv(Alphabet(events), definitions, recursions)
    for name in (*definitions, *recursions):
        if name in faults:
            raise SpecError(faults[name])
    return env


def parse_process(text: str, env: SpecEnv):
    """Parse a standalone process expression in the context of a spec.
    The definitions of its ``mu`` terms join the spec's recursions."""
    text = text.replace("\u2028", "\n").replace("\u2029", "\n")
    toks = ["", *filter(None, _SPEC_SCAN.findall(text)), "", ""]
    recursions = {}
    names, stray = _names(toks)
    parser = _Parser(toks, names, [text], recursions)
    if stray is not None:
        parser.stray(stray)
    p, i = parser.expr(1)
    if toks[i]:
        parser.fail("trailing input after process expression", i)
    mentioned, faults = _walk({"": Definition((), p)}, env.definitions, recursions)
    for e in mentioned:
        if e not in env.alphabet:
            raise SpecError(f"event {e!r} is not in the alphabet and not bound")
    for name in ("", *recursions):
        if name in faults:
            raise SpecError(faults[name])
    env.recursions.update(recursions)
    return p
