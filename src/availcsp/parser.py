"""Parser for spec files and process expressions.

Spec file format: optional ``alphabet {a,b,...}`` header, optional
``channel`` lines (accepted and ignored, so emitted simulation scripts can
be read back), ``#`` comments, and one definition per line::

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

``STOP``, ``DIV``, ``mu``, ``alphabet``, and ``channel`` are reserved words.
Renaming is relational and not implicitly completed with identity: an event
with no image is blocked.

``mu X @ P`` is read as a call of a definition of its own, kept in the
spec's ``recursions``: its parameters are the enclosing event binders ``P``
mentions, and ``X`` inside ``P`` reads as that same call.
"""
from __future__ import annotations

import re

from .errors import ParseError, SpecError
from .kernel import Alphabet
from .process import (
    Call, Definition, Div, ExtChoice, Hide, InputPrefix, IntChoice,
    Interleave, Parallel, Prefix, Rename, SpecEnv, Stop, Timeout,
    _scoped_events, check_env, check_process, pretty, subst_events,
)

_RESERVED = {"STOP", "DIV", "mu", "alphabet", "channel"}

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<punct>\|\|\||\|~\||\[\[|\]\]|\[\]|\[>|\|\||->|<-|[()\[\]{},:@=?\\])
      | (?P<ident>[A-Za-z][A-Za-z0-9_.]*)
    )""",
    re.VERBOSE,
)


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.toks = []
        pos = 0
        while pos < len(text):
            if text[pos] == "#":
                break
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ParseError(f"bad character {rest[0]!r}", line, pos + 1)
            kind = "punct" if m.group("punct") else "ident"
            self.toks.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def peek(self, ahead: int = 0):
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else (None, None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of line", self.line, 0)
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, col = self.peek()
        if val != value:
            got = repr(val) if val is not None else "end of line"
            raise ParseError(f"expected {value!r}, got {got}", self.line, col or 0)
        self.i += 1

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    def error(self, msg: str):
        _, val, col = self.peek()
        raise ParseError(msg, self.line, col or 0)


class _ExprParser:
    def __init__(self, tokens: _Tokens, recursions=None, binders=()):
        self.t = tokens
        self.recursions = recursions    # filled in; None on a first reading
        self.binders = list(binders)    # event binders in scope, outermost first
        self.rec_vars = {}              # recursion variable -> the call it reads as

    def ident(self, what: str = "name") -> str:
        kind, val, col = self.t.peek()
        if kind != "ident":
            self.t.error(f"expected {what}")
        self.t.next()
        return val

    def event_name(self) -> str:
        name = self.ident("event name")
        if name in _RESERVED:
            raise ParseError(f"{name!r} is a reserved word", self.t.line, 0)
        return name

    def comma_list(self, item) -> list:
        """``item ("," item)*``."""
        out = [item()]
        while self.t.peek()[1] == ",":
            self.t.next()
            out.append(item())
        return out

    def event_set(self) -> frozenset:
        return frozenset(self._ordered_event_list())

    def parse(self):
        p = self.par()
        if not self.t.at_end():
            self.t.error("trailing input after process expression")
        return p

    def par(self):
        left = self.choice()
        while True:
            kind, val, _ = self.t.peek()
            if val == "|||":
                self.t.next()
                left = Interleave(left, self.choice())
            elif val == "[" and self.t.peek(1)[1] == "{":
                self.t.next()
                a = self.event_set()
                self.t.expect("||")
                b = self.event_set()
                self.t.expect("]")
                left = Parallel(left, a, b, self.choice())
            else:
                return left

    _CHOICE = {"[]": ExtChoice, "|~|": IntChoice, "[>": Timeout}

    def choice(self):
        """One node per chain of one choice operator."""
        branches = [self.pre()]
        op_seen = None
        while True:
            kind, val, col = self.t.peek()
            if val not in self._CHOICE:
                break
            if op_seen is not None and val != op_seen:
                raise ParseError(
                    f"mixing {op_seen!r} and {val!r} needs parentheses",
                    self.t.line, col,
                )
            op_seen = val
            self.t.next()
            branches.append(self.pre())
        if op_seen is None:
            return branches[0]
        return self._CHOICE[op_seen](tuple(branches))

    def pre(self):
        kind, val, col = self.t.peek()
        if val == "?":
            self.t.next()
            binder = self.event_name()
            self.t.expect(":")
            events = self.event_set()
            self.t.expect("->")
            return InputPrefix(binder, events, self.in_scope(binder, self.pre))
        if val == "mu":
            self.t.next()
            var = self.ident("recursion variable")
            self.t.expect("@")
            return self.recursion(var)
        if val == "|~|":
            self.t.next()
            binder = self.event_name()
            self.t.expect(":")
            members = self._ordered_event_list()
            self.t.expect("@")
            body = self.in_scope(binder, self.par)
            if not members:
                raise ParseError("indexed internal choice over an empty set", self.t.line, col)
            return IntChoice(tuple(subst_events(body, {binder: e}) for e in members))
        if kind == "ident" and val not in _RESERVED and self.t.peek(1)[1] == "->":
            self.t.next()
            self.t.next()
            return Prefix(val, self.pre())
        return self.post()

    def in_scope(self, binder: str, parse):
        self.binders.append(binder)
        body = parse()
        self.binders.pop()
        return body

    def recursion(self, var: str) -> Call:
        """``mu X @ P`` as a call of a definition.  A first reading of P,
        with X a bare name, gives the parameters (the binders in scope that
        P mentions) and the name: the term's text with parameter i shown as
        the hole ``$i``.  That text is closed, so it names one process, and
        no definition name can equal it.  A second reading, with X a call
        passing binders of its own (``$X.i``, which no binder in P can
        shadow), gives the body; a ``mu`` nested in it that names X is then
        closed too."""
        start, rec_vars, recursions = self.t.i, self.rec_vars, self.recursions
        self.rec_vars, self.recursions = {**rec_vars, var: Call(var)}, None
        draft = self.par()
        self.recursions = recursions
        free = {e for _, named in _scoped_events(draft) for e in named}
        params = tuple(dict.fromkeys(b for b in self.binders if b in free))
        holes = {b: f"${i}" for i, b in enumerate(params)}
        name = f"mu {var} @ {pretty(subst_events(draft, holes))}"
        if recursions is not None:
            own = tuple(f"${var}.{i}" for i in range(len(params)))
            self.t.i, outer = start, self.binders
            self.rec_vars[var] = Call(name, own)
            self.binders = outer + list(own)
            body = subst_events(self.par(), {**holes, **dict(zip(own, holes.values()))})
            self.binders = outer
            recursions[name] = Definition(tuple(holes.values()), body)
        self.rec_vars = rec_vars
        return Call(name, params)

    def _ordered_event_list(self) -> list:
        self.t.expect("{")
        names = [] if self.t.peek()[1] == "}" else self.comma_list(self.event_name)
        self.t.expect("}")
        return list(dict.fromkeys(names))

    def post(self):
        p = self.atom()
        while True:
            val = self.t.peek()[1]
            if val == "\\":
                self.t.next()
                p = Hide(p, self.event_set())
            elif val == "[[":
                self.t.next()
                pairs = [] if self.t.peek()[1] == "]]" else self.comma_list(self._rename_pair)
                self.t.expect("]]")
                p = Rename(p, frozenset(pairs))
            else:
                return p

    def _rename_pair(self):
        a = self.event_name()
        self.t.expect("<-")
        b = self.event_name()
        return (a, b)

    def atom(self):
        kind, val, col = self.t.peek()
        if val == "(":
            self.t.next()
            p = self.par()
            self.t.expect(")")
            return p
        if val == "STOP":
            self.t.next()
            return Stop()
        if val == "DIV":
            self.t.next()
            return Div()
        if kind == "ident":
            if val in _RESERVED:
                raise ParseError(f"{val!r} is a reserved word", self.t.line, col)
            self.t.next()
            if val in self.rec_vars:
                return self.rec_vars[val]
            if self.t.peek()[1] == "(":
                self.t.next()
                args = tuple(self.comma_list(self.event_name))
                self.t.expect(")")
                return Call(val, args)
            return Call(val)
        self.t.error("expected a process")


def parse_spec(text: str) -> SpecEnv:
    declared = None
    raw_defs = []
    recursions = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        toks = _Tokens(raw, lineno)
        if toks.at_end():
            continue
        head = toks.peek()[1]
        if head == "alphabet":
            if declared is not None:
                raise ParseError("duplicate alphabet header", lineno, 1)
            toks.next()
            parser = _ExprParser(toks)
            members = parser._ordered_event_list()
            if not toks.at_end():
                toks.error("trailing input after alphabet header")
            declared = members
            continue
        if head == "channel":
            continue
        name_kind, name, col = toks.next()
        if name_kind != "ident" or name in _RESERVED:
            raise ParseError("expected a definition name", lineno, col)
        params = ()
        if toks.peek()[1] == "(":
            toks.next()
            parser = _ExprParser(toks)
            params = tuple(parser.comma_list(parser.event_name))
            toks.expect(")")
            if len(set(params)) != len(params):
                raise ParseError(f"duplicate parameter in {name}", lineno, col)
        toks.expect("=")
        body = _ExprParser(toks, recursions, params).parse()
        raw_defs.append((lineno, name, params, body))

    definitions = {}
    for lineno, name, params, body in raw_defs:
        if name in definitions:
            raise ParseError(f"duplicate definition of {name}", lineno, 1)
        definitions[name] = Definition(params, body)

    # events in order of first mention; a recursion's body is read where
    # its ``mu`` stood
    mentioned, walked = [], set()

    def mention(body, bound):
        for t, named in _scoped_events(body, bound):
            for e in named:
                if e not in mentioned:
                    mentioned.append(e)
            if type(t) is Call and t.name in recursions and t.name not in walked:
                walked.add(t.name)
                mention(recursions[t.name].body, recursions[t.name].params)

    for _, name, params, body in raw_defs:
        mention(body, params)
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
    check_env(env)
    return env


def parse_process(text: str, env: SpecEnv):
    """Parse a standalone process expression in the context of a spec.
    The definitions of its ``mu`` terms join the spec's recursions."""
    recursions = {}
    p = _ExprParser(_Tokens(text, 1), recursions).parse()
    scope = SpecEnv(env.alphabet, env.definitions, env.recursions | recursions)
    for d in recursions.values():
        check_process(d.body, scope, frozenset(d.params))
    check_process(p, scope)
    env.recursions.update(recursions)
    return p
