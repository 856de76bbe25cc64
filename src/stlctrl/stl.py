"""Discrete-time STL: abstract syntax, parser, horizon, robustness, witnesses.

Formulas are kept in positive normal form: the parser pushes every
negation down to the predicates, so the tree only contains predicates,
And/Or, and the bounded temporal operators F/G/U/R.
"""

import math
from dataclasses import dataclass
from itertools import accumulate, islice

from .autodiff import Var, sum_source

INF = math.inf


class HorizonError(ValueError):
    """Trace too short for the formula's temporal scope."""


# -- predicate functions -----------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """h(s) = sum_i c[i]*s[i] + d over state coordinates.

    eval runs straight-line code over the nonzero coefficients, compiled
    on first use and summed left to right from d, so it is bit-identical
    to a loop over the coordinates and records the same tape nodes.
    """

    c: tuple
    d: float
    _ev = None  # compiled evaluator; a class attribute, not a field

    def eval(self, state):
        return (self._ev or self._compile())(state)

    def _compile(self):
        ev = _compile_affine(self.c, self.d)
        object.__setattr__(self, "_ev", ev)
        return ev

    def negated(self):
        return Affine(tuple(-ci for ci in self.c), -self.d)

    def describe(self):
        terms = []
        for i, ci in enumerate(self.c):
            if ci != 0.0:
                terms.append(f"{ci:+g}*x{i}")
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} {self.d:+g}"


_AFFINE = {}  # nonzero count n -> make(d, c0, i0, ..., c{n-1}, i{n-1})


def _compile_affine(c, d):
    nz = [(ci, i) for i, ci in enumerate(c) if ci != 0.0]
    n = len(nz)
    make = _AFFINE.get(n)
    if make is None:
        stmts, expr = sum_source("v", "d", [f"c{j}*s[i{j}]" for j in range(n)])
        params = "".join(f", c{j}, i{j}" for j in range(n))
        body = "".join(f"        {st}\n" for st in stmts + [f"return {expr}"])
        ns = {}
        exec(f"def make(d{params}):\n    def ev(s):\n{body}    return ev\n", ns)
        make = _AFFINE[n] = ns["make"]
    return make(d, *[x for pair in nz for x in pair])


@dataclass(frozen=True)
class Named:
    """Registered scalar function of the state, differentiable if given Vars."""

    name: str
    fn: object
    negation: object = None  # another Named, or None

    def eval(self, state):
        return self.fn(state)

    def negated(self):
        if self.negation is None:
            raise UnsupportedNegation(
                f"named predicate {self.name!r} has no registered negation")
        return self.negation

    def describe(self):
        return f"pred({self.name})"


class UnsupportedNegation(ValueError):
    pass


# -- formula nodes -----------------------------------------------------------

class _Node:
    _prog = None  # compiled program of a root (see _program); not a field


@dataclass(frozen=True)
class Pred(_Node):
    h: object          # Affine or Named
    strict: bool = True  # h(s) > 0 vs h(s) >= 0; robustness is h(s) either way


@dataclass(frozen=True)
class And(_Node):
    children: tuple


@dataclass(frozen=True)
class Or(_Node):
    children: tuple


class _Temporal(_Node):
    def __post_init__(self):
        a, b = self.a, self.b
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValueError("temporal bounds must be integers")
        if a < 0 or a > b:
            raise ValueError(f"invalid interval [{a},{b}]")


@dataclass(frozen=True)
class Eventually(_Temporal):
    a: int
    b: int
    child: object


@dataclass(frozen=True)
class Always(_Temporal):
    a: int
    b: int
    child: object


@dataclass(frozen=True)
class Until(_Temporal):
    a: int
    b: int
    left: object
    right: object


@dataclass(frozen=True)
class Release(_Temporal):
    a: int
    b: int
    left: object
    right: object


# -- traces ------------------------------------------------------------------

class Trace:
    """State sequence s_0..s_K; each state is an indexable vector."""

    __slots__ = ("states", "dim", "K")

    def __init__(self, states):
        self.states = [tuple(s) for s in states]
        if not self.states:
            raise ValueError("trace must contain at least one state")
        self.dim = len(self.states[0])
        for s in self.states:
            if len(s) != self.dim:
                raise ValueError("trace states have inconsistent dimension")
        self.K = len(self.states) - 1


@dataclass(frozen=True)
class CriticalWitness:
    time: int
    predicate: Pred
    value: float


# -- structural queries -------------------------------------------------------

def horizon(f):
    """Last time-step needed to evaluate f at time 0."""
    if isinstance(f, Pred):
        return 0
    if isinstance(f, (And, Or)):
        return max(horizon(c) for c in f.children)
    if isinstance(f, (Eventually, Always)):
        return f.b + horizon(f.child)
    if isinstance(f, (Until, Release)):
        return f.b + max(horizon(f.left), horizon(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def aggregation_shape(f):
    """(max nesting depth, max fan-in) of min/max aggregations in the
    expanded Table-style evaluation of f; predicates have depth 0."""
    if isinstance(f, Pred):
        return 0, 1
    if isinstance(f, (And, Or)):
        ds, ws = zip(*(aggregation_shape(c) for c in f.children))
        return 1 + max(ds), max(len(f.children), *ws)
    if isinstance(f, (Eventually, Always)):
        d, w = aggregation_shape(f.child)
        return 1 + d, max(f.b - f.a + 1, w)
    if isinstance(f, (Until, Release)):
        dl, wl = aggregation_shape(f.left)
        dr, wr = aggregation_shape(f.right)
        # outer aggregation over k', inner over {right@k'} u {left@k''<k'}
        return 2 + max(dl, dr), max(f.b - f.a + 1, f.b + 1, wl, wr)
    raise TypeError(f"not a formula node: {f!r}")


# -- quantitative semantics: one compiled program per formula -------------------

def _program(f, tr, k):
    """f's program steps, compiled on first use and cached on the root with
    its horizon (like Affine._ev); HorizonError unless f fits tr at k."""
    prog = getattr(f, "_prog", None)
    if prog is None:
        prog = (horizon(f), _compile(f))
        object.__setattr__(f, "_prog", prog)
    if k + prog[0] > tr.K:
        raise HorizonError(f"formula horizon {prog[0]} at time {k} "
                           f"exceeds trace length K={tr.K}")
    return prog[1]


def _compile(f):
    """Post-order steps (node, lo, hi, kids, fn): the node's signal holds
    its values at times k+lo..k+hi, the times its parents read (an empty
    span for a U/R left operand when b == 0); kids index earlier steps; fn
    is a predicate's function or the node's min/max (for U/R the inner one).
    """
    steps = []

    def visit(g, lo, hi):
        kids = ()
        if isinstance(g, Pred):
            h = g.h
            fn = h._ev or h._compile() if isinstance(h, Affine) else h.eval
        elif isinstance(g, (And, Or)):
            fn = min if isinstance(g, And) else max
            kids = [visit(c, lo, hi) for c in g.children]
        elif isinstance(g, (Eventually, Always)):
            fn = min if isinstance(g, Always) else max
            kids = [visit(g.child, lo + g.a, hi + g.b)]
        elif isinstance(g, (Until, Release)):
            fn = min if isinstance(g, Until) else max
            kids = [visit(g.left, lo, hi + g.b - 1),
                    visit(g.right, lo + g.a, hi + g.b)]
        else:
            raise TypeError(f"not a formula node: {g!r}")
        steps.append((g, lo, hi, kids, fn))
        return len(steps) - 1

    visit(f, 0, 0)
    return steps


def _signals(steps, states, k):
    """Every step's signal, bottom-up; the last is the root's, at k alone.

    Builtin min/max keep the first of equal items, so each value is bit for
    bit the one of the min/max recursion over (node, time).
    """
    sig = []
    for g, lo, hi, kids, fn in steps:
        n = hi - lo + 1
        if isinstance(g, Pred):
            v = [fn(s) for s in states[k + lo:k + hi + 1]]
        elif isinstance(g, (And, Or)):
            v = list(map(fn, zip(*[sig[c] for c in kids])))
        elif isinstance(g, (Eventually, Always)):
            c, w = sig[kids[0]], g.b - g.a + 1
            v = [fn(c[j:j + w]) for j in range(n)]
        else:
            left, right = sig[kids[0]], sig[kids[1]]
            out, seed = (max, -INF) if fn is min else (min, INF)
            v = [out(seed, *_inner(left, right, j, g.a, g.b, fn))
                 for j in range(n)]
        sig.append(v)
    return sig


def _inner(left, right, j, a, b, agg):
    """agg(right@k', agg(left@t..k'-1)) for k' = t+a..t+b, where left[j] is
    left@t: a running extremum, O(b) per output, folded right first as the
    recursion did."""
    run = accumulate(left[j:j + b], agg, initial=INF if agg is min else -INF)
    return map(agg, right[j:j + b - a + 1], islice(run, a, None))


def robustness(f, tr, k=0):
    """Exact robustness of f over tr at time k."""
    return _signals(_program(f, tr, k), tr.states, k)[-1][0]


# -- Boolean semantics ---------------------------------------------------------

def satisfies(f, tr, k=0):
    _program(f, tr, k)
    return _sat(f, tr, k, {})


def _sat(f, tr, k, memo):
    key = (id(f), k)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(f, Pred):
        v = f.h.eval(tr.states[k])
        out = v > 0.0 if f.strict else v >= 0.0
    elif isinstance(f, And):
        out = all(_sat(c, tr, k, memo) for c in f.children)
    elif isinstance(f, Or):
        out = any(_sat(c, tr, k, memo) for c in f.children)
    elif isinstance(f, Always):
        out = all(_sat(f.child, tr, kk, memo) for kk in range(k + f.a, k + f.b + 1))
    elif isinstance(f, Eventually):
        out = any(_sat(f.child, tr, kk, memo) for kk in range(k + f.a, k + f.b + 1))
    elif isinstance(f, Until):
        out = any(_sat(f.right, tr, kp, memo)
                  and all(_sat(f.left, tr, kpp, memo) for kpp in range(k, kp))
                  for kp in range(k + f.a, k + f.b + 1))
    elif isinstance(f, Release):
        out = all(_sat(f.right, tr, kp, memo)
                  or any(_sat(f.left, tr, kpp, memo) for kpp in range(k, kp))
                  for kp in range(k + f.a, k + f.b + 1))
    else:
        raise TypeError(f"not a formula node: {f!r}")
    memo[key] = out
    return out


# -- critical witness -----------------------------------------------------------

def critical(f, tr, k=0):
    """Predicate instance (k*, h*) whose value equals robustness(f, tr, k).

    Backtracks the robustness program from the root, taking at each node
    the first candidate equal to its value: earlier time first, then the
    left operand (U/R: left@k..k'-1, then right@k'), so ties are
    deterministic.
    """
    steps = _program(f, tr, k)
    sig = _signals(steps, tr.states, k)
    i, t = len(steps) - 1, k
    while True:
        g, lo, _, kids, fn = steps[i]
        v = sig[i][t - k - lo]
        if isinstance(g, Pred):
            return CriticalWitness(time=t, predicate=g, value=v)
        if isinstance(g, (And, Or)):
            cands = [(c, t) for c in kids]
        elif isinstance(g, (Eventually, Always)):
            cands = [(kids[0], tt) for tt in range(t + g.a, t + g.b + 1)]
        else:
            inner = _inner(*[sig[c] for c in kids], t - k - lo, g.a, g.b, fn)
            kp = t + g.a + next((p for p, x in enumerate(inner) if x == v), 0)
            cands = [(kids[0], tt) for tt in range(t, kp)] + [(kids[1], kp)]
        # no candidate equals v only where NaN values are involved
        i, t = next((c for c in cands
                     if sig[c[0]][c[1] - k - steps[c[0]][1]] == v), cands[0])


# -- parser ---------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_OPERATORS = {"F": Eventually, "G": Always, "U": Until, "R": Release}


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _linecol(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        last = self.text.rfind("\n", 0, pos)
        return line, pos - last

    def error(self, message, pos=None):
        line, col = self._linecol(self.pos if pos is None else pos)
        raise ParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token):
        if not self.eat(token):
            self.error(f"expected {token!r}")

    def number(self):
        self.skip_ws()
        start = self.pos
        t = self.text
        if self.pos < len(t) and t[self.pos] in "+-":
            self.pos += 1
        digits = False
        while self.pos < len(t) and t[self.pos].isdigit():
            self.pos += 1
            digits = True
        if self.pos < len(t) and t[self.pos] == ".":
            self.pos += 1
            while self.pos < len(t) and t[self.pos].isdigit():
                self.pos += 1
                digits = True
        if self.pos < len(t) and t[self.pos] in "eE" and digits:
            mark = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        if not digits:
            self.error("expected a number", start)
        return float(t[start:self.pos])

    def integer(self):
        v = self.number()
        if not v.is_integer():
            self.error("expected an integer time bound")
        return int(v)

    def ident(self):
        self.skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("expected an identifier")
        return t[start:self.pos]


def parse(text, named=None):
    """Parse the formula DSL into a positive-normal-form Formula.

    Predicates: `x0 > 1.5`, `2*x0 - x3 >= 0`, `pred(name)` with `named`
    a dict of Named predicates.  Connectives: `&&`, `||`, `!`,
    `F[a,b](...)`, `G[a,b](...)`, `U[a,b](lhs, rhs)`, `R[a,b](lhs, rhs)`.
    Negations are pushed onto the predicates while parsing.
    """
    lx = _Lexer(text)
    f = _parse_or(lx, named or {})
    lx.skip_ws()
    if lx.pos != len(lx.text):
        lx.error("unexpected trailing input")
    return f


def _parse_or(lx, named):
    children = [_parse_and(lx, named)]
    while lx.eat("||"):
        children.append(_parse_and(lx, named))
    return children[0] if len(children) == 1 else Or(tuple(children))


def _parse_and(lx, named):
    children = [_parse_unary(lx, named)]
    while lx.eat("&&"):
        children.append(_parse_unary(lx, named))
    return children[0] if len(children) == 1 else And(tuple(children))


def _parse_unary(lx, named):
    if lx.eat("!"):
        return negate(_parse_unary(lx, named))
    c = lx.peek()
    if c and c in "FGUR":
        mark = lx.pos
        op = lx.text[lx.pos]
        lx.pos += 1
        if lx.peek() != "[":
            lx.pos = mark  # an identifier like `F...`? fall through to predicate
        else:
            lx.expect("[")
            a = lx.integer()
            lx.expect(",")
            b = lx.integer()
            lx.expect("]")
            lx.expect("(")
            if op in "FG":
                child = _parse_or(lx, named)
                lx.expect(")")
                try:
                    return _OPERATORS[op](a, b, child)
                except ValueError as e:
                    lx.error(str(e))
            left = _parse_or(lx, named)
            lx.expect(",")
            right = _parse_or(lx, named)
            lx.expect(")")
            try:
                return _OPERATORS[op](a, b, left, right)
            except ValueError as e:
                lx.error(str(e))
    if lx.eat("("):
        f = _parse_or(lx, named)
        lx.expect(")")
        return f
    return _parse_predicate(lx, named)


def _parse_predicate(lx, named):
    lx.skip_ws()
    if lx.text.startswith("pred", lx.pos):
        mark = lx.pos
        lx.pos += 4
        if lx.eat("("):
            name = lx.ident()
            lx.expect(")")
            p = named.get(name)
            if p is None:
                lx.error(f"unknown named predicate {name!r}", mark)
            return Pred(h=p, strict=True)
        lx.pos = mark
    coeffs = {}
    const = 0.0
    sign = 1.0
    first = True
    while True:
        lx.skip_ws()
        c = lx.peek()
        coef = sign
        if c in "+-" or c == "." or c.isdigit():
            coef = sign * lx.number()
            if not lx.eat("*"):
                const += coef
                coef = None
        if coef is not None:
            lx.skip_ws()
            if lx.peek() != "x":
                if first:
                    lx.error("expected a predicate term like `x0` or `2*x0`")
                lx.error("expected a state variable like `x0` after `*`")
            lx.pos += 1
            idx = lx.integer()
            if idx < 0:
                lx.error("state index must be non-negative")
            coeffs[idx] = coeffs.get(idx, 0.0) + coef
        first = False
        lx.skip_ws()
        nxt = lx.peek()
        if nxt == "+":
            lx.pos += 1
            sign = 1.0
        elif nxt == "-":
            lx.pos += 1
            sign = -1.0
        else:
            break
    for cmp_tok in (">=", "<=", ">", "<"):
        if lx.eat(cmp_tok):
            rhs = lx.number()
            break
    else:
        lx.error("expected a comparison (>, >=, <, <=)")
    dim = max(coeffs) + 1 if coeffs else 1
    c = [coeffs.get(i, 0.0) for i in range(dim)]
    d = const - rhs
    if cmp_tok in ("<", "<="):
        c = [-ci for ci in c]
        d = -d
    h = Affine(tuple(c), d)
    return Pred(h=h, strict=cmp_tok in (">", "<"))


def negate(f):
    """Negation in positive normal form (pushed down to the predicates)."""
    if isinstance(f, Pred):
        return Pred(h=f.h.negated(), strict=not f.strict)
    if isinstance(f, And):
        return Or(tuple(negate(c) for c in f.children))
    if isinstance(f, Or):
        return And(tuple(negate(c) for c in f.children))
    if isinstance(f, Always):
        return Eventually(f.a, f.b, negate(f.child))
    if isinstance(f, Eventually):
        return Always(f.a, f.b, negate(f.child))
    if isinstance(f, Until):
        return Release(f.a, f.b, negate(f.left), negate(f.right))
    if isinstance(f, Release):
        return Until(f.a, f.b, negate(f.left), negate(f.right))
    raise TypeError(f"not a formula node: {f!r}")
