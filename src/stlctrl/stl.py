"""Discrete-time STL: syntax, parser, horizon, semantics, critical witnesses.

Formulas are kept in positive normal form: the parser pushes every
negation down to the predicates, so the tree only contains predicates,
And/Or, and the bounded temporal operators F/G/U/R.

A formula compiles on first evaluation into one program, a post-order
list of steps (a node and the window of times its parents read), and
each semantics (exact, Boolean, smooth) into one straight-line kernel
that stl_kernels generates from that program, both cached on the root.
critical backtracks from the exact kernel's signals.
"""

import math
from dataclasses import dataclass
from itertools import accumulate, islice

INF = math.inf


class HorizonError(ValueError):
    """Trace too short for the formula's temporal scope."""


# -- predicate functions -----------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """h(s) = sum_i c[i]*s[i] + d over state coordinates.

    eval sums the nonzero terms left to right from d, over floats or tape
    Vars alike; the kernels inline the same sum (see stl_kernels), so
    they are bit-identical to it and record the same tape nodes.
    """

    c: tuple
    d: float
    _nz = None  # (c[i], i) of the nonzero c[i]; a class attribute, not a field

    def eval(self, state):
        if self._nz is None:
            object.__setattr__(self, "_nz", tuple(
                (ci, i) for i, ci in enumerate(self.c) if ci != 0.0))
        acc = self.d
        for ci, i in self._nz:
            acc = acc + ci * state[i]
        return acc

    def negated(self):
        return Affine(tuple(-ci for ci in self.c), -self.d)

    def describe(self):
        terms = []
        for i, ci in enumerate(self.c):
            if ci != 0.0:
                terms.append(f"{ci:+g}*x{i}")
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} {self.d:+g}"


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
    """Last time-step needed to evaluate f at time 0; the left operand of
    a U/R with b == 0 is read at no time (see _compile)."""
    if isinstance(f, Pred):
        return 0
    if isinstance(f, (And, Or)):
        return max(horizon(c) for c in f.children)
    if isinstance(f, (Eventually, Always)):
        return f.b + horizon(f.child)
    if isinstance(f, (Until, Release)):
        return f.b + max(horizon(f.left) if f.b else 0, horizon(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def width(f):
    """Least state dimension f's affine predicates can read: x0..x{n-1}."""
    if isinstance(f, Pred):
        return len(f.h.c) if isinstance(f.h, Affine) else 0
    if isinstance(f, (And, Or)):
        return max(width(c) for c in f.children)
    if isinstance(f, (Eventually, Always)):
        return width(f.child)
    return max(width(f.left), width(f.right))


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


# -- semantics: one compiled program per formula, one kernel per semantics -----

def _program(f, tr, k):
    """f's (horizon, program steps, kernels), compiled on first use and
    cached on the root (like Affine._nz); HorizonError unless f fits tr
    at k."""
    prog = getattr(f, "_prog", None)
    if prog is None:
        prog = (horizon(f), _compile(f), {})
        object.__setattr__(f, "_prog", prog)
    if k + prog[0] > tr.K:
        raise HorizonError(f"formula horizon {prog[0]} at time {k} "
                           f"exceeds trace length K={tr.K}")
    return prog


def _kernel(f, tr, k, sem):
    """f's kernel for sem ("exact", "boolean" or "smooth"), generated on
    first use by stl_kernels, which is imported then."""
    _, steps, kernels = _program(f, tr, k)
    if sem not in kernels:
        from .stl_kernels import generate
        kernels[sem] = generate(steps, sem)
    return kernels[sem]


def _compile(f):
    """Post-order steps (node, lo, n, kids, fn, op): the node's signal holds
    its values at the n times k+lo..k+lo+n-1 its parents read (none below
    a U/R left operand when b == 0); kids index earlier steps; fn is a
    predicate's h.eval or the node's min/max (for U/R the inner one); op
    is "affine", "named", "andor", "window" (F/G) or "until" (U/R), all
    stl_kernels reads of the node's type.  A node object reached twice
    with the same window is one step."""
    steps, seen = [], {}

    def visit(g, lo, n):
        if (id(g), lo, n) in seen:
            return seen[id(g), lo, n]
        kids = ()
        if isinstance(g, Pred):
            fn = g.h.eval
            op = "affine" if isinstance(g.h, Affine) else "named"
        elif isinstance(g, (And, Or)):
            fn, op = min if isinstance(g, And) else max, "andor"
            kids = [visit(c, lo, n) for c in g.children]
        elif isinstance(g, (Eventually, Always)):
            fn, op = min if isinstance(g, Always) else max, "window"
            kids = [visit(g.child, lo + g.a, n and n + g.b - g.a)]
        elif isinstance(g, (Until, Release)):
            fn, op = min if isinstance(g, Until) else max, "until"
            kids = [visit(g.left, lo, n and g.b and n + g.b - 1),
                    visit(g.right, lo + g.a, n and n + g.b - g.a)]
        else:
            raise TypeError(f"not a formula node: {g!r}")
        steps.append((g, lo, n, kids, fn, op))
        seen[id(g), lo, n] = len(steps) - 1
        return len(steps) - 1

    visit(f, 0, 1)
    return steps


def _inner(left, right, j, a, b, agg):
    """agg(right@k', agg(left@t..k'-1)) for k' = t+a..t+b, where left[j] is
    left@t: a running extremum, O(b) per output, folded right first as the
    recursion did."""
    run = accumulate(left[j:j + b], agg, initial=INF if agg is min else -INF)
    return map(agg, right[j:j + b - a + 1], islice(run, a, None))


def signals(f, tr, k=0):
    """Every step's exact signal of f over tr at time k (the last one is
    the root's, at k alone): robustness is its value, and critical can
    backtrack from it."""
    return _kernel(f, tr, k, "exact")(tr.states, k)


def robustness(f, tr, k=0):
    """Exact robustness of f over tr at time k."""
    return signals(f, tr, k)[-1][0]


def satisfies(f, tr, k=0):
    """Boolean satisfaction of f over tr at time k."""
    return _kernel(f, tr, k, "boolean")(tr.states, k)


# -- critical witness -----------------------------------------------------------

def critical(f, tr, k=0, sig=None):
    """Predicate instance (k*, h*) whose value equals robustness(f, tr, k).

    Backtracks the robustness program from the root, taking at each node
    the first candidate equal to its value: earlier time first, then the
    left operand (U/R: left@k..k'-1, then right@k'), so ties are
    deterministic.  sig is signals(f, tr, k) if already evaluated; a
    predicate without a signal of its own (see stl_kernels) is evaluated at
    the candidate times only.
    """
    steps = _program(f, tr, k)[1]
    if sig is None:
        sig = signals(f, tr, k)
    states = tr.states

    def value(i, t):
        s = sig[i]
        return steps[i][4](states[t]) if s is None else s[t - k - steps[i][1]]

    i, t = len(steps) - 1, k
    v = sig[i][0]
    while True:
        g, lo, _, kids, fn, _ = steps[i]
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
        (i, t), v = next((cv for cv in ((c, value(*c)) for c in cands)
                          if cv[1] == v), None) or (cands[0], value(*cands[0]))


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
