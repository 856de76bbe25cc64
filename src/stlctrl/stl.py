"""Discrete-time STL: syntax, parser, horizon, semantics, critical witnesses.

Formulas are kept in positive normal form: the parser pushes every
negation down to the predicates, so the tree only contains predicates,
And/Or, and the bounded temporal operators F/G/U/R.  The parser splits
the text into tokens with one regex (a state variable such as x12 is one
token, a number is finite) and descends over them without backtracking;
given the state's dimension, it rejects a state variable past it at its
token.

A formula compiles on first evaluation into one program, a post-order
list of steps (a node and the window of times its parents read), and the
exact and Boolean semantics each into one straight-line kernel that
stl_kernels generates from that program (_kernel, its only importer,
makes and caches on the root all of a formula's code, plants' rollout
watch too; the smooth semantics walks the program: see smooth).
critical backtracks from the exact kernel's signals.  robustness runs a
third kernel, the root kernel, which computes the root value alone with
the exact kernel's bits, skipping the work of a reach-avoid And's
conjuncts that cannot set its min (see stl_kernels).  A trace is
anything with states, a list of equal-width tuples s_0..s_K, and K: a
plants.Rollout as it is, or a Trace, which checks states from outside
the program (a trace CSV, an API caller, tape Vars).

Predicates, nodes and witnesses are Records (as are smooth, trainer and
verify results): immutable, equal and hashed by their fields, printed as a
frozen dataclass was, and no method is generated when the module runs.
"""

import math
import re
from itertools import accumulate, islice

INF = math.inf


class HorizonError(ValueError):
    """Trace too short for the formula's temporal scope."""


# -- records -------------------------------------------------------------------

class Record:
    """The fields named in _fields, a default being a class attribute, with
    a frozen dataclass's behaviour: fields by position or name, then
    __post_init__; eq and hash over the field tuple, and its repr.  Caches
    that object.__setattr__ adds to __dict__ (Affine._nz, _Node._prog) stay
    out of eq, hash and repr."""

    _fields = ()

    def __init__(self, *args, **kw):
        fields = self._fields
        if kw or len(args) != len(fields):
            args = self._complete(args, kw)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _complete(cls, args, kw):
        """args, then each later field given by name or its default;
        TypeError on a missing, unknown or repeated field."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, "
                            f"got {len(args)}")
        for k in fields[len(args):]:
            if k in kw:
                args += (kw.pop(k),)
            elif hasattr(cls, k):
                args += (getattr(cls, k),)
            else:
                raise TypeError(f"{name}() is missing field {k!r}")
        if kw:
            raise TypeError(f"{name}() got an unknown or repeated field "
                            f"{next(iter(kw))!r}")
        return args

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, k) for k in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# -- predicate functions -----------------------------------------------------

class Affine(Record):
    """h(s) = sum_i c[i]*s[i] + d over state coordinates.

    eval sums the nonzero terms left to right from d, over floats or tape
    Vars alike: a term with c[i] == 1.0 adds s[i] and one with c[i] ==
    -1.0 subtracts it, with no multiply (IEEE gives the same bits but for
    a NaN payload), and the others add c[i]*s[i].  The kernels inline the
    same sum (see stl_kernels), so they are bit-identical to it.
    """

    _fields = ("c", "d")
    _nz = None  # (c[i], i) of the nonzero c[i]; a class attribute, not a field

    def eval(self, state):
        if self._nz is None:
            object.__setattr__(self, "_nz", tuple(
                (ci, i) for i, ci in enumerate(self.c) if ci != 0.0))
        acc = self.d
        for ci, i in self._nz:
            if ci == 1.0:
                acc = acc + state[i]
            elif ci == -1.0:
                acc = acc - state[i]
            else:
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


class Named(Record):
    """Registered scalar function of the state, differentiable if given Vars."""

    _fields = ("name", "fn", "negation")
    negation = None  # another Named, or None

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

class _Node(Record):
    _prog = None  # compiled program of a root (see _program); not a field


class Pred(_Node):
    _fields = ("h", "strict")  # h is an Affine or a Named
    strict = True  # h(s) > 0 vs h(s) >= 0; robustness is h(s) either way


class And(_Node):
    _fields = ("children",)


class Or(_Node):
    _fields = ("children",)


class _Temporal(_Node):
    def __post_init__(self):
        a, b = self.a, self.b
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValueError("temporal bounds must be integers")
        if a < 0 or a > b:
            raise ValueError(f"invalid interval [{a},{b}]")


class Eventually(_Temporal):
    _fields = ("a", "b", "child")


class Always(_Temporal):
    _fields = ("a", "b", "child")


class Until(_Temporal):
    _fields = ("a", "b", "left", "right")


class Release(_Temporal):
    _fields = ("a", "b", "left", "right")


# -- traces ------------------------------------------------------------------

class Trace:
    """States s_0..s_K from outside the program, checked: tuples, one width."""

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


class CriticalWitness(Record):
    _fields = ("time", "predicate", "value")


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


# -- semantics: one compiled program per formula, a kernel per min/max one ---

def _program(f, tr=None, k=0):
    """f's (horizon, program steps, kernels), compiled on first use and
    cached on the root (like Affine._nz); given tr, HorizonError unless f
    fits tr at k, ValueError if k is negative."""
    if k < 0:
        raise ValueError(f"time k={k} is negative")
    prog = getattr(f, "_prog", None)
    if prog is None:
        prog = (horizon(f), _compile(f), {})
        object.__setattr__(f, "_prog", prog)
    if tr is not None and k + prog[0] > tr.K:
        raise HorizonError(f"formula horizon {prog[0]} at time {k} "
                           f"exceeds trace length K={tr.K}")
    return prog


def _kernel(f, tr, k, sem):
    """f's kernel for sem ("exact", "boolean", "root" or "watch", tr None
    for the watch), generated on first use by stl_kernels, which is
    imported then."""
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
    """Exact robustness of f over tr at time k, signals(f, tr, k)[-1][0] by
    bits, from the root kernel: the root value alone, without the work
    that cannot set it (see stl_kernels.generate)."""
    return _kernel(f, tr, k, "root")(tr.states, k)


def satisfies(f, tr, k=0):
    """Boolean satisfaction of f over tr at time k."""
    return _kernel(f, tr, k, "boolean")(tr.states, k)


# -- critical witness -----------------------------------------------------------

def critical(f, tr, k=0):
    """Predicate instance (k*, h*) whose value equals robustness(f, tr, k).

    Backtracks the exact signals from the root, taking at each node the
    first candidate equal to its value: earlier time first, then the left
    operand (U/R: left@k..k'-1, then right@k'), so ties are deterministic.
    A predicate without a signal of its own (see stl_kernels) is evaluated
    at the candidate times only.
    """
    steps, sig, states = _program(f, tr, k)[1], signals(f, tr, k), tr.states

    def value(i, t):
        s = sig[i]
        return steps[i][4](states[t]) if s is None else s[t - k - steps[i][1]]

    i, t = len(steps) - 1, k
    v = sig[i][0]
    while True:
        g, lo, _, kids, fn, _ = steps[i]
        if isinstance(g, Pred):
            return CriticalWitness(t, g, v)
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


# a token: a number, a state variable (x and digits), an operator or a name;
# any other character is an error
_TOKEN = re.compile(r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<var>x\d+\b)|(?P<op>&&|\|\||[<>]=?|[-+*!()[\],])"
                    r"|(?P<name>\w+)|(?P<other>\S))")


def parse(text, named=None, dim=None):
    """Parse the formula DSL into a positive-normal-form Formula.

    Predicates: `x0 > 1.5`, `2*x0 - x3 >= 0`, `pred(name)` with `named`
    a dict of Named predicates.  Connectives: `&&`, `||`, `!`,
    `F[a,b](...)`, `G[a,b](...)`, `U[a,b](lhs, rhs)`, `R[a,b](lhs, rhs)`.
    Negations are pushed onto the predicates while parsing.  With dim
    given, a state variable x{i} with i >= dim is an error at its token.
    """
    p = _Parser(text, named or {}, dim)
    f = p.disjunction()
    if p.tok[0] != "end":
        p.error("unexpected trailing input")
    return f


def _error(text, message, pos):
    raise ParseError(message, text.count("\n", 0, pos) + 1,
                     pos - text.rfind("\n", 0, pos))


def _tokens(text):
    """The (kind, text, offset) tokens of text, kind being num, var, name or
    the operator itself, then end tokens forever."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "other":
            _error(text, f"unexpected character {m[kind]!r}", m.start(kind))
        yield m[kind] if kind == "op" else kind, m[kind], m.start(kind)
    while True:
        yield "end", "", len(text)


class _Parser:
    """Recursive descent that holds two tokens: tok, the next one, and
    after, read only for `F[`, `G[`, `U[`, `R[` and `pred(`."""

    def __init__(self, text, named, dim):
        self.text, self.named, self.dim = text, named, dim
        self.lexer = _tokens(text)
        self.tok, self.after = next(self.lexer), next(self.lexer)

    def error(self, message, tok=None):
        _error(self.text, message, (tok or self.tok)[2])

    def advance(self):
        tok, self.tok, self.after = self.tok, self.after, next(self.lexer)
        return tok

    def eat(self, kind):
        """The next token if it is of kind, consumed; else None."""
        return self.advance() if self.tok[0] == kind else None

    def expect(self, kind, message=None):
        return self.eat(kind) or self.error(message or f"expected {kind!r}")

    def disjunction(self):
        children = [self.conjunction()]
        while self.eat("||"):
            children.append(self.conjunction())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def conjunction(self):
        children = [self.unary()]
        while self.eat("&&"):
            children.append(self.unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def unary(self):
        if self.eat("!"):
            return negate(self.unary())
        tok = self.tok
        if tok[1] in _OPERATORS and self.after[0] == "[":
            self.advance()
            self.advance()
            a = self.bound()
            self.expect(",")
            b = self.bound()
            self.expect("]")
            self.expect("(")
            args = [self.disjunction()]
            if tok[1] in "UR":
                self.expect(",")
                args.append(self.disjunction())
            self.expect(")")
            try:
                return _OPERATORS[tok[1]](a, b, *args)
            except ValueError as e:
                self.error(str(e), tok)
        if self.eat("("):
            f = self.disjunction()
            self.expect(")")
            return f
        return self.predicate()

    def predicate(self):
        tok = self.tok
        if tok[1] == "pred" and self.after[0] == "(":
            self.advance()
            self.advance()
            name = self.eat("name") or self.expect("var",
                                                   "expected an identifier")
            self.expect(")")
            p = self.named.get(name[1])
            if p is None:
                self.error(f"unknown named predicate {name[1]!r}", tok)
            return Pred(p, True)
        coeffs, const, sign = {}, 0.0, self.sign()
        while True:
            i, c = self.term(sign)
            if i is None:
                const += c
            else:
                coeffs[i] = coeffs.get(i, 0.0) + c
            if self.tok[0] not in ("+", "-"):
                break
            sign = self.sign()
        cmp_tok = self.tok[0]
        if cmp_tok not in (">=", "<=", ">", "<"):
            self.error("expected a comparison (>, >=, <, <=)")
        self.advance()
        rhs = self.sign() * self.number()
        n = max(coeffs) + 1 if coeffs else 1
        c = [coeffs.get(i, 0.0) for i in range(n)]
        d = const - rhs
        if cmp_tok in ("<", "<="):
            c = [-ci for ci in c]
            d = -d
        return Pred(Affine(tuple(c), d), cmp_tok in (">", "<"))

    def term(self, sign):
        """(i, c) of the term c*x{i}, or (None, c) of the constant c."""
        if self.tok[0] != "num":
            return self.variable("expected a predicate term like `x0` or "
                                 "`2*x0`"), sign
        c = sign * self.number()
        if not self.eat("*"):
            return None, c
        return self.variable("expected a state variable like `x0` after "
                             "`*`"), c

    def variable(self, message):
        tok = self.expect("var", message)
        i = int(tok[1][1:])
        if self.dim is not None and i >= self.dim:
            self.error(f"{tok[1]} is past the state's {self.dim} coordinates",
                       tok)
        return i

    def sign(self):
        """-1.0 or 1.0, for an optional `-` or `+`."""
        if self.eat("-"):
            return -1.0
        self.eat("+")
        return 1.0

    def number(self):
        tok = self.expect("num", "expected a number")
        v = float(tok[1])
        if not math.isfinite(v):
            self.error("expected a finite number", tok)
        return v

    def bound(self):
        tok = self.tok
        v = self.sign() * self.number()
        if not v.is_integer():
            self.error("expected an integer time bound", tok)
        return int(v)


def negate(f):
    """Negation in positive normal form (pushed down to the predicates)."""
    if isinstance(f, Pred):
        return Pred(f.h.negated(), not f.strict)
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
