"""Scalar reverse-mode differentiation on an append-only tape.

Rollouts, smooth robustness and training objectives are all recorded as
scalar operations on a Tape; gradients with respect to controller
parameters come out of a single reverse sweep.  Everything is 64-bit.
"""

import math

# opcodes
CONST = 0
ADD = 1
SUB = 2
MUL = 3
DIV = 4
NEG = 5
TANH = 6
EXP = 7
LN = 8
SIN = 9
COS = 10
POW_CONST = 11
MAX2 = 12
MIN2 = 13


class EvalError(ArithmeticError):
    """Domain violation (log of non-positive, division by zero, ...) at a node.

    A runtime failure, not invalid input: the CLI exits 4 on it.
    """

    def __init__(self, node_id, message):
        super().__init__(f"node {node_id}: {message}")
        self.node_id = node_id


class Var:
    """Handle to one scalar node on a Tape."""

    __slots__ = ("tape", "i")

    def __init__(self, tape, i):
        self.tape = tape
        self.i = i

    @property
    def value(self):
        return self.tape.vals[self.i]

    def __repr__(self):
        return f"Var(id={self.i}, value={self.value!r})"

    # -- operator sugar; float operands are wrapped as constants --

    def _id_of(self, other):
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise ValueError("operands recorded on different tapes")
            return other.i, other.value
        return self.tape._push(CONST, -1, -1, float(other)), float(other)

    def __add__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(ADD, self.i, j, t.vals[self.i] + vo))

    __radd__ = __add__

    def __sub__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(SUB, self.i, j, t.vals[self.i] - vo))

    def __rsub__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(SUB, j, self.i, vo - t.vals[self.i]))

    def __mul__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(MUL, self.i, j, t.vals[self.i] * vo))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        if vo == 0.0:
            raise EvalError(len(t.ops), "division by zero")
        return Var(t, t._push(DIV, self.i, j, t.vals[self.i] / vo))

    def __rtruediv__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        if t.vals[self.i] == 0.0:
            raise EvalError(len(t.ops), "division by zero")
        return Var(t, t._push(DIV, j, self.i, vo / t.vals[self.i]))

    def __neg__(self):
        t = self.tape
        return Var(t, t._push(NEG, self.i, -1, -t.vals[self.i]))


class Tape:
    """Append-only record of scalar operations, stored as parallel lists.

    Node ids increase strictly; inputs of a node always precede it, so the
    list order is already a topological order for the reverse sweep.
    A tape is single-owner while recording; use one tape per rollout.
    """

    __slots__ = ("ops", "lhs", "rhs", "vals", "aux")

    def __init__(self):
        self.ops = []
        self.lhs = []
        self.rhs = []
        self.vals = []
        self.aux = []

    def __len__(self):
        return len(self.ops)

    def _push(self, op, a, b, val, aux=0.0):
        i = len(self.ops)
        self.ops.append(op)
        self.lhs.append(a)
        self.rhs.append(b)
        self.vals.append(val)
        self.aux.append(aux)
        return i

    def const(self, value):
        return Var(self, self._push(CONST, -1, -1, float(value)))

    def consts(self, values):
        """[const(v) for v in values], with one extend per list."""
        vals = [float(v) for v in values]
        n, m = len(self.ops), len(vals)
        self.ops += [CONST] * m
        self.lhs += [-1] * m
        self.rhs += [-1] * m
        self.vals += vals
        self.aux += [0.0] * m
        return [Var(self, i) for i in range(n, n + m)]

    def backward(self, output, seeds):
        """Reverse accumulation of d(output)/d(seed) for each seed Var.

        max2/min2 send the full adjoint to the strict argmax/argmin input
        and split it 50/50 on exact ties.
        """
        if output.tape is not self:
            raise ValueError("output not on this tape")
        for s in seeds:
            if s.tape is not self:
                raise ValueError("seed not on this tape")
        n = output.i + 1
        adj = [0.0] * n
        adj[output.i] = 1.0
        ops, lhs, rhs, vals, aux = self.ops, self.lhs, self.rhs, self.vals, self.aux
        for i in range(output.i, -1, -1):
            g = adj[i]
            if g == 0.0:
                continue
            op = ops[i]
            if op == CONST:
                continue
            a = lhs[i]
            b = rhs[i]
            if op == ADD:
                adj[a] += g
                adj[b] += g
            elif op == MUL:
                adj[a] += g * vals[b]
                adj[b] += g * vals[a]
            elif op == SUB:
                adj[a] += g
                adj[b] -= g
            elif op == TANH:
                adj[a] += g * (1.0 - vals[i] * vals[i])
            elif op == EXP:
                adj[a] += g * vals[i]
            elif op == MAX2 or op == MIN2:
                va, vb = vals[a], vals[b]
                if va == vb:
                    adj[a] += 0.5 * g
                    adj[b] += 0.5 * g
                elif (va > vb) == (op == MAX2):
                    adj[a] += g
                else:
                    adj[b] += g
            elif op == DIV:
                adj[a] += g / vals[b]
                adj[b] -= g * vals[i] / vals[b]
            elif op == NEG:
                adj[a] -= g
            elif op == LN:
                adj[a] += g / vals[a]
            elif op == SIN:
                adj[a] += g * math.cos(vals[a])
            elif op == COS:
                adj[a] -= g * math.sin(vals[a])
            elif op == POW_CONST:
                p = aux[i]
                adj[a] += g * p * vals[a] ** (p - 1.0)
            else:  # pragma: no cover
                raise AssertionError(f"unhandled opcode {op}")
        return [adj[s.i] if s.i < n else 0.0 for s in seeds]


# -- math helpers generic over Var and float --------------------------------

def tanh(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(TANH, x.i, -1, math.tanh(t.vals[x.i])))
    return math.tanh(x)


def exp(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(EXP, x.i, -1, math.exp(t.vals[x.i])))
    return math.exp(x)


def ln(x):
    if isinstance(x, Var):
        t = x.tape
        v = t.vals[x.i]
        if v <= 0.0:
            raise EvalError(len(t.ops), f"log of non-positive value {v}")
        return Var(t, t._push(LN, x.i, -1, math.log(v)))
    if x <= 0.0:
        raise ValueError(f"log of non-positive value {x}")
    return math.log(x)


def sin(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(SIN, x.i, -1, math.sin(t.vals[x.i])))
    return math.sin(x)


def cos(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(COS, x.i, -1, math.cos(t.vals[x.i])))
    return math.cos(x)


def powc(x, p):
    """x ** p for a constant real exponent; base must be positive unless p is integral."""
    p = float(p)
    if isinstance(x, Var):
        t = x.tape
        v = t.vals[x.i]
        if v < 0.0 and not p.is_integer():
            raise EvalError(len(t.ops), f"negative base {v} with non-integer exponent {p}")
        return Var(t, t._push(POW_CONST, x.i, -1, v ** p, p))
    if x < 0.0 and not p.is_integer():
        raise ValueError(f"negative base {x} with non-integer exponent {p}")
    return x ** p


def vmax(x, y):
    if isinstance(x, Var) or isinstance(y, Var):
        if not isinstance(x, Var):
            x, y = y, x
        j, vo = x._id_of(y)
        t = x.tape
        return Var(t, t._push(MAX2, x.i, j, max(t.vals[x.i], vo)))
    return max(x, y)


def vmin(x, y):
    if isinstance(x, Var) or isinstance(y, Var):
        if not isinstance(x, Var):
            x, y = y, x
        j, vo = x._id_of(y)
        t = x.tape
        return Var(t, t._push(MIN2, x.i, j, min(t.vals[x.i], vo)))
    return min(x, y)


def value_of(x):
    return x.value if isinstance(x, Var) else float(x)


# -- source for generated straight-line sums ---------------------------------

# Operands per `+` chain.  CPython's compiler recurses once per operand of
# a chain and overflows near 3000, so longer sums continue as `v = v + ...`.
_CHAIN = 200


def sum_source(target, first, terms):
    """(statements, expr): after the statements run, expr is
    first + terms[0] + terms[1] + ... summed left to right; longer sums
    keep their partial value in the variable target."""
    stmts = []
    expr = first
    for c in range(0, len(terms), _CHAIN):
        if c:
            stmts.append(f"{target} = {expr}")
            expr = target
        expr = " + ".join([expr] + terms[c:c + _CHAIN])
    return stmts, expr
