"""Scalar reverse-mode differentiation on an append-only tape.

Objectives of states are recorded as scalar operations on a Tape, and
their adjoints at the states come out of a single reverse sweep.
Everything is 64-bit.

Only the Var operators and the helpers below write to a tape, one record
per node.  From a function traced once on Vars (a plant step, a
controller forward), replay_source writes straight-line float code in
the Var operators' order, and _adjoint the interpreter's reverse sweep
over its records (reverse mode by source transformation, storing only
what the sweep reads: Griewank & Walther, "Evaluating Derivatives",
2008, ch. 4 and 6).  sampler generates from them the two kernels of a
sampled trajectory, whose gradient is its adjoint run on floats, with no
tape.  Tape.backward interprets the records: in training, those of a
critical predicate h*, and of a smooth robustness whose formula has a
Named predicate; in tests, those of a differentiable rollout.
"""

import math
import re
from collections import Counter

# opcodes
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
        return self.tape._push(float(other)), float(other)

    def __add__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(t.vals[self.i] + vo, (ADD, self.i, j, None)))

    __radd__ = __add__

    def __sub__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(t.vals[self.i] - vo, (SUB, self.i, j, None)))

    def __rsub__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(vo - t.vals[self.i], (SUB, j, self.i, None)))

    def __mul__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        return Var(t, t._push(t.vals[self.i] * vo, (MUL, self.i, j, None)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        if vo == 0.0:
            raise EvalError(len(t), "division by zero")
        return Var(t, t._push(t.vals[self.i] / vo, (DIV, self.i, j, None)))

    def __rtruediv__(self, other):
        j, vo = self._id_of(other)
        t = self.tape
        if t.vals[self.i] == 0.0:
            raise EvalError(len(t), "division by zero")
        return Var(t, t._push(vo / t.vals[self.i], (DIV, j, self.i, None)))

    def __neg__(self):
        t = self.tape
        return Var(t, t._push(-t.vals[self.i], (NEG, self.i, -1, None)))


class Tape:
    """Append-only record of scalar operations: values and records.

    Node ids increase strictly; inputs of a node always precede it, so the
    list order is already a topological order for the reverse sweep.
    A tape is single-owner while recording; use one tape per rollout.

    recs[i] is (op, lhs, rhs, p) for a node the Var operators recorded,
    rhs -1 for one operand and p powc's exponent, and None for a constant.
    """

    __slots__ = ("vals", "recs")

    def __init__(self):
        self.vals = []
        self.recs = []

    def __len__(self):
        return len(self.vals)

    def _push(self, val, rec=None):
        i = len(self.vals)
        self.vals.append(val)
        self.recs.append(rec)
        return i

    def const(self, value):
        return Var(self, self._push(float(value)))

    def consts(self, values):
        """The ids, a range, of one const per value, one extend per list."""
        n = len(self.vals)
        self.vals.extend(map(float, values))
        self.recs += [None] * (len(self.vals) - n)
        return range(n, len(self.vals))

    def backward(self, output, seeds):
        """Reverse accumulation of d(output)/d(seed) for each seed, a Var
        or, if seeds is a range, a node id.

        vmax sends the full adjoint to the strict argmax input and splits
        it 50/50 on exact ties.
        """
        if output.tape is not self:
            raise ValueError("output not on this tape")
        if type(seeds) is not range:
            if any(s.tape is not self for s in seeds):
                raise ValueError("seed not on this tape")
            seeds = [s.i for s in seeds]
        n = output.i + 1
        adj = [0.0] * n
        adj[output.i] = 1.0
        recs, vals = self.recs, self.vals
        for i in range(output.i, -1, -1):
            g = adj[i]
            if g == 0.0:
                continue
            rec = recs[i]
            if rec is None:
                continue
            op, a, b, p = rec
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
            elif op == MAX2:
                va, vb = vals[a], vals[b]
                if va == vb:
                    adj[a] += 0.5 * g
                    adj[b] += 0.5 * g
                elif va > vb:
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
                adj[a] += g * p * vals[a] ** (p - 1.0)
            else:  # pragma: no cover
                raise AssertionError(f"unhandled opcode {op}")
        if type(seeds) is range and seeds.step == 1:
            g = adj[seeds.start:seeds.stop]
            return g + [0.0] * (len(seeds) - len(g))  # seeds past the output
        return [adj[i] if i < n else 0.0 for i in seeds]


# -- math helpers generic over Var and float --------------------------------

def tanh(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(math.tanh(t.vals[x.i]), (TANH, x.i, -1, None)))
    return math.tanh(x)


def exp(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(math.exp(t.vals[x.i]), (EXP, x.i, -1, None)))
    return math.exp(x)


def ln(x):
    if isinstance(x, Var):
        t = x.tape
        v = t.vals[x.i]
        if v <= 0.0:
            raise EvalError(len(t), f"log of non-positive value {v}")
        return Var(t, t._push(math.log(v), (LN, x.i, -1, None)))
    if x <= 0.0:
        raise ValueError(f"log of non-positive value {x}")
    return math.log(x)


def sin(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(math.sin(t.vals[x.i]), (SIN, x.i, -1, None)))
    return math.sin(x)


def cos(x):
    if isinstance(x, Var):
        t = x.tape
        return Var(t, t._push(math.cos(t.vals[x.i]), (COS, x.i, -1, None)))
    return math.cos(x)


def powc(x, p):
    """x ** p for a constant real exponent; base must be positive unless p is integral."""
    p = float(p)
    if isinstance(x, Var):
        t = x.tape
        v = t.vals[x.i]
        if v < 0.0 and not p.is_integer():
            raise EvalError(len(t), f"negative base {v} with non-integer exponent {p}")
        return Var(t, t._push(v ** p, (POW_CONST, x.i, -1, p)))
    if x < 0.0 and not p.is_integer():
        raise ValueError(f"negative base {x} with non-integer exponent {p}")
    return x ** p


def vmax(x, y):
    if isinstance(x, Var) or isinstance(y, Var):
        if not isinstance(x, Var):
            x, y = y, x
        j, vo = x._id_of(y)
        t = x.tape
        return Var(t, t._push(max(t.vals[x.i], vo), (MAX2, x.i, j, None)))
    return max(x, y)


def value_of(x):
    return x.value if isinstance(x, Var) else float(x)


# Nodes per generated expression, here and in stl_kernels.  CPython's
# compiler recurses once per operand of a `+` chain and overflows near 3000.
_CHAIN = 200


# -- kernels generated from a traced function --------------------------------

# op: (form, precedence, least precedence of a left and a right operand
# without parentheses; a name has 5): needless ones cost compile memory
_FORMS = {ADD: ("{} + {}", 1, 1, 2), SUB: ("{} - {}", 1, 1, 2),
          MUL: ("{} * {}", 2, 2, 3), DIV: ("{} / {}", 2, 2, 3),
          NEG: ("-{}", 3, 3, 0), POW_CONST: ("{} ** {}", 4, 5, 0),
          MAX2: ("max({}, {})", 5, 0, 0), TANH: ("tanh({})", 5, 0, 0),
          EXP: ("exp({})", 5, 0, 0), SIN: ("sin({})", 5, 0, 0),
          COS: ("cos({})", 5, 0, 0), LN: ("log({})", 5, 0, 0)}


def replay_source(trace, inputs, prefix="f"):
    """(lines, outputs, constants, nodes): straight-line float code for
    trace = (tape, outputs) of a function run once on Vars, its inputs the
    first nodes, input j read as inputs[j] = (value, id), a Var input if
    its id is not None.

    A node with a Var operand, a Var node, is computed as the Var operators
    do (a Var operand of ADD, MUL, MAX2 first) and guarded as they
    are, by EvalError with node id n; other nodes by ValueError.  A node
    read once is folded into its reader; read twice, by a guard, by the
    adjoint or as an output, or past _CHAIN nodes, it is a statement
    {prefix}{node}.  Outputs are (name, trace node id), or (name of a
    constant, None); nodes maps each Var node to (op, a, b, p, value) for
    _adjoint, every value and operand a name."""
    tape, out = trace
    nin = len(inputs)
    recs = {r: rec for r, rec in enumerate(tape.recs) if rec}
    uses = Counter(x for _, a, b, _ in recs.values() for x in (a, b))
    var = {j for j, (_, i) in enumerate(inputs) if i}
    keep = {o.i for o in out if type(o) is Var}
    for r, (op, a, b, _) in recs.items():  # the Var nodes, what adjoints read
        if a in var or b in var:
            var.add(r)
            keep.update(x for x, on in (
                (r, op in (TANH, EXP) or op == DIV and b in var),
                (a, op in (LN, SIN, COS, POW_CONST, MAX2)
                 or op == MUL and b in var),
                (b, op in (DIV, MAX2) or op == MUL and a in var)) if on)
    ref = {j: (x, 1, 5) for j, (x, _) in enumerate(inputs)}
    consts, lines, nodes = {}, [], {}

    def name(r):
        if ref[r][1] > 1:
            lines.append(f"{prefix}{r} = {ref[r][0]}")
            ref[r] = (f"{prefix}{r}", 1, 5)
        return ref[r]

    def operand(x):  # a Var node, or an input's or a float's (value, id)
        return x if x in nodes else (ref[x][0],
                                     x < nin and inputs[x][1] or None)

    for r in range(nin, len(tape)):
        if r not in recs:  # a constant
            consts[f"c{r}"] = tape.vals[r]
            ref[r] = (f"c{r}", 1, 5)
            continue
        op, la, lb, p = recs[r]
        if op == POW_CONST:
            consts[f"c{r}"] = p
        a, b = ref[la], ref.get(lb)
        if a[1] + (b[1] if b else 0) >= _CHAIN:
            a, b = name(la), b and name(lb)
        if r in var and b and la not in var and op in (ADD, MUL, MAX2):
            la, lb, a, b = lb, la, b, a
        err = "EvalError(n, " if r in var else "ValueError("
        if op == DIV and r in var:
            b = name(lb)
            lines.append(f"if {b[0]} == 0.0: raise {err}'division by zero')")
        elif op == LN:
            a = name(la)
            lines.append(f"if {a[0]} <= 0.0: raise {err}"
                         f"f'log of non-positive value {{{a[0]}}}')")
        elif op == POW_CONST and not p.is_integer():
            a = name(la)
            lines.append(f"if {a[0]} < 0.0: raise {err}f'negative base "
                         f"{{{a[0]}}} with non-integer exponent {{c{r}}}')")
        form, prec, least_a, least_b = _FORMS[op]
        ref[r] = (form.format(a[0] if a[2] >= least_a else f"({a[0]})",
                              f"c{r}" if not b else b[0] if b[2] >= least_b
                              else f"({b[0]})"),
                  1 + a[1] + (b[1] if b else 1), prec)
        if uses[r] > 1 or r in keep:
            name(r)
        if r in var:
            nodes[r] = (op, operand(la), b and operand(lb), f"c{r}", ref[r][0])
    consts.update((f"y{j}", o) for j, o in enumerate(out) if type(o) is not Var)
    outs = [(name(o.i)[0], o.i) if type(o) is Var else (f"y{j}", None)
            for j, o in enumerate(out)]
    return lines, outs, consts, nodes


def _adjoint(nodes, seeds, local, sums=None):
    """(lines, sums): the interpreter's reverse sweep over the records of
    nodes = {r: (op, a, b, p, value)} as straight-line code, an operand a
    Var node, a Var input's (value, id) or a float's (value, None).

    seeds are (x, g): adjoint g reaches node x, or is first added to the
    operand x that an output passes through.  Node r's adjoint is kept in
    a local, assigned once from the sum of its terms where none of them
    is in a branch, or inlined into the one term that reads it.  A Var
    input whose id is in local sums its adjoint in the local named
    local[id], starting from the expression sums[id] if given (sums: id
    -> the expression holding the sum), in one statement at the end; any
    other gets each contribution as its own `adj[id] += ...`, as the
    interpreter applies it.  A sum is left to right, so it rounds as the
    interpreter's does.  A zero adjoint is not skipped (its terms are
    0.0), except before powc's, which can raise.  SIN's term reads the
    value of a COS node of the same operand, and COS's that of a SIN node,
    where the forward keeps one in a local."""
    grad, sums, lines, size = {}, dict(sums or {}), [], Counter()

    def val(x):
        return nodes[x][4] if type(x) is int else x[0]

    named = {(op, val(a)): v for op, a, _, _, v in nodes.values()
             if op in (SIN, COS) and v.isidentifier()}

    def slot(x):
        """(sums, key, name) of an adjoint kept in a local; None for a
        float, False for an adj write."""
        if type(x) is int:
            return grad, x, f"g{x}"
        return x[1] and (x[1] in local and (sums, x[1], local[x[1]]))

    def prepare(x):
        # a sum added to in a branch needs a name of its own
        s = slot(x)
        if s and s[0].get(s[1]) != s[2]:
            lines.append(f"{s[2]} = {s[0].get(s[1], '0.0')}")
            s[0][s[1]] = s[2]

    def add(x, sign, term, ind=""):
        s = slot(x)
        if s is False:
            lines.append(f"{ind}adj[{x[1]}] {sign}= {term}")
        elif s and ind:
            lines.append(f"{ind}{s[2]} {sign}= {term}")
        elif s:  # a sum's terms: one expression, named when read
            store, key, name = s
            cur = store.get(key)
            store[key] = (f"{cur} {sign} {term}" if cur is not None else
                          term if sign == "+" else f"-({term})")
            size[key] += 1
            if size[key] % _CHAIN == 0:
                lines.append(f"{name} = {store[key]}")
                store[key] = name

    def branch(head, *terms):
        lines.append(head)
        size = len(lines)
        for x, term in terms:
            add(x, "+", term, "    ")
        if len(lines) == size:
            lines.append("    pass")

    for x, g in seeds:
        if type(x) is int:
            grad[x] = g
        else:
            add(x, "+", g)
    for k in reversed(nodes):
        op, a, b, p, v = nodes[k]
        g = grad.get(k)
        if g is None:
            continue
        if op in (MAX2, POW_CONST) or slot(a) is not None and b and slot(
                b) is not None:  # read twice: a name
            if not g.isidentifier():
                lines.append(f"g{k} = {g}")
                g = grad[k] = f"g{k}"
        elif not g.isidentifier():
            g = f"({g})"  # read once: inline
        if op == ADD or op == SUB:
            add(a, "+", g)
            add(b, "+" if op == ADD else "-", g)
        elif op == MUL:
            add(a, "+", f"{g} * {val(b)}")
            add(b, "+", f"{g} * {val(a)}")
        elif op == TANH:
            add(a, "+", f"{g} * (1.0 - {v} * {v})")
        elif op == EXP:
            add(a, "+", f"{g} * {v}")
        elif op == MAX2:
            va, vb = val(a), val(b)
            prepare(a)
            prepare(b)
            branch(f"if {va} == {vb}:", (a, f"0.5 * {g}"), (b, f"0.5 * {g}"))
            branch(f"elif {va} > {vb}:", (a, g))
            branch("else:", (b, g))
        elif op == DIV:
            add(a, "+", f"{g} / {val(b)}")
            add(b, "-", f"{g} * {v} / {val(b)}")
        elif op == NEG:
            add(a, "-", g)
        elif op == LN:
            add(a, "+", f"{g} / {val(a)}")
        elif op == SIN:
            add(a, "+", f"{g} * {named.get((COS, val(a)), f'cos({val(a)})')}")
        elif op == COS:
            add(a, "-", f"{g} * {named.get((SIN, val(a)), f'sin({val(a)})')}")
        elif op == POW_CONST:
            prepare(a)
            branch(f"if {g} != 0.0:", (a, f"{g} * {p} * {val(a)} ** ({p} - 1.0)"))
        else:  # pragma: no cover
            raise AssertionError(f"unhandled opcode {op}")
    for key in sums:
        if key in size and not sums[key].isidentifier():
            lines.append(f"{local[key]} = {sums[key]}")
            sums[key] = local[key]
    return lines, sums


def _names(exprs):
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(exprs)))


def _bound(line):
    """The names a generated assignment `a = ...` or `a, b, = ...` binds;
    none for other lines."""
    m = re.match(r"(\w+(?:, \w+)*),? = ", line)
    return m[1].split(", ") if m else []


def _needed(lines, body):
    """The lines of straight-line code that body reads, each guard with
    the local it tests."""
    need, out = _names(body), []
    for line in reversed(lines):
        if need.intersection(_bound(line) or line.split()[1:2]):
            out.append(line)
            need |= _names([line])
    return out[::-1]


def compile_kernel(params, body, names):
    """def kernel(params) with the body's lines, over names, Var, EvalError
    and the math module's functions."""
    ns = {**vars(math), "Var": Var, "EvalError": EvalError, **names}
    src = "\n    ".join([f"def kernel({params}):"] + "\n".join(body).split("\n"))
    exec(compile(src, "<generated kernel>", "exec"), ns)
    return ns["kernel"]
