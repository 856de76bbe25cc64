"""Scalar reverse-mode differentiation on an append-only tape.

Rollouts, smooth robustness and training objectives are all recorded as
scalar operations on a Tape; gradients with respect to controller
parameters come out of a single reverse sweep.  Everything is 64-bit.

replay_source is the one kernel generator: from a function traced once
on Vars (a plant step, controller layers, an affine predicate) it writes
straight-line float code that also writes the records the Var operators
would for the inputs that are Vars, or a loop of such steps.  The records
one generated call writes form a block on the tape, and the generator
also writes the block's adjoint: the interpreter's reverse sweep over
those records as straight-line code, the adjoints of nodes inside the
block kept in locals (reverse mode by source transformation, Griewank &
Walther, "Evaluating Derivatives", 2008).  The reverse sweep runs the
adjoints of the blocks and interprets only the nodes between them.
"""

import math
import re
from collections import Counter

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

    blocks holds (start, end, adjoint, args) per run of nodes start..end-1
    that a generated recorder wrote: adjoint(adj, vals, start, end, args)
    applies their reverse sweep as the interpreter would.
    """

    __slots__ = ("ops", "lhs", "rhs", "vals", "aux", "blocks")

    def __init__(self):
        self.ops = []
        self.lhs = []
        self.rhs = []
        self.vals = []
        self.aux = []
        self.blocks = []

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
        and split it 50/50 on exact ties.  A block that ends at or before
        the output runs its generated adjoint; all other nodes, a block
        that reaches past the output included, are interpreted.
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
        spans, hi = [], n  # (nodes lo..hi-1 to interpret, then a block)
        for start, end, adjoint, args in reversed(self.blocks):
            if end <= hi:
                spans.append((end, hi, adjoint, start, args))
                hi = start
        spans.append((0, hi, None, 0, None))
        for lo, hi, adjoint, start, args in spans:
            for i in range(hi - 1, lo - 1, -1):
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
            if adjoint is not None:
                adjoint(adj, vals, start, lo, args)
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


# Nodes per generated expression.  CPython's compiler recurses once per
# operand of a `+` chain and overflows near 3000.
_CHAIN = 200


# -- kernels generated from a traced function --------------------------------

_LISTS = ("tape.ops", "tape.lhs", "tape.rhs", "vals", "tape.aux")
# op: (form, precedence, least precedence of a left and a right operand
# without parentheses; a name has 5): needless ones cost compile memory
_FORMS = {ADD: ("{} + {}", 1, 1, 2), SUB: ("{} - {}", 1, 1, 2),
          MUL: ("{} * {}", 2, 2, 3), DIV: ("{} / {}", 2, 2, 3),
          NEG: ("-{}", 3, 3, 0), POW_CONST: ("{} ** {}", 4, 5, 0),
          MAX2: ("max({}, {})", 5, 0, 0), MIN2: ("min({}, {})", 5, 0, 0),
          TANH: ("tanh({})", 5, 0, 0), EXP: ("exp({})", 5, 0, 0),
          SIN: ("sin({})", 5, 0, 0), COS: ("cos({})", 5, 0, 0),
          LN: ("log({})", 5, 0, 0)}


def replay_source(trace, inputs, prefix="f", loop=None, inline=False):
    """(lines, outputs, constants): straight-line code for trace = (tape,
    outputs) of a function run once on Vars, its inputs the first nodes,
    input j read as inputs[j] = (value, node id or None for a float).

    A node with a Var operand records what the Var operators would (a
    float operand pushed as a CONST just before it, the Var as lhs of ADD,
    MUL, MAX2, MIN2; a domain guard raises EvalError with the node id);
    the last lines append the records to the tape, of length n before,
    and register them as one block whose adjoint _adjoint generates.
    A float node read once is folded into its reader; read twice, by a
    guard or as an output, or past _CHAIN nodes, it is a statement
    {prefix}{node}.  Outputs are (value, node id or None); with inline, a
    float output is its expression rather than a statement.

    With loop, a for-header that binds the other inputs, the lines run
    the function once per iteration, output j carried into input j (both
    names), and register the records of all iterations as one block; the
    outputs are the inputs' names.  None unless there are records, the
    Var inputs are the carried ones and each Var output is a record of its
    own."""
    tape, out = trace
    uses = Counter(tape.lhs) + Counter(tape.rhs)
    ref = {j: (x, i, 1, 5) for j, (x, i) in enumerate(inputs)}
    consts, lines, recs, index = {}, [], [], {}

    def push(op, a, b, val, p="0.0"):
        k = len(recs)
        lines.append(f"v{k} = {val}")
        recs.append((op, a, b, p))
        index[f"n + {k}"] = k
        return f"v{k}", f"n + {k}", 1, 5

    def name(r):
        if ref[r][2] > 1:
            lines.append(f"{prefix}{r} = {ref[r][0]}")
            ref[r] = (f"{prefix}{r}", None, 1, 5)
        return ref[r]

    for r in range(len(inputs), len(tape.ops)):
        op, a, b = tape.ops[r], ref.get(tape.lhs[r]), ref.get(tape.rhs[r])
        if op in (CONST, POW_CONST):
            consts[f"c{r}"] = tape.vals[r] if op == CONST else tape.aux[r]
        if op == CONST:
            ref[r] = (f"c{r}", None, 1, 5)
            continue
        if a[2] + (b[2] if b else 0) >= _CHAIN:
            a, b = name(tape.lhs[r]), b and name(tape.rhs[r])
        rec = a[1] or b and b[1]
        if rec and b:
            if a[1] is None and op in (ADD, MUL, MAX2, MIN2):
                a, b = b, a
            a, b = (x if x[1] else push(CONST, None, None, x[0]) for x in (a, b))
        err = f"EvalError(n + {len(recs)}, " if rec else "ValueError("
        if op == DIV and rec:
            lines.append(f"if {b[0]} == 0.0: raise {err}'division by zero')")
        elif op == LN:
            a = name(tape.lhs[r])
            lines.append(f"if {a[0]} <= 0.0: raise {err}"
                         f"f'log of non-positive value {{{a[0]}}}')")
        elif op == POW_CONST and not tape.aux[r].is_integer():
            a = name(tape.lhs[r])
            lines.append(f"if {a[0]} < 0.0: raise {err}f'negative base "
                         f"{{{a[0]}}} with non-integer exponent {{c{r}}}')")
        form, prec, least_a, least_b = _FORMS[op]
        val = form.format(a[0] if a[3] >= least_a else f"({a[0]})",
                          f"c{r}" if not b else b[0] if b[3] >= least_b
                          else f"({b[0]})")
        if rec:
            ref[r] = push(op, a, b, val, f"c{r}" if op == POW_CONST else "0.0")
        else:
            ref[r] = (val, None, 1 + a[2] + (b[2] if b else 1), prec)
            if uses[r] > 1:
                name(r)
    consts.update((f"y{j}", o) for j, o in enumerate(out) if type(o) is not Var)
    outs = [(ref[o.i] if inline else name(o.i))[:2] if type(o) is Var
            else (f"y{j}", None) for j, o in enumerate(out)]
    if not recs:
        return None if loop else (lines, outs, consts)
    size = len(recs)
    writes = [f"{list_} += ({', '.join(map(str, col))},)" for list_, col in
              zip(_LISTS, zip(*[(op, a[1] if a else -1, b[1] if b else -1,
                                 f"v{k}", p)
                                for k, (op, a, b, p) in enumerate(recs)]))]
    # operands for the adjoint: a record's index or an external (value, id)
    recs = [(op, *(x and index.get(x[1], x[:2]) for x in (a, b)), p)
            for op, a, b, p in recs]
    ext = _names(f"{x} {i}" for x, i in inputs if i)
    if not loop:
        seeds = {index[i]: f"g{index[i]}" for _, i in outs if i in index}
        rev, _ = _adjoint(recs, seeds)
        args, loads = _reads(rev, ext, "n")
        consts["adjoint"] = compile_kernel("adj, vals, n, end, args", [
            *(f"g{k} = adj[n + {k}]" for k in seeds), _zero(seeds),
            f"[{args}] = args", *loads, *rev], consts)
        lines += writes + [
            f"tape.blocks.append((n, n + {size}, adjoint, ({args})))"]
        return lines, outs, consts
    # a run: state j is carried from record o; gi{j} sums its adjoint
    carry = {j: index.get(i) for j, (_, i) in enumerate(outs) if i}
    if (list(carry) != [j for j, (_, i) in enumerate(inputs) if i]
            or None in carry.values() or len(set(carry.values())) < len(carry)):
        return None
    seeds = {o: f"go{j}" for j, o in carry.items()}
    inner, sums = _adjoint(recs, seeds, {inputs[j][1]: f"gi{j}" for j in carry})
    step = [sums.get(inputs[j][1], "0.0") for j in carry]
    rev = []
    if inner or step != list(seeds.values()):
        # interior steps: their inputs are the step before's outputs
        got, loads = _names(inner), _reads(inner, ext, "n")[1]
        rev = [f"for n in range(end - {size}, start, -{size}):"] + [
            "    " + line for line in [
                _zero(seeds), *loads,
                *(f"{inputs[j][0]} = vals[n - {size - o}]"
                  for j, o in carry.items() if inputs[j][0] in got),
                *inner, f"{', '.join(seeds.values())}, = {', '.join(step)},"]]
    first, _ = _adjoint(recs, seeds)
    args, loads = _reads(first, ext, "n")
    consts["adjoint"] = compile_kernel("adj, vals, start, end, args", [
        *(f"go{j} = adj[end - {size - o}]" for j, o in carry.items()), *rev,
        _zero(seeds), f"[{args}] = args", "n = start", *loads, *first], consts)
    names = [f"{x}, {i}" if i else x for x, i in inputs[:len(outs)]]
    nxt = [f"{x}, {i}" if i else x for x, i in outs]
    lines = [f"args = ({args})", "start = n", loop] + [
        "    " + line for line in lines + writes + [
            f"{', '.join(names)}, = {', '.join(nxt)},", f"n += {size}"]]
    lines.append("if n > start: tape.blocks.append((start, n, adjoint, args))")
    return lines, list(inputs[:len(outs)]), consts


def _adjoint(recs, seeds, local=None):
    """(lines, sums): the interpreter's reverse sweep over recs = [(op, a,
    b, aux)], an operand a record's index, an external Var's (value, id)
    or None, as straight-line code over the records' values v{k}.

    Record k's adjoint is kept in a local, starting from the name
    seeds[k] if given; a CONST's is never formed.  An external operand
    gets each contribution as its own `adj[id] += ...`, as the interpreter
    applies it, or with local = {id: name} sums it in that name (sums:
    id -> the expression holding the sum).  A zero adjoint is not skipped
    (its terms are 0.0), except before powc's, which can raise."""
    grad, sums, lines = dict(seeds), {}, []

    def val(x):
        return f"v{x}" if type(x) is int else x[0]

    def slot(x):
        """(sums, key, name) of an adjoint kept in a local; None for a
        CONST, False for an adj write."""
        if type(x) is int:
            return None if recs[x][0] == CONST else (grad, x, f"g{x}")
        return False if local is None else (sums, x[1], local[x[1]])

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
        elif s:
            store, key, name = s
            cur = store.get(key)
            if ind:
                lines.append(f"{ind}{name} {sign}= {term}")
            elif cur is not None:
                lines.append(f"{name} = {cur} {sign} {term}")
            elif sign == "+" and term.isidentifier():
                name = term  # an alias, no statement
            else:
                lines.append(f"{name} = {'' if sign == '+' else '-'}({term})")
            store[key] = name

    def branch(head, *terms):
        lines.append(head)
        size = len(lines)
        for x, term in terms:
            add(x, "+", term, "    ")
        if len(lines) == size:
            lines.append("    pass")

    for k in reversed(range(len(recs))):
        op, a, b, p = recs[k]
        g = grad.get(k)
        if g is None:
            continue
        if op == ADD or op == SUB:
            add(a, "+", g)
            add(b, "+" if op == ADD else "-", g)
        elif op == MUL:
            add(a, "+", f"{g} * {val(b)}")
            add(b, "+", f"{g} * {val(a)}")
        elif op == TANH:
            add(a, "+", f"{g} * (1.0 - v{k} * v{k})")
        elif op == EXP:
            add(a, "+", f"{g} * v{k}")
        elif op == MAX2 or op == MIN2:
            va, vb = val(a), val(b)
            prepare(a)
            prepare(b)
            big, small = (a, b) if op == MAX2 else (b, a)
            branch(f"if {va} == {vb}:", (a, f"0.5 * {g}"), (b, f"0.5 * {g}"))
            branch(f"elif {va} > {vb}:", (big, g))
            branch("else:", (small, g))
        elif op == DIV:
            add(a, "+", f"{g} / {val(b)}")
            add(b, "-", f"{g} * v{k} / {val(b)}")
        elif op == NEG:
            add(a, "-", g)
        elif op == LN:
            add(a, "+", f"{g} / {val(a)}")
        elif op == SIN:
            add(a, "+", f"{g} * cos({val(a)})")
        elif op == COS:
            add(a, "-", f"{g} * sin({val(a)})")
        elif op == POW_CONST:
            prepare(a)
            branch(f"if {g} != 0.0:", (a, f"{g} * {p} * {val(a)} ** ({p} - 1.0)"))
        else:  # pragma: no cover
            raise AssertionError(f"unhandled opcode {op}")
    return lines, sums


def _names(exprs):
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(exprs)))


def _reads(lines, ext, base):
    """(the names of ext that lines read, as a tuple's items; statements
    loading each record value v{k} they read from vals[base + k])."""
    names = _names(lines)
    return ("".join(f"{x}, " for x in sorted(ext & names)),
            [f"v{k} = vals[{base} + {k}]" for k in
             sorted({int(x[1:]) for x in names if re.fullmatch(r"v\d+", x)})])


def _zero(seeds):
    """Return when every adjoint the block reads is 0.0: its terms would
    all be 0.0, and the interpreter skips such nodes."""
    return f"if not ({' or '.join(seeds.values()) or 0}): return"


def compile_kernel(params, body, names):
    """def kernel(params) with the body's lines, over names, Var, EvalError
    and the math module's functions."""
    ns = {**vars(math), "Var": Var, "EvalError": EvalError, **names}
    src = "\n    ".join([f"def kernel({params}):"] + "\n".join(body).split("\n"))
    exec(compile(src, "<generated kernel>", "exec"), ns)
    return ns["kernel"]
