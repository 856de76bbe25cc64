"""Kernels generated from a compiled STL program (see stl._compile).

generate writes, for one program and one semantics (exact or Boolean),
one straight-line function that computes every step's signal bottom-up,
and compiles it with autodiff.compile_kernel: offline monitoring in the
order of Donze, Ferrere & Maler, "Efficient Robust Monitoring for STL"
(CAV 2013), written out as code.  A third one, the root kernel, computes
only the exact root value of an And, and skips the rows of a later
G[a,b](Or of predicates) and the windows of a later F[a,b](G[c,d](phi))
that cannot set its min, as bounded monitoring skips work that cannot
change a min or max (Deshmukh, Donze, Ghosh, Jin, Juniwal & Seshia,
"Robust online monitoring of signal temporal logic", FMSD 2017).  Every
kernel is a min/max one: the smooth semantics is a walk over the program
(smooth._walk).  The same bound stops a rollout: the watch (generate's
"watch") is, for each G[a,b] over affine predicates that is the root or
a conjunct of a root And, lines that plants splices into a rollout loop,
which return no run once the conjunct's running min, an upper bound of
the root, is below a floor.  An affine predicate is inlined as
Affine.eval's sum, left to right from d, a coefficient of 1.0 or -1.0 as
+ x{i} or - x{i} and any other as + c * x{i} with c a literal, so the
kernels are bit-identical to it.  Only stl._kernel, which caches what
generate returns on the formula's program, imports this module, when it
first needs a kernel or a watch, so importing stlctrl compiles none of
it.  A node's type is read from its step's op, not from stl's classes,
so a program compiled before stlctrl was imported again still gets its
kernels.
"""

import math
from collections import Counter
from functools import partial
from itertools import groupby

from .autodiff import _CHAIN, compile_kernel
from .stl import INF, _inner


def generate(steps, sem):
    """Straight-line code setting step i's signal z{i}: kernel(states, k).

    The kernels evaluate predicates inline (an Affine as its sum, unit
    coefficients without a multiply, a Named one call per state), take an
    And/Or whose children are all predicates as CPython's own min/max
    loop written out per state (m = the first child, then m = v for each
    later child v that compares < m, or > m for Or), its children without
    signals of their own, and evaluate those and the predicates of one
    window in one loop over its states.  That loop keeps the first of
    equal items, signed zeros, NaN behaviour and the number of
    comparisons of builtin min/max over a tuple, so values are bit for
    bit the min/max recursion's; Boolean predicates compare (> 0 if
    strict, else >= 0) first.  The exact kernel returns every signal
    (None where there is none), the others the root's value.

    The root kernel ("root") is the exact root value of a formula whose
    root And has pruned children (see prunable): its other children come
    as in the exact kernel, and the root is CPython's min loop over its
    children in order (m = the first, then m = v if v < m).  A run of
    consecutive G-over-Or children over the same rows is one loop, whose
    rows after a window's first (evaluated in full, as builtin min keeps
    a NaN first item) evaluate the Or's first predicate o, and the rest
    only if o < m, m the fold at the run's first child.  A reach child
    leaves m as it is at the first of G's windows, from the last, whose
    min is not below m (see _reach).  As builtin max is NaN if its first
    item is, and otherwise not below any item that is a number, and NaN
    never replaces a min, a child's value differs from the exact one only
    where neither is below the fold: the root has the exact kernel's bits.
    "watch" gives the lines of the rollout watch instead (see _watch)."""
    if sem == "watch":
        return _watch(steps)
    ns = {"_window": _window, "_until": _until, "_reach": _reach}
    fused = {i for i, (_, _, _, kids, _, op) in enumerate(steps)
             if op == "andor" and not any(steps[c][3] for c in kids)}
    read = {len(steps) - 1}.union(*[steps[i][3] for i in range(len(steps))
                                    if i not in fused])
    sig, loops, lines, groups = ["None"] * len(steps), [], [], {}
    pruned = prunable(steps) if sem == "root" else {}
    live = set(range(len(steps)))
    if pruned:
        # the steps the root's other children and reach children's phi read
        live, todo = set(), [c for p, c in enumerate(steps[-1][3])
                             if p not in pruned] + [
            steps[i][3][0] for i in pruned.values() if steps[i][5] == "window"]
        while todo:
            i = todo.pop()
            if i not in live:
                live.add(i)
                todo += steps[i][3]

    pred = partial(_pred, steps, ns, sem)
    for i, (g, lo, n, kids, fn, op) in enumerate(steps):
        if i not in live:
            continue
        z = sig[i] = f"z{i}"
        rows = f"states[k + {lo}:k + {lo + n}]"
        if not n:
            lines.append(f"{z} = []")
        elif i in fused or not kids:
            if i in fused or i in read:
                groups.setdefault(rows, []).append(i)
            else:
                sig[i] = "None"
        elif op == "andor":
            zs = ", ".join(f"z{c}" for c in kids)
            lines.append(f"{z} = list(map({fn.__name__}, zip({zs})))"
                         if kids[1:] else f"{z} = {zs}")
        elif op == "window":
            lines.append(f"{z} = _window({fn.__name__}, z{kids[0]}, "
                         f"{g.b - g.a + 1}, {n})")
        else:
            lines.append(f"{z} = _until(z{kids[0]}, z{kids[1]}, {n}, "
                         f"{g.a}, {g.b}, {fn.__name__})")
    for rows, leaves in groups.items():
        # a predicate two leaves read is a statement, the others inline
        uses = Counter(c for i in leaves for c in steps[i][3] or [i])
        coords, body, value = set(), [], {}
        for c, u in uses.items():
            got, value[c] = pred(c, coords)
            body += got + [f"p{c} = {value[c]}"] * (u > 1)
            value[c] = f"p{c}" if u > 1 else value[c]
        for i in leaves:
            got, v = _minmax([value[c] for c in steps[i][3] or [i]],
                             steps[i][4])
            body += got + [f"z{i}.append({v})"]
        loops += [*(f"z{i} = []" for i in leaves), f"for s in {rows}:",
                  *(f"    x{j} = s[{j}]" for j in sorted(coords)),
                  *(f"    {ln}" for ln in body)]
    ret = (_fold(steps, pruned, pred) + ["return m"] if pruned
           else [f"return [{', '.join(sig)}]"] if sem == "exact"
           else [f"return z{len(steps) - 1}[0]"])
    return compile_kernel("states, k", loops + lines + ret, ns)


def _pred(steps, ns, sem, i, coords):
    """(lines, expression) of predicate step i at state s, adding the
    coordinates x{j} it reads to coords."""
    g, body = steps[i][0], []
    if steps[i][5] == "affine":
        nz = [(ci, j) for j, ci in enumerate(g.h.c) if ci != 0.0]
        coords.update(j for _, j in nz)
        # the sum goes on in a new statement before it reaches _CHAIN
        # nodes, counted as replay_source counts them
        out, size = _literal(g.h.d, ns), 1
        for t, (ci, j) in enumerate(nz):
            term = 1 if ci in (1.0, -1.0) else 3  # x, or c * x
            if size + term >= _CHAIN:
                body.append(f"p{i}_{t} = {out}")
                out, size = f"p{i}_{t}", 1
            out += (f" + x{j}" if ci == 1.0 else f" - x{j}" if ci == -1.0
                    else f" + {_literal(ci, ns)} * x{j}")
            size += 1 + term
    else:
        ns[f"h{i}"], out = steps[i][4], f"h{i}(s)"
    if sem == "boolean":
        out = f"{out} {'>' if g.strict else '>='} 0.0"
    return body, out


def _minmax(values, fn):
    """(lines, expression) of CPython's min/max loop over the expressions
    values: m = the first, then m = v for each later v that compares <
    m (min) or > m (max); the first alone if there is no other."""
    first, *rest = values
    if not rest:
        return [], first
    cmp, lines = "<" if fn is min else ">", [f"m = {first}"]
    for v in rest:
        lines += [f"v = {v}", f"if v {cmp} m: m = v"]
    return lines, "m"


def _watch(steps):
    """(lines at time 0, lines of loop step k, names, dimension) that
    return None once a watched conjunct's running min is below floor, or
    () if the program has no watched conjunct.

    A watched conjunct is G[a,b](phi), the root or a child of a root And,
    whose phi is an affine predicate or an And/Or of affine predicates.
    The lines read a state in x0, x1, ...: s_0 at time 0, and s_{k+1} in
    step k of a rollout loop; dimension is one more than the largest
    coordinate they read.  The window's first row evaluates phi as the
    exact kernel does (its predicates inlined, an And/Or as CPython's
    min/max loop) into r{c}, and a later row v stops the run iff v <
    floor <= r{c}, an Or row evaluating its predicates after the first
    only if that is below floor (max is NaN or not below it otherwise):
    builtin min's fold is then below floor, as r{c} is a number not below
    floor until the stop, and a NaN first row never stops.  G[a,b](phi)
    is then below floor, so the root's min loop gives a value below floor,
    or NaN, whatever the later states are."""
    *_, (_, _, _, kids, fn, op) = steps
    ns, coords, rows = {}, set(), {}
    for c in dict.fromkeys(kids if op == "andor" and fn is min
                           else [len(steps) - 1]):
        if steps[c][5] != "window" or steps[c][4] is not min:
            continue
        i = steps[c][3][0]
        preds = steps[i][3] if steps[i][5] == "andor" else [i]
        if not preds or any(steps[p][5] != "affine" for p in preds):
            continue
        parts = [_pred(steps, ns, "exact", p, coords) for p in preds]
        body = [ln for got, _ in parts for ln in got]
        got, v = _minmax([v for _, v in parts], steps[i][4])
        first, later = rows.setdefault(
            (steps[i][1], steps[i][1] + steps[i][2] - 1), ([], []))
        first += body + got + [f"r{c} = {v}", f"if r{c} < floor: return None"]
        (head, v0), *rest = parts
        later += (_or_row(head, v0, body[len(head):], [v for _, v in rest],
                          "floor", [f"if v < floor <= r{c}: return None"])
                  if steps[i][4] is max and rest
                  else body + got + [f"if {v} < floor <= r{c}: return None"])
    if not rows:
        return ()
    start, loop = [], []
    for (a, b), (first, later) in rows.items():
        if a:
            loop += [f"if k == {a - 1}:", *_indent(first)]
        else:
            start += first
        if b > a:
            loop += [f"elif {a} <= k < {b}:" if a else f"if k < {b}:",
                     *_indent(later)]
    return tuple(start), tuple(loop), tuple(ns.items()), max(coords,
                                                             default=-1) + 1


def _indent(lines):
    return [f"    {ln}" for ln in lines]


def prunable(steps):
    """Position p > 0 of each child of a root And that the root kernel
    prunes, to the step i it reads: G[a,b] over an Or of predicates i, or
    F[a,b](i), i = G[c,d](phi), whose F and G no other step reads."""
    *_, (_, _, _, kids, fn, op) = steps
    if op != "andor" or fn is not min:
        return {}
    uses = Counter(c for s in steps for c in s[3])
    return {p: i for p, c in enumerate(kids) if p and steps[c][5] == "window"
            for i in steps[c][3] if (
                _or_of_preds(steps, i) if steps[c][4] is min else
                steps[i][4:] == (min, "window") and uses[c] == uses[i] == 1)}


def _or_of_preds(steps, i):
    _, _, _, kids, fn, op = steps[i]
    return (op == "andor" and fn is max and bool(kids)
            and not any(steps[c][3] for c in kids))


def _fold(steps, pruned, pred):
    """The root kernel's min loop over the root's children into m (see
    generate), pred(i, coords) giving a predicate's lines and expression."""
    kids = steps[-1][3]
    ors = {p: steps[i] for p, i in pruned.items() if steps[i][5] != "window"}
    out = [f"m = z{kids[0]}[0]"]
    # a position not in ors is its own group; those in ors group by rows
    for rows, run in groupby(range(1, len(kids)),
                             lambda p: ors[p][1:3] if p in ors else p):
        if type(rows) is not int:
            out += _run([(p, ors[p][3]) for p in run], *rows, pred)
        elif rows in pruned:
            g, _, n, (c,), _, _ = steps[pruned[rows]]
            out.append(f"m = _reach(m, z{c}, {g.b - g.a + 1}, {n})")
        else:
            out += [f"v = z{kids[rows]}[0]", "if v < m: m = v"]
    return out


def _run(run, lo, n, pred):
    """One loop over the rows k+lo..k+lo+n-1 for a run of prunable children
    (position q, the Or's predicate steps): g{q} is child q's value, a min
    over rows written out as in generate, and a row's value is builtin
    max over the Or's predicates.  A later row reads the coordinates of
    the Ors' first predicates, and those of the others only where it
    evaluates them."""
    def inline(c):
        coords = set()
        return (*pred(c, coords), coords)

    run = [(q, [inline(c) for c in preds]) for q, preds in run]
    heads = set().union(*(preds[0][2] for _, preds in run))
    every = heads.union(*(c[2] for _, preds in run for c in preds))
    first, loop = [f"s = states[k + {lo}]", *_loads(every)], _loads(heads)
    for q, ((got, v, _), *rest) in run:
        more, vs = [ln for c in rest for ln in c[0]], [c[1] for c in rest]
        first += got + more + [f"g{q} = max({', '.join([v] + vs)})"
                               if rest else f"g{q} = {v}"]
        loop += _or_row(got, v, _loads(set().union(*(c[2] for c in rest))
                                       - heads) + more, vs, "m",
                        [f"if v < g{q}: g{q} = v"])
    return (first + [f"for s in states[k + {lo + 1}:k + {lo + n}]:"]
            + [f"    {ln}" for ln in loop]
            + [f"if g{q} < m: m = g{q}" for q, _ in run])


def _or_row(got, v, more, vs, bound, then):
    """Or row: v = (got, v); if v < bound: more, v = max(v, *vs), then."""
    return got + [f"v = {v}", f"if v < {bound}:", *_indent(
        more + [f"v = max(v, {', '.join(vs)})"] * bool(vs) + then)]


def _loads(coords):
    return [f"x{j} = s[{j}]" for j in sorted(coords)]


def _literal(x, ns):
    """x as source: a literal if a finite float or an int (repr round-trips
    it, -0.0 too), else a name bound to it in ns."""
    if type(x) is int or type(x) is float and math.isfinite(x):
        return repr(x)
    ns[f"q{len(ns)}"] = x
    return f"q{len(ns) - 1}"


def _window(agg, c, w, n):
    """F/G: agg over each window c[j:j + w] of the child's signal, j < n."""
    return [agg(c[j:j + w]) for j in range(n)]


def _reach(m, c, w, n):
    """m folded with a reach child F(G(phi)) as min(m, max(windows' mins)),
    c phi's rows, w G's width and n its windows, but m unchanged at the
    first window from the last whose min is >= m: F is then NaN or >= m."""
    mins = []
    for j in range(n - 1, -1, -1):
        mins.append(min(c[j:j + w]))
        if mins[-1] >= m:
            return m
    return min(m, max(reversed(mins)))


def _until(left, right, n, a, b, agg):
    """Exact or Boolean U/R, agg the inner min/max (see stl._inner)."""
    out, seed = (max, -INF) if agg is min else (min, INF)
    return [out(seed, *_inner(left, right, j, a, b, agg)) for j in range(n)]

