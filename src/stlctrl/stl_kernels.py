"""Kernels generated from a compiled STL program (see stl._compile).

generate writes, for one program and one semantics (exact, Boolean or
smooth), one straight-line function that computes every step's signal
bottom-up, and compiles it with autodiff.compile_kernel: offline
monitoring in the order of Donze, Ferrere & Maler, "Efficient Robust
Monitoring for STL" (CAV 2013), written out as code.  An affine predicate
is inlined as Affine.eval's sum, left to right from d, a coefficient of
1.0 or -1.0 as + x{i} or - x{i} and any other as + c * x{i} with c a
literal, so the kernels are bit-identical to it.  stl imports
this module when it first needs a kernel, so importing stlctrl compiles
none of it.  A node's type is read from its step's op, not from stl's
classes, so a program compiled before stlctrl was imported again still
gets its kernels.
"""

import math
from collections import Counter

from .autodiff import compile_kernel
from .stl import INF, _inner

# Terms of an affine sum per statement: CPython's compiler recurses once
# per operand of a `+` chain and overflows near 3000.
_TERMS = 50


def generate(steps, sem):
    """Straight-line code setting step i's signal z{i}: kernel(states, k),
    or kernel(states, k, mn, mx) with the soft min/max if smooth.

    The smooth kernel runs the steps in order, a predicate's eval over all
    its times and then the next step, so it records on the tape what the
    steps one by one would.  The exact and Boolean ones evaluate predicates
    inline (an Affine as its sum, unit coefficients without a multiply, a
    Named one call per state), take an And/Or whose children are all
    predicates as CPython's own min/max loop written out per state (m =
    the first child, then m = v for each later child v that compares < m,
    or > m for Or), its children without signals of their own, and
    evaluate those and the predicates of one window in one loop over its
    states.  That loop keeps the first of equal items, signed zeros, NaN
    behaviour and the number of comparisons of builtin min/max over a
    tuple, so values are bit for bit the min/max recursion's; Boolean
    predicates compare (> 0 if strict, else >= 0) first.  The exact
    kernel returns every signal (None where there is none), the others
    the root's value."""
    smooth = sem == "smooth"
    agg = {min: "mn", max: "mx"} if smooth else {min: "min", max: "max"}
    ns = {"_window": _window, "_until": _until, "_soft_until": _soft_until}
    fused = set() if smooth else {
        i for i, (_, _, _, kids, _, op) in enumerate(steps)
        if op == "andor" and not any(steps[c][3] for c in kids)}
    read = {len(steps) - 1}.union(*[steps[i][3] for i in range(len(steps))
                                    if i not in fused])
    sig, loops, lines, groups = ["None"] * len(steps), [], [], {}

    def pred(i, coords):
        """(lines, expression) of predicate step i at state s, adding the
        coordinates x{j} it reads to coords."""
        g, body = steps[i][0], []
        if steps[i][5] == "affine":
            nz = [(ci, j) for j, ci in enumerate(g.h.c) if ci != 0.0]
            coords.update(j for _, j in nz)
            out = _literal(g.h.d, ns)
            for t, (ci, j) in enumerate(nz):
                if t and t % _TERMS == 0:
                    body.append(f"p{i}_{t} = {out}")
                    out = f"p{i}_{t}"
                out += (f" + x{j}" if ci == 1.0 else f" - x{j}" if ci == -1.0
                        else f" + {_literal(ci, ns)} * x{j}")
        else:
            ns[f"h{i}"], out = steps[i][4], f"h{i}(s)"
        if sem == "boolean":
            out = f"{out} {'>' if g.strict else '>='} 0.0"
        return body, out

    for i, (g, lo, n, kids, fn, op) in enumerate(steps):
        z = sig[i] = f"z{i}"
        rows = f"states[k + {lo}:k + {lo + n}]"
        if not n:
            lines.append(f"{z} = []")
        elif smooth and not kids:
            ns[f"h{i}"] = fn
            lines.append(f"{z} = list(map(h{i}, {rows}))")
        elif i in fused or not kids:
            if i in fused or i in read:
                groups.setdefault(rows, []).append(i)
            else:
                sig[i] = "None"
        elif op == "andor":
            zs = ", ".join(f"z{c}" for c in kids)
            lines.append(f"{z} = list(map({agg[fn]}, zip({zs})))"
                         if kids[1:] else f"{z} = {zs}")
        elif op == "window":
            lines.append(f"{z} = _window({agg[fn]}, z{kids[0]}, "
                         f"{g.b - g.a + 1}, {n})")
        elif smooth:
            lines.append(f"{z} = _soft_until(z{kids[0]}, z{kids[1]}, {n}, "
                         f"{g.a}, {g.b}, {agg[fn]}, "
                         f"{agg[max if fn is min else min]})")
        else:
            lines.append(f"{z} = _until(z{kids[0]}, z{kids[1]}, {n}, "
                         f"{g.a}, {g.b}, {agg[fn]})")
    for rows, leaves in groups.items():
        # a predicate two leaves read is a statement, the others inline
        uses = Counter(c for i in leaves for c in steps[i][3] or [i])
        coords, body, value = set(), [], {}
        for c, u in uses.items():
            got, value[c] = pred(c, coords)
            body += got + [f"p{c} = {value[c]}"] * (u > 1)
            value[c] = f"p{c}" if u > 1 else value[c]
        for i in leaves:
            first, *rest = (value[c] for c in steps[i][3] or [i])
            if rest:
                # CPython's min/max loop: a later item replaces m only if
                # it compares < (min) or > (max) to it
                cmp = "<" if steps[i][4] is min else ">"
                body.append(f"m = {first}")
                for v in rest:
                    body += [f"v = {v}", f"if v {cmp} m: m = v"]
                first = "m"
            body.append(f"z{i}.append({first})")
        loops += [*(f"z{i} = []" for i in leaves), f"for s in {rows}:",
                  *(f"    x{j} = s[{j}]" for j in sorted(coords)),
                  *(f"    {ln}" for ln in body)]
    ret = (f"return [{', '.join(sig)}]" if sem == "exact"
           else f"return z{len(steps) - 1}[0]")
    return compile_kernel("states, k, mn, mx" if smooth else "states, k",
                          loops + lines + [ret], ns)


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


def _until(left, right, n, a, b, agg):
    """Exact or Boolean U/R, agg the inner min/max (see stl._inner)."""
    out, seed = (max, -INF) if agg is min else (min, INF)
    return [out(seed, *_inner(left, right, j, a, b, agg)) for j in range(n)]


def _soft_until(left, right, n, a, b, agg, out):
    """Smooth U/R, agg the inner soft min/max and out the outer one, over
    explicit operand lists, left@t..k'-1 before right@k', as the recursion
    aggregated them."""
    return [out([agg(left[j:j + a + p] + right[j + p:j + p + 1])
                 for p in range(b - a + 1)]) for j in range(n)]
