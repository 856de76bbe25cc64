"""Span tracer that times calls into stlctrl's layers from outside the program.

Installing a Tracer replaces each traced public function with a wrapper in
every stlctrl module that holds it by name (``from .plants import rollout``
copies the function into trainer, verify and cli, so patching plants alone
would miss those calls), and wraps ``Tape.backward``, ``Plant.step`` and
``Policy.forward`` once on their classes.  ``uninstall`` puts every
original back.

Each call records one span (name, parent span, start, end) in compact
in-memory arrays; nothing is written while the program runs.  Self time
of a span is its duration minus the durations of its direct children.
Counters that do not depend on the hardware (tape nodes, live steps,
rollout steps, diverged rollouts) are accumulated at the same wrappers.
"""

import array
import functools
import json
import sys
import time
from collections import Counter

# (module, function, span name) for every traced free function
FUNCTIONS = (
    ("plants", "rollout", "plants.rollout"),
    ("stl", "robustness", "stl.robustness"),
    ("stl", "critical", "stl.critical"),
    ("smooth", "smooth_robustness", "smooth.smooth_robustness"),
    ("sampler", "build_sampled", "sampler.build_sampled"),
    ("sampler", "grad_critical", "sampler.grad_critical"),
    ("sampler", "grad_smooth", "sampler.grad_smooth"),
    ("policy", "adam_update", "policy.adam_update"),
    ("trainer", "train_dropout", "trainer.train_dropout"),
    ("verify", "calibrate", "verify.calibrate"),
    ("verify", "report", "verify.report"),
    ("cli", "load_scenario", "cli.load_scenario"),
)

# (module, class, method, span name); Policy.forward is split by argument
METHODS = (
    ("autodiff", "Tape", "backward", "autodiff.backward"),
    ("plants", "Plant", "step", "plants.step"),
    ("policy", "Policy", "forward", None),
)

SPAN_NAMES = tuple(n for _, _, n in FUNCTIONS) + (
    "autodiff.backward", "plants.step",
    "policy.forward_plain", "policy.forward_tape")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Records spans and counters for one traced run; see the module doc."""

    def __init__(self, pkg_name):
        self.pkg_name = pkg_name
        self.names = list(SPAN_NAMES)
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts = Counter()
        self.patched = []  # (owner, attribute, original) of the last install
        self.active = False
        self._stack = [-1]

    # -- installation ---------------------------------------------------

    def _modules(self):
        prefix = self.pkg_name + "."
        return [m for n, m in sorted(sys.modules.items())
                if n == self.pkg_name or n.startswith(prefix)]

    def _module(self, short):
        return sys.modules[f"{self.pkg_name}.{short}"]

    def install(self):
        """Wrap every traced function; spans accumulate across installs."""
        if self.active:
            raise RuntimeError("tracer is already installed")
        self.patched = []
        self.active = True
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self):
        mods = self._modules()
        diverged = self._module("plants").DivergedRollout
        Var = self._module("autodiff").Var
        hooks = {
            "plants.rollout": self._count_rollout,
            "sampler.build_sampled": self._count_build_sampled,
            "autodiff.backward": self._count_backward,
        }
        for mod, fname, span in FUNCTIONS:
            orig = getattr(self._module(mod), fname)
            wrapper = self._wrap(orig, self.names.index(span), hooks.get(span),
                                 diverged if span == "plants.rollout" else ())
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper)
        plain = self.names.index("policy.forward_plain")
        tape = self.names.index("policy.forward_tape")

        def forward_span(args, kwargs):
            theta = _arg(args, kwargs, 3, "theta")
            return tape if theta and isinstance(theta[0], Var) else plain

        for mod, cls_name, meth, span in METHODS:
            cls = getattr(self._module(mod), cls_name)
            pick = forward_span if span is None else self.names.index(span)
            self._patch(cls, meth, self._wrap(vars(cls)[meth], pick, hooks.get(span)))

    def _patch(self, owner, attr, wrapper):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.active = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, span, hook=None, diverged=()):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        pick = span if callable(span) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(pick(args, kwargs) if pick else span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except diverged:
                self.counts["plants.rollout.diverged"] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs)

        return traced

    def _count_rollout(self, args, kwargs):
        self.counts["plants.rollout.steps"] += _arg(args, kwargs, 3, "K")

    def _count_build_sampled(self, args, kwargs):
        # the controller is live at every sample time but the last
        self.counts["sampler.live_steps"] += len(_arg(args, kwargs, 1, "times")) - 1

    def _count_backward(self, args, kwargs):
        self.counts["autodiff.tape_nodes"] += len(args[0])

    # -- results ----------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def totals(self):
        """{span name: (calls, self seconds)} derived from the spans."""
        return span_totals(self.names, self.name, self.parent, self.start, self.end)

    def write(self, path):
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "count": len(self),
                  "byteorder": sys.byteorder,
                  "arrays": [["name", "H"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in (self.name, self.parent, self.start, self.end):
                a.tofile(fh)


def span_totals(names, name, parent, start, end):
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i in range(n):
        k = name[i]
        calls[k] += 1
        self_s[k] += end[i] - start[i] - child[i]
    return {nm: (calls[k], self_s[k]) for k, nm in enumerate(names)}


def read_spans(path):
    """(names, name, parent, start, end) from a file written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        out = []
        for _, code in header["arrays"]:
            a = array.array(code)
            a.fromfile(fh, n)
            if header["byteorder"] != sys.byteorder:
                a.byteswap()
            out.append(a)
    return (header["names"], *out)
