"""stl.Record against the frozen dataclasses it replaced.

Each converted class is checked against a dataclass twin declared here
with the same name, fields and defaults, so repr, eq, hash, construction,
errors and immutability stay what the dataclass gave.  The formula reprs
of the bundled scenarios are pinned by digest: error messages print them.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

from stlctrl import stl
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.smooth import SmoothConfig
from stlctrl.stl import Trace, critical, parse, robustness
from stlctrl.trainer import TrainRecord
from stlctrl.verify import VerificationReport

AFF = stl.Affine((1.0, -2.0), 0.5)
P = stl.Pred(AFF)
Q = stl.Pred(stl.Affine((0.0, 1.0), -1.0), False)

# (class, its fields in order, their defaults, values of every field)
SPECS = [
    (stl.Affine, ["c", "d"], {}, ((1.0, -2.0), 0.5)),
    (stl.Named, ["name", "fn", "negation"], {"negation": None},
     ("near", abs, stl.Named("far", abs))),
    (stl.Pred, ["h", "strict"], {"strict": True}, (AFF, False)),
    (stl.And, ["children"], {}, ((P, Q),)),
    (stl.Or, ["children"], {}, ((P, Q),)),
    (stl.Eventually, ["a", "b", "child"], {}, (1, 3, P)),
    (stl.Always, ["a", "b", "child"], {}, (0, 2, Q)),
    (stl.Until, ["a", "b", "left", "right"], {}, (0, 2, P, Q)),
    (stl.Release, ["a", "b", "left", "right"], {}, (1, 4, Q, P)),
    (stl.CriticalWitness, ["time", "predicate", "value"], {}, (4, P, -0.25)),
    (SmoothConfig, ["b"], {"b": 15.0}, (7.5,)),
    (TrainRecord, ["iter", "rho", "branch", "lr", "seconds"], {},
     (3, -0.5, "smooth", 1.0, 0.125)),
    (VerificationReport, ["m", "ell", "R_ell", "delta1", "confidence", "mean",
                          "variance", "verdict", "diverged"], {},
     (200, 190, -0.1, 1e-9, 0.99, -0.3, 0.01, True, 2)),
]
IDS = [spec[0].__name__ for spec in SPECS]


def twin(cls, names, defaults):
    """A frozen dataclass of cls's name, fields and defaults that runs
    cls's __post_init__."""
    fields = [(n, object, dataclasses.field(default=defaults[n]))
              if n in defaults else (n, object) for n in names]
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True,
        namespace={"__post_init__": cls.__post_init__})


def raises_alike(exc, make, make_twin):
    with pytest.raises(exc) as got:
        make()
    with pytest.raises(exc):
        make_twin()
    return got.value


@pytest.mark.parametrize("cls, names, defaults, values", SPECS, ids=IDS)
def test_record_matches_its_dataclass_twin(cls, names, defaults, values):
    Twin = twin(cls, names, defaults)
    r, t = cls(*values), Twin(*values)
    assert type(r).__qualname__ == cls.__name__
    assert repr(r) == repr(t)
    assert hash(r) == hash(t) == hash(cls(*values))
    assert r == cls(*values) and not r != cls(*values)
    # another class with the same fields is never equal
    assert r != t and r.__eq__(t) is NotImplemented
    other = {stl.And: stl.Or, stl.Or: stl.And, stl.Eventually: stl.Always,
             stl.Until: stl.Release}.get(cls)
    if other is not None:
        assert r != other(*values) and r.__eq__(other(*values)) is NotImplemented
    last = values[-1]
    changed = values[:-1] + (last + 1 if isinstance(last, (int, float))
                             else (last, "changed"),)
    assert r != cls(*changed) and repr(cls(*changed)) == repr(Twin(*changed))
    assert list(vars(r)) == names and vars(r) == dict(zip(names, values))


@pytest.mark.parametrize("cls, names, defaults, values", SPECS, ids=IDS)
def test_record_construction_matches_its_twin(cls, names, defaults, values):
    Twin = twin(cls, names, defaults)
    kw = dict(zip(names, values))
    r = cls(*values)
    assert cls(**kw) == r and repr(cls(**kw)) == repr(Twin(**kw))
    # keywords in any order fill the fields in their declared order
    assert list(vars(cls(**dict(reversed(kw.items()))))) == names
    assert cls(*values[:1], **dict(list(kw.items())[1:])) == r
    required = [v for n, v in zip(names, values) if n not in defaults]
    assert repr(cls(*required)) == repr(Twin(*required))
    assert cls(*required) == cls(*required, *[defaults[n] for n in names
                                              if n in defaults])
    for n in defaults:
        assert getattr(cls(*required), n) == defaults[n]
    if required:
        e = raises_alike(TypeError, lambda: cls(*required[:-1]),
                         lambda: Twin(*required[:-1]))
        assert repr(names[len(required) - 1]) in str(e)
    else:
        assert repr(cls()) == repr(Twin())
    e = raises_alike(TypeError, lambda: cls(*values, unknown=1),
                     lambda: Twin(*values, unknown=1))
    assert "'unknown'" in str(e)
    e = raises_alike(TypeError, lambda: cls(*values, **{names[0]: values[0]}),
                     lambda: Twin(*values, **{names[0]: values[0]}))
    assert repr(names[0]) in str(e)
    raises_alike(TypeError, lambda: cls(*values, values[0]),
                 lambda: Twin(*values, values[0]))


@pytest.mark.parametrize("cls, names, defaults, values", SPECS, ids=IDS)
def test_record_fields_cannot_be_assigned_or_deleted(cls, names, defaults,
                                                     values):
    r, t = cls(*values), twin(cls, names, defaults)(*values)
    for name in (names[0], names[-1], "new_attribute"):
        raises_alike(AttributeError, lambda: setattr(r, name, 1),
                     lambda: setattr(t, name, 1))
        raises_alike(AttributeError, lambda: delattr(r, name),
                     lambda: delattr(t, name))
    assert r == cls(*values) and vars(r) == dict(zip(names, values))


def test_post_init_checks_are_kept():
    twins = {cls: twin(cls, names, defaults)
             for cls, names, defaults, _ in SPECS}
    for make in (stl.Eventually, stl.Always, stl.Until, stl.Release):
        args = (P,) * (len(make._fields) - 2)
        e = raises_alike(ValueError, lambda: make(3, 1, *args),
                         lambda: twins[make](3, 1, *args))
        assert str(e) == "invalid interval [3,1]"
        e = raises_alike(ValueError, lambda: make(0, 1.0, *args),
                         lambda: twins[make](0, 1.0, *args))
        assert str(e) == "temporal bounds must be integers"
    for b in (0.0, -1.0, float("inf"), float("nan")):
        e = raises_alike(ValueError, lambda: SmoothConfig(b),
                         lambda: twins[SmoothConfig](b))
        assert "sharpness" in str(e)
    with pytest.raises(ValueError, match="sharpness"):
        SmoothConfig(b=0.0)


def test_caches_stay_out_of_eq_hash_and_repr():
    text = "G[0,2](x0 - 2*x1 > 0.5) && F[1,3](x1 < 1)"
    f, g = parse(text), parse(text)
    before = (repr(f), hash(f))
    tr = Trace([(0.1 * k, -0.2 * k) for k in range(5)])
    robustness(f, tr)
    critical(f, tr)
    aff = f.children[0].child.h
    aff.eval((1.0, 2.0))
    assert f._prog is not None and g._prog is None
    assert aff._nz is not None and g.children[0].child.h._nz is None
    assert "_prog" in vars(f) and "_nz" in vars(aff)
    assert f == g and hash(f) == hash(g) == before[1]
    assert repr(f) == repr(g) == before[0]
    assert aff == g.children[0].child.h and hash(aff) == hash(
        g.children[0].child.h) and repr(aff) == repr(g.children[0].child.h)


def test_verification_report_vars_are_its_nine_fields_in_order():
    values = (200, 190, -0.1, 1e-9, 0.99, -0.3, 0.01, True, 2)
    names = ["m", "ell", "R_ell", "delta1", "confidence", "mean", "variance",
             "verdict", "diverged"]
    report = VerificationReport(**dict(reversed(list(zip(names, values)))))
    assert list(vars(report).items()) == list(zip(names, values))


# sha256 of repr(formula) of each bundled scenario, recorded with the
# dataclass nodes the records replaced
FORMULA_REPR_SHA256 = {
    "dubins_k10": "8ba1f78077b5f0c64ec97921a03953d30953d241a073bea05b60dafea1abb1c2",
    "dubins_k100": "7930bb98d86a30afc4aabd9081da5cfc0379fb8123bd7f5796748d29f88396ea",
    "dubins_k1000": "f00f9edb38ea6db69867757acc61b983ad6f582500fd9bf512ca1fa1bce008ab",
    "dubins_k50": "fc116686d2d4519ec60d067cc795d802da077a5faaac0a91298e5231fb0c4a87",
    "dubins_k500": "618d51274cb52bc7d12dd8800e718a6d207544acac6ad844b7dbaa41941e6194",
    "integrator2d": "9dbadb7b1c00cd2eedd66d86941ee8371b6ad575cd157836275d0c34c46c72bc",
    "multi_dubins_10": "c99b21b850a739dcf8bd149140248b23196369d3ab1d216fca618e0afb68cc9f",
    "quad12": "81960e636f7bff221e2905fe262755b2c41c53a14e86509a67359549597f9bf9",
    "quad6_platform": "92edb1e7529192177dc9e66526d0ee6bfae0cb057b35156c4a2b020df60a2dfa",
    "scalar_power": "34a4407e8ecbb260ad185c681e3120db72e35bc0f926ae2e52910bd6d33eed0a",
}


def test_every_bundled_formula_repr_is_pinned():
    assert bundled_names() == sorted(FORMULA_REPR_SHA256)


@pytest.mark.parametrize("name", sorted(FORMULA_REPR_SHA256))
def test_bundled_formula_repr_is_unchanged(name):
    f = load_scenario(resolve_scenario(name)).formula
    g = load_scenario(resolve_scenario(name)).formula
    digest = hashlib.sha256(repr(f).encode()).hexdigest()
    assert digest == FORMULA_REPR_SHA256[name]
    assert f == g and hash(f) == hash(g) and f is not g


def test_small_formula_repr_is_the_dataclass_one():
    assert repr(parse("F[0,2](x0 > 1)")) == (
        "Eventually(a=0, b=2, child=Pred(h=Affine(c=(1.0,), d=-1.0), "
        "strict=True))")


def test_no_stlctrl_class_is_a_dataclass_but_train_config():
    # a fresh interpreter: generating a dataclass's methods at import costs
    # about 0.45 ms a class on every import, which benchmark noise hides
    script = textwrap.dedent("""
        import importlib, pkgutil, sys
        import stlctrl
        from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
        for name in bundled_names():
            load_scenario(resolve_scenario(name))
        for m in pkgutil.iter_modules(stlctrl.__path__, "stlctrl."):
            importlib.import_module(m.name)
        found = sorted(
            f"{name}.{attr}" for name, mod in list(sys.modules.items())
            if name.startswith("stlctrl.")
            for attr, value in vars(mod).items()
            if isinstance(value, type) and value.__module__ == name
            and hasattr(value, "__dataclass_fields__"))
        assert found == ["stlctrl.trainer.TrainConfig"], found
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["stlctrl"].__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
