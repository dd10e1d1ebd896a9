"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps cohtrade's functions by attribute name, so a
renamed or deleted function breaks ``perfbench/run.py --trace 1``.  This
test installs the tracer on the imported package and removes it again.
"""

import importlib.util
import os
import sys

import numpy as np

import cohtrade
import cohtrade.cli  # noqa: F401  (the tracer wraps only loaded modules; cli binds cli_main)
from cohtrade import ghz_state

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cohtrade_bindings():
    """Every function-valued attribute of every loaded cohtrade module and class."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name != "cohtrade" and not name.startswith("cohtrade."):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                found[f"{name}.{attr}"] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    found[f"{name}.{attr}.{cattr}"] = cvalue
    return found


def test_tracer_binds_every_target_and_restores_them():
    tracer = load_tracer()
    before = cohtrade_bindings()
    spans = tracer.Tracer()
    try:
        spans.install()  # inside the try: a failed install restores what it wrapped
        wrapped = tracer.installed_wrappers()
        for _, owner, attr in tracer.TARGETS:
            suffix = f".{attr}" if owner is None else f".{owner}.{attr}"
            assert any(w.endswith(suffix) for w in wrapped), (owner, attr)
        # calls through the package namespace reach the wrappers
        cohtrade.run_suite(ghz_state(np.pi / 4))
        cohtrade.verify_theorem3(ghz_state(np.pi / 4))
    finally:
        spans.uninstall()
    assert spans.calls["inequalities.suite"] == 1
    assert spans.calls["inequalities.verifier"] == 1
    assert spans.calls["tangle.tau"] == 1
    assert tracer.installed_wrappers() == []
    after = cohtrade_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert cohtrade.run_suite is before["cohtrade.run_suite"]
