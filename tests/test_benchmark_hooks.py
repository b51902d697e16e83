"""The names the benchmark's tracer wraps still exist in ccdp.

perfbench/tracer.py replaces module and class attributes of ccdp by name
(its SPANS and PARAMS_NAMES tables).  A rename in ccdp would otherwise only
show up as a failed benchmark run.  The tracer is read here, never edited.
"""

import importlib.util
import os

import pytest

from ccdp import bounds, cli, gaps, mc, model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = {"model": model, "bounds": bounds, "gaps": gaps, "mc": mc, "cli": cli}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "_benchmark_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


def _owner(path):
    module, _, cls = path.partition(".")
    return getattr(MODULES[module], cls) if cls else MODULES[module]


@pytest.mark.parametrize("path, attr", [*TRACER.SPANS, *TRACER.PARAMS_NAMES],
                         ids=lambda v: v)
def test_every_wrapped_name_exists(path, attr):
    assert callable(_owner(path).__dict__.get(attr)), f"{path}.{attr} is gone"


def test_the_tracer_wraps_and_restores_every_hook():
    saved = {name: dict(vars(module)) for name, module in MODULES.items()}
    with TRACER.Tracer(MODULES) as tracer:
        assert tracer._saved
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in tracer._saved)
    assert {name: dict(vars(module)) for name, module in MODULES.items()} == saved
