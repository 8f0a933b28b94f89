"""The benchmark tracer's call sites must name attributes that exist.

``perfbench/tracer.py`` wraps module attributes by name; a refactor that drops
or renames one (say ``engine.default_theta``) would otherwise surface only
when the benchmark trace runs.  The file is loaded by path and nothing is
installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


CALL_SITES = load_tracer().CALL_SITES


@pytest.mark.parametrize(
    "module_name, attr", [(site[0], site[1]) for site in CALL_SITES], ids=lambda v: v
)
def test_call_site_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"


def test_sites_are_listed():
    assert len(CALL_SITES) >= 30
