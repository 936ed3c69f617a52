"""The benchmark's layer trace must find every name it wraps.

`bench/layertrace.py` patches functions and methods by name on their own
module or class, so a rename or deletion in the package breaks the traced
benchmark runs; this test catches that in the ordinary test suite.
"""

import importlib.util
import os

LAYERTRACE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "layertrace.py")


def test_tracer_installs_on_every_target():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()
    try:
        tracer.install()  # raises on the first target it cannot find
    finally:
        tracer.uninstall()
