"""The benchmark's tracer wraps names that ``gsskit.pipeline`` imports.

``perfbench/tracing.py`` replaces each key of its ``LAYER_OF`` table, and
``ThreadPoolExecutor``, on the ``gsskit.pipeline`` module. A refactor that
renames or stops importing one of them would make ``perfbench/run.py
--trace 1`` fail, so the contract is checked here, against the tracer
file as it stands.
"""

import importlib.util
from pathlib import Path

import gsskit.pipeline as pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_pipeline_has_every_name_the_tracer_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name in (*tracing.LAYER_OF, "ThreadPoolExecutor")
               if not hasattr(pipeline, name)]
    assert missing == []
