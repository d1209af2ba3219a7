"""The names that the benchmark's tracer rebinds must stay in the library.

``perfbench/tracing.py`` wraps boundary names of the library's modules,
some of them imported only for it (``search._hyper_embedding_search``);
deleting one breaks every traced benchmark run.  The tracer imports only
the standard library, so it is loaded here by its file path.
"""

import importlib.util
from pathlib import Path

import patternex
import patternex.verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_tracer_rebinds_exists_and_is_restored():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(patternex)  # a missing name raises AttributeError here
        installed = list(tracer._installed)
        rebound = {(module.__name__, attr) for module, attr, _ in installed}
        assert ("patternex.search", "_hyper_embedding_search") in rebound
        assert ("patternex.search", "_matrix_embedding_search") in rebound
        assert ("patternex.verify", "klazar_marcus_check") in rebound
        for module, attr, original in installed:
            wrapped = getattr(module, attr)
            assert wrapped is not original and callable(wrapped), (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr, original in installed:
        assert getattr(module, attr) is original, (module.__name__, attr)
