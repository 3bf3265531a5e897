"""The benchmark's tracer wraps library functions by name; a renamed or
removed function would silently drop its per-layer metrics."""

from perfbench.tracing import Tracer


def test_every_traced_name_resolves():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
