"""Stand-ins for the deleted columnar backend, kept for perfbench only.

Every run takes the scalar simulation path (DESIGN.md §13 says why the
columnar numpy kernel was removed).  ``perfbench/bench.py`` still
imports the four names below; they exist only for it, until a change
to the benchmark drops them together with its now always-zero
``columnar.*`` metrics.  Nothing in the package imports this module,
and it imports no numpy.
"""

BACKEND_NUMPY = "numpy"


def numpy_available() -> bool:
    """No run uses numpy."""
    return False


def resolve_backend(backend, cache) -> str:
    """Every run takes the scalar path."""
    return "python"


def make_engine(cache, trace, writes) -> None:
    """There is no columnar engine."""
    return None
