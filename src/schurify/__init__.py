"""Exact-arithmetic generalized Schur algebras over based quasi-hereditary superalgebras."""

from schurify.base_algebra import make_algebra
from schurify.schur import SchurAlgebra, build_schur

__version__ = "0.1.0"

__all__ = [
    "SchurAlgebra",
    "build_schur",
    "make_algebra",
    "verify_heredity",
    "__version__",
]


def __getattr__(name: str):
    """`verify_heredity` loads the base heredity check (`base_heredity`) on
    first use (PEP 562), so `import schurify` does not parse it."""
    if name == "verify_heredity":
        from schurify.base_heredity import verify_heredity

        return verify_heredity
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
