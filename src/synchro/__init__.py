"""Tools for deciding synchronization questions about permutation
groups: complete-mapping search, diagonal-graph colourings, witness
verification and transfer, suborbit and collapsed-adjacency
computations in permutation and matrix representations, and class
algebra structure constants from character tables.

Each module is imported on first use (PEP 562), so `import
synchro.matrep` does not load `chartab`.  The package needs nothing
outside the standard library.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "chartab",
    "diagonal",
    "groups",
    "mapping",
    "matrep",
    "orbitals",
    "witness",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
