"""Tools for deciding synchronization questions about permutation
groups: complete-mapping search, diagonal-graph colourings, witness
verification and transfer, suborbit and collapsed-adjacency
computations in permutation and matrix representations, and class
algebra structure constants from character tables.

`import synchro` loads no submodule; import each one by name, as in
`from synchro import matrep`, which does not load `chartab`.  The
package needs nothing outside the standard library.
"""

__version__ = "0.1.0"
