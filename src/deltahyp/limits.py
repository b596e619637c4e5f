"""Input limits, catalog kinds and numeric defaults.

The CLI parser reads these on every call, ``replay`` included, so they live
apart from the NumPy-backed modules that use them (:mod:`deltahyp.surfaces`
and :mod:`deltahyp.delta`, which re-export them).
"""

#: Largest operator dimension any input may ask for: a spec's ``n``, the size
#: of a matrix document and the number of ``--spectrum`` values.  Operators
#: are dense n x n arrays, so larger inputs are refused before one is built.
MAX_DIMENSION = 1024

#: Catalog kind -> (required fields, optional fields) of a surface spec,
#: besides ``kind``.  Spec files, ``catalog --kind`` flags and ``SurfaceSpec``
#: all read this one table.
SPEC_FIELDS = {
    "spherical-cylinder": (("n", "p", "radius"), ()),
    "round-sphere": (("n", "radius"), ()),
    "hyperplane": (("n",), ()),
    "graph": (("hessian",), ("n",)),
}

CATALOG_KINDS = tuple(SPEC_FIELDS)

DEFAULT_TOL = 1e-8
DEFAULT_RESTARTS = 32
DEFAULT_SEED = 20240
