"""Exact computations with cotransverse cube maps and symmetric transverse sets.

The package is organized around a small set of exact, immutable values:

- :mod:`transcube.cube` -- boolean cubes, the directed L1 metric, validated
  cotransverse map tables, standard generators and a text literal format;
- :mod:`transcube.homsets` -- exhaustive hom-set enumeration, the unique
  coface/endomap factorization and its finality;
- :mod:`transcube.topo` -- the max-min topologized extension of a map,
  evaluated on exact rational points by two independent algorithms;
- :mod:`transcube.paths` -- piecewise-linear directed paths, naturality,
  reparametrization, transport, Moore composition and induced face maps;
- :mod:`transcube.sts` -- finite symmetric transverse sets: representables,
  boundaries, free generation, pushouts, cellular assembly;
- :mod:`transcube.reedy` -- boundary hom quotients and latching objects of
  set-valued cotransverse objects;
- :mod:`transcube.geometry` -- skeleton distances and chain bounds in
  realizations;
- :mod:`transcube.suites` -- deterministic property-check suites, also
  exposed through the ``transcube`` command-line tool.

``import transcube`` loads no submodule: each name of ``__all__`` is
imported from its submodule on first use.
"""

from importlib import import_module

#: The exported names, by the submodule that defines them.
_EXPORTS = {
    "cube": (
        "INF",
        "CubeMap",
        "InputError",
        "Vertex",
        "coface",
        "compose",
        "d1_vertex",
        "height",
        "identity",
        "max_min_collapse",
        "min_max_collapse",
        "symmetry",
        "validate_cotransverse",
    ),
    "homsets": (
        "BudgetExceeded",
        "Factorization",
        "check_factorization_final",
        "count_homset",
        "enumerate_cofaces",
        "enumerate_homset",
        "factorize",
    ),
    "topo": ("d1_point", "d1_sym", "d1_sym_witness", "t_eval", "t_eval_maxmin", "t_eval_permutation"),
    "paths": (
        "DPath",
        "SegmentPath",
        "induced_coface",
        "induced_path_map",
        "is_dpath",
        "is_natural",
        "moore_compose",
        "naturalize",
        "segment_path",
        "transport",
    ),
    "sts": (
        "Precubical",
        "Sts",
        "StsMap",
        "boundary",
        "certify_cellular",
        "free_sts",
        "pushout",
        "representable",
        "terminal_sts",
    ),
    "reedy": (
        "CotransverseSetObj",
        "boundary_hom",
        "compare_latching_to_boundary",
        "latching",
        "matching_emptiness_check",
        "weighted_coend_eval",
    ),
    "geometry": ("PointPresentation", "SkeletonDigraph", "chain_distance_sample", "dpath_length", "vertex_distance"),
    "suites": ("CheckSuiteReport", "run_suite", "suite_names"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind an exported name on first use (PEP 562),
    so that ``import transcube`` loads no submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
