"""Combinatorics of DIII (n,n)-clans: validation, enumeration, the weak
order and its rank polynomial, sects, rook/partition/lattice-path
bijections, and exact representative flag matrices.

``import diii_clans`` loads only ``clans``, ``enumeration`` and ``sects``.
The public names of ``delannoy``, ``flags``, ``pyramids`` and
``weak_order``, and those modules as attributes, are imported on first
access (the module ``__getattr__`` of PEP 562), so a program that never
touches a flag matrix never compiles ``flags`` or loads ``fractions``.
``sects`` is loaded with the package because the package's ``sects`` is the
function: importing the submodule ``diii_clans.sects`` later would rebind
that attribute to the module.
"""

from importlib import import_module

from . import clans, enumeration, sects

#: Each public name, by its home module; the order of ``__all__``.
_EXPORTS = {
    "clans": (
        "MINUS", "PLUS", "Clan", "ClanError", "DIIIClan", "parse_clan",
        "parse_diii",
    ),
    "delannoy": (
        "PathError", "WeightedDelannoyPath", "clan_to_path", "path_to_clan",
        "validate_path",
    ),
    "enumeration": (
        "ClanSet", "assemble_clan", "count_by_pairs", "count_formula",
        "count_recurrence", "enumerate_diii", "generate_diii",
    ),
    "flags": (
        "FlagMatrix", "QSqrt2", "intersection_dimension", "intersection_parity",
        "representative_matrix", "verify_special_orthogonal",
    ),
    "pyramids": (
        "PartitionPair", "Pyramid", "PyramidParityError", "RookPlacement",
        "clan_to_pyramid", "extend_odd", "partition_pair_to_pyramid",
        "placement_to_clan", "pyramid_to_clan", "pyramid_to_partition_pair",
        "pyramid_to_placement", "rotate_placement",
    ),
    "sects": (
        "PartialFPFInvolution", "SchubertSubset", "Sect", "base_clan_to_subset",
        "big_sect", "big_sect_base", "clan_to_pfpf", "epsilon_count",
        "epsilon_recurrence", "pfpf_to_clan", "sect_sizes", "sects",
        "subset_to_base_clan",
    ),
    "weak_order": (
        "LengthStats", "RankPolynomial", "WeakOrderPoset", "apply_reflection",
        "clan_length", "maximal_clan", "rank_poly_recurrence", "rank_polynomial",
        "weak_order_poset",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"

# the names of the modules imported above; the function ``sects`` replaces
# the module ``sects``, which the import bound here
for _module in (clans, enumeration, sects):
    for _name in _EXPORTS[_module.__name__.rpartition(".")[2]]:
        globals()[_name] = getattr(_module, _name)
del _module, _name


def __getattr__(name: str):
    """A lazily loaded module, or one of its public names, which is then
    bound here so later lookups do not come back."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # binds the attribute
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
