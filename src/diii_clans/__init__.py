"""Combinatorics of DIII (n,n)-clans: validation, enumeration, the weak
order and its rank polynomial, sects, rook/partition/lattice-path
bijections, and exact representative flag matrices."""

from .clans import (
    MINUS,
    PLUS,
    Clan,
    ClanError,
    DIIIClan,
    Involution,
    PairClassification,
    parse_clan,
    parse_diii,
)
from .delannoy import (
    LabeledStep,
    PathError,
    WeightedDelannoyPath,
    clan_to_path,
    path_to_clan,
    validate_path,
)
from .enumeration import (
    ClanSet,
    assemble_clan,
    count_by_pairs,
    count_formula,
    count_recurrence,
    enumerate_diii,
    generate_diii,
)
from .flags import (
    FlagMatrix,
    QSqrt2,
    intersection_dimension,
    intersection_parity,
    representative_matrix,
    verify_special_orthogonal,
)
from .pyramids import (
    PartitionPair,
    Pyramid,
    PyramidCell,
    PyramidParityError,
    RookPlacement,
    clan_to_pyramid,
    extend_odd,
    extract_pyramid,
    partition_pair_to_pyramid,
    placement_to_clan,
    pyramid_to_clan,
    pyramid_to_partition_pair,
    pyramid_to_placement,
    rotate_placement,
    signed_involution_pair,
)
from .sects import (
    PartialFPFInvolution,
    SchubertSubset,
    Sect,
    base_clan_to_subset,
    big_sect,
    big_sect_base,
    clan_to_pfpf,
    epsilon_count,
    epsilon_recurrence,
    pfpf_to_clan,
    sect_sizes,
    sects,
    subset_to_base_clan,
)
from .weak_order import (
    LengthStats,
    RankPolynomial,
    WeakOrderPoset,
    apply_reflection,
    clan_length,
    maximal_clan,
    rank_poly_recurrence,
    rank_polynomial,
    weak_order_poset,
)

__all__ = [
    "MINUS", "PLUS", "Clan", "ClanError", "DIIIClan", "Involution",
    "PairClassification", "parse_clan", "parse_diii",
    "LabeledStep", "PathError", "WeightedDelannoyPath", "clan_to_path",
    "path_to_clan", "validate_path",
    "ClanSet", "assemble_clan", "count_by_pairs", "count_formula",
    "count_recurrence", "enumerate_diii", "generate_diii",
    "FlagMatrix", "QSqrt2", "intersection_dimension", "intersection_parity",
    "representative_matrix", "verify_special_orthogonal",
    "PartitionPair", "Pyramid", "PyramidCell", "PyramidParityError",
    "RookPlacement", "clan_to_pyramid", "extend_odd", "extract_pyramid",
    "partition_pair_to_pyramid", "placement_to_clan", "pyramid_to_clan",
    "pyramid_to_partition_pair", "pyramid_to_placement", "rotate_placement",
    "signed_involution_pair",
    "PartialFPFInvolution", "SchubertSubset", "Sect", "base_clan_to_subset",
    "big_sect", "big_sect_base", "clan_to_pfpf", "epsilon_count",
    "epsilon_recurrence", "pfpf_to_clan", "sect_sizes", "sects",
    "subset_to_base_clan",
    "LengthStats", "RankPolynomial", "WeakOrderPoset", "apply_reflection",
    "clan_length", "maximal_clan", "rank_poly_recurrence", "rank_polynomial",
    "weak_order_poset",
]
__version__ = "0.1.0"
