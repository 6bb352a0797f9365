from types import ModuleType

import pytest

import diii_clans
from diii_clans import (
    ClanError,
    LabeledStep,
    PartialFPFInvolution,
    PathError,
    Pyramid,
    RookPlacement,
    WeightedDelannoyPath,
    validate_path,
)


def test_public_names_resolve_and_are_not_modules():
    assert len(set(diii_clans.__all__)) == len(diii_clans.__all__)
    for name in diii_clans.__all__:
        assert not isinstance(getattr(diii_clans, name), ModuleType), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from diii_clans import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(diii_clans.__all__)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Pyramid(2, 5), ClanError),
        (lambda: RookPlacement(5), ClanError),
        (lambda: PartialFPFInvolution(5), ClanError),
        (lambda: Pyramid(1, frozenset({1})), ClanError),
        (lambda: validate_path(WeightedDelannoyPath((1, 2))), PathError),
        (lambda: validate_path((1, 2)), PathError),
        (lambda: validate_path([LabeledStep("E"), "N"]), PathError),
        (lambda: validate_path(5), PathError),
    ],
    ids=[
        "pyramid-rooks-int",
        "placement-perm-int",
        "pfpf-values-int",
        "pyramid-rook-int",
        "path-steps-ints",
        "validate-path-ints",
        "validate-path-step-str",
        "validate-path-not-a-sequence",
    ],
)
def test_mistyped_container_fields_raise_clan_errors(build, error):
    with pytest.raises(error):
        build()
