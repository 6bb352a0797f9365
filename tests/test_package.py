import importlib.util
from functools import reduce
from pathlib import Path
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


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps these names; a vanished one would
    # otherwise show only in a traced benchmark run
    path = Path(__file__).parents[1] / "clanbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("clanbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, names in spans.TARGETS.items():
        mod = importlib.import_module(f"diii_clans.{module}")
        for name in names:
            target = reduce(getattr, name.split("."), mod)
            assert callable(target), f"{module}.{name}"


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
