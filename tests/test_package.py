import ast
import importlib.util
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path
from types import ModuleType

import pytest

import diii_clans
from diii_clans import (
    ClanError,
    Involution,
    LabeledStep,
    PartialFPFInvolution,
    PartitionPair,
    PathError,
    Pyramid,
    RookPlacement,
    SchubertSubset,
    WeightedDelannoyPath,
    validate_path,
)


ROOT = Path(__file__).parents[1]


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports absolutely,
    read with ``ast`` and never executed."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    paths = sorted((ROOT / "src" / "diii_clans").glob("*.py"))
    assert paths
    for path in paths:
        outside = absolute_imports(path) - sys.stdlib_module_names
        assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", ["tests/oracles.py", "clanbench/model.py"])
def test_independent_routes_import_nothing_from_the_package(path):
    # the oracles and the benchmark's model check the package; importing
    # it would let a route under test vouch for itself
    assert "diii_clans" not in absolute_imports(ROOT / path)


def test_public_names_resolve_and_are_not_modules():
    assert len(set(diii_clans.__all__)) == len(diii_clans.__all__)
    for name in diii_clans.__all__:
        assert not isinstance(getattr(diii_clans, name), ModuleType), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from diii_clans import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(diii_clans.__all__)


def run_fresh(code: str, *paths: Path) -> str:
    """Stdout of ``code`` in a fresh interpreter that writes no bytecode,
    with the package source and ``paths`` on its path."""
    path = [str(ROOT / "src"), *map(str, paths), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_start_up_loads_only_the_core_modules():
    # what every CLI run pays before its command starts: the flag,
    # bijection and weak-order modules load when a command first uses them
    out = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import diii_clans, diii_clans.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = set(out.split())
    package = {name for name in loaded if name.startswith("diii_clans.")}
    assert package == {
        "diii_clans.clans",
        "diii_clans.enumeration",
        "diii_clans.sects",
        "diii_clans.verify",
        "diii_clans.cli",
    }
    assert "fractions" not in loaded and "json" not in loaded


def test_public_names_are_their_home_modules_objects():
    for name in diii_clans.__all__:
        home = importlib.import_module(f"diii_clans.{diii_clans._HOME[name]}")
        value = getattr(diii_clans, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    # before any lazy name is bound, as in a fresh interpreter
    listed = run_fresh("import diii_clans\nprint(*dir(diii_clans))\n").split()
    assert set(diii_clans.__all__) <= set(listed)
    with pytest.raises(AttributeError):
        diii_clans.no_such_name


def test_sects_stays_the_function_after_importing_its_module():
    out = run_fresh(
        "import types, diii_clans.sects, diii_clans\n"
        "print(isinstance(diii_clans.sects, types.FunctionType))\n"
    )
    assert out == "True\n"


def test_lazy_module_is_an_attribute_before_any_of_its_names_is_used():
    out = run_fresh("import diii_clans\nprint(diii_clans.weak_order.__name__)\n")
    assert out == "diii_clans.weak_order\n"


def test_benchmark_tracer_installs_over_the_imported_package():
    # the tracer looks up sys.modules["diii_clans.<m>"] for every module of
    # spans.TARGETS, after the benchmark's workloads have imported the package
    out = run_fresh(
        "import workloads\n"
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
        "print('ok')\n",
        ROOT / "clanbench",
    )
    assert out == "ok\n"


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps these names; a vanished one would
    # otherwise show only in a traced benchmark run
    path = ROOT / "clanbench" / "spans.py"
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
        (lambda: Involution((True, 2)), ClanError),
        (lambda: Involution([2, 1]), ClanError),
        (lambda: Involution((1.0,)), ClanError),
        (lambda: Involution(5), ClanError),
        (lambda: SchubertSubset(2, frozenset({True, 2})), ClanError),
        (lambda: SchubertSubset(2, {1, 2}), ClanError),
        (lambda: SchubertSubset(2.0, frozenset({1, 3})), ClanError),
        (lambda: PartitionPair({1}, {2}, {frozenset({1, 2})}), ClanError),
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
        "involution-bool",
        "involution-list",
        "involution-float",
        "involution-int",
        "subset-member-bool",
        "subset-members-set",
        "subset-size-float",
        "partition-pair-sets",
    ],
)
def test_mistyped_container_fields_raise_clan_errors(build, error):
    with pytest.raises(error):
        build()


def test_failing_property_test_reports_its_example_under_the_warning_filter(tmp_path):
    # the suite's own settings turn warnings into errors; a failing @given
    # test must still end in an ordinary failure with its falsifying
    # example, and the tests after it must still run
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
