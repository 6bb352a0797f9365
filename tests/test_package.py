import ast
import importlib.util
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path
from types import ModuleType

import pytest

import diii_clans
from diii_clans import (
    ClanError,
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


def test_mutation_guard_reads_nothing_of_the_benchmark():
    # its mutants must be killed by the package's own checks and tests
    path = ROOT / "tests" / "test_mutants.py"
    benchmark_modules = {p.stem for p in (ROOT / "clanbench").glob("*.py")}
    assert benchmark_modules
    assert "clanbench" not in path.read_text()
    assert not absolute_imports(path) & benchmark_modules


def test_public_names_resolve_and_are_not_modules():
    assert len(set(diii_clans.__all__)) == len(diii_clans.__all__)
    for name in diii_clans.__all__:
        assert not isinstance(getattr(diii_clans, name), ModuleType), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from diii_clans import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(diii_clans.__all__)


def unused_exports(names: list[str], lines: list[str], library_use: str) -> list[str]:
    """The names that no line of ``lines`` holds, except on the name's own
    ``def`` or ``class`` line, and that ``library_use`` does not name."""
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(?:def|class) {re.escape(name)}\b")
        used = any(word.search(line) and not own.match(line) for line in lines)
        if not used and not word.search(library_use):
            unused.append(name)
    return unused


#: Methods Python calls on every value, through a constructor, equality,
#: hashing or repr, rather than by name, each with what calls it.
PROTOCOL_METHODS = {
    "__init__": "calling the class",
    "__post_init__": "the __init__ a dataclass writes, once it has set the fields",
    "__eq__": "==, and set and dict membership with __hash__",
    "__hash__": "set and dict membership",
    "__repr__": "repr()",
}

#: The other dunders an exported class keeps, which an operator, a builtin
#: or a statement calls, each with a file and the text there that calls it.
PROTOCOL_CALLERS = {
    ("Clan", "__str__"): ("src/diii_clans/verify.py", 'f"pyramid round trip at {clan}"'),
    ("Clan", "__len__"): ("README.md", "len(clan), clan[3], list(clan)[:3]"),
    ("Clan", "__iter__"): ("README.md", "len(clan), clan[3], list(clan)[:3]"),
    ("Clan", "__getitem__"): ("README.md", "len(clan), clan[3], list(clan)[:3]"),
    ("ClanSet", "__len__"): ("src/diii_clans/sects.py", "return len(self.clans)"),
    ("ClanSet", "__iter__"): ("README.md", "sum(1 for c in clans if c.is_matchless())"),
    ("ClanSet", "__contains__"): ("README.md", "len(clans), clan in clans"),
    ("QSqrt2", "__bool__"): ("src/diii_clans/flags.py", "                if e:\n"),
    ("QSqrt2", "__neg__"): ("src/diii_clans/flags.py", "_NEG_INV_SQRT2 = -INV_SQRT2"),
    ("QSqrt2", "__str__"): ("src/diii_clans/flags.py", "_PRETTY.get(e, str(e))"),
    ("RankPolynomial", "__str__"): ("src/diii_clans/cli.py", "print(from_rec)"),
    ("Sect", "__len__"): ("src/diii_clans/cli.py", 'print(f"size: {len(sect)}")'),
    ("Sect", "__iter__"): ("src/diii_clans/verify.py", "for clan in big:"),
    ("PartialFPFInvolution", "__call__"): ("src/diii_clans/sects.py", "if not x(p)"),
    ("WeakOrderPoset", "__len__"): ("src/diii_clans/verify.py", "enum = len(poset)"),
}


def class_methods(source: str, name: str) -> list[str]:
    """The methods and properties the class ``name`` defines at the top
    level of ``source``, and the names it binds to them
    (``__radd__ = __add__``), read with ``ast``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            methods = []
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.append(item.name)
                elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    methods += [t.id for t in item.targets if isinstance(t, ast.Name)]
            return methods
    raise AssertionError(f"no class {name}")


def exported_methods(sources: dict[str, str]) -> list[str]:
    """``Class.method`` for each public method, property and dunder of
    every exported class, as ``sources`` (by module name) define them."""
    methods = []
    for name in diii_clans.__all__:
        if isinstance(getattr(diii_clans, name), type):
            for method in class_methods(sources[diii_clans._HOME[name]], name):
                if not method.startswith("_") or method.endswith("__"):
                    methods.append(f"{name}.{method}")
    return methods


def unused_methods(
    methods: list[str], lines: list[str], library_use: str, traced: set[str]
) -> list[str]:
    """The ``Class.method`` names of ``methods`` that are neither a
    protocol method of every value nor a dunder ``PROTOCOL_CALLERS`` names
    for its class, that no line of ``lines`` reads as ``.method``, that
    ``library_use`` does not name as ``.method`` or ``method`` in
    backquotes, and that ``traced`` does not hold. Any other method is
    matched by its name alone, so reading another class's method of that
    name counts."""
    unused = []
    for qualified in methods:
        cls, _, method = qualified.rpartition(".")
        if method in PROTOCOL_METHODS or (cls, method) in PROTOCOL_CALLERS or qualified in traced:
            continue
        read = re.compile(rf"\.{re.escape(method)}\b")
        named = re.compile(rf"[.`]{re.escape(method)}\b")
        if not any(read.search(line) for line in lines) and not named.search(library_use):
            unused.append(qualified)
    return unused


def package_sources() -> dict[str, str]:
    """The source of each package module, by module name."""
    paths = sorted((ROOT / "src" / "diii_clans").glob("*.py"))
    return {p.stem: p.read_text() for p in paths}


def package_lines() -> list[str]:
    """The lines of every package module but ``__init__.py``."""
    sources = package_sources()
    return [line for m, text in sources.items() if m != "__init__" for line in text.splitlines()]


def library_use_section() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("\n## Library use\n")[2].partition("\n## ")[0]
    assert section
    return section


def benchmark_spans() -> ModuleType:
    """``clanbench/spans.py``, loaded from its file."""
    path = ROOT / "clanbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("clanbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_methods() -> set[str]:
    """The ``Class.method`` names the benchmark's tracer wraps; they stay
    while it names them."""
    return {name for names in benchmark_spans().TARGETS.values() for name in names if "." in name}


def test_every_export_is_used_by_the_package_or_documented():
    names = diii_clans.__all__
    lines, library_use = package_lines(), library_use_section()
    assert unused_exports(names, lines, library_use) == []
    methods = exported_methods(package_sources())
    assert {"Clan.text", "QSqrt2.__neg__", "WeakOrderPoset.n"} <= set(methods)
    assert unused_methods(methods, lines, library_use, traced_methods()) == []


def test_export_guard_reports_a_dead_export_added_back():
    lines = package_lines() + [
        "def signed_involution_pair(placement):",
        "    return frozenset({placement, rotate_placement(placement)})",
    ]
    names = [*diii_clans.__all__, "signed_involution_pair"]
    assert unused_exports(names, lines, library_use_section()) == ["signed_involution_pair"]
    # a use elsewhere, or a mention in "Library use", clears it
    used = lines + ["    pair = signed_involution_pair(board)"]
    assert unused_exports(names, used, library_use_section()) == []
    documented = library_use_section() + "`signed_involution_pair` pairs a board"
    assert unused_exports(names, lines, documented) == []

    # a public method and dunders added back to an exported class are
    # reported, though len() would call __len__; a protocol method of every
    # value is not
    added = (
        "    def column(self, c):\n"
        "        return tuple(row[c - 1] for row in self.rows)\n\n"
        "    def __len__(self):\n"
        "        return len(self.rows)\n\n"
        "    def __add__(self, other):\n"
        "        return self\n\n"
        "    __radd__ = __add__\n\n"
        "    def __repr__(self):\n"
        "        return 'FlagMatrix(...)'\n\n"
    )
    sources = package_sources()
    anchor = "    def write_pretty(self, out: TextIO) -> None:\n"
    sources["flags"] = sources["flags"].replace(anchor, added + anchor)
    methods = exported_methods(sources)
    lines = package_lines() + added.splitlines()
    library_use, traced = library_use_section(), traced_methods()
    assert {"FlagMatrix.__len__", "FlagMatrix.__repr__"} <= set(methods)
    dead = ["FlagMatrix.column", "FlagMatrix.__len__", "FlagMatrix.__add__", "FlagMatrix.__radd__"]
    assert unused_methods(methods, lines, library_use, traced) == dead
    # a read elsewhere, a mention in "Library use" or the tracer clears it
    cleared = (
        unused_methods(methods, lines + ["    col = matrix.column(1)"], library_use, traced),
        unused_methods(methods, lines, library_use + "`column(c)` reads one", traced),
        unused_methods(methods, lines, library_use, traced | {"FlagMatrix.column"}),
    )
    for unused in cleared:
        assert unused == dead[1:]
    # a dunder deleted as dead is reported when it comes back, and the
    # same dunder named for another class does not clear it
    sources = package_sources()
    anchor = "    def mirror(self) -> \"Pyramid\":\n"
    iterate = "    def __iter__(self):\n        return iter(sorted(self.rooks))\n\n"
    sources["pyramids"] = sources["pyramids"].replace(anchor, iterate + anchor)
    methods = exported_methods(sources)
    assert ("Sect", "__iter__") in PROTOCOL_CALLERS and "Pyramid.__iter__" in methods
    lines = package_lines() + iterate.splitlines()
    assert unused_methods(methods, lines, library_use, traced) == ["Pyramid.__iter__"]


def test_each_protocol_caller_is_still_there():
    methods = exported_methods(package_sources())
    for (cls, method), (path, text) in PROTOCOL_CALLERS.items():
        assert f"{cls}.{method}" in methods, (cls, method)
        assert text in (ROOT / path).read_text(), (cls, method, path)


#: The constructors that may set fields of a frozen value past its checks.
UNCHECKED_CONSTRUCTORS = {"flags.FlagMatrix._from_form", "pyramids._unchecked"}


def frozen_field_writes(module: str, source: str) -> list[str]:
    """``module.qualname`` of the function around each ``object.__setattr__``
    call in ``source``, in source order."""
    writes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, [*scope, child.name])
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                writes.append(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return writes


def misplaced_field_writes(writes: list[str]) -> list[str]:
    """The writes outside a ``__post_init__`` and the unchecked constructors."""
    return [
        w for w in writes if not w.endswith(".__post_init__") and w not in UNCHECKED_CONSTRUCTORS
    ]


def package_field_writes() -> list[str]:
    paths = sorted((ROOT / "src" / "diii_clans").glob("*.py"))
    return [w for p in paths for w in frozen_field_writes(p.stem, p.read_text())]


def test_frozen_values_are_written_only_while_they_are_built():
    # a frozen value is complete when its constructor returns: a field set
    # later, say a memo checked by object identity, shows up here
    writes = package_field_writes()
    assert UNCHECKED_CONSTRUCTORS <= set(writes)
    assert misplaced_field_writes(writes) == []


def test_field_write_guard_reports_a_memo_added_back():
    source = (
        "def validate_path(path):\n"
        "    if path._valid is path.steps:\n"
        "        return True, None\n"
        "    object.__setattr__(path, '_valid', path.steps)\n"
        "class FlagMatrix:\n"
        "    def form(self):\n"
        "        object.__setattr__(self, '_form', 1)\n"
    )
    writes = package_field_writes() + frozen_field_writes("delannoy", source)
    assert misplaced_field_writes(writes) == ["delannoy.validate_path", "delannoy.FlagMatrix.form"]


def assertions(module: str, source: str) -> list[str]:
    """``module:line`` of each ``assert`` statement and each ``raise
    AssertionError`` in ``source``, in line order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
            lines.append(node.lineno)
    return [f"{module}:{line}" for line in sorted(lines)]


def test_package_raises_no_assertion_error():
    # each invariant has one check, a constructor's or a verify check's,
    # and raises ClanError; a second check raising AssertionError would fire
    # first and print a traceback in place of verify's FAIL line
    sources = package_sources()
    assert [a for module, text in sources.items() for a in assertions(module, text)] == []


def test_assertion_guard_reports_one_added_back():
    source = (
        "def clan_to_path(clan):\n"
        "    path = WeightedDelannoyPath(tuple(head))\n"
        "    ok, violated = validate_path(path)\n"
        "    if not ok:\n"
        "        raise AssertionError(f'generated path violates condition {violated}')\n"
        "    assert path.steps\n"
        "    if 0 in perm:\n"
        "        raise AssertionError\n"
        "    return path\n"
    )
    assert assertions("delannoy", source) == ["delannoy:5", "delannoy:6", "delannoy:8"]
    # a ClanError raised in its place is not reported
    assert assertions("delannoy", source.replace("AssertionError", "ClanError")) == ["delannoy:6"]


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
    spans = benchmark_spans()
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
        # a word's token is not a step
        (lambda: validate_path(["E", "D:2"]), PathError),
        (lambda: validate_path(5), PathError),
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
