"""Hygiene of the package: every module imports at module level only and
uses each name it imports, every dataclass field is read somewhere, every
config field is read outside ``model.py`` and set by a recipe config, every
scene spec field is set by a recipe, every frozen dataclass that holds an
array compares by identity, JSON text is parsed only by ``io.read_json``
and encoded for files only by ``io.json_text``, and every source file
parses as Python 3.10.
``__future__`` imports and the re-exports of ``__init__.py`` are exempt,
and so are the dataclasses written out whole, field by field."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import chunkfuse
from chunkfuse.model import PipelineConfig
from chunkfuse.synthetic import (
    BackgroundSpec,
    CameraSpec,
    GaugeSpec,
    ObjectSpec,
    SceneSpec,
    TrajectorySpec,
)

MODULES = sorted(Path(chunkfuse.__file__).parent.glob("*.py"))
SCENES = Path(__file__).with_name("scenes.py")
ROOT = Path(__file__).resolve().parent.parent
# the oldest Python that pyproject.toml's requires-python admits
OLDEST_PYTHON = (3, 10)

# Written out whole through ``dataclasses.fields`` or ``asdict``: the
# ``report.json`` records, the config echoed to ``fuse_info.json`` and the
# scene spec with its nested specs. ``EmittedChunks`` is a public result.
WRITTEN_WHOLE = {
    "PairReport", "PipelineConfig", "SceneSpec", "BackgroundSpec", "CameraSpec",
    "GaugeSpec", "ObjectSpec", "TrajectorySpec", "EmittedChunks",
}


def nested_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports that are not statements of the module body."""
    top = {id(node) for node in tree.body}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return dec
    return None


def _decorator_flags(dec: ast.expr) -> dict[str, object]:
    """The constant keyword arguments of a ``@dataclass(...)`` decorator."""
    if not isinstance(dec, ast.Call):
        return {}
    return {kw.arg: kw.value.value for kw in dec.keywords if isinstance(kw.value, ast.Constant)}


def frozen_array_holders_with_eq(tree: ast.Module) -> list[str]:
    """Frozen dataclasses with a field annotated ``np.ndarray`` that do not
    declare ``eq=False``: their generated ``==`` compares arrays, which
    raises, and their ``hash`` hashes arrays, which raises too."""
    found = []
    for node in ast.walk(tree):
        dec = _dataclass_decorator(node) if isinstance(node, ast.ClassDef) else None
        if dec is None or not _decorator_flags(dec).get("frozen"):
            continue
        holds_array = any(
            isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.annotation) == "np.ndarray"
            for stmt in node.body
        )
        if holds_array and _decorator_flags(dec).get("eq", True) is not False:
            found.append(node.name)
    return found


def unread_fields(trees: list[ast.Module], exempt=frozenset()) -> list[str]:
    """``Class.field`` of every dataclass field declared in ``trees`` that
    no expression there reads as an attribute, classes in ``exempt`` aside."""
    declared = []
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and _dataclass_decorator(node)
                    and node.name not in exempt):
                declared += [
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    read = attributes_read(trees)
    return sorted(f"{cls}.{name}" for cls, name in declared if name not in read)


def attributes_read(trees: list[ast.Module]) -> set[str]:
    """Every name that an expression in ``trees`` reads as an attribute."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def json_owners(tree: ast.Module, *attrs: str) -> list[str]:
    """For each call of ``json.<attr>`` in ``tree``, ``attr`` one of
    ``attrs``, the name of the function it is made in, or ``<module>``
    outside any function."""
    owners = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in attrs
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                owners.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return owners


def test_json_is_parsed_only_by_read_json():
    owners = {path.name: json_owners(ast.parse(path.read_text()), "load", "loads")
              for path in MODULES}
    assert {name: found for name, found in owners.items() if found} == {"io.py": ["read_json"]}


def test_json_is_written_only_by_write_json():
    """``io.json_text`` is the one encoder of JSON files: ``write_json``
    writes its text, and ``write_fusion_outputs`` encodes every document
    with it before writing any. The CLI's one other encoder prints
    ``evaluate``'s JSON line."""
    owners = {path.name: json_owners(ast.parse(path.read_text()), "dump", "dumps")
              for path in MODULES}
    assert {name: found for name, found in owners.items() if found} == \
        {"io.py": ["json_text"], "cli.py": ["_cmd_evaluate"]}


def test_dataclass_fields_are_read():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    assert unread_fields(trees, WRITTEN_WHOLE) == []


def test_config_fields_are_read_outside_model():
    """A knob that only its own validation and ``to_dict`` read in
    ``model.py`` changes nothing the pipeline does."""
    read = attributes_read([ast.parse(p.read_text()) for p in MODULES if p.name != "model.py"])
    assert [f.name for f in fields(PipelineConfig) if f.name not in read] == []


def keywords_of_calls(tree: ast.Module, callee: str) -> set[str]:
    """The keyword names passed to every call of the name ``callee``."""
    return {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == callee
        for kw in node.keywords
        if kw.arg is not None
    }


def test_config_fields_are_set_by_a_recipe():
    """A knob that no recipe config sets runs only at its default, so a
    constant beside its use serves as well."""
    named = keywords_of_calls(ast.parse(SCENES.read_text()), "PipelineConfig")
    assert [f.name for f in fields(PipelineConfig) if f.name not in named] == []


# Varied by the visibility certificate's hypothesis test in
# ``test_synthetic.py``, which draws walls no recipe needs.
SPEC_FIELDS_EXEMPT = {"BackgroundSpec.frequency", "BackgroundSpec.phase"}


def test_spec_fields_are_set_by_a_recipe():
    """A scene feature that no recipe sets runs only at its default, so the
    code behind any other value is never exercised by a workload."""
    tree = ast.parse(SCENES.read_text())
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in (SceneSpec, BackgroundSpec, CameraSpec, TrajectorySpec, ObjectSpec, GaugeSpec)
        for f in fields(cls)
        if f.name not in keywords_of_calls(tree, cls.__name__)
    ]
    assert sorted(set(unset) - SPEC_FIELDS_EXEMPT) == []


def test_frozen_array_holders_compare_by_identity():
    found = {path.name: frozen_array_holders_with_eq(ast.parse(path.read_text()))
             for path in MODULES}
    assert {name: classes for name, classes in found.items() if classes} == {}


def newer_syntax(paths) -> dict[Path, str]:
    """The syntax error of each file that does not parse under the grammar
    of ``OLDEST_PYTHON``."""
    found = {}
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)
        except SyntaxError as e:
            found[path] = str(e)
    return found


def test_sources_parse_as_oldest_python():
    """Every ``.py`` file under ``src/``, ``tests/`` and ``bench/`` parses
    with the grammar of the oldest supported Python. This checks grammar
    only (``ast.parse(..., feature_version=...)``): a standard-library name
    that the oldest Python lacks, such as ``datetime.UTC``, still passes.
    The files are only read."""
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > len(MODULES)
    assert newer_syntax(paths) == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checks_catch_what_they_look_for(tmp_path):
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from x import used, unused as alias\n"
        "def f():\n"
        "    import json\n"
        "    return used\n"
    )
    assert nested_imports(tree) == [5]
    assert unused_imports(tree) == ["alias", "os"]
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    used: int\n"
        "    stored: int\n"
        "    LIMIT = 3\n"
        "@dataclass\n"
        "class B:\n"
        "    kept: int\n"
        "class C:\n"
        "    plain: int\n"
        "def f(a, b):\n"
        "    a.stored = b.kept\n"
        "    return a.used\n"
    )
    assert unread_fields([tree]) == ["A.stored"]
    assert unread_fields([tree], exempt={"A"}) == []
    tree = ast.parse(
        "import json\n"
        "CONFIG = json.loads('{}')\n"
        "def read_json(text):\n"
        "    return json.loads(text)\n"
        "class Reader:\n"
        "    def load(self, text):\n"
        "        return [json.loads(t) for t in text]\n"
        "def other(text):\n"
        "    return loads(text), json.dumps(text)\n"
        "def write(obj, f):\n"
        "    json.dump(obj, f)\n"
        "    return json.load(f), dumps(obj)\n"
    )
    assert json_owners(tree, "loads") == ["<module>", "read_json", "load"]
    assert json_owners(tree, "load", "loads") == ["<module>", "read_json", "load", "write"]
    assert json_owners(tree, "dump", "dumps") == ["other", "write"]
    tree = ast.parse("A(x=1, **rest)\nB(y=2)\nm.A(z=3)\nA(w=4)\n")
    assert keywords_of_calls(tree, "A") == {"x", "w"}
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    a: np.ndarray\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class B:\n"
        "    b: np.ndarray\n"
        "@dataclass\n"
        "class C:\n"
        "    c: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    d: int\n"
        "@dataclass(frozen=True, eq=True)\n"
        "class E:\n"
        "    e: np.ndarray\n"
    )
    assert frozen_array_holders_with_eq(tree) == ["A", "E"]
    newer = tmp_path / "newer.py"
    newer.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    older = tmp_path / "older.py"
    older.write_text("match x:\n    case 1:\n        pass\n")
    assert list(newer_syntax([newer, older])) == [newer]
