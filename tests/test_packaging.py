"""The package's surface: the metadata in pyproject.toml points at code
that exists, and no public name in src/ serves the tests alone."""

import ast
import glob
import importlib
import os
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")

# public names with no caller in src/carpark/: the entry points that a
# CLI would call, config_signature, which a checkpoint check would call,
# and PolicyParams.checksum, which only benchmarks and tests call. The
# list may only shrink: each name gets a caller in src/ or moves to tests/
UNCALLED = ["PolicyParams.checksum", "config_signature", "discover_model_dirs",
            "evaluate_ppo", "evaluate_q", "export_rows", "load_config",
            "train_ppo", "train_q"]


def test_console_scripts_resolve_to_callables():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def public_definitions(tree):
    """(qualified name, bare name, node) of every public module-level
    function and class, and of every public method of a public class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node
            members = node.body if isinstance(node, ast.ClassDef) else []
            for member in members:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member.name, member


def test_public_names_without_a_caller_in_src_are_pinned():
    """A public function, class or method is called in src/carpark/ when
    some code there outside its own definition reads its name, as a name
    or as an attribute; docstrings and imports do not count. A new public
    helper that only tests call fails here."""
    trees = [parse(path) for path in sorted(
        glob.glob(os.path.join(ROOT, "src", "carpark", "*.py")))]
    uncalled = []
    for tree in trees:
        for qualified, name, node in public_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(id(n) not in own and (
                    isinstance(n, ast.Name) and n.id == name
                    or isinstance(n, ast.Attribute) and n.attr == name)
                    for other in trees for n in ast.walk(other)):
                uncalled.append(qualified)
    assert sorted(uncalled) == UNCALLED
