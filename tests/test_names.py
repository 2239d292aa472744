"""The package's names: those the benchmark uses resolve, and none is dead."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

from outprop.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "outprop").glob("*.py"))


def test_every_name_the_benchmark_imports_resolves():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("outprop", "outprop.oracle")
        for alias in node.names
    ]
    assert {module for module, _ in imported} == {"outprop", "outprop.oracle"}
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # the flags perfbench/run.py passes to every mine process
    args = build_parser().parse_args([
        "mine", "--data", "d.csv", "--outlier", "0", "--sigma", "0.2", "--omega", "0.5",
        "--kmax", "3", "--seed", "3", "--out", "r.jsonl",
    ])
    assert args.seed == 3


def module_level_names(path):
    """The functions, classes and constants a module defines at its top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_module_level_name_is_used_somewhere():
    # a name is used when it appears anywhere but where it is defined: in
    # code, a string, a docstring or the README
    corpus = [ROOT / "README.md", *SOURCES]
    corpus += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.*"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in corpus if path != Path(__file__).resolve())
    defined = [(path.stem, name) for path in SOURCES for name in module_level_names(path)]
    definitions = Counter(name for _, name in defined)
    dead = [
        f"{module}.{name}"
        for module, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"(?<!\w){re.escape(name)}(?!\w)", text)) <= definitions[name]
    ]
    assert dead == []
