"""Every public name in ``src/afg`` has a caller, or a stated reason to stay.

A public top-level function or class counts as called when it is read through
its module, outside its own body: as a name in its own module, as a name that
``from .m import name`` bound, or as the attribute ``m.name`` of a module that
``from . import m`` bound (``afg.m`` and ``afg`` for the same imports in
``bench/*.py``, where a string constant also counts, since the bench's tracer
binds functions by name). An import alone is not a read. A public method of a
top-level class counts as called when an attribute of its name is read outside
its own body, in src/afg or bench/. Methods are matched by name, not by class.
A name that only tests call is a second spelling of a result the program
computes some other way; it goes, or it is listed in KEEP with why.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names that nothing in src/afg or bench/ reads, and why each stays.
KEEP = {
    "rules_to_json": "writes the rule file that load_rules reads back; "
                     "tests/golden/default_rules.json is its output",
    "derive_answer_key": "the modal answer key of a cohort, for a paper with no key file "
                         "(ROADMAP keep list)",
    "grad_check": "the finite-difference reference the tests compare nn's gradients against",
    "stde": "the paper's STDE term alone; tests compare combined_loss at its plateau with it",
    "combined_loss": "the paper's loss at the scheduled weight p(t) (ROADMAP keep list)",
    "corpus_stats": "the paper's pooled label shares of a cohort; ROADMAP item 4's "
                    "cohort.json is to call it",
    "generate_regression_samples": "the synthetic scored essays that the scorer, pretrain "
                                   "and transfer tests train on",
    "Predictor.logits": "the bit-exactness seam: tests read a model's logits there, before "
                        "the sigmoid or softmax of scores and probabilities",
}


def _reads(path: Path, module: str | None):
    """(key, line) of each read in one file: ``(m, name)`` for a top-level name of
    module ``m`` read through it, ``(".", name)`` for any attribute and, in a bench
    file (``module`` None), ``("", text)`` for a string constant."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = {}, {}  # what the file's imports bind: a module, or a module's name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ("afg." + (node.module or "")).rstrip(".") if node.level else node.module
            for alias in node.names:
                bound = alias.asname or alias.name
                if source == "afg":
                    modules[bound] = alias.name
                elif source.startswith("afg."):
                    names[bound] = (source.removeprefix("afg."), alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield names.get(node.id, (module, node.id)), node.lineno
        elif isinstance(node, ast.Attribute):
            yield (".", node.attr), node.lineno
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                yield (modules[node.value.id], node.attr), node.lineno
        elif module is None and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield ("", node.value), node.lineno


def _public_definitions(path: Path):
    """(qualified name, keys whose read calls it, first line, last line) of each public
    top-level function or class and each public method of a top-level class."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            keys = ((path.stem, node.name), ("", node.name))
            yield node.name, keys, node.lineno, node.end_lineno
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", ((".", item.name),),
                           item.lineno, item.end_lineno)


def uncalled_names(root: Path = ROOT) -> list[str]:
    """The qualified public names of ``root/src/afg`` that no file there or in
    ``root/bench`` reads outside their own body (see the module docstring)."""
    src = sorted((root / "src" / "afg").glob("*.py"))
    files = [(path, path.stem) for path in src]
    files += [(path, None) for path in sorted((root / "bench").glob("*.py"))]
    reads = defaultdict(list)
    for path, module in files:
        for key, line in _reads(path, module):
            reads[key].append((path, line))
    return [qualified for path in src
            for qualified, keys, first, last in _public_definitions(path)
            if not any(where != path or not first <= line <= last
                       for key in keys for where, line in reads[key])]


def test_every_public_name_is_called_or_kept():
    uncalled = uncalled_names()
    assert [name for name in uncalled if name not in KEEP] == []
    # A kept name that has gained a caller no longer needs its place here.
    assert [name for name in KEEP if name not in uncalled] == []
