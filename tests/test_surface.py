"""Every public name in ``src/afg`` has a caller, or a stated reason to stay.

A public top-level function or class, or a public method of a top-level
class, counts as called when its name is read elsewhere in ``src/afg`` (as a
name, an attribute or an import alias) or anywhere in ``bench/*.py`` (in those
forms, or as a string constant, since the bench's tracer binds functions by
name). A name that only tests call is a second spelling of a result the
program computes some other way; it goes, or it is listed in KEEP with why.
"""

import ast
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
}


def _names_read(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every name ``tree`` reads as a Name, an Attribute or an import alias; with
    ``strings``, also every string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public top-level function or class and each public
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def uncalled_names(root: Path = ROOT) -> list[str]:
    """The qualified public names of ``root/src/afg`` that src/afg never reads (a ``def``
    or ``class`` statement is not a read) and that ``root/bench/*.py`` does not name."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "afg").glob("*.py"))]
    src = set().union(*map(_names_read, trees))
    bench = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8")), strings=True)
                          for path in sorted((root / "bench").glob("*.py"))))
    return [qualified for tree in trees for qualified, name in _public_definitions(tree)
            if name not in src and name not in bench]


def test_every_public_name_is_called_or_kept():
    uncalled = uncalled_names()
    assert [name for name in uncalled if name not in KEEP] == []
    # A kept name that has gained a caller no longer needs its place here.
    assert [name for name in KEEP if name not in uncalled] == []
