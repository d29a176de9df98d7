"""No public code in src/ that only the tests or the benchmark run."""

import ast
from pathlib import Path

import boxflow


def test_every_public_name_in_src_has_a_caller():
    # a public function, class or method must be referenced outside its own
    # body, in src/ or in the acceptance criteria, the program's specification
    src = Path(boxflow.__file__).parent
    modules = {f.stem: ast.parse(f.read_text()) for f in sorted(src.glob("*.py"))}
    criteria = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    refs = [(n, n.id if isinstance(n, ast.Name) else n.attr)
            for t in [*modules.values(), criteria] for n in ast.walk(t)
            if isinstance(n, (ast.Name, ast.Attribute))]
    defs = (ast.FunctionDef, ast.ClassDef)
    dead = []
    for module, tree in modules.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, defs) and not d.name.startswith("_"):
                    own = set(map(id, ast.walk(d)))
                    if not any(name == d.name and id(n) not in own for n, name in refs):
                        dead.append(f"{module}.{d.name}")
    # the one exception writes the documented JSON catalog format, for
    # users' own catalogs
    assert dead == ["catalog.dump_catalog"]


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = [(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                if isinstance(n, ast.Import)
                or isinstance(n, ast.ImportFrom) and n.module != "__future__"
                for a in n.names]
    return [f"{path.stem}.{name}" for name in imported if name not in used]


def test_the_criteria_use_every_name_they_import():
    # the criteria are the program's specification: they import only what
    # they run; and no module of src/ keeps an import it no longer uses
    src = Path(boxflow.__file__).parent
    files = [Path(__file__).parent / "test_acceptance.py", *sorted(src.glob("*.py"))]
    assert [name for f in files for name in _unused_imports(f)] == []
