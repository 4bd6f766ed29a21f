"""Every module-level import in the package is used in its module.

__init__.py is left out: its imports are the package's re-exports."""
import ast
import glob
import os
import subprocess
import sys

import cgquantum

PACKAGE = os.path.dirname(cgquantum.__file__)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a.b import c as d, e\ne()\n") == \
        ["os", "d"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join\n") == []


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.basename(path)] = names
    assert unused == {}


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # each cold `cgq` run would pay for their import
    code = ("import sys\n"
            "import cgquantum.cli, cgquantum.presentation, "
            "cgquantum.intersection, cgquantum.pipeline, cgquantum.spectral\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cold_import_without_site_loads_no_typing():
    # a site hook can load typing on its own; without one, it would be an
    # import that every cold `cgq` run pays for
    code = ("import sys\n"
            "import cgquantum.cli, cgquantum.presentation, "
            "cgquantum.intersection, cgquantum.pipeline, cgquantum.spectral\n"
            "print('typing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out == "False\n"
