"""No package imports another package's private names.

A ``from repro.<pkg> import _name`` across packages is a shared helper
hiding behind an underscore: make it public or keep it home.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_no_cross_package_private_imports():
    offenders = []
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert paths
    for path in paths:
        package = path.relative_to(SRC / "repro").parts[0].removesuffix(".py")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or not node.module \
                    or not node.module.startswith("repro."):
                continue
            target = node.module.split(".")[1]
            offenders += ["%s:%d imports %s.%s" % (path.relative_to(SRC),
                                                   node.lineno, node.module,
                                                   alias.name)
                          for alias in node.names
                          if alias.name.startswith("_") and target != package]
    assert not offenders, "\n".join(offenders)
