"""Source checks: numpy calls that take slow internal paths stay out of
the package.

A ufunc called with ``where=`` runs a masked inner loop that is several
times slower than the plain one, and ``np.take(..., out=...)`` in its
default ``mode="raise"`` copies its output through a buffer. Both sat in
the attention op's hot path; this test keeps them out of every module.
"""

import ast
import pathlib

import numpy as np

import trajgraph

SRC = pathlib.Path(trajgraph.__file__).parent


def _slow_calls(source, filename="<string>"):
    """(line, text) of each np.<ufunc>(..., where=...) and each
    np.take(..., out=...) without mode= in source."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            continue
        name, keywords = node.func.attr, {k.arg for k in node.keywords}
        if isinstance(getattr(np, name, None), np.ufunc) and "where" in keywords:
            found.append((node.lineno, f"np.{name}(..., where=...)"))
        if name == "take" and "out" in keywords and "mode" not in keywords:
            found.append((node.lineno, "np.take(..., out=...) without mode="))
    return found


def test_guard_finds_each_slow_call():
    assert _slow_calls("np.multiply(a, s, out=a, where=a <= 0.0)") == [
        (1, "np.multiply(..., where=...)")]
    assert _slow_calls("np.take(a, i, axis=0, out=b)") == [
        (1, "np.take(..., out=...) without mode=")]
    # not ufuncs, or not buffered
    assert _slow_calls("np.where(m, a, b); np.sum(a, where=m); np.take(a, i, axis=0)\n"
                       "np.take(a, i, axis=0, out=b, mode='clip')") == []


def test_package_has_no_masked_ufunc_or_buffered_take():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}: {what}" for path in paths
             for line, what in _slow_calls(path.read_text(), str(path))]
    assert not found, found
