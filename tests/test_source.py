"""Source checks: numpy calls that take slow internal paths stay out of
the package, and scatters stay in ``kernels``.

A ufunc called with ``where=`` runs a masked inner loop that is several
times slower than the plain one, and ``np.take(..., out=...)`` in its
default ``mode="raise"`` copies its output through a buffer. Both sat in
the attention op's hot path; this test keeps them out of every module.

A weighted ``np.bincount`` or an ``np.<ufunc>.at`` is a scatter. Outside
``kernels.py`` it would escape the benchmark's ``kernels.*`` spans, which
time every scatter by wrapping the kernels by name, so only that module
may call them. An unweighted ``np.bincount`` (a degree count) is allowed.
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


def _scatters(source, filename="<string>"):
    """(line, text) of each weighted np.bincount and each np.<ufunc>.at in
    source."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (func.attr == "bincount" and isinstance(func.value, ast.Name)
                and func.value.id == "np"
                and (len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))):
            found.append((node.lineno, "weighted np.bincount"))
        if (func.attr == "at" and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name) and func.value.value.id == "np"
                and isinstance(getattr(np, func.value.attr, None), np.ufunc)):
            found.append((node.lineno, f"np.{func.value.attr}.at"))
    return found


def test_guard_finds_each_scatter():
    assert _scatters("np.bincount(i, weights=w, minlength=n)") == [(1, "weighted np.bincount")]
    assert _scatters("np.bincount(i, w)") == [(1, "weighted np.bincount")]
    assert _scatters("np.add.at(out, i, rows)\nnp.maximum.at(out, i, rows)") == [
        (1, "np.add.at"), (2, "np.maximum.at")]
    # a degree count, and names that are not numpy ufuncs
    assert _scatters("np.bincount(i, minlength=n); np.bincount(i)\n"
                     "cache.at(3); np.foo.at(1)") == []


def test_scatters_only_in_kernels():
    found = [f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
             if path.name != "kernels.py"
             for line, what in _scatters(path.read_text(), str(path))]
    assert not found, found
    assert _scatters((SRC / "kernels.py").read_text())  # the guard sees the kernels' own


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


def test_every_public_tensor_function_is_called_from_the_package():
    """Each public top-level function of ``tensor.py`` is called as
    ``tg.<name>`` from another module of the package: an op nothing calls
    is deleted, and a helper only ``tensor.py`` calls is private."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = {node.func.attr for path in SRC.glob("*.py") if path.name != "tensor.py"
              for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "tg"}
    assert public
    assert not public - called, sorted(public - called)


def test_layer_norm_math_is_written_once():
    """LayerNorm's epsilon is read by exactly one function of
    ``tensor.py``: the embedding, the merges and the head blocks all
    normalize through it."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    readers = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               and any(isinstance(n, ast.Name) and n.id == "_LN_EPS" for n in ast.walk(node))]
    assert len(readers) == 1, readers
