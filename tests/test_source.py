"""Rules on the source of src/qmv itself.

``space.choices``/``space.markovian`` (object views of the arrays) and the
one-pair references ``lss_decide``, ``encode_state``, ``fnv1a64`` and
``simulate_run`` exist for tests and tools.  The views, ``encode_state``
and ``fnv1a64`` are written independently of the array code the analyses
read, and ``lss_decide`` shares only ``fmix64`` with it; ``simulate_run``
is one run of that code (``_simulate``), keyed as ``estimate`` keys its
runs.  The package must not read them.

The front end compiles an expression into one ``_Code``, whose ``run`` and
``value`` tell a constant from code, so no module under ``lang`` asks
whether something is ``callable``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmv"
VIEWS = {"choices", "markovian"}
REFERENCES = {"lss_decide", "encode_state", "fnv1a64", "simulate_run"}


def _hits(rule) -> list[str]:
    """``rule(name, tree)``'s findings over every module of the package."""
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "numeric.py" in paths
    return [hit for path in paths for hit in rule(
        path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))]


def view_reads(name: str, tree: ast.AST) -> list[str]:
    """``.choices``/``.markovian`` on anything but ``self``, outside
    core.py, which defines the views."""
    if name == "core.py":
        return []
    return [f"{name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in VIEWS
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")]


def reference_uses(name: str, tree: ast.AST) -> list[str]:
    """Uses of a one-pair reference outside smc.py's reference functions
    (``lss_decide`` hashes with ``fnv1a64``)."""
    inside = set()
    if name == "smc.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in REFERENCES:
                inside |= {id(n) for n in ast.walk(node)}
    used = []
    for node in ast.walk(tree):
        ref = node.id if isinstance(node, ast.Name) \
            else node.attr if isinstance(node, ast.Attribute) else None
        if ref in REFERENCES and id(node) not in inside:
            used.append(f"{name}:{node.lineno} {ref}")
    return used


def callable_calls(name: str, tree: ast.AST) -> list[str]:
    """Calls of ``callable`` in a module under ``lang``."""
    if not name.startswith("lang/"):
        return []
    return [f"{name}:{node.lineno} callable" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "callable"]


def test_the_package_reads_no_object_view():
    assert _hits(view_reads) == []


def test_the_package_uses_no_one_pair_reference():
    assert _hits(reference_uses) == []


def test_the_front_end_calls_no_callable():
    assert _hits(callable_calls) == []


def test_the_rules_catch_a_planted_read():
    planted = ast.parse("def f(space, self):\n"
                        "    self.markovian\n"
                        "    return space.choices, smc.simulate_run(space)\n")
    assert view_reads("numeric.py", planted) == ["numeric.py:3 .choices"]
    assert view_reads("core.py", planted) == []
    assert reference_uses("numeric.py", planted) \
        == ["numeric.py:3 simulate_run"]
    planted = ast.parse("def f(code, V):\n"
                        "    return code(V) if callable(code) else code\n")
    assert callable_calls("lang/explore.py", planted) \
        == ["lang/explore.py:2 callable"]
    assert callable_calls("numeric.py", planted) == []
