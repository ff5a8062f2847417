"""Checks on what the tests and the benchmark rely on by name.  The span
tracer in perfbench/ rebinds library functions by name; a rename or deletion
in src/ must show up here, not only in a traced benchmark run.  Every conelab
command must have a golden report."""
import argparse
import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from coneorder.cli import _build_parser

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    """perfbench/tracer.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = _tracer()
    missing = []
    for modname, attr, _span in tracer._INSTRUMENT:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert tracer._INSTRUMENT
    assert missing == []


def test_every_iso_kind_binds_and_is_traced():
    # The tracer wraps each kind's eval/invert in the kind's own namespace;
    # a kind it does not name would run untraced without any error.
    import coneorder.iso as iso

    traced = {attr for modname, attr, _span in _tracer()._INSTRUMENT if modname == iso.__name__}
    kinds = [cls for cls in vars(iso).values() if isinstance(cls, type)
             and issubclass(cls, iso.IsoSpec) and cls is not iso.IsoSpec
             and cls.__module__ == iso.__name__]
    assert kinds
    missing = [f"{cls.__name__}.{meth}" for cls in kinds for meth in ("eval", "invert")
               if meth not in vars(cls) or f"{cls.__name__}.{meth}" not in traced]
    assert missing == []


def test_tracer_installs_in_a_fresh_benchmark_process():
    # The tracer looks each target module up among the loaded ones, so the
    # imports of a benchmark run must load them all, not an earlier test.
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; import workloads; "
            "from tracer import Tracer; t = Tracer(); t.install(); t.uninstall()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=TRACER.parent.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


IDENTITIES = ("halfline_image_check", "check_parallelogram", "check_additivity",
              "extract_g_r", "check_positively_homogeneous", "check_affine_on")


def test_battery_calls_each_identity_through_its_cli_name(monkeypatch):
    # The tracer's iso.identities and iso.affine_fit spans wrap these names
    # and their aliases in coneorder.cli; a battery that bypassed them would
    # leave those spans empty.  The identity is certified affine, so its
    # stages are forced to run instead of being read off its certificate.
    import coneorder.cli as cli
    from coneorder.cones import square_cone
    from coneorder.iso import ISO, IsoSpec, identity_iso

    proves = IsoSpec._certified
    monkeypatch.setattr(IsoSpec, "_certified", lambda self: min(proves(self), ISO))

    entered = dict.fromkeys(IDENTITIES, 0)
    for name in IDENTITIES:
        def shim(*args, _name=name, _orig=getattr(cli, name), **kwargs):
            entered[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cli, name, shim)
    sq = square_cone()
    report = cli.run_full_battery(sq, identity_iso(sq), 200, 0)
    assert report["verdict"] == "affine"
    assert all(entered.values()), entered


def test_halfline_check_calls_the_order_layer_by_name(monkeypatch):
    # The tracer's order.interval_sample and order.other spans wrap these
    # names in coneorder.order; a half-line check that bypassed them would
    # leave those spans empty.
    import coneorder.order as order
    from coneorder.cones import square_cone

    names = ("interval_sample", "is_totally_ordered")
    entered = dict.fromkeys(names, 0)
    for name in names:
        def shim(*args, _name=name, _orig=getattr(order, name), **kwargs):
            entered[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(order, name, shim)
    assert order.extreme_halfline_check(square_cone(), (0, 0, 0), (1, 1, 1))
    assert all(entered.values()), entered


def test_bounds_call_the_double_description_by_name(monkeypatch):
    # The tracer's cones.dd span wraps the DD by its alias in coneorder.order;
    # a bound computation that bypassed it would take its DD work out of the
    # cones.dd.* counts unseen.  One DD per supremum or infimum, so one per
    # inner node of an inf-sup expression.
    import coneorder.order as order
    from coneorder.cones import orthant, square_cone

    entered = []

    def shim(*args, _orig=order.double_description, **kwargs):
        entered.append(1)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(order, "double_description", shim)
    sq = square_cone()
    for call in (order.supremum, order.infimum):
        for pts in ([(1, 0, 1)], [(1, 0, 1), (-1, 0, 1)], [(1, 0, 1), (1, 0, 1), (0, 0, 2)]):
            entered.clear()
            call(sq, pts)
            assert len(entered) == 1, (call.__name__, pts)
    expr = order.sup_expr(order.inf_expr(order.leaf((1, 0)), order.leaf((0, 1))),
                          order.leaf((2, 3)), order.sup_expr(order.leaf((1, 1))))
    entered.clear()
    assert order.eval_infsup(orthant(2), expr) == (2, 3)
    assert len(entered) == 3


def test_every_command_has_a_golden_report():
    # A command ships with at least one golden report in tests/data, named by
    # the report's own "command" field (psd-<sub> for the psd subcommands).
    def subcommands(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    commands = set()
    for name, parser in subcommands(_build_parser()).items():
        if name == "psd":
            commands.update(f"psd-{sub}" for sub in subcommands(parser))
        else:
            commands.add(name)
    data = Path(__file__).resolve().parent / "data"
    golden = {json.loads(p.read_text())["command"] for p in data.glob("*.report.json")}
    assert {"classify", "psd-approx"} <= commands
    assert commands - golden == set()


# The options every leaf subcommand takes, in order: (option strings,
# required, default, type, help).  A subcommand group takes only -h.
_COMMON = [
    (("-h", "--help"), False, argparse.SUPPRESS, None, "show this help message and exit"),
    (("--seed",), False, 0, int, "seed for all sampling"),
    (("--samples",), False, 10000, int, "sampling count"),
    (("--tol",), False, None, float, "tolerance override (psd)"),
    (("--out",), False, None, None, "write the JSON report to this path"),
    (("--summary",), False, False, None, "also print a human-readable summary to stderr"),
]
_CONE = ("cone", True, None, None, None)

# Every subcommand path in the order conelab lists it: (path, help, the
# arguments after the common ones, or None for a group).  A positional
# argument is named by its dest.
PARSER_SURFACE = [
    (("extreme-rays",), "normalized extreme generators and facets", [_CONE]),
    (("classify",), "engaged/disengaged report plus hypothesis verdict", [_CONE]),
    (("hypothesis",), "linearity-theorem hypothesis verdict", [_CONE]),
    (("supremum",), "least upper bound of a point set",
     [_CONE, ("points", True, None, None, None)]),
    (("infimum",), "greatest lower bound of a point set",
     [_CONE, ("points", True, None, None, None)]),
    (("evalexpr",), "evaluate an inf-sup expression", [_CONE, ("expr", True, None, None, None)]),
    (("unitnorm",), "order-unit norm |x|_u",
     [_CONE, (("-u",), True, None, None, "order unit, e.g. '1,1' or 'e1'"),
      (("-x",), True, None, None, "vector to measure")]),
    (("check-iso",), "full order-isomorphism battery", [_CONE, ("iso", True, None, None, None)]),
    (("psd",), "PSD cone demonstrations", None),
    (("psd", "witness"), "engagement identity P_x = P_y + P_z - P_w",
     [(("--n",), True, None, int, None), (("--x",), True, None, None, None)]),
    (("psd", "supcheck"), "identity-as-supremum consistency check",
     [(("--n",), False, None, int, None), (("--b",), True, None, None, None)]),
    (("psd", "conj"), "conjugation isomorphism T_A(Q)",
     [(("--n",), False, None, int, None), (("--a",), True, None, None, None),
      (("--q",), True, None, None, None)]),
    (("psd", "approx"), "inf/sup convergence table (CSV)",
     [(("--n",), False, None, int, None), (("--a",), True, None, None, None),
      (("--kmax",), False, 16, int, None)]),
]


def _surface(parser, path=()):
    """(path, help, arguments) of every subcommand below parser, depth first
    in the order they were added."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, child in action.choices.items():
                args = [(tuple(a.option_strings) or a.dest, a.required, a.default, a.type, a.help)
                        for a in child._actions
                        if not isinstance(a, argparse._SubParsersAction)]
                yield path + (name,), helps[name], args
                yield from _surface(child, path + (name,))


def test_parser_surface_is_pinned():
    # Every subcommand, option, default, type and help line of conelab, so a
    # change to how the parser is built cannot change what it accepts.
    want = [(path, help_text, _COMMON[:1] if own is None else _COMMON + own)
            for path, help_text, own in PARSER_SURFACE]
    assert list(_surface(_build_parser())) == want


def test_no_unused_imports_in_src():
    # A name imported into a module of src/ is used there, re-exported by a
    # package __init__.py, or marked "# noqa: F401" on its import line.
    src = Path(__file__).resolve().parent.parent / "src"
    unused = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if alias.name == "annotations" or "# noqa: F401" in lines[node.lineno - 1]:
                        continue
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(src)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def _private_definitions(tree):
    """The _-prefixed module-level functions and classes of a module, and
    its classes' non-dunder _-prefixed methods, as (qualified name, node,
    the AST type a reference to it has: a bare name or an attribute)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") and not node.name.startswith("__"):
            yield node.name, node, ast.Name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                        and not item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item, ast.Attribute


def _references(node):
    """The bare names and the attribute names that node reads, in one
    list of (AST type, name)."""
    return [(type(n), n.id if isinstance(n, ast.Name) else n.attr)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def test_no_dead_private_code_in_src():
    # Private code that nothing in src/ reads is a leftover: each
    # _-prefixed function or class of the library is read as a bare name,
    # and each _-prefixed method as an attribute, somewhere in src/
    # outside its own definition (a recursive call does not count).  A
    # method and a module-level function of one name do not cover each
    # other.
    src = Path(__file__).resolve().parent.parent / "src"
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    counts: dict = {}
    for tree in trees.values():
        for ref in _references(tree):
            counts[ref] = counts.get(ref, 0) + 1
    dead = []
    for path, tree in trees.items():
        for qualname, node, kind in _private_definitions(tree):
            ref = (kind, node.name)
            if counts.get(ref, 0) == _references(node).count(ref):
                dead.append(f"{path.relative_to(src)}:{node.lineno} {qualname}")
    assert dead == []


def test_library_does_not_import_lp():
    # The exact simplex in coneorder.lp is kept for the tests and the span
    # tracer only: no module of the library imports it, apart from the
    # package __init__.py, which loads it for the tracer and calls nothing.
    pkg = Path(__file__).resolve().parent.parent / "src" / "coneorder"
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        if path.name in ("lp.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                # "from . import lp" and "from coneorder import lp" name it
                # through the imported names.
                base = "." * node.level + (node.module or "")
                sep = "." if node.module else ""
                names = [base] + [base + sep + alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n in (".lp", "coneorder.lp") or n.startswith((".lp.", "coneorder.lp."))
                   for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_all_lists_the_public_names_the_package_imports():
    # __all__ is the one list declared apart from the imports it mirrors;
    # lp is loaded only for the tracer and is not part of the public surface.
    import coneorder

    tree = ast.parse(Path(coneorder.__file__).read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    public = [name for name in imported if not name.startswith("_") and name != "lp"]
    assert sorted(coneorder.__all__) == sorted(public)


def test_every_mutant_applies_exactly_once():
    # tests/mutants.py runs out of tier-1; here its table is kept from
    # rotting: each old text occurs exactly once under src/, in the row's
    # file, and each listed test names a test function of a test file.
    from mutants import MUTANTS

    root = Path(__file__).resolve().parent.parent
    texts = {path: path.read_text() for path in sorted((root / "src").rglob("*.py"))}
    stale = []
    for m in MUTANTS:
        here = texts[root / "src" / "coneorder" / m.file].count(m.old)
        total = sum(t.count(m.old) for t in texts.values())
        if here != 1 or total != 1 or m.new == m.old or not m.tests:
            stale.append(m.name)
        for node_id in m.tests:
            path, *names = node_id.split("[")[0].split("::")
            scope = ast.parse((root / path).read_text()).body
            for name in names:
                scope = next((n.body for n in scope if getattr(n, "name", None) == name), [])
            if not (scope and names[-1].startswith("test_")):
                stale.append(f"{m.name}: {node_id}")
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert stale == []


def test_code_line_counter_on_a_fixture():
    # tests/codelines.py is the count that CHANGES.md quotes for src/
    from codelines import code_lines

    fixture = '''"""Module docstring,
over two lines."""
import os  # a comment after code

# a comment line


def f(a,
      b):
    """One-line docstring."""
    x = """not a docstring,
    a string over two lines"""
    return [a, b,
            x]


class C:
    """Class docstring."""

    y = 1
'''
    # import, def (2 lines), the x string (2), the return (2), class, y
    assert code_lines(fixture) == 9
