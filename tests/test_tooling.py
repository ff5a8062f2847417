"""Checks on what the tests and the benchmark rely on by name.  The span
tracer in perfbench/ rebinds library functions by name; a rename or deletion
in src/ must show up here, not only in a traced benchmark run.  Every conelab
command must have a golden report."""
import argparse
import importlib
import importlib.util
import json
from pathlib import Path

from coneorder.cli import _build_parser

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
