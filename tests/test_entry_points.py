"""The names the benchmark looks up in aqmlab must exist.

benchmark/tracing.py wraps functions at the module attribute where their
caller looks them up, and prints a metric as absent when a binding is gone;
benchmark/workloads.py calls aqmlab directly. A rename in src/ that misses
either breaks the benchmark's output without failing any other test.
"""

import ast
import importlib
import importlib.util
import pathlib

import aqmlab.fluid
import aqmlab.stability
from aqmlab.fluid import FluidSystemKind
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams
from aqmlab.stability import solve_hopf_boundary

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "_benchmark_tracing", BENCHMARK / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of `dotted`, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(owner, name):
                return False
            owner = getattr(owner, name)
        return True
    return False


def _dotted(node):
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(names)])
    return None


def _workload_names():
    """Every aqmlab name workloads.py imports or reaches by attribute."""
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    imported = {"aqmlab": "aqmlab"}  # local name -> dotted aqmlab name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("aqmlab"):
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = set(imported.values())
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if head in imported:
                names.add(f"{imported[head]}.{rest}")
    return sorted(names)


def test_tracer_bindings_resolve():
    tracing = _tracing()
    missing = []
    for module, path, layer, _ in tracing.BINDINGS:
        owner, attr = tracing.Tracer._resolve(module, path)
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module}.{path} ({layer})")
    assert not missing, "tracer bindings not found: " + ", ".join(missing)


def test_workload_names_resolve():
    names = _workload_names()
    assert "aqmlab.cli.main" in names and "aqmlab.packetsim.run_batch" in names
    missing = [n for n in names if not _resolves(n)]
    assert not missing, "names used by benchmark/workloads.py not found: " + ", ".join(missing)


def test_hopf_solve_calls_bisect_through_both_module_bindings(monkeypatch):
    # the tracer counts root evaluations by wrapping these two bindings
    counts = {}
    for module in (aqmlab.fluid, aqmlab.stability):
        original = module.bisect

        def counting(f, *args, _name=module.__name__, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(f, *args, **kwargs)

        monkeypatch.setattr(module, "bisect", counting)
    solve_hopf_boundary(
        FluidSystemKind.NO_AVERAGING, "tau", (0.01, 2.0), ProtocolSpec.compound_tcp(),
        NetworkParams(c_per_flow=100.0, rtt=0.05), red=RedParams(),
    )
    assert counts.get("aqmlab.fluid", 0) > 0
    assert counts.get("aqmlab.stability", 0) > 0
