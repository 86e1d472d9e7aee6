"""The benchmark's span tracer installs over the package and comes off.

`perfbench/tracing.py` looks up each traced function by module and
name, so renaming one in the package breaks `perfbench/run.py --trace 1`;
this test catches that without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import dipolemem
from dipolemem import scenarios
from dipolemem.scenarios import run_sweep, scenario_from_dict

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every package-level binding of a traced name, by (module, name)."""
    mods = {n: m for n, m in sys.modules.items()
            if n == "dipolemem" or n.startswith("dipolemem.")}
    out = {}
    for name, mod in mods.items():
        for key, value in vars(mod).items():
            if callable(value):
                out[(name, key)] = value
    for cls in (dipolemem.Schedule, dipolemem.FreeSpaceTransform):
        for key in ("eval", "__init__"):
            if key in vars(cls):
                out[(cls.__name__, key)] = vars(cls)[key]
    return out


def test_tracer_wraps_the_package_and_restores_it():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.pass_id += 1
    tracer.install()
    try:
        assert scenarios.run_sweep is not run_sweep
        scn = scenario_from_dict({
            "model": "cavity-adiabatic",
            "grid": {"start": "0 us", "stop": "2 us", "points": 201},
            "coupling": [{"kind": "square", "start": "0 us", "end": "2 us",
                          "amplitude": "1 MHz_angular"}],
            "cavity": {"kappa": "1 MHz_angular"},
            "initial_excitation": 1.0})
        scenarios.run_sweep(scn, "tau_r", [0.5, 1.0])
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert scenarios.run_sweep is run_sweep
    summary = tracer.pass_summary(tracer.pass_id)
    assert summary["spans"]["scenarios.run_sweep"]["calls"] == 1
    assert summary["spans"]["cavity.simulate_adiabatic"]["calls"] == 2
    assert summary["counts"]["cavity.simulate_adiabatic.steps"] == 2 * 200
