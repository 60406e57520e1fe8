"""bench/tracing.py finds every layer it patches, by name, and puts each one back."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import hetreg.basis
import hetreg.cli
import hetreg.experiments
import hetreg.models

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SRC = Path(hetreg.basis.__file__).resolve().parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patch_sites(tracing):
    sites = [(importlib.import_module(module), attr) for module, attr, _ in tracing.LAYER_PATCHES]
    return sites + [
        (hetreg.models.NoiseSpec, "draw"),
        (hetreg.experiments, "resolve_scale"),
        (hetreg.experiments, "ThreadPoolExecutor"),
    ]


def test_patch_sites_resolve():
    tracing = load_tracing()
    for module, attr, _ in tracing.LAYER_PATCHES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert callable(hetreg.basis._basis_matrix.cache_info)


def test_install_wraps_and_restore_puts_back():
    tracing = load_tracing()
    sites = patch_sites(tracing)
    originals = [getattr(owner, attr) for owner, attr in sites]
    studies = dict(hetreg.cli._STUDIES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(sites, originals):
            assert getattr(owner, attr) is not original, attr
        assert all(hetreg.cli._STUDIES[k] is not v for k, v in studies.items())
        # the resolved scale model's g2 / frechet are wrapped and take values
        scale = hetreg.experiments.resolve_scale({"c0": 1.0, "c2": 0.5, "c3": 0.5})
        x = np.linspace(0.0, 1.0, 5)
        scale.g2(x, np.ones((2, 5)), np.ones((2, 1)))
        scale.frechet(x, np.ones((2, 5)))
        totals = tracer.totals()
        assert totals["models.scale_g2"]["calls"] == 1
        assert totals["models.scale_frechet"]["calls"] == 1
    finally:
        tracer.restore()
    for (owner, attr), original in zip(sites, originals):
        assert getattr(owner, attr) is original, attr
    assert hetreg.cli._STUDIES == studies


def test_tracer_only_imports_are_patch_sites():
    # an import kept only for the tracer (`# noqa: F401`) must be a site it patches
    tracing = load_tracing()
    sites = {(module, attr) for module, attr, _ in tracing.LAYER_PATCHES}
    sites.add(("hetreg.experiments", "ThreadPoolExecutor"))
    kept = set()
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.end_lineno - 1]:
                kept.update((f"hetreg.{path.stem}", alias.asname or alias.name) for alias in node.names)
    assert kept and kept <= sites, sorted(kept - sites)
