"""Smoke tests: every shipped example must run end to end.

Examples are executed in-process (importlib on the file path) with small
arguments so the suite stays fast; their internal asserts do the checking.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # executes top-level defs only for
    # modules guarded by __main__; quickstart-style call happens below
    return module


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "social_network_analysis.py",
        "lfr_quality_study.py",
        "multigpu_scaling.py",
        "hierarchical_communities.py",
        "trace_and_report.py",
    } <= names


def test_quickstart(capsys):
    mod = _load("quickstart.py")
    mod.from_your_own_edges()
    mod.on_a_classic_dataset()
    out = capsys.readouterr().out
    assert "modularity" in out


def test_social_network_analysis(capsys):
    mod = _load("social_network_analysis.py")
    mod.main(scale=0.05)
    out = capsys.readouterr().out
    assert "MG pruned" in out
    assert "coverage" in out


def test_lfr_quality_study(capsys):
    mod = _load("lfr_quality_study.py")
    mod.main(n=500)
    out = capsys.readouterr().out
    assert "GALA/MG" in out


def test_multigpu_scaling(capsys):
    mod = _load("multigpu_scaling.py")
    mod.main(scale=0.05)
    mod.halo_exchange_demo(scale=0.05)
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "sync" in out
    assert "halo KB" in out


def test_hierarchical_communities(capsys):
    mod = _load("hierarchical_communities.py")
    mod.ring_demo()
    mod.web_graph_demo()
    out = capsys.readouterr().out
    assert "level" in out


def test_trace_and_report(capsys):
    mod = _load("trace_and_report.py")
    mod.main()
    out = capsys.readouterr().out
    assert "traced" in out
    assert "per-level breakdown" in out
    assert "diff:" in out


def test_leiden_vs_louvain(capsys):
    mod = _load("leiden_vs_louvain.py")
    mod.main(scale=0.05)
    out = capsys.readouterr().out
    assert "Leiden" in out
    assert "never decreases" in out
