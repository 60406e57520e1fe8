"""Both Monte Carlo engines score their cells through `selection.score_cell`.

The studies (`experiments`) and the Bayes risk (`lowerbound`) import none of
the scorer's parts, so a second scorer cannot come back unnoticed; the
studies take an FFT only for their targets, once per n, and the Bayes risk
none at all.  Each engine reads every estimator as a fixed column of the
scorer's losses, and scores a cell once, however many blocks
`selection.observe_cell`, the one loop that observes a cell, runs it in.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import hetreg

SCORER_PARTS = {"fourier_rows", "family_costs", "taper_losses"}


def module_tree(name: str) -> ast.Module:
    return ast.parse((Path(hetreg.__file__).parent / f"{name}.py").read_text())


@pytest.mark.parametrize("name, allowed", [("experiments", {"fourier_rows"}), ("lowerbound", set())])
def test_engines_import_the_scorer_and_none_of_its_parts(name, allowed):
    imported = {alias.name for node in ast.walk(module_tree(name)) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "score_cell" in imported
    assert imported & SCORER_PARTS == allowed


def test_studies_take_an_fft_only_for_their_targets():
    users = {fn.name for fn in ast.walk(module_tree("experiments")) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == "fourier_rows"}
    assert users == {"_make_context"}


@pytest.mark.parametrize("name", ["experiments", "lowerbound"])
def test_engines_take_every_estimator_as_a_fixed_column(name):
    # score_cell's columns hold every estimator, the adaptive one last: no
    # engine gathers the pick's loss by np.where of its own
    calls = [node for node in ast.walk(module_tree(name)) if isinstance(node, ast.Attribute)
             and node.attr == "where" and isinstance(node.value, ast.Name) and node.value.id == "np"]
    assert calls == []


def test_a_cell_is_scored_once_whatever_its_blocks(monkeypatch):
    # the scorer's products run over the whole cell: blocks of 3 replicates make
    # as many of them as one block does (the head products of `observe_cell`,
    # one per block, are not the scorer's)
    from hetreg import experiments, selection
    from hetreg.experiments import ExperimentConfig, risk_study

    n, calls, scoring = 101, [], []
    product, score = selection.serial_matmul, experiments.score_cell

    def counted(*args):
        if scoring:
            calls.append(args[-1])
        return product(*args)

    def scored(*args):
        scoring.append(True)
        try:
            return score(*args)
        finally:
            scoring.clear()

    monkeypatch.setattr(selection, "serial_matmul", counted)
    monkeypatch.setattr(experiments, "score_cell", scored)
    cfg = ExperimentConfig.from_dict({"n_grid": [n], "reps": 20, "seed": 5,
                                      "estimators": ["adaptive", "oracle_weight", "projection"]})

    def count(rows):
        monkeypatch.setattr(selection, "BLOCK_ENTRIES", rows * n)
        calls.clear()
        risk_study(cfg)
        return list(calls)

    whole = count(20)
    assert whole and set(whole) == {0}
    assert count(3) == whole


def test_one_loop_observes_every_cell():
    # `selection.observe_cell` is the one block loop: the studies keep none of
    # its parts, and the Bayes risk leaves its block size to it
    imported = {alias.name for node in ast.walk(module_tree("experiments")) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "observe_cell" in imported
    assert imported & {"BLOCK_ENTRIES", "serial_matmul", "row_dots"} == set()
    [bayes] = [fn for fn in ast.walk(module_tree("lowerbound"))
               if isinstance(fn, ast.FunctionDef) and fn.name == "bayes_risk_mc"]
    assert not any(isinstance(node, ast.Name) and node.id == "BLOCK_ENTRIES" for node in ast.walk(bayes))


def test_each_block_is_aligned_at_its_first_replicate(monkeypatch):
    # n = 1001 points on 26 columns take the head in padded row blocks of 10
    # replicates, whose last two rows OpenBLAS rounds apart from the others, so
    # blocks of 3 give the one-block head bit for bit only when each block's
    # product is aligned at its first replicate
    from hetreg import selection
    from hetreg.models import NoiseSpec, substreams

    n, reps = 1001, 20
    analysis = np.random.default_rng(1).standard_normal((n, 26))

    def observe(rows):
        monkeypatch.setattr(selection, "BLOCK_ENTRIES", rows * n)
        return selection.observe_cell(substreams(7, 1, n, reps=range(reps)), NoiseSpec(),
                                      lambda lo, hi, z: (0.0, 1.0, np.ones((1, n))), reps, analysis)

    whole = observe(reps)
    for got, want in zip(observe(3), whole):
        np.testing.assert_array_equal(got, want)


def test_a_lead_needs_gaussian_noise():
    # leading draws stand for Gaussian prior coefficients: any other noise is refused before a draw
    from hetreg.models import NoiseSpec
    from hetreg.selection import observe_cell

    def refuse():
        raise AssertionError("no generator should be drawn from")
        yield

    with pytest.raises(ValueError, match="leading draws need gaussian noise, got student_t12"):
        observe_cell(refuse(), NoiseSpec("student_t", 12), None, 4, np.ones((5, 2)), lead=2)
