"""The package holds what its subcommands run: a name-based reachability pass from
`hetreg.cli.main` over the module ASTs keeps code that only the tests call in the tests."""

import ast
from pathlib import Path

import hetreg

# no subcommand runs these: the tests' dense reference (`basis_matrix`, whose cache the bench
# counts), a bench patch site (`kernel_function`) and a term of the zero estimator's exact Bayes risk
KEPT = {"basis.basis_matrix", "basis._basis_matrix", "lowerbound.kernel_function", "lowerbound.prior_expected_norm_sq"}


def definitions() -> dict[str, set[str]]:
    """{"module.name": every name and attribute its statement reads}, for each top-level
    function, class and assignment of the package, `__all__` and `__version__` aside."""
    defs = {}
    for path in sorted(Path(hetreg.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            reads = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
            defs.update((f"{path.stem}.{name}", reads) for name in names if name not in ("__all__", "__version__"))
    return defs


def test_only_the_kept_definitions_are_unreached():
    defs = definitions()
    seen, todo = set(), ["cli.main"]
    while todo:  # a reached definition reaches every definition, in any module, named by what it reads
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(other for other in defs if other.split(".", 1)[1] in defs[key])
    assert set(defs) - seen == KEPT
