"""The package's module graph."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import sltrans


def test_no_function_level_package_import():
    """Every import of one sltrans module by another sits at module level,
    so the import graph is the one the module headers show."""
    nested = []
    for path in sorted(Path(sltrans.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level > 0 or (node.module or "").startswith("sltrans")):
                    nested.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert nested == []


def test_exports_resolve_once_each():
    """Every name in ``sltrans.__all__`` is an attribute of the package,
    and none is listed twice."""
    missing = [name for name in sltrans.__all__ if not hasattr(sltrans, name)]
    assert missing == []
    assert len(sltrans.__all__) == len(set(sltrans.__all__))


# Run in a fresh interpreter: pytest's own process has SciPy loaded already.
_DEPENDENCY_PROBE = textwrap.dedent("""
    import sys

    before = set(sys.modules)
    import numpy as np

    import sltrans as st
    import sltrans.cli
    from sltrans.problem import PotentialPiece

    def spec(pieces):
        return st.ProblemSpec(st.PiecewisePotential.from_pieces(pieces), (0.1,), (1.5,),
                              alpha=(1.0, 0.5), beta=(0.0, 1.0), beta_prime=(1.0, 0.0))

    def solve_file(name, pieces):
        st.save_problem(spec(pieces), name)
        assert sltrans.cli.main(["solve", "--problem", name, "--nmax", "3",
                                 "--out", "report.json"]) == 0

    poly = st.validate_problem(spec([PotentialPiece("polynomial", coeffs=(1.0, 1.0)),
                                     PotentialPiece("polynomial", coeffs=(2.0, -0.5))]))
    eigs = st.find_eigenvalues(poly, 4)
    st.gram_matrix(poly, eigs)
    st.expand(poly, st.HElement.polynomial((1.0, 0.0, -1.0)), eigs)
    solve_file("constant.json", [PotentialPiece("constant", value=1.0),
                                 PotentialPiece("constant", value=-2.0)])

    xs = np.linspace(-1.0, 0.1, 9), np.linspace(0.1, 1.0, 9)
    sampled = [PotentialPiece("sampled", x=tuple(x), values=tuple(np.cos(x))) for x in xs]
    st.find_eigenvalues(st.validate_problem(spec(sampled)), 2)
    solve_file("sampled.json", sampled)

    third_party = {name.partition(".")[0] for name in set(sys.modules) - before}
    third_party -= set(sys.stdlib_module_names) | {"numpy", "sltrans"}
    assert third_party == set(), sorted(third_party)
""")


def test_no_solve_imports_scipy(tmp_path):
    """Importing sltrans, and solving, expanding and running the CLI on
    constant, polynomial and sampled q, load nothing outside the standard
    library, numpy and sltrans: no SciPy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(sltrans.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DEPENDENCY_PROBE], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
