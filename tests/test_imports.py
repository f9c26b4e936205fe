"""SciPy is imported only where a sparse basis is built or read.

Each check runs in a fresh interpreter, since the test session itself has
imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

DENSE_SESSION = """
import sys

import numpy as np

import specprec
import specprec.cli
from specprec import dataset
from specprec.model import _is_sparse

work = sys.argv[1]
assert "scipy.sparse" not in sys.modules, "import specprec loaded scipy"
x = np.random.default_rng(0).standard_normal((60, 12))
dataset.write_csv(dataset.DataMatrix(values=x), f"{work}/x.csv")
main = specprec.cli.main
for argv in (["fit", "--input", f"{work}/x.csv", "--output", f"{work}/dense.json",
              "--rho", "0.5"],
             ["eval", "--model", f"{work}/dense.json", "--input", f"{work}/x.csv",
              "--output", f"{work}/eval.csv"],
             ["screen", "--model", f"{work}/dense.json", "--epsilon", "0.1",
              "--unimportant-out", f"{work}/unimportant.txt",
              "--edges-out", f"{work}/edges.csv"]):
    assert main(argv) == 0, argv
assert not _is_sparse(np.eye(2)) and not _is_sparse([[1.0, 0.0]])
assert "scipy.sparse" not in sys.modules, "a dense model's work loaded scipy"
assert main(["sparsify", "--model", f"{work}/dense.json",
             "--output", f"{work}/sparse.json", "--lambda", "0.5"]) == 0
assert "scipy.sparse" in sys.modules
"""

SPARSE_LOAD = """
import sys

import numpy as np

import specprec
from specprec.model import _is_sparse

assert "scipy.sparse" not in sys.modules
m = specprec.load_model(f"{sys.argv[1]}/sparse.json")
assert "scipy.sparse" in sys.modules
import scipy.sparse as sp

assert _is_sparse(m.basis_a) and _is_sparse(sp.csr_matrix(np.eye(2)))
assert not _is_sparse(np.eye(2)) and not _is_sparse([[1.0, 0.0]])
"""


def _run(code, work):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, str(work)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_is_loaded_only_by_sparse_bases(tmp_path):
    _run(DENSE_SESSION, tmp_path)
    _run(SPARSE_LOAD, tmp_path)
