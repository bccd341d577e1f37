"""Products through ``ndarray.dot`` have the bytes of ``@`` under every OpenBLAS kernel.

The package takes every product with ``ndarray.dot``.  The golden digests see
only the kernel that OpenBLAS picks on the host that runs them, so this test
forces the older x86-64 kernels with ``OPENBLAS_CORETYPE``, in one subprocess
each, and requires the two forms to agree byte for byte on every product
shape the package uses: vector . vector, matrix . vector, transposed
matrix . vector, and prior . (states, links) matrix.  :func:`run_under_kernel`
is the harness; a digest check under each kernel can reuse it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
KERNELS = ("Nehalem", "Sandybridge", "Haswell")

# Prints the product shapes whose two forms differ in bytes, as a JSON list.
PRODUCTS = r"""
import json
import numpy as np

rng = np.random.default_rng(20)


def entries(*shape):  # below 1e3 over seven decades, a fifth of them -0.0
    a = rng.uniform(0.0, 1.0, size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    a[rng.random(shape) < 0.2] = -0.0
    return a


diffs = []
for n in (2, 8, 32, 128):
    for s in (1, 2, 3):
        for draw in range(3):
            v, w, matrix = entries(n), entries(n), entries(n, n)
            mu0, rows = rng.dirichlet(np.ones(s)), entries(4, s, n)
            cases = {
                "vector . vector": (v, w),
                "matrix . vector": (matrix, v),
                "matrix.T . vector": (matrix.T, v),
                "prior . rows": (mu0, rows[1]),
                "prior . (rows * vector)": (mu0, rows[2] * v),
            }
            for name, (a, b) in cases.items():
                if a.dot(b).tobytes() != (a @ b).tobytes():
                    diffs.append(f"{name} at n={n}, s={s}, draw {draw}")
print(json.dumps(diffs))
"""


def run_under_kernel(coretype: str, code: str) -> subprocess.CompletedProcess:
    """``code`` run by this Python, the package on its path, OpenBLAS forced to ``coretype``.

    OpenBLAS runs one thread, so no product is split across threads, and
    ``OPENBLAS_VERBOSE=2`` makes it name the kernel it loaded on stderr.
    """
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_VERBOSE": "2",
           "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def _has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and "avx2" in line.split() for line in fh)
    except OSError:
        return False


def _dynamic_openblas() -> bool:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 kernels only")
@pytest.mark.skipif(not _has_avx2(), reason="Haswell's kernel needs AVX2")
@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS cannot switch kernels")
@pytest.mark.parametrize("coretype", KERNELS)
def test_dot_has_the_bytes_of_matmul(coretype):
    done = run_under_kernel(coretype, PRODUCTS)
    assert done.returncode == 0, done.stderr
    assert f"Core: {coretype}" in done.stderr, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
