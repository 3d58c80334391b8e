"""The mutation register: one small patch per convention the library owns,
each of which the fast suite must kill.

    python tests/mutants.py [name ...]

For each named mutant (every one by default), in turn: copy the checkout
to a temporary directory, apply the mutant's one patch there, run the fast
suite (tests/ without test_acceptance.py) once in one pytest process, print
how many tests failed and the first that failed, and delete the copy.  A
mutant that no test fails prints "survived" and the script exits 1.  Not
part of Tier-1: pytest collects only test_*.py, and each run takes about
45 s on a 2-core host.

Not in the register: d for -d in ginibre._overlaps.  Its overlaps take the
products R_j R_{j+|d|} for d and -d alike, so that patch changes no bit of
any output: it is an equivalent mutant, which no test can kill.
"""

import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fails on every patched copy, since the patch it looks for is applied
GUARD = "tests/test_reachability.py::test_each_mutant_of_the_register_patches_the_library"
GINIBRE, FIELD, LINSTATS = "src/ginfield/ginibre.py", "src/ginfield/field.py", "src/ginfield/linstats.py"

# name: (file, old text, new text); the old text occurs once in its file.
# A patch reads no index past the table, so a KeyError kills none: the
# j_{3,k+1} mutants keep j_{3,k} at the table's last k or wrap to j_{3,1}.
MUTANTS = {
    "angular sign of gamma flipped in _gamma_block": (
        LINSTATS, "np.exp(-1j * n * theta)", "np.exp(1j * n * theta)"
    ),
    "a conjugate on order 2 in _gamma_block": (
        LINSTATS, "np.exp(-1j * n * theta)", "np.exp((1j if n == 2 else -1j) * n * theta)"
    ),
    "j_{3,k+1} for j_{3,k} in alpha_radial": (
        "src/ginfield/logkernel.py",
        "j = np.asarray(table.root(n, k))[..., None]",
        "k1 = np.asarray(k) + ((np.abs(n) == 3) & (np.asarray(k) < table.k_max))\n"
        "    j = np.asarray(table.root(n, k1))[..., None]",
    ),
    "j_{3,k+1} for j_{3,k} in _coeff_scales": (
        FIELD,
        "j = root_window(cutoff, table)",
        "j = root_window(cutoff, table)\n    j[3:4] = np.roll(j[3:4], -1, axis=1)",
    ),
    "1/sqrt(n) of W -> 1 in _coeff_scales": (
        FIELD, "1.0 / np.sqrt(np.arange(1, cutoff[0] + 1))[:, None]", "np.ones((cutoff[0], 1))"
    ),
    "sqrt(2) of _pair_factor dropped": (
        FIELD, "c_Z = math.sqrt(2) * (E[:, 1:] * inv_j)", "c_Z = E[:, 1:] * inv_j"
    ),
    "order -n weight 2 -> 1 in sobolev_weights": (
        "src/ginfield/basis.py", "> 0, 2.0, 1.0)", "> 0, 1.0, 1.0)"
    ),
    "1/n dropped in limit_covariance_matrix": (
        LINSTATS,
        "inv_n = np.where(n != 0, 1.0 / np.maximum(np.abs(n), 1), 0.0)",
        "inv_n = np.where(n != 0, 1.0, 0.0)",
    ),
    "orders n and -n share a block in limit_covariance_matrix": (
        LINSTATS, "n[:, None] == s * n", "np.abs(n)[:, None] == np.abs(n)"
    ),
    # R_N = r R_{N-1}, so this adds the (N+1)-th factor to rho_N alone
    "rho_N from N + 1 factors": (
        GINIBRE,
        "return np.square(R).sum(axis=0), R",
        "return np.square(R).sum(axis=0) + np.square(r * R[-1]), R",
    ),
    "Gamma(N - k + 1) on the subdiagonal of sample_matrix": (
        GINIBRE, "np.arange(N - 1.0, 0.0, -1.0)", "np.arange(N + 0.0, 1.0, -1.0)"
    ),
    "Hessenberg check of eigenvalues dropped": (
        GINIBRE, " and not np.tril(A, -2).any()", ""
    ),
    # the one step that Newton's pair and jn share: J_2 = -J_0, and so on
    "2m for 2(m + 1) in the forward recurrence step": (
        "src/ginfield/bessel.py", "return (2 * (m + 1) / x) * jm1 - jm", "return (2 * m / x) * jm1 - jm"
    ),
}


def patched(name, root=ROOT):
    """(path, text) of the mutant's file with its patch applied under root;
    ValueError unless the old text occurs exactly once."""
    file, old, new = MUTANTS[name]
    path = Path(root) / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{name}: the old text occurs {text.count(old)} times in {file}")
    return path, text.replace(old, new)


def run(name):
    """(failed, first failed test id or None) of the fast suite on a
    patched copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="ginfield-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")
        )
        path, text = patched(name, copy)
        path.write_text(text)
        report = Path(tmp) / "report.xml"
        subprocess.run(
            [sys.executable, "-m", "pytest", "tests", "--ignore", "tests/test_acceptance.py",
             "--deselect", GUARD, "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}"],
            cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
        )
        failed = [
            f"{case.get('classname')}::{case.get('name')}"
            for case in ET.parse(report).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None
        ]
    return len(failed), (failed[0] if failed else None)


def main(names):
    survived = []
    for name in names or MUTANTS:
        failed, first = run(name)
        print(f"{name}: {failed} failed" + (f", first {first}" if first else ", survived"), flush=True)
        if not failed:
            survived.append(name)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
