"""The contract manifest: the exact layer's outputs, byte for byte.

manifest.json maps each case to the text it produced when the manifest was
last written: the stdout of the numpy-free CLI commands (`verify lemma2`,
`verify attainment`, `moments` in CSV and JSON) and the repr of the exact
functions on a small grid.  A change that moves any of these bytes fails
here; a change meant to move them rewrites the manifest with

    PYTHONPATH=src python tests/contract/test_manifest.py

and records the contract change in CHANGES.md.  The bytes are those of the
platform's libm at the last rewrite.  Quadrature and Monte Carlo outputs are
not in the manifest yet.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from gennorm_fisher import GenNormParams, exact_moment, gamma_rational
from gennorm_fisher import fisher_moment_identity, mle_moments_exact
from gennorm_fisher.cli import main
from gennorm_fisher.exact import bhattacharyya_bound

MANIFEST = Path(__file__).with_name("manifest.json")

_COMMANDS = [
    ["verify", "lemma2"],
    ["verify", "attainment"],
    *(["moments", "--theta", theta, "--beta", beta, "--k", "0,1,2,3,4,8", "--format", fmt]
      for theta, beta in (("1", "2"), ("0.5", "1"), ("3", "2.5"), ("2", "0.75"))
      for fmt in ("csv", "json")),
]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def outputs() -> dict[str, str]:
    """Every case of the manifest, name -> text, from the code as it stands."""
    cases = {"cli " + " ".join(argv): _stdout(argv) for argv in _COMMANDS}
    for theta in (0.5, 1.0, 3.0):
        for beta in (0.5, 1.0, 2.0, 2.5, 8.0):
            params = GenNormParams(theta, beta)
            for k in (0, 1, 2, 4, 7, 8):
                name = f"exact_moment(theta={theta}, beta={beta}, k={k})"
                cases[name] = repr(exact_moment(params, k))
    for n in (1, 2, 5, 20, 50):
        for p in (1, 2, 3, 7):
            cases[f"gamma_rational(n={n}, p={p})"] = repr(gamma_rational(n, p))
    for beta in (0.5, 1.0, 2.0, 3.5, 64.0):
        for theta in (1.0, 2.5):
            for n in (1, 10, 1000):
                args = f"(beta={beta}, theta={theta}, n={n})"
                cases["mle_moments_exact" + args] = repr(mle_moments_exact(beta, theta, n))
                cases["bhattacharyya_bound" + args] = repr(bhattacharyya_bound(beta, theta, n))
    for beta in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.25):
        for theta in (0.5, 1.0, 2.0):
            cases[f"fisher_moment_identity(beta={beta}, theta={theta})"] = repr(
                fisher_moment_identity(beta, theta))
    return cases


def test_the_exact_layer_matches_the_manifest():
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    current = outputs()
    moved = sorted(name for name in recorded.keys() | current.keys()
                   if current.get(name) != recorded.get(name))
    assert not moved, f"outputs moved from the manifest: {moved}"


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
