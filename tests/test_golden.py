"""Golden outputs: the bytes of the standard grid commands and of ``simulate``.

Each grid case runs ``cli.main`` into a temporary file and pins the sha256 of
the file's text after its leading ``# key: value`` metadata lines, so a version
bump (which changes ``tool_version`` and the config hash) does not break it.
Each ``simulate`` case pins the sha256 of its JSON ``results`` alone.

The digests depend on the libm ``log2`` that ``math.log2`` calls, which every
bound reads through: they were taken in the reference image (Debian 12,
glibc 2.36, x86-64, Python 3.11.7, numpy 2.4.6).  A libm whose ``log2``
rounds one input differently changes a digest without any change to ccdp.
The ``simulate`` digests depend on numpy's SeedSequence spawn keys and SFC64
streams and its LAPACK QR and Cholesky as well.
"""

import hashlib
import json

import pytest

from ccdp import cli

# case: (arguments, sha256 of the text after the metadata lines, exit status)
GOLDEN = {
    "sweep": ((), "64d4f9e50fed7bdf4ec2114f6d7db123dcee2a9049e5bcb4128f447205eefd9e", 0),
    "sweep-theorem": (("--outer-variant", "theorem-statement"),
                      "ff5daff40177c8c7a327d205b8a856b7b039efe774a593056a7792dff7b88f3d", 0),
    "audit-optimized": (("--families", "optimized"),
                        "53688f5b58a33ed39b0538a2b1904a705e1f30f13cf7ab35803499bc7760e994", 0),
    "audit-all": (("--families", "all"),
                  "673f7f44ea565798496c205c7e25fef3945361b75b9350c9e222152e2096554d", 0),
    "fig3": ((), "5630271b0a3f0f261f11cad89d19a2bf4bedfc96a15f32d370b2219c1ed92d73", 0),
    # certificate rows: their variant cells come from the grid's axes
    "certify-Th3": (("--theorem", "Th3", "--format", "csv"),
                    "e9cbcbfce347e5e91d2b3397040e192395363dc4d822c56db3a4851a4bdd1658", 0),
    "certify-Th6": (("--theorem", "Th6", "--format", "csv"),
                    "f31915f8933bc33805c515a7c2c3c6410d883c5f00aeed7ba07c3a3434daa863", 0),
    # the stated outer bound misses the claim: exit 1
    "certify-Th6-theorem": (("--theorem", "Th6", "--variant", "theorem-statement",
                             "--format", "csv"),
                            "a42beb429eaadbb4d895d2ce5ff39635c0c5e2110ee40acb905a65ccf644b6fd", 1),
}


def _body(text):
    # the text after the leading '#' lines
    start = 0
    while text.startswith("#", start):
        start = text.index("\n", start) + 1
    return text[start:]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_standard_command_output_is_golden(tmp_path, case):
    args, digest, status = GOLDEN[case]
    out = tmp_path / f"{case}.csv"
    assert cli.main([case.split("-")[0], *args, "--out", str(out)]) == status
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# tool_version: ")
    assert hashlib.sha256(_body(text).encode()).hexdigest() == digest


# simulate case: (arguments, sha256 of json.dumps(results, sort_keys=True));
# the results hold no path, and every case runs at the default seed 0.  Only
# the live basis columns are drawn, so a case with a zero-weight column (a
# layer without power, a latent of weight 0) draws a narrower moment.  The
# moment is summed piece by piece (model.DRAW_ROWS rows), so the order of its
# floating-point sums is part of each digest, and so is the generator: block b
# of seed s is SFC64 fed by child b of SeedSequence(s)'s spawn tree.
P10 = ("--P", "10", "--c2", "4")
GOLDEN_SIMULATE = {
    "san": (("--target", "san", "--M", "2", *P10, "--alpha-bar", "0"),
            "5dac9582109a59b8da1e628756544a2af4358880885feefb354d78bc26c2e977"),
    "gp": (("--target", "gp", "--M", "2", *P10, "--alpha-bar", "0.3"),
           "ed0b1a0383a86bd1ebecefbdc6eb63ebc2523045080c86ab5d05d3928559d6f5"),
    "gp-lam": (("--target", "gp", "--M", "3", *P10, "--rho", "-0.3", "--alpha-bar", "0.3",
                "--lam", "0.5"),
               "e6271c2c0f51c60a488c666ec7204da848b4618c66033479236bc54fa99c03c7"),
    "scheme": (("--target", "scheme", "--M", "2", *P10, "--alpha-bar", "0.3"),
               "cc2a14e327011fcd9e21c91c40331b846377c60a9d79dc17789ba6825100a076"),
    "scheme-rho": (("--target", "scheme", "--M", "3", *P10, "--rho", "0.64",
                    "--alpha-bar", "0"),
                   "a83eabad703ff6c7e90dbc7a734b6cf869e3c9977e53151fe55127df9ee688a2"),
    # decomposition reads no alpha-bar, so its results hold no alpha_bar
    "decomposition": (("--target", "decomposition", "--M", "4", "--P", "1", "--c2", "1",
                       "--rho", repr(-1 / 3)),
                      "a24b3e13eb34bb09477c851e43b8a49faea8fb7c7362affb7f31efa91e552dab"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATE))
def test_simulate_results_are_golden(tmp_path, case):
    args, digest = GOLDEN_SIMULATE[case]
    out = tmp_path / f"{case}.json"
    assert cli.main(["simulate", *args, "--samples", "20000", "--out", str(out)]) == 0
    results = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == digest
