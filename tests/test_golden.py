"""Pinned outputs: sha256 of `tropfan variety --format json` on every
PRIME_CORPUS ideal, recorded before the linear algebra became integer-only,
and on the heavier probes of the benchmark, recorded before faces were
derived by incidence. The probe `curve4` (x+y+z+w+1, x*y*z*w-1) was
recorded before the Buchberger kernel moved to term dicts and each Gröbner
fan facet came to be crossed once. An optimization must leave these bytes
unchanged; a change meant to alter the output updates the tables in the
same commit."""

import hashlib

import pytest

from tropfan.cli import main
from tropfan.corpus import PRIME_CORPUS

VARIETY_JSON_SHA256 = {
    "line2": "819031ab31e9c2db4352a53c4dfa7a725fd18d6a7a01bc0c97b91f9e695f51ed",
    "plane3": "d6a9b69470d4fac95d0f2b4184173e117cb1f46ca3d563836612903fd9fe39b4",
    "linear_pair4": "e818f0a6f748965e82451c01f252bb8bbf59021d1b8ae609acef37050603bd55",
    "hyperbola": "7a430f15574f26fc951be28f3026da66f18767e4f7d3e429b1621cfc0f046819",
    "quadric_cone": "bebbdc5da94efd51cb4e4df4e78fe8150871244792f73213c519766b468f2bc2",
    "toric_cubic": "08e609af63bd3bf8121a39100a14d05535886f87c048416103dc94bf04baea55",
    "fermat_cubic": "847d5bb0ce8effe89888aeab98b0c1c012fea1d37af3458050826067719f3977",
    "elliptic": "a2e81392f1d8d5f143fe0e6940ac089b3118bc60b8a8a3b123d3bbe11d5b6640",
    "plane_in_3": "a9a1a8a902897e88fff8fe392767877930ac2a2fdf658d37cd5f8d4356084f3c",
    "space_conic": "f832978030af413abbb9efe74f80a95b1765e9a1f99da392c363374e2f712f76",
}

# (name, variables, generators, sha256): two generic linear forms in five
# variables, a space curve, the twisted cubic, and a curve in four variables
PROBES = [
    ("linear5", "abcde", ("a+b+c+d+e", "a+2*b+3*c+5*d+7*e"),
     "8bb4de4c8208c4f0b143eb3253bf93837ea090558575a1676d41ba31155d6666"),
    ("curve3", "xyz", ("x+y+z+1", "x*y*z-1"),
     "9dde307a378e0dc2fc44aca09fcddcc7bee362eb0e51aac5ea934ac6442d3ff5"),
    ("twisted_cubic", "xyz", ("y-x^2", "z-x^3", "x*z-y^2"),
     "86a2f11d114c875cbdb5528cce2443fe4b28acb887cb7d0985e5cb8fb79a945d"),
    ("curve4", "xyzw", ("x+y+z+w+1", "x*y*z*w-1"),
     "c9083956332a4346c12bcde23e00da139a9fcc23d0de6945479dc6bd37c80edc"),
]


def test_table_covers_the_corpus():
    assert set(VARIETY_JSON_SHA256) == {e.name for e in PRIME_CORPUS}


@pytest.mark.parametrize("entry", PRIME_CORPUS, ids=lambda e: e.name)
def test_variety_json_is_pinned(entry, tmp_path, capsys):
    path = tmp_path / f"{entry.name}.ideal"
    path.write_text("vars: " + ",".join(entry.variables) + "\n"
                    + "\n".join(entry.generators) + "\n")
    assert main(["variety", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VARIETY_JSON_SHA256[entry.name]


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: p[0])
def test_probe_variety_json_is_pinned(probe, tmp_path, capsys):
    name, variables, generators, digest = probe
    path = tmp_path / f"{name}.ideal"
    path.write_text("vars: " + ",".join(variables) + "\n"
                    + "\n".join(generators) + "\n")
    assert main(["variety", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
