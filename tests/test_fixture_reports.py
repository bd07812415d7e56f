"""Golden reports: every command on every fixture, pinned byte for byte.

A fixed sweep of CLI invocations runs in-process through ``cli.main`` with
``K3CONE_CEILING`` unset.  For each one the exit code and the sha256 of
stdout and of stderr are pinned, so a refactor that changes any report,
``input_digest`` included, fails here.  After a deliberate change of output,
print the new pins with

    PYTHONPATH=src python tests/test_fixture_reports.py

and replace ``PINS`` below with them.
"""

import contextlib
import hashlib
import io
import os

import pytest

from k3cone.cli import main

from conftest import PROBLEMS

# fixture -> (two classes for walk, nef-test and reduce; isotropic box; orbit bound)
FIXTURES = {
    "l_u": (("3,1", "1,3"), 10, None),
    "l_p": (("1,1", "5,-6"), 10, None),
    "l_r": (("1,0", "-3,25"), 10, None),
    "rank5_supersingular": (("1,1,0,0,0", "4,3,-1,0,2"), 3, 12),
    "r3_cocompact": (("9,5,1", "20,11,3"), 10, None),
}

ORBIT_KINDS = (
    ("nodal",),
    ("elliptic",),
    ("genus", "--genus", "2"),
    ("genus", "--genus", "3"),
)


def sweep():
    """(name, argv) for each pinned invocation."""
    out = []
    for fixture, (classes, box, orbit_bound) in FIXTURES.items():
        path = str(PROBLEMS / f"{fixture}.json")
        for cmd in ("validate", "roots", "walls", "sterk"):
            out.append((f"{fixture} {cmd}", [cmd, path]))
        out.append((f"{fixture} isotropic", ["isotropic", path, "--bound", str(box)]))
        out.append((f"{fixture} filter-k", ["filter-k", path]))
        for cmd in ("walk", "nef-test", "reduce"):
            for cls in classes:
                out.append((f"{fixture} {cmd} {cls}", [cmd, path, f"--class={cls}"]))
        for kind in ORBIT_KINDS:
            argv = ["orbits", path, "--kind", *kind]
            if orbit_bound is not None:
                argv += ["--bound", str(orbit_bound)]
            out.append((f"{fixture} orbits {' '.join(kind)}", argv))
    # U+E8(-1) (rank 10): the commands whose domain rays the chamber decides
    path = str(PROBLEMS / "u_e8.json")
    out.append(("u_e8 sterk", ["sterk", path]))
    out.append(("u_e8 orbits nodal", ["orbits", path, "--kind", "nodal"]))
    # the rank-5 elliptic table at the default bound 4 H^2 = 96
    path = str(PROBLEMS / "rank5_supersingular.json")
    out.append(("rank5_supersingular orbits elliptic default", ["orbits", path, "--kind", "elliptic"]))
    return out


def run_pinned(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one invocation."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (stdout, stderr))


PINS = {
    "l_u validate": (
        0,
        "773d0708540eaa8c10f4fe113a6f0abef66153ecc473929ff3f6c4596e435e03",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u roots": (
        0,
        "c1b3209badd89b560603a08907f0c79d0bfe106cc55c8e72b7d9cdceef677b4b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u walls": (
        0,
        "f14bb711fecf1574e131b4519c566e4c84bc2495b5e76cb2a9df6308d372ccef",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u sterk": (
        0,
        "b215efac6e9dc7ca60c3e890016f1f95c59daabae594c288da1503efc8e2fafa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u isotropic": (
        0,
        "8cb64e1207b838d0fff58d4a169ec1112bb0c34fc98c3d276fbb11ff43e60fd5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u filter-k": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a7e93e52c51ec2a7eba92592c907a7af4b653402ff08cc003efacbe42925291e",
    ),
    "l_u walk 3,1": (
        0,
        "8d8eabb9bd820742717d85cd783b47715725d78322b46ee6332f920d10401906",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u walk 1,3": (
        0,
        "81ad8686b51763324164d8e069495b7026bdbf746967c19b19f0ca5feda6d51c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u nef-test 3,1": (
        0,
        "cb2d073336cf1c85902c926a0c8c032c6e55c4558aa0a250e8893e6a6835a278",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u nef-test 1,3": (
        0,
        "3037368ebe6fe30674c489e07db780551164cd22a8e329328e9fcac0c5974561",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u reduce 3,1": (
        0,
        "a73a4422600b82082d8e9a2faa24f49468c53635fd38e68f18901c9356042dfa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u reduce 1,3": (
        0,
        "efd1bdccc26f671886fd2e8f5f49760fbad43d4515f1c65466b051776f911dd1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u orbits nodal": (
        0,
        "73b0c7902e0bcf24718ce1878b9dc9541fd47ea981784ea7945b1f73b0570789",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u orbits elliptic": (
        0,
        "4f7fafdcedb2a963f608f52fb6d04cd4ec4a7243e106eb53d7814b9f7c5cd83b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u orbits genus --genus 2": (
        0,
        "94fcad5bf4e70922b3d00471e9e027b3bf15b6f3686aeba3f084ae2090fb1a60",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_u orbits genus --genus 3": (
        0,
        "a9441509f644231472ad009966b51a4f24bc3659f1b03bd37a238ce48c33c85e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p validate": (
        0,
        "933884ff08079e8c98861b0f325e70fc73e6eb4cc3bea0012bb2f9c42ffa6dec",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p roots": (
        0,
        "8a3e51351cae9822e6720f3a05fec9acb9c8e362357852155cfabc9cd7b74128",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p walls": (
        0,
        "449cfff95d29d7021c929ac0740eaf1adf854b6aaf8681a446502094f60208c3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p sterk": (
        0,
        "435027d929d8c8108ae4d088c49a9af642576db0c16dbad13736e23557429a9c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p isotropic": (
        2,
        "df940be5c02977135cb1d25a102e287ad6237222247079f947a2a2ef7f555ed9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p filter-k": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a7e93e52c51ec2a7eba92592c907a7af4b653402ff08cc003efacbe42925291e",
    ),
    "l_p walk 1,1": (
        0,
        "cf419e6a5fb931e034ad1917e8325ded840eb2729f8d8e5fb11911548ba7a401",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p walk 5,-6": (
        0,
        "69bc19f6f6560ff05dc40b39b8d6fabc5fa93be98d9400e17a73cb6c75c8f75c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p nef-test 1,1": (
        0,
        "1c9e7242248fa8698031b2128979788913eac1eda710fdf2bdf5056238ea5312",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p nef-test 5,-6": (
        0,
        "a7e0a87ddae1ef2b08db75622d7b4bee4db27e7ee87f26625c86e72c44290e60",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p reduce 1,1": (
        0,
        "3f10a78d678afaaa4e6722ffa0c74a6367ce278a830e0428c10e734203701808",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p reduce 5,-6": (
        0,
        "42629f61f66610defb7441d6f012d4997c09ae7911f9643efc8d1c887c6d74c0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p orbits nodal": (
        0,
        "43588365e61d6ed4ac54882fabbf821b9b0a8426eacd55ab89a7d4dc874935e1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p orbits elliptic": (
        0,
        "b5d697c47eef1bb5a838034b78913e4a9ce843db8b9d70b298b5a366f99d2c07",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p orbits genus --genus 2": (
        0,
        "470f76703ef5b5f327b70ff2269536b0b32e0d479d8174f5b780ce4ee860c223",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_p orbits genus --genus 3": (
        0,
        "17e66795a46cc42454c435cd7542ce09f5c892c5874e639dc76b8b88894cf10e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r validate": (
        0,
        "b0f1440615fa75803be52e7dfeacb5d979457d031160f3a6140fdeeb4632ae5c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r roots": (
        0,
        "c3171975f41ed04e7b84a67f8170ed887e59fbe2dce0620bc2207b10e8e985df",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r walls": (
        2,
        "cfff384b448d2e90c01cd8625f52cb66afcb0deafadb991d606c2b12433505aa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r sterk": (
        0,
        "34b9aa9a1c72ef6105b7bccd30bf06abb1af8ef1eafc55147a93bd868dad1e8c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r isotropic": (
        2,
        "61533f68d1180afc5daa5b49dc020cce4d289694e667d42c9c860a2cc288ce43",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r filter-k": (
        0,
        "04771f846958bbdd8e0ede9bf551095ec15b96cd04b8c70c947fd12faefb5fdb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r walk 1,0": (
        0,
        "a06a2f97685409b3b4adbd3017fcee9b845b5b7b3aea0d639e562d719d0a9af8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r walk -3,25": (
        0,
        "04caf8238a1ed862a2645bca8a13d9c3acb8e9a5f657e8e0a2e42ba4aaabe740",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r nef-test 1,0": (
        0,
        "95c1b4eaa5738136b9e64580fba73ea3c5d30e8bff295e34baf9489d81c2cf24",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r nef-test -3,25": (
        0,
        "22b5bcefa505467d5e5e70b0cacc5ad9f79e70466f4f6423fdf11c3b574858fb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r reduce 1,0": (
        0,
        "7d30f294c0957c4e4ff68ab55a460c52e7647b8e3a3a15433febad12c4708637",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r reduce -3,25": (
        0,
        "22bc7e4218e89d9f04fb66cb6cd1d9fd55ca2a76968c7786a7f8b8564c1d35f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r orbits nodal": (
        0,
        "701ee002d37883cf165d4d2d4cb3ff07bc100a5f593269b0e4ad74272aaa6205",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r orbits elliptic": (
        0,
        "0ffa1bd68bb9a006f159ef14f2132e0ed9c83146ed2fd48ee033d8b68bcbed2d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r orbits genus --genus 2": (
        0,
        "af29d4db7bba51d8498515a91c369750750d45b451463d0164ea49cfbb797fa7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "l_r orbits genus --genus 3": (
        0,
        "5206d2d3f65ec7daa9266fd88fce9317e44d161b2b4ae8a9aa81fe5328d737cf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular validate": (
        0,
        "ef493b52b43411546f5a4fa2cbfc7079874d7297679ac4c07de4472f79ed846e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular roots": (
        0,
        "065a2507b7661081c05d93c1d34252f65caa457fd77d9f9cf6f776ce3ea89dbb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular walls": (
        0,
        "3d088d5b46ff6493aa971d3ce3ecdc21c8c4cfca2a9f901e99f586c1113dc604",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular sterk": (
        0,
        "bb5166b68ddb3a6b09329df5ef0bc09270aaa3371b247e0fcc7c3c92b65db05b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular isotropic": (
        0,
        "58e41a3c4bb8d83585dd946f2379f015e4622c800d0b8f535928857954f6857d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular filter-k": (
        0,
        "15b726fedba42a38386494d7f0479f22dff306d65b25b98cf50346ac6d38705f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular walk 1,1,0,0,0": (
        0,
        "8a4fd27d4171a2514a4f69324029cc32258021322edf44a5569c25cd1aeafb94",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular walk 4,3,-1,0,2": (
        0,
        "c492f467718d9d455b1a50fc3a61984fa417d2e9bb1a96e2bda5a2141ed51b5a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular nef-test 1,1,0,0,0": (
        0,
        "0a6323771bd7090649ca0359ea2cd24d8a55256687fa3d92de10f6c54b938824",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular nef-test 4,3,-1,0,2": (
        0,
        "05c56e4ee5ccb72874396446081a11628bbae966bd2e5e9b5441b4d3a9bf9d45",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular reduce 1,1,0,0,0": (
        0,
        "5ea1b7ad7519b5fca1d06e6825f8aca7dfdd035a796e335a152107fa5504a66f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular reduce 4,3,-1,0,2": (
        0,
        "f1d6ab1f26d31ca4d4a60694cf80afd997fdfe4a5f244ece66d120ba3cc408ad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular orbits nodal": (
        0,
        "5092f75a89939effa1525118030a311b08938a3bcb8f2e0f1212f864e299750a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular orbits elliptic": (
        0,
        "6046f0a28cfc690f9d16317cd2c8acccef3d8a1e48b09d5820f391812dff4d45",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular orbits genus --genus 2": (
        0,
        "c5ca6410c457ada0ecdaea17827dd66676696475b0d3538084eeac03861bb59d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular orbits genus --genus 3": (
        0,
        "a9cd11861070d7575f9608e5a276970787a3c8e7b8b9d676a61ad91602c90e87",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact validate": (
        0,
        "38fa22e20fdf31794b6fbfe1824a7a5b66793c824345639afc41260780f64559",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact roots": (
        0,
        "7a053c02efd0a83e74aa3c2d7682ddd58b02037962957b41a0ec71063f9ea5cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact walls": (
        2,
        "ce5acdd5712f259662ddb2fdfd8c99af9c2e2a4917d82d0b288397305fbcc2f9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact sterk": (
        0,
        "91be65646350205952f06caf27f908bce528e0d37e1b89edf47c63bcf0a5d075",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact isotropic": (
        2,
        "df48cc0c099a74729224a91ff67a630a645be2622cb86299931d9f8355c9cc7d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact filter-k": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a7e93e52c51ec2a7eba92592c907a7af4b653402ff08cc003efacbe42925291e",
    ),
    "r3_cocompact walk 9,5,1": (
        0,
        "f8d1c13776cbdff365fa161d03fd856548ad5de257032409b2ee46a83efb754b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact walk 20,11,3": (
        0,
        "dcd506a24201900b5215b0ff157f0eaa60ea8e18b8a19af46c7d73204d4178fb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact nef-test 9,5,1": (
        0,
        "fd01f03b19dbbc781a9331beb9e71e4c7cefb96c7fecb41b4b317e6950c9a15e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact nef-test 20,11,3": (
        0,
        "8490cd6963832f1e09524527757d4a001465893af9cff4c70a22a9bf7cb52a86",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact reduce 9,5,1": (
        0,
        "584134b31b7bd3828388ede08a224bdf326aea7399eed9ccb9811831a89e2512",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact reduce 20,11,3": (
        0,
        "387f0b4bf989d39249457dc83c6cd686a2d41ea3e2b9955896ff8954484a8d7e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact orbits nodal": (
        0,
        "424b6a23370c57a9528f6e20aa89bd44464450536453eb59c47b928fcc5bc9be",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact orbits elliptic": (
        0,
        "d47d310326ad80d77354979199dacd526ad28664d64f36db0b9eb9ea77ed0aa9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact orbits genus --genus 2": (
        0,
        "027cc080c1ae3a588d1df63885915207c5e60cd53cbceecca13787d0e2685209",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "r3_cocompact orbits genus --genus 3": (
        0,
        "49011cf8184c9f7da762f5700350bdc96e2ec83cdc7f2f2342010644bb804319",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "u_e8 sterk": (
        0,
        "386d6f5a96fee43f0845df02924d64899dbe2d2173ab2bbf887999f419e31cdf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "u_e8 orbits nodal": (
        0,
        "2e5f1751016a31c6307e43b5c0c369c9aac9260d0a96db5caebc0a036fabcf82",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rank5_supersingular orbits elliptic default": (
        0,
        "d50ea8f2eb048705f3daa0e5fbb0adea3cfc76fcccbbe8430dc9d3fb8e1480d2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def test_sweep_is_the_pinned_one():
    assert [name for name, _ in sweep()] == list(PINS)


@pytest.mark.parametrize("name,argv", sweep(), ids=[name for name, _ in sweep()])
def test_report_is_byte_identical(name, argv, monkeypatch):
    monkeypatch.delenv("K3CONE_CEILING", raising=False)
    assert run_pinned(argv) == PINS[name]


if __name__ == "__main__":
    os.environ.pop("K3CONE_CEILING", None)
    print("PINS = {")
    for name, argv in sweep():
        code, out, err = run_pinned(argv)
        print(f'    "{name}": (\n        {code},\n        "{out}",\n        "{err}",\n    ),')
    print("}")
