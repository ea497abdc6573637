"""Seeded CLI runs of every subcommand write the bytes they wrote when recorded.

Each run goes through ``cli.main`` in-process.  Every CSV it writes, and
every sidecar with its ``provenance`` removed (the git revision and the
versions differ between checkouts), is hashed with SHA-256 and compared
against the recorded digests: those of the blockage, SNR, angle-pdf and
scenario runs at commit 7f83bb9, those of the gain and dump runs at
ec4f5bf.  ``angle_pdf.json`` was re-recorded when its sidecar gained the
run's door telemetry; without its ``telemetry`` it hashes as at a5cc676,
like ``angle_pdf.csv``.  The float bits hold on the numpy they were recorded with only,
so on any other numpy the test skips.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conformal_v2v.cli import main
from conformal_v2v.config import ENV_PREFIX

RECORDED_NUMPY = "2.4.6"

RUNS = {
    "blockage": [
        "blockage", "--rho", "10", "--rho", "40", "--r-d", "50", "--r-d", "100",
        "--trials", "400", "--seed", "5",
    ],
    "snr-ecdf": [
        "snr-ecdf", "--reduced", "--rho", "10", "--rho", "40", "--r-d", "50",
        "--r-d", "100", "--radius", "2", "--radius", "8", "--trials", "3", "--seed", "9",
    ],
    "angle-pdf": ["angle-pdf", "--trials", "200", "--seed", "4"],
    "scenario-dump": ["scenario-dump", "--rho", "40", "--seed", "7"],
    "gain-elevation": ["gain-elevation"],
    "gain-azimuth": ["gain-azimuth", "--thetabar-deg", "60"],
    "gain-frequency": ["gain-frequency"],
    "geometry-dump": ["geometry-dump", "--set", "m_elements=16", "--set", "n_elements=8"],
    "phase-dump": ["phase-dump", "--set", "m_elements=16", "--set", "n_elements=8"],
}

DIGESTS = {
    "blockage": {
        "blockage.csv":
            "609252a4a65efd5ac6f0d4d44dd960c5165a576463a0b79be718a44126dc2be2",
        "blockage.json":
            "dc924e7fcf9bdf6fc81e2af82d01361cf2ba6c64573a9ebf8a6de38987b6671f",
    },
    "snr-ecdf": {
        "snr_ecdf_direct_R2_rho10_rd100.csv":
            "b0d84431e53938f498e27478628a863f5263eb5bcc9495586fa72e63db4a65d5",
        "snr_ecdf_direct_R2_rho10_rd100.json":
            "8f459a06a64f4d65b20080bda650808a29591877094309ad5913b880a8f5b204",
        "snr_ecdf_direct_R2_rho10_rd50.csv":
            "b2ee7f9ffa046fe150adafec4432140d32f3ea03ffeff8403ae7b7071629b57c",
        "snr_ecdf_direct_R2_rho10_rd50.json":
            "201a4ba2c89bb53f8ee9d932250915424a7ed9e9632b59093a971ef56447736b",
        "snr_ecdf_direct_R2_rho40_rd100.csv":
            "67cf72e95ee602e1722f500a793a76c63de7af38b6f3326591e0997f7852d075",
        "snr_ecdf_direct_R2_rho40_rd100.json":
            "545e6adad4e57d5b05654fc35ad0422a9d1d5955e28c68730d5834c7916e19aa",
        "snr_ecdf_direct_R2_rho40_rd50.csv":
            "a420dce583d19e0021f4e3bd67f4d6c8b27cb7101054b64f7d49ac5df6f60a88",
        "snr_ecdf_direct_R2_rho40_rd50.json":
            "c69726c76f59a68b908f314ffcb9698514941054f72a1ad95e835959aa06ed00",
        "snr_ecdf_direct_R8_rho10_rd100.csv":
            "b0d84431e53938f498e27478628a863f5263eb5bcc9495586fa72e63db4a65d5",
        "snr_ecdf_direct_R8_rho10_rd100.json":
            "12db7356ce4546d8dfc6992e5eb215549cd0c3d183af704a29754653cdbf7c38",
        "snr_ecdf_direct_R8_rho10_rd50.csv":
            "b2ee7f9ffa046fe150adafec4432140d32f3ea03ffeff8403ae7b7071629b57c",
        "snr_ecdf_direct_R8_rho10_rd50.json":
            "9f26e0c5877f83c238e39d1aff317a1c24291a072243e4ffd9742f970604c89b",
        "snr_ecdf_direct_R8_rho40_rd100.csv":
            "67cf72e95ee602e1722f500a793a76c63de7af38b6f3326591e0997f7852d075",
        "snr_ecdf_direct_R8_rho40_rd100.json":
            "67c2c62c92e63ef0318c895cdfc823f6620f8e6b55e1bea54771d457f0168986",
        "snr_ecdf_direct_R8_rho40_rd50.csv":
            "a420dce583d19e0021f4e3bd67f4d6c8b27cb7101054b64f7d49ac5df6f60a88",
        "snr_ecdf_direct_R8_rho40_rd50.json":
            "4348d3853f33c14d76e7f1f4ca2e6653d47dca42c7bcada4d3a35d42c426dc48",
        "snr_ecdf_with_irs_R2_rho10_rd100.csv":
            "7cbdf76129226da15d02e398c7e73ffa555fa80d20dc9dd2b0bee3ef1ca89f33",
        "snr_ecdf_with_irs_R2_rho10_rd100.json":
            "cbd362001eda53b71df25cbc3214f6e15f3ff2dd2a395ba60a70aa9828b3ac41",
        "snr_ecdf_with_irs_R2_rho10_rd50.csv":
            "691a1cb63320336903942db01c737e158e7f96cfb2167fb3de64fb25be6814f4",
        "snr_ecdf_with_irs_R2_rho10_rd50.json":
            "7094313edb8f30a2d54cc165f48c43f54d8bc951174d217805ba12efcd485432",
        "snr_ecdf_with_irs_R2_rho40_rd100.csv":
            "cbb3c43924ef4f274229e1f43cb6feace35ad2210ebbf5db69bf606e1eaa3f70",
        "snr_ecdf_with_irs_R2_rho40_rd100.json":
            "236faee9eab387aed3d6604af38a4c330676f0a007a7447ad594ef2b648c7ac9",
        "snr_ecdf_with_irs_R2_rho40_rd50.csv":
            "a420dce583d19e0021f4e3bd67f4d6c8b27cb7101054b64f7d49ac5df6f60a88",
        "snr_ecdf_with_irs_R2_rho40_rd50.json":
            "2d6199081d27351cc0f5a09748d8d655ea13d957eb4981856bbeb2c46df1c631",
        "snr_ecdf_with_irs_R8_rho10_rd100.csv":
            "be71ee01030fd85ec273e8ad94e31f3a3cb65f016f94cb3a2a601f79d896401b",
        "snr_ecdf_with_irs_R8_rho10_rd100.json":
            "c6efde029b29d71a511de378f15b300c1d997fd179623193dc2e1a8b4d1e7fac",
        "snr_ecdf_with_irs_R8_rho10_rd50.csv":
            "9c4018437a7f44f3113442d9465809f2568a2c43f5c12ac432f51246b494c53b",
        "snr_ecdf_with_irs_R8_rho10_rd50.json":
            "77d39cf0ec451f8f2b70779322b9d64e4bd9f6415c274dc227549bdfe90ab79d",
        "snr_ecdf_with_irs_R8_rho40_rd100.csv":
            "d520ca9176b4f711ff1eb5eebcd422996c953afe08dc60d250eecc2c66f42d31",
        "snr_ecdf_with_irs_R8_rho40_rd100.json":
            "78f1edad064e1ceadfc4552e8f07b0fa6009ed9be06c5c6dbde23f4e2e9fb00b",
        "snr_ecdf_with_irs_R8_rho40_rd50.csv":
            "a420dce583d19e0021f4e3bd67f4d6c8b27cb7101054b64f7d49ac5df6f60a88",
        "snr_ecdf_with_irs_R8_rho40_rd50.json":
            "f436b23e9722542d370a20f87cd527386327fb49ffcdd156da80fe5e48551c7a",
        "snr_ecdf_with_ris_R2_rho10_rd100.csv":
            "df2d6c190762ec6aba4515bccb65831a1d0e39e7e972944cabc9b2786c258258",
        "snr_ecdf_with_ris_R2_rho10_rd100.json":
            "6d2e6287195fca605963d60eac4bbdb578d1efae0da3345a01b030745cdc966d",
        "snr_ecdf_with_ris_R2_rho10_rd50.csv":
            "41aac98f30daa731c012142ea539d80c8e3dd4a7dafbfb59ced97391062dde84",
        "snr_ecdf_with_ris_R2_rho10_rd50.json":
            "0e7f5badbd3c296836d5f58be3ffd30182ff4c857fb3056358f17bfe844b24b5",
        "snr_ecdf_with_ris_R2_rho40_rd100.csv":
            "375b6adb5414b463b529402bfb1ef2e338fe8d17d1f86692473e6fc5e319e3d4",
        "snr_ecdf_with_ris_R2_rho40_rd100.json":
            "622b5effbd0afdfb6d8e046398b5187a2217746de4a09e409c4e9c7359efa0bd",
        "snr_ecdf_with_ris_R2_rho40_rd50.csv":
            "c298de01b5342be175f55e571a9014482809728082fa7fabd1df49f66e41c3b5",
        "snr_ecdf_with_ris_R2_rho40_rd50.json":
            "120d7119dc6cf4cda8d80b103c0f42205b3a5259132aa526f376c2a67958b08e",
        "snr_ecdf_with_ris_R8_rho10_rd100.csv":
            "37fec414b094dc30d06cc2f83dcaa5a0f68ac04b76fc6f2205d74f4da44841e7",
        "snr_ecdf_with_ris_R8_rho10_rd100.json":
            "718c164f466cc752d3b200e3906ba49d2d617bef30a6ac216016eb327095429f",
        "snr_ecdf_with_ris_R8_rho10_rd50.csv":
            "e82049884c089b0d3e39b5918a568431f529c260518e83b33cbda12e18d0f169",
        "snr_ecdf_with_ris_R8_rho10_rd50.json":
            "074535ec316325071cd88731a53bff4238b26653d4c040557385c1087179a136",
        "snr_ecdf_with_ris_R8_rho40_rd100.csv":
            "d1e03274749e4c7bfa440459be64bfbb10dc027a5cd2f4870a071b090d8f23d1",
        "snr_ecdf_with_ris_R8_rho40_rd100.json":
            "cf180c7236a6036f72c1b4572d026ef966852e7c57835fa39a71bd227107e90e",
        "snr_ecdf_with_ris_R8_rho40_rd50.csv":
            "d79a4a6c97b6973d9bbe01fb299b11923f71b59cf9814880e3cb253c85164704",
        "snr_ecdf_with_ris_R8_rho40_rd50.json":
            "6113d0340f2748e136be970a7bbd68e8a1d74c2955bcf0e33b25debcd90c84c9",
        "snr_summary.csv":
            "f0beff5ff3e384675e859eb868b59d43aa0ed31a6f21297b6c08b7c1af210011",
        "snr_summary.json":
            "df8dd72bd6338459fbf73071dd9855d58270e96de2d8009a7be8793d95482afd",
    },
    "angle-pdf": {
        "angle_pdf.csv":
            "cd2c81016decc3b67e8f4633bf0d2263e1c2f4e19a57d286ccea4b59626d145d",
        "angle_pdf.json":
            "7d4b6c3d6bcb2d518eb6161faf1ce97590a0b6db279643fc328119325caaa2f0",
    },
    "scenario-dump": {
        "scenario.csv":
            "610f1a6254bdc84f53d19b20b2cbc4614219842745656c48d1d302e418e0f3e1",
        "scenario.json":
            "8b9d73f842327cf87c16102a988e62039998adaeba1fa8d5cc22cb8e4fb33918",
    },
    "gain-elevation": {
        "gain_elevation.csv":
            "d715f4ea7275fd42f71f5fb26a51d1fee96c00ed38e457ce7f5888883b367d81",
        "gain_elevation.json":
            "da818fe41aaa0d4177082bd0feba0e56f367ffe355ca892264baddd4ce2ce791",
    },
    "gain-azimuth": {
        "gain_azimuth.csv":
            "b36955a0073ffcb55070af9393b371696813e7d772db35b8f4627325440124c7",
        "gain_azimuth.json":
            "f5a4df51183d8ad6908e76fa7ec5b6ea7a056367c6f1d34fab8715254b8bdbcf",
    },
    "gain-frequency": {
        "gain_frequency.csv":
            "5badbc9586a230662b981c646f13aa3742fa8d7e4de3672549cfc072acd4176c",
        "gain_frequency.json":
            "36421a83320be4cd4703e47a07913e30a58e027a8bc64db84211c14db5e232d1",
    },
    "geometry-dump": {
        "geometry.csv":
            "40e9814eac068e8c8deef21d381c7622f7385062195b23240d1d41b527f4c244",
        "geometry.json":
            "ad586d144fc5643240640686303a6f16e637641766c5a2ce7e46aab9898b5c9f",
    },
    "phase-dump": {
        "phase_profile.csv":
            "44d06ab435e4aec8d6f8666e26c3f2f34734529705f14d0d14bdd251651b6848",
        "phase_profile.json":
            "324f38ba64570be34b6b3e605b5919f166d59441936afd4191e882df9dd8bfd1",
    },
}


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every CSV under ``out`` and of every sidecar without its
    provenance, by file name."""
    digests = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            data = path.read_bytes()
        else:
            payload = json.loads(path.read_text())
            del payload["provenance"]
            data = json.dumps(payload, indent=2, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests recorded on numpy {RECORDED_NUMPY}, running numpy {np.__version__}",
)
@pytest.mark.parametrize("run", RUNS)
def test_seeded_run_writes_its_recorded_outputs(run, tmp_path, monkeypatch, capsys):
    for name in os.environ:
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)
    assert main([*RUNS[run], "--out-dir", str(tmp_path)]) == 0
    assert output_digests(tmp_path) == DIGESTS[run]
