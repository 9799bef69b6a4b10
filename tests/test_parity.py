"""Byte parity of the CLI's output: the SHA-256 of the trace file and of
stdout, with the exit code, for fixed runs of `adversary` and `simulate`.

Two digests pin each trace.  The format 1 digest is of the trace read back
and rendered as format 1 (`helpers.dumps_trace_v1`); these were recorded
from the engine before slot-tuple sharing moved into `core.tabulate_keys`,
when format 1 was what `write_trace` wrote, so they pin the content and
fail only if the content changes.  The format 2 digest is of the bytes
written, recorded when format 2 became the written format.  A change that
is meant to keep trace output byte-identical must keep every one of them; a
change that alters the trace format on purpose re-records the written
format's digests and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from lcmsim.cli import main
from lcmsim.execution import read_trace, read_trace_file

from helpers import dumps_trace_v1

# (robogram, n) -> (exit code, trace file digest, format 1 digest, stdout digest) at horizon 30
ADVERSARY = {
    ("broken-id-leak", 1): (1, "bdab4bb411ca7b1a38c5c148d854a1db9b35d044c91cc4e0b92003d47bd6d695", "c084b624161a1c78aaed6472112c62bc04f08c667e11a2ba98aeaeb06ac8de83", "e14e037e6fe497dc721a2527096c0f6f4c15077c8924fb4f2e5632981f1255c5"),
    ("broken-id-leak", 3): (1, "5b0b2899021dd302aa120e724badd2b89f288e40f3bfcf71e2b2c99af4c523e0", "b3890ed78c35029da2d9263eedfa484e5f04d685a44a6b64986fdd9972ec86a2", "6e1c0e2123fcce513d083ffce2e8100111c3495953cc23f6903b7721b611fe3f"),
    ("center-of-mass", 1): (0, "31e052a360e29557f70faa88486b63f303149fff651d0dbf920e7982c294966a", "bc6c70d0d9d4c4d7a0ac21709c86b6a96d4e20e02805850f2c39aadb9ef0c086", "dbed718d9782dfbf908fa673d895f16b60fd4de366bd7d77cc92350ac744165b"),
    ("center-of-mass", 3): (0, "c968ef4b1998463741ab0b7037e8820af1f1989e936d4e79dd6d90814f9c6f38", "2df21ad6774b41853eebc62d3d39e01f2813ea4ce7e76afa608e012a9c5e569c", "d1033300329506ebfa128d1346d3d2f4cc44dc79df62f4c4a53362dc226814ef"),
    ("convex:-1/2", 1): (0, "7383252997b32686b9fb4e8eeb3d3273b507f39d8da6c235e0e21a72f3bc14d4", "875004d3d6234d24dfeac36cde1ff2b5ee0ae97ad9c6e4adcef1ad724377296d", "a6fd152f520d80f9196f05f66a24bc410afa5f15a80082b92a2726e3f547c311"),
    ("convex:-1/2", 3): (0, "36e385947d7451fc2b60aab6b35f35e929bb146bb6927005d887ea61f483d324", "19d4dc54fd622694fc7a847cf01a581aa89e8a657a5bc22641cb246d6fa60fcd", "68cc7b46eadc58b80a8ad6737a998ef5c82c7917f4b917c587c86e774672acbb"),
    ("convex:1/3", 1): (0, "009236dda623b0f9a26c3b8aca1071e13478c88469d66dcc94a514fe937b47cc", "16c070b70c072c6f08e5eccd56f4801077da655bdd2d58c484f8226c86738b31", "08aec3ed37b0e97967695dcc93376d42e70bdc1a3e9d494fb6e67cb383cc6332"),
    ("convex:1/3", 3): (0, "0003df9b7d72c36b9a83670d4d0d5117b60aa65a5b876a626dc4d717b6c974a4", "03b2f340b2e76e3c8547f45cf878b839d56f24c946cfaa098463fc582f13be83", "e428822e0bfa5611974b4f18d80cf1a3596a745ebd58707a84ae627ce3ef0c9b"),
    ("convex:2/1", 1): (0, "84ce7e3bb198e00f401279e69e8900d7e0f235ff925d3337e635502c16331352", "f48b230ccf4be286853adc362474f6190723861e92307a626c9c9870e2b93670", "6f0853b15898a526a27a20e148b6abb4c87497331ca8a48760cdab526b6323e8"),
    ("convex:2/1", 3): (0, "c2a3262636f20b0ebebefc4383f13cc91cbe6ba8923793ee3547de74b7739333", "2dc4d775374f7685a511b04773f84f7a615017a96ffc84019eb5f877e8d035df", "4aa7bc13410475eefa956e8317b0eccd4fe63a87a074392aa65912c3c682740f"),
    ("stay", 1): (0, "17704f403e7b4242313c0523252c64128f6225e23703259842a7cf02c2a96ce1", "ba7ece1af27578a9f99c05cf31e66c043612484b35debb23bf3f962c4e073982", "e385a8f74d73ce2450c762605f42a1b4f63a5aa81201fdc6da358357de95ef20"),
    ("stay", 3): (0, "010ceae46153e103b4acf188c0d0d56f7b9bff62bb3c0686ba86d0ef267b8e00", "baf201949717659d341672147f60b5fee0a3dc211ff0a72bc24dadb33d0aaeeb", "4a7dd5310a105746562f65ee5e076c6c099c966e889c96fd0daeb5d1ea9b5a80"),
    ("to-max", 1): (0, "c25ca8ed45eba1d3320114d53253fe94b28401d084ff0752443cb25bbfa42bfa", "6cb66f7bedae2a5a2a37d76ce54fcb3d9ebaa89af54fd1467111bdfadae7e942", "ffde83129044ef8c6f0e6987f272261405037a085e096e89192592360e9e72e4"),
    ("to-max", 3): (0, "7269ec26d4bcd52ee1d6d87ae865094a7fc6588760c06c364d396f2699b34dbf", "69409f98faf8b136253ac94df076ab4c25881a38f84514739bc5c75163cd3696", "85640cf2c65f7b475454758304879e6ccd9bced3ccf2aa94619deb732dcbc756"),
    ("to-min", 1): (0, "87a127f20e3ac4726375249a3f126a7431699bc78bc9c81e45983804aeaf889a", "75ce1a165e208d41adc20bdb5ddf8a387099b8ad89288a8f33d1bc1ba8d99153", "756150180fcb50891175aa3e97960f7b7cdd4afefc86a5d5e1434affe6f99873"),
    ("to-min", 3): (0, "35710f853488cb4743f650cc2d5be36fbcf0a4b15444e981faefc04d1f2a65aa", "dd88466448e705e01f40cb1283a5eb12303cfd59e8f2cf368a01e9d424906bfd", "038944cfac79b60d65e51bd63bb229dba406b577e2cc2a7dbbd57e430dff7d1a"),
    ("to-other-occupied", 1): (0, "fff4c087dd1b1100222b805763f9ad41e6e87338400bfd75bb5d4d9453190c28", "1cbe2e160791e59d09671a6e3f5f7d1544160698bfa5bf357f7cc375eb3919e0", "c33d82d8af3acecf4fe46c2d5c1c46c512638f8c64a336c190a93f5a580cf75f"),
    ("to-other-occupied", 3): (0, "d7771d4d502837450a4dac10126056b13a98f89714ec9da5086bac668b9832b1", "e335dc4cb15ceb4b9f69e8e9999d57a73775794a67d85a7c2e6599b6cc7f2078", "63d55cc9543286ee4825ea60f75584ef116d2449683ddc848b2ed1e49c1dc645"),
}

# demon -> (exit code, stdout digest, format 1 digest of the stdout trace) of
# `simulate --robogram convex:1/3 --n 3 --horizon 30`
SIMULATE = {
    "fsync": (0, "ac37ff143bd0261d962a093599ce5686714ae8bb5634d93453a392f3ef435cc9", "7393bde90ef0de1e9b1ae8042a3a8f7ad7fa1819bb40373b5b2bc4a85dc79c5d"),
    "random-kfair:1:7": (0, "bdf192ec2153f352a7f4eda63a11e689e5f2f1d59356766c2fb492a76f7d4965", "b1d21bc0219fae6414f1b35721514bb7a3b649a8bc4dd45ee10fd75a33e96db2"),
    # k = 2 and 3 force robots into rounds (6 and 2 forced activations),
    # so these pin the k-fairness rule beyond k = 1
    "random-kfair:2:7": (0, "bab2afe80d8a383cf0e39daec0824348f0514f0aa57678bbf61aa35deeb94810", "2f10901fc667542750c099e9b46b5b3715cad75626d1d686a260006eb0508eb6"),
    "random-kfair:3:7": (0, "97f0b865434e7d258c4bbcf461a15c1cc057a0c3b5374fb46e4adc58b3e30ef9", "bdb8b853ec6f811c5872b51f38817358db408f027e23649fafd1bc74870a7d4e"),
    "round-robin:1/2": (0, "20756260032647f84933c654bf94707130f787cc504daf88df333cafedc2b71a", "b10f012c8de132b72ac02e3b19b59f739e6895dc90869ee9b1441deeac381be8"),
}


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize(("robogram", "n"), sorted(ADVERSARY))
def test_adversary_trace_and_report_bytes_are_pinned(robogram, n, tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    code = main(["adversary", "--robogram", robogram, "--n", str(n), "--horizon", "30",
                 "--out", str(path)])
    out = capsys.readouterr().out
    v1 = dumps_trace_v1(read_trace_file(str(path)))
    digests = (_sha256(path.read_bytes()), _sha256(v1), _sha256(out))
    assert (code, *digests) == ADVERSARY[robogram, n]


@pytest.mark.parametrize("demon", sorted(SIMULATE))
def test_simulate_trace_bytes_are_pinned(demon, capsys):
    code = main(["simulate", "--robogram", "convex:1/3", "--demon", demon, "--n", "3",
                 "--horizon", "30"])
    out = capsys.readouterr().out
    v1 = dumps_trace_v1(read_trace(out.splitlines()))
    assert (code, _sha256(out), _sha256(v1)) == SIMULATE[demon]
