"""Every CLI subcommand's output, byte for byte.

Each command runs in-process through ``cli_main``.  Its exit code and the
sha256 (to 16 hex digits) of its stdout, its stderr and the CSV file it
writes are compared with digests recorded before the coherence kernels were
merged, so a refactor that moves any printed or written digit fails here.
The malformed files' pins, exit code 2 and the error message on stderr,
were recorded while ``PureState`` still summed its squared norm with
``np.vdot``, before it shared ``validate_rows`` with ``suite_stack``.
"""

import hashlib
import json

import numpy as np
import pytest

from cohtrade import sample_ginibre_mixed, sample_haar_pure, write_state_file
from cohtrade.cli import cli_main

#: The dims of the generated state files, one pure and one density file each.
FILE_DIMS = {"q3": (2, 2, 2), "q4": (2, 2, 2, 2), "q5": (2, 2, 2, 2, 2), "t3": (3, 3, 3)}

#: Three-qubit files that are not states: (kind, amplitudes or matrix) per tag.
_HAAR = sample_haar_pure((2, 2, 2), 100).amps
MALFORMED = {
    "triple": ("pure", 3 * _HAAR),
    "nan": ("pure", np.where(np.arange(8) == 3, np.nan, _HAAR)),
    "zero": ("pure", np.zeros(8)),
    "negative": ("density", np.diag([1.25, -0.25, 0, 0, 0, 0, 0, 0])),
    "skew": ("density", np.eye(8) / 8 + np.eye(8, k=1) * 0.1),
}

#: Each command's argv; ``{dir}`` is the directory of the state and CSV files.
COMMANDS = {
    **{
        f"verify-{kind}-{tag}": ["verify", f"{{dir}}/{kind}-{tag}.json", "--csv", "{dir}/out.csv"]
        for tag in FILE_DIMS
        for kind in ("pure", "density")
    },
    **{
        f"sweep-{family}": ["sweep", family, "--points", "24", "--csv", "{dir}/out.csv"]
        for family in ("ghz", "w", "two-term")
    },
    # 1600 points: more than one stacked chunk of 1024 states
    "sweep-w-40": ["sweep", "w", "--points", "40", "--csv", "{dir}/out.csv"],
    "sample-q3-pure": ["sample", "--dims", "2,2,2", "--trials", "200", "--csv", "{dir}/out.csv"],
    "sample-q3-mixed": [
        "sample", "--dims", "2,2,2", "--trials", "200", "--seed", "7", "--mixed",
        "--csv", "{dir}/out.csv",
    ],
    "sample-q5-pure": [
        "sample", "--dims", "2,2,2,2,2", "--trials", "40", "--csv", "{dir}/out.csv",
    ],
    "sample-q5-mixed": [
        "sample", "--dims", "2,2,2,2,2", "--trials", "12", "--mixed", "--csv", "{dir}/out.csv",
    ],
    # two stacked chunks of 113 and of 16 states
    "sample-qudit-mixed": [
        "sample", "--dims", "2,3,4", "--trials", "120", "--seed", "2", "--mixed", "--rank", "5",
        "--csv", "{dir}/out.csv",
    ],
    "sample-q6-mixed": [
        "sample", "--dims", "2,2,2,2,2,2", "--trials", "20", "--mixed", "--csv", "{dir}/out.csv",
    ],
    "search-thm1": ["search", "--objective", "thm1", "--restarts", "2"],
    "search-thm3": ["search", "--objective", "thm3", "--restarts", "2", "--seed", "3"],
    "oracle": ["oracle", "--trials", "16"],
    # three stacked chunks of 1024 states, the last one partial
    "oracle-2100": ["oracle", "--trials", "2100", "--seed", "3"],
    # the malformed files of ``MALFORMED``: exit code 2 and the message on stderr
    **{f"verify-bad-{tag}": ["verify", f"{{dir}}/bad-{tag}.json"] for tag in MALFORMED},
}

#: (exit code, stdout, stderr, CSV or None), each a sha256 to 16 hex digits.
DIGESTS = {
    "oracle": (0, "0fe71a8ac90df95f", "e3b0c44298fc1c14", None),
    "oracle-2100": (0, "72fb3315cad7b685", "e3b0c44298fc1c14", None),
    "sample-q3-mixed": (0, "983d9c416550e16f", "e3b0c44298fc1c14", "edb3cffdea518186"),
    "sample-q3-pure": (0, "faae1c502209adc6", "e3b0c44298fc1c14", "5fa23bcd274855f4"),
    "sample-q5-mixed": (0, "f99c457dd6dc6566", "e3b0c44298fc1c14", "e1f074e3c97b7d72"),
    "sample-q5-pure": (0, "fd0f700a38d7158d", "e3b0c44298fc1c14", "c9c199658df9cb8d"),
    "sample-q6-mixed": (0, "736b4476f043f354", "e3b0c44298fc1c14", "b163de84dce1d918"),
    "sample-qudit-mixed": (0, "4dab8dcf48ca6857", "e3b0c44298fc1c14", "ea51539b2167076d"),
    "search-thm1": (0, "e0dc587a60e5331a", "e3b0c44298fc1c14", None),
    "search-thm3": (0, "ade24530399e8105", "e3b0c44298fc1c14", None),
    "sweep-ghz": (0, "9870a60b09366ad3", "e3b0c44298fc1c14", "0e52a972f7c26ac9"),
    "sweep-two-term": (0, "7ff84834f356a91e", "e3b0c44298fc1c14", "1734c7a357653b4c"),
    "sweep-w": (0, "338bee7e65e721e2", "e3b0c44298fc1c14", "6961d0106618b61f"),
    "sweep-w-40": (0, "09de6570b2eed8ba", "e3b0c44298fc1c14", "e7e01a6f96ec3b83"),
    "verify-bad-nan": (2, "e3b0c44298fc1c14", "a62c721bf122cd4b", None),
    "verify-bad-negative": (2, "e3b0c44298fc1c14", "436b0c5d158dae67", None),
    "verify-bad-skew": (2, "e3b0c44298fc1c14", "69ff0a2e5cb4e62f", None),
    "verify-bad-triple": (2, "e3b0c44298fc1c14", "a727ae646b5d967b", None),
    "verify-bad-zero": (2, "e3b0c44298fc1c14", "03e29bc8eff0e0e9", None),
    "verify-density-q3": (0, "d147559b89141050", "e3b0c44298fc1c14", "9aead7f7cdf32eeb"),
    "verify-density-q4": (0, "ebf74cf4d2e6b961", "e3b0c44298fc1c14", "e6fab6ce9e923d2c"),
    "verify-density-q5": (0, "31680a1bbde7613f", "e3b0c44298fc1c14", "5e01bd7bf005662f"),
    "verify-density-t3": (0, "a6019aa25a933c39", "e3b0c44298fc1c14", "3016bf8d98b7bdc8"),
    "verify-pure-q3": (0, "f013cac9fbff10f6", "e3b0c44298fc1c14", "30ddfa2c55cd945c"),
    "verify-pure-q4": (0, "3b886926c7b96008", "e3b0c44298fc1c14", "66632297827c5933"),
    "verify-pure-q5": (0, "3db0719099c3e21d", "e3b0c44298fc1c14", "c75b10180ad71b5f"),
    "verify-pure-t3": (0, "39c8fe5038c625d3", "e3b0c44298fc1c14", "6c208c3291067896"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("states")
    for k, (tag, dims) in enumerate(FILE_DIMS.items()):
        write_state_file(directory / f"pure-{tag}.json", sample_haar_pure(dims, 100 + k))
        rank = 3 if tag == "q5" else None
        rho = sample_ginibre_mixed(dims, rank or 2 * len(dims), 200 + k)
        write_state_file(directory / f"density-{tag}.json", rho)
    for tag, (kind, values) in MALFORMED.items():
        data = [[z.real, z.imag] for z in np.asarray(values, dtype=complex).ravel().tolist()]
        payload = {"dims": [2, 2, 2], "kind": kind, "data": data}
        (directory / f"bad-{tag}.json").write_text(json.dumps(payload))
    return directory


def run_command(argv, directory, capsysbinary):
    csv = directory / "out.csv"
    csv.unlink(missing_ok=True)
    rc = cli_main([arg.format(dir=directory) for arg in argv])
    captured = capsysbinary.readouterr()
    written = _sha(csv.read_bytes()) if csv.exists() else None
    return rc, _sha(captured.out), _sha(captured.err), written


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, state_dir, capsysbinary):
    assert run_command(COMMANDS[name], state_dir, capsysbinary) == DIGESTS[name]
