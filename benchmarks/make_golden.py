"""Write the benchmark's golden files from the package as it is now.

    python3 benchmarks/make_golden.py

golden/census.json holds each oracle space's group order and its
nilpotent orbits (size, stabilizer order, label, representative values).
golden/cli.json holds, per cli command, the exit code, the number of
stderr lines and the SHA-256 of stdout (verify's per-check seconds
masked).  The malformed-input commands are not recorded: their entries
are the documented contract, exit 2 with one stderr line and no stdout.

Run it only when an output change is intended; the goldens exist so that
a change meant to keep outputs byte-identical can prove it.  Every cli
output is recorded under two seeds and must agree, since the seed only
moves the classify inputs within their orbits.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def census_golden() -> dict:
    from char2orbits import oracle as orc
    from char2orbits.classical import space_for
    out = {}
    for kind, n, e in wl.CENSUS_SPACES:
        space = space_for(kind, n, e)
        group = orc.enumerate_group(space)
        reports = orc.all_nilpotent_orbits(space, group,
                                           classify=kind != "so-even")
        out[wl.space_name(kind, n, e)] = {
            "group_order": group.order,
            "orbits": [[r.orbit_size, r.stabilizer_order,
                        wl.label_text(r.label)] for r in reports],
            "values": [[int(v) for v in space.pairing_vector(r.representative)]
                       for r in reports]}
    return out


def cli_golden(seed: int) -> dict:
    work = wl.WORK / f"golden{seed}"
    wl.write_cli_inputs(seed, work)
    out = {}
    for cmd in wl.cli_commands(work):
        if cmd.malformed:
            out[cmd.name] = {"exit": 2, "stderr_lines": 1,
                             "stdout_sha256": hashlib.sha256(b"").hexdigest(),
                             "stdout_bytes": 0}
            continue
        code, stdout, stderr = wl.run_subprocess(cmd.argv)
        stdout = wl.normalized_stdout(cmd.argv, stdout)
        out[cmd.name] = {"exit": code,
                         "stderr_lines": len(stderr.decode().splitlines()),
                         "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
                         "stdout_bytes": len(stdout)}
    return out


def main() -> int:
    wl.GOLDEN.mkdir(exist_ok=True)
    census = census_golden()
    (wl.GOLDEN / "census.json").write_text(json.dumps(census, indent=1) + "\n")
    first, second = cli_golden(1), cli_golden(2)
    if first != second:
        diff = sorted(k for k in first if first[k] != second[k])
        print(f"cli outputs depend on the seed: {diff}", file=sys.stderr)
        return 1
    (wl.GOLDEN / "cli.json").write_text(json.dumps(first, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
