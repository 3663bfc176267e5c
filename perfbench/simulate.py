"""Library step of the mc-dbcd-n50 workload: simulate DBCD trials with
``rarexact.simulate_terminals`` and save their terminal states.

Usage: python perfbench/simulate.py CONFIG OUT

CONFIG is a JSON object with ``n``, ``burn_in``, ``theta``, ``sims`` and
``seed``; OUT receives one ``.npy`` array with rows ``s_c``, ``s_d`` and
``n_c``.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from rarexact import DbcdNeyman, simulate_terminals


def main(argv: list[str]) -> int:
    config_path, out = argv
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    policy = DbcdNeyman(int(cfg["n"]), int(cfg["burn_in"]))
    terminals = simulate_terminals(policy, tuple(cfg["theta"]), int(cfg["sims"]), int(cfg["seed"]))
    np.save(out, np.stack(terminals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
