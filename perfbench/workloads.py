"""Benchmark inputs: the committed three-plant fixture and a seeded MIMO family.

Run as a script it is the benchmark's set-up step: it imports ``rssd`` from
the checkout, writes one workload's inputs through ``rssd.fileio`` (so the
CLI parses them exactly like user files) and checks their shape.

    python3 perfbench/workloads.py --workload mimo_outer --seed 1 --out DIR

The MIMO family follows one fixed recipe (random stream ``FAMILY_SEED``):
state matrix ``T diag(p) T'`` with a random orthogonal ``T`` and
``p = (+1, +0.5, -U(0.5, 4)...)``, each member scaling every pole by
``1 + 0.1 U(-1, 1)``, shared ``B ~ N(0, 1)``, ``C = 5 N(0, 1)`` and ``D = 0``.
The workload seed picks the order in which the members are written.  The
files differ from seed to seed while the family, and so the search path and
its work, stay the same: the two-level search is a lottery over the family
(one seed finds a controller at once, the next exhausts its budget), so a
seed that changed the family would make timings incomparable across seeds.
The GA seed in the config is fixed for the same reason.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_FILES = {
    "plants.json": "three_plant_family.json",
    "config.json": "three_plant_config.json",
    "scenario.json": "doublet_scenario.json",
}
FAMILY_SEED = 3
GA_SEED = 3
STATES, INPUTS, OUTPUTS = 8, 3, 5

# Per MIMO workload: family size and GA budgets (population x generations).
# mimo_outer spends its time in the outer search (J1 = central-plant nu-gap)
# on a larger family; mimo_inner in the deeper inner search (J2 = L-inf norm)
# on a smaller one.  Both budgets end without a certificate, so every pass
# runs the whole budget.
MIMO = {
    "mimo_outer": {"members": 5, "outer": (4, 3), "inner": (6, 3)},
    "mimo_inner": {"members": 4, "outer": (4, 1), "inner": (10, 20)},
}
WORKLOADS = ("fixture3",) + tuple(MIMO)


def import_rssd():
    """Import ``rssd`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "rssd" / "__init__.py").is_file():
        raise SystemExit(f"error: no rssd package under {src}")
    sys.path.insert(0, str(src))
    import rssd

    if Path(rssd.__file__).resolve().parent != (src / "rssd").resolve():
        raise SystemExit(f"error: rssd imported from {rssd.__file__}, not {src}")
    return rssd


def mimo_family(seed: int, members: int):
    """PlantSet of the 3-input x 5-output family, in a seeded member order."""
    import numpy as np
    from rssd.lti import PlantSet, StateSpacePlant

    rng = np.random.default_rng(FAMILY_SEED)
    T, _ = np.linalg.qr(rng.normal(size=(STATES, STATES)))
    poles = np.concatenate([[1.0, 0.5], -rng.uniform(0.5, 4.0, STATES - 2)])
    B = rng.normal(size=(STATES, INPUTS))
    C = 5.0 * rng.normal(size=(OUTPUTS, STATES))
    scales = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(members, STATES))
    order = np.random.default_rng(seed).permutation(members)
    return PlantSet(tuple(
        StateSpacePlant(T @ np.diag(poles * scales[k]) @ T.T, B, C,
                        np.zeros((OUTPUTS, INPUTS)), f"member{k}")
        for k in order
    ))


def mimo_config(workload: str) -> dict:
    spec = MIMO[workload]
    static_gain = [[0.0, 0.0], [0.1, 1.5], [0.0, 0.0], [1.0, 1.0]]  # a, b, c, d
    return {
        "seed": GA_SEED,
        "constraints": {
            "in_boxes": static_gain * INPUTS,
            "out_boxes": static_gain * OUTPUTS,
            "dc_floor_db": -60.0,
            "band": [0.01, 0.02],
        },
        "target": {
            "zeta_min": 0.3,
            "modes": [{"kind": "real", "wn_lo": 0.5, "wn_hi": 10.0}]
                     + [{"kind": "complex", "wn_lo": 0.5, "wn_hi": 10.0}] * 2,
        },
        "ga_scp": dict(zip(("population", "max_generations"), spec["outer"])),
        "ga_rssd": dict(zip(("population", "max_generations"), spec["inner"])),
    }


def check_mimo_shape(pset, members: int):
    """The family has the recipe's shape; raises ValueError otherwise."""
    import numpy as np

    if len(pset) != members:
        raise ValueError(f"expected {members} members, got {len(pset)}")
    for p in pset:
        if (p.n, p.m, p.r) != (STATES, INPUTS, OUTPUTS):
            raise ValueError(f"{p.label}: dims {(p.n, p.m, p.r)}")
        eig = np.linalg.eigvals(p.A)
        if np.any(np.abs(eig.real) <= 1e-6 * np.maximum(1.0, np.abs(eig))):
            raise ValueError(f"{p.label}: imaginary-axis pole")
        if int(np.count_nonzero(eig.real > 0)) != 2:
            raise ValueError(f"{p.label}: expected 2 RHP poles")


def write_inputs(workload: str, seed: int, out: Path):
    """Write plants.json, config.json (and scenario.json) into ``out``."""
    from rssd import fileio

    out.mkdir(parents=True, exist_ok=True)
    if workload == "fixture3":
        for name, source in FIXTURE_FILES.items():
            shutil.copyfile(ROOT / "configs" / source, out / name)
        pset = fileio.load_plantset(out / "plants.json")
        if len(pset) != 3 or (pset.m, pset.r) != (1, 1):
            raise ValueError("fixture3 must be three SISO plants")
        return
    members = MIMO[workload]["members"]
    fileio.save_plantset(mimo_family(seed, members), out / "plants.json")
    config = mimo_config(workload)
    fileio.config_from_obj(config)  # same validation the CLI applies
    (out / "config.json").write_text(fileio.canonical_json(config))
    check_mimo_shape(fileio.load_plantset(out / "plants.json"), members)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import_rssd()
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
