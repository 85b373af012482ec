"""Write the reports and library values a bit-identical change must keep.

Usage: python3 tools/report_matrix.py OUTDIR

Each entry runs as its own Python process on this checkout's ``src/``, with
PYTHONDONTWRITEBYTECODE=1 so that no bytecode lands in the tree and a later
benchmark run of the checkout compiles it as a fresh one does.  An entry
NAME leaves OUTDIR/NAME.out, NAME.err and NAME.code: its stdout, its stderr
and its exit code.  Two checkouts give the same numbers when

    python3 A/tools/report_matrix.py OUT_A
    python3 B/tools/report_matrix.py OUT_B
    diff -r OUT_A OUT_B

prints nothing.  The entries:
  - simulate: the acceptance suite's mean and variance matrices (2000
    trials, seeds 101 and 202) and the benchmark's 100-trial runs at seed
    1611, for every direction of DIRECTIONS (the benchmark's two only);
  - refine: 32-trial simulate runs at REFINE_MS for each of
    REFINE_DIRECTIONS, where refinement evaluates tens of sub-grid points
    per trial (about 36 at m = 100001, irr:std), against a few at
    m = 1009;
  - wave, verify, shell and riesz reports;
  - bounds at BOUNDS_MS in each direction's own mode and the conditional
    one, as csv and as json;
  - library: float.hex of q_sum and r2_terms at each of LENGTHS,
    pair_sums (three splits) and riesz_energy (sigma 1 and 1/2) at
    LIBRARY_MS, one line per value;
  - roots: float.hex of count_zeros' roots and its flags for 20 samples at
    each of ROOT_MS and DIRECTIONS (240 lines), then at each segment of
    ROOT_FAR for BENCH_DIRECTIONS (80 lines, which also print the length);
  - regions: the cone_region and slab_region around a few fixed points of
    each shell of REGION_MS, their parameters as float.hex and their
    count_in, and approx_direction of APPROX_DIRECTIONS at APPROX_HS;
  - kappas: m, N and kappa of every shell with N >= 4 and m <= KAPPA_M_MAX,
    and of KAPPA_MS.
The whole set takes about 22 s (2-core x86 host, Python 3.11, numpy 2.4).
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIRECTIONS = ("rat:1,0,0", "irr:std", "rat:1,1,1", "halfrat:1,1,sqrt2")
BENCH_DIRECTIONS = ("rat:1,0,0", "irr:std")
REFINE_MS = "10009,100001"
REFINE_DIRECTIONS = ("irr:std", "rat:1,1,1", "halfrat:1,1,sqrt2")
BOUNDS_MS = "1,2,3,5,6,9,21,50,101,1009"
LIBRARY_MS = (101, 1009, 10001)
ROOT_MS = (5, 101, 1009)
ROOT_SEEDS = range(20)
# (m, L) of a long segment and of a grid of many chunks: base-grid anchors
# far from t = 0
ROOT_FAR = ((1009, 30.0), (10009, 1.0))
# L = 1e-3 reaches r2_terms' deficit series on every pair, L = 7.3 the sine
# numerators of most
LENGTHS = (1.0, 1e-3, 7.3)
REGION_MS = (5, 101, 1009)
# the c of cone_region (in (0, 1)) and of slab_region (any c > 0; 100 holds
# the whole sphere of every shell of REGION_MS)
CONE_CS = (0.05, 0.3, 0.9)
SLAB_CS = (0.5, 3.0, 100.0)
APPROX_DIRECTIONS = ("irr:std", "halfrat:1,1,sqrt2")
APPROX_HS = (3, 10, 50)
KAPPA_M_MAX = 3000
KAPPA_MS = (10001, 100001)


def _slug(spec: str) -> str:
    return spec.replace(":", "_").replace(",", "-")


def reports() -> dict[str, list[str]]:
    """nodal-lab arguments of every report, by entry name."""
    runs = {}
    for spec in DIRECTIONS:
        d = _slug(spec)
        runs[f"simulate_mean_{d}"] = ["simulate", "--m", "1,2,3,5,6", "--dir", spec,
                                      "--trials", "2000", "--seed", "101"]
        runs[f"simulate_var_{d}"] = ["simulate", "--m", "5,21,101,506,1009", "--dir", spec,
                                     "--trials", "2000", "--seed", "202"]
        for mode in ("own", "conditional"):
            for fmt in ("csv", "json"):
                argv = ["bounds", "--m", BOUNDS_MS, "--dir", spec, "--format", fmt]
                runs[f"bounds_{d}_{mode}_{fmt}"] = argv + (
                    ["--mode", mode] if mode != "own" else [])
    for spec in BENCH_DIRECTIONS:
        runs[f"simulate_bench_{_slug(spec)}"] = ["simulate", "--m", "101,1009", "--dir", spec,
                                                 "--trials", "100", "--seed", "1611"]
    for spec in REFINE_DIRECTIONS:
        runs[f"refine_{_slug(spec)}"] = ["simulate", "--m", REFINE_MS, "--dir", spec,
                                         "--trials", "32"]
    runs["wave"] = ["wave", "--m", "1,5,101,1009,10009", "--seed", "3"]
    runs["verify"] = ["verify"]
    runs["shell"] = ["shell", "--m", BOUNDS_MS]
    runs["riesz"] = ["riesz", "--m", "5,21,101,10001"]
    return runs


def library() -> None:
    """Print float.hex of the pair sums and energies at LIBRARY_MS."""
    from nodal_lab.arithmetic import pair_sums, q_sum, r2_terms, riesz_energy
    from nodal_lab.cli import parse_direction
    from nodal_lab.lattice import enumerate_shell, project_shell
    from nodal_lab.randomwave import LineSegment

    for m in LIBRARY_MS:
        shell = enumerate_shell(m)
        for sigma in (1.0, 0.5):
            print(m, "riesz", sigma, float.hex(riesz_energy(project_shell(shell), sigma).energy))
        for spec in DIRECTIONS:
            direction = parse_direction(spec)
            for length in LENGTHS:
                line = LineSegment(direction, length)
                print(m, spec, length, "q_sum", float.hex(q_sum(shell, line)))
                terms = r2_terms(shell, line)
                print(m, spec, length, "r2_terms", *(float.hex(getattr(terms, f))
                                                     for f in ("rr", "r1r1", "r12r12")))
            root_m = math.sqrt(m)
            for rho, mode in ((0.0, "absolute"), (root_m ** (-6 / 7), "relative"),
                              (root_m ** (3 / 8), "absolute")):
                sums = pair_sums(shell, direction, rho, mode)
                tail = sums.inv_dist_sq_sum
                print(m, spec, "pair_sums", float.hex(rho), mode, sums.s_zero, sums.s_small,
                      float.hex(sums.inv_sq_sum), tail if tail is None else float.hex(tail))


def roots() -> None:
    """Print count_zeros' flags and roots, as float.hex, sample by sample."""
    from nodal_lab.cli import parse_direction
    from nodal_lab.lattice import enumerate_shell
    from nodal_lab.nodal import count_zeros
    from nodal_lab.randomwave import LineSegment, sample_wave

    runs = [(m, spec, 1.0, ()) for m in ROOT_MS for spec in DIRECTIONS]
    runs += [(m, spec, length, (length,)) for m, length in ROOT_FAR for spec in BENCH_DIRECTIONS]
    for m, spec, length, shown in runs:
        shell = enumerate_shell(m)
        line = LineSegment(parse_direction(spec), length)
        for seed in ROOT_SEEDS:
            zeros = count_zeros(sample_wave(shell, seed), line)
            print(m, spec, *shown, seed, zeros.count, int(zeros.flags.refinement_depth_hit),
                  int(zeros.flags.near_tangency), *map(float.hex, zeros.roots.tolist()))


def _region_hex(region) -> list[str]:
    """The class and float.hex parameters of a region's parts, direction
    included."""
    words = []
    for part in region if isinstance(region, tuple) else (region,):
        words.append(type(part).__name__)
        for f in dataclasses.fields(part):
            value = getattr(part, f.name)
            words.extend(map(float.hex, np.ravel(value).tolist()))
    return words


def regions() -> None:
    """Print the regions around a few points of each shell, with their
    counts, and the Dirichlet approximations of APPROX_DIRECTIONS."""
    from nodal_lab.cli import parse_direction
    from nodal_lab.diophantine import approx_direction
    from nodal_lab.geometry import cone_region, count_in, slab_region
    from nodal_lab.lattice import enumerate_shell

    for m in REGION_MS:
        shell = enumerate_shell(m)
        for spec in DIRECTIONS:
            beta = parse_direction(spec).components
            for point in shell.coords[::max(1, shell.n // 4)]:
                for name, build, cs in (("cone", cone_region, CONE_CS),
                                        ("slab", slab_region, SLAB_CS)):
                    for c in cs:
                        region = build(point, beta, c)
                        print(m, spec, *point.tolist(), name, c, count_in(shell, region),
                              *_region_hex(region))
    for spec in APPROX_DIRECTIONS:
        for h_param in APPROX_HS:
            ap = approx_direction(parse_direction(spec), h_param)
            tau = ap.tau if ap.tau is None else float.hex(ap.tau)
            print(spec, h_param, *ap.a, float.hex(ap.angle_err), tau)


def kappas() -> None:
    """Print m, N and kappa of each shell of four or more points up to
    KAPPA_M_MAX, then of KAPPA_MS."""
    from nodal_lab.geometry import kappa
    from nodal_lab.lattice import enumerate_shell

    for m in (*range(1, KAPPA_M_MAX + 1), *KAPPA_MS):
        shell = enumerate_shell(m)
        if shell.n >= 4:
            print(m, shell.n, kappa(shell))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]))
    cli = "import sys; from nodal_lab.cli import main; sys.exit(main(sys.argv[1:]))"
    entries = {name: ["-c", cli, *args] for name, args in reports().items()}
    for name in ("library", "roots", "regions", "kappas"):
        entries[name] = ["-c", f"import report_matrix; report_matrix.{name}()"]
    for name, args in entries.items():
        done = subprocess.run([sys.executable, *args], env=env, cwd=out,
                              capture_output=True, check=False)
        (out / f"{name}.out").write_bytes(done.stdout)
        (out / f"{name}.err").write_bytes(done.stderr)
        (out / f"{name}.code").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
